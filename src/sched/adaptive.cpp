#include "src/sched/adaptive.h"

#include <atomic>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "src/common/rng.h"
#include "src/fusion/fused_plan.h"
#include "src/hw/clock.h"
#include "src/simd/kernels.h"

namespace vf::sched {

// --- frame sweep ------------------------------------------------------------

std::string FrameSize::label() const {
  return std::to_string(width) + "x" + std::to_string(height);
}

std::vector<FrameSize> paper_frame_sizes() {
  return {{32, 24}, {35, 35}, {40, 40}, {64, 48}, {88, 72}};
}

std::vector<FramePair> make_sweep_frames(const FrameSize& size, int count) {
  std::vector<FramePair> pairs;
  pairs.reserve(count);
  const int rows = size.height;
  const int cols = size.width;
  for (int f = 0; f < count; ++f) {
    Rng rng(0x5eedull * (f + 1) + 13u * rows + 7u * cols);
    FramePair pair;
    pair.visible = image::ImageF(rows, cols);
    pair.thermal = image::ImageF(rows, cols);
    // Scene geometry: a building edge and a window block the visible camera
    // sees, and a warm target the thermal camera sees drifting across.
    const float edge_col = 0.35f * cols;
    const float win_r0 = 0.2f * rows, win_r1 = 0.45f * rows;
    const float win_c0 = 0.55f * cols, win_c1 = 0.8f * cols;
    const float tr = rows * (0.3f + 0.04f * f);
    const float tc = cols * (0.2f + 0.06f * f);
    const float sigma = 0.08f * (rows + cols);
    for (int r = 0; r < rows; ++r) {
      for (int c = 0; c < cols; ++c) {
        // Visible: illumination ramp + texture + structures + sensor noise.
        float vis = 0.35f + 0.25f * static_cast<float>(r) / rows;
        vis += 0.08f * std::sin(0.55f * c) * std::cos(0.35f * r);
        if (c < edge_col) vis += 0.18f;
        if (r > win_r0 && r < win_r1 && c > win_c0 && c < win_c1) vis -= 0.22f;
        vis += rng.next_float(-0.02f, 0.02f);
        // Thermal: cool scene, faint structure bleed-through, hot target.
        float th = 0.12f + 0.05f * static_cast<float>(c) / cols;
        if (c < edge_col) th += 0.04f;
        const float dr = r - tr, dc = c - tc;
        th += 0.75f * std::exp(-(dr * dr + dc * dc) / (2.0f * sigma * sigma));
        th += rng.next_float(-0.015f, 0.015f);
        pair.visible(r, c) = vis < 0.0f ? 0.0f : (vis > 1.0f ? 1.0f : vis);
        pair.thermal(r, c) = th < 0.0f ? 0.0f : (th > 1.0f ? 1.0f : th);
      }
    }
    pairs.push_back(std::move(pair));
  }
  return pairs;
}

namespace {
void stage_add(StageTimes* times, Stage s, SimDuration d) {
  switch (s) {
    case Stage::kPrep:
      times->prep += d;
      break;
    case Stage::kForward:
      times->forward += d;
      break;
    case Stage::kFusion:
      times->fusion += d;
      break;
    case Stage::kInverse:
      times->inverse += d;
      break;
  }
}
}  // namespace

void TransformBackend::charge(SimDuration d) { ledger_add(stage_, d); }

void TransformBackend::note_pl(SimDuration d) { ledger_add_pl(stage_, d); }

void TransformBackend::account_select_band(int n) {
  const SimDuration magnitude =
      hw::ps_cycles(hw::cost::kCpuMagnitudeCyclesPerSample * n);
  charge(magnitude);
  charge(magnitude);
  charge(hw::ps_cycles(hw::cost::kCpuSelectCyclesPerSample * n));
}

void TransformBackend::ledger_add(Stage s, SimDuration d) {
  stage_add(&times_, s, d);
}

void TransformBackend::ledger_add_pl(Stage s, SimDuration d) {
  stage_add(&pl_times_, s, d);
}

SimDuration TransformBackend::prep_time(int pixels) const {
  return hw::ps_cycles(hw::cost::kCpuPrepCyclesPerPixel * pixels);
}

namespace detail {

// A bank only runs on the engine if its coefficients fit the shift-register
// chain: `slots` for analysis, `slots + 2` for the interleaved synthesis
// window (the polyphase pair skews the chain by two stages). Modeling a line
// the hardware cannot hold would produce plausible-looking nonsense, so
// refuse (e.g. the paper's 12-slot engine cannot run the 14-tap q-shift
// banks — see bench_ablation_taps).
void check_engine_fit(const hw::WaveletEngineConfig& engine, int taps,
                      bool synthesis) {
  const int limit = engine.slots + (synthesis ? 2 : 0);
  if (taps > limit) {
    throw std::invalid_argument(
        std::to_string(taps) + "-tap " + (synthesis ? "synthesis" : "analysis") +
        " filter does not fit the modeled wavelet engine (" +
        std::to_string(engine.slots) + " coefficient slots)");
  }
}

}  // namespace detail

// --- serial backend ---------------------------------------------------------

namespace {
int router_threshold(BackendKind kind, const RunConfig& config) {
  switch (kind) {
    case BackendKind::kFpga:
      return 0;
    case BackendKind::kAdaptive:
      return config.adaptive_threshold_samples;
    case BackendKind::kArm:
    case BackendKind::kNeon:
      return std::numeric_limits<int>::max();  // never the engine
    case BackendKind::kFpgaBatched:
      break;
  }
  throw std::invalid_argument(std::string("SerialBackend cannot model ") +
                              backend_name(kind));
}

// PS cycles of one CPU line request of `samples` outputs: the named constants
// reproduce the paper's absolute times (roughly 70 cycles per float MAC on
// the A9) and, through `factor`, its NEON deltas (-10% forward, -16%
// inverse; 1 on the ARM).
double cpu_line_cycles(double factor, int samples, int taps) {
  using namespace hw::cost;
  return kCpuLineOverheadCycles +
         factor * samples * (kCpuPerSampleBaseCycles + kCpuPerSampleTapCycles * taps);
}
}  // namespace

SerialBackend::SerialBackend(BackendKind kind, const RunConfig& config)
    : TransformBackend(config.host),
      kind_(kind),
      analysis_factor_(kind == BackendKind::kArm ? 1.0
                                                 : hw::cost::kNeonAnalysisFactor),
      synthesis_factor_(kind == BackendKind::kArm ? 1.0
                                                  : hw::cost::kNeonSynthesisFactor),
      accel_(config.engine, config.driver_costs),
      router_(router_threshold(kind, config),
              kind == BackendKind::kAdaptive ? config.engine.buffer_words
                                             : std::numeric_limits<int>::max()) {}

power::ComputeMode SerialBackend::compute_mode() const {
  switch (kind_) {
    case BackendKind::kArm:
      return power::ComputeMode::kArmOnly;
    case BackendKind::kNeon:
      return power::ComputeMode::kArmNeon;
    default:
      return power::ComputeMode::kArmFpga;  // bitstream stays loaded
  }
}

// The router's per-line decision affects only modeled time (every engine
// model executes bit-identical numerics), so routing — including the
// router's own line counters — lives entirely in accounting, where it runs
// serially in canonical line order at any thread count. The engine-fit check
// lives there too: it depends only on the request shape, and accounting sees
// every request exactly once, in order — so the refusal fires at any pool
// width for unfittable banks.
void SerialBackend::charge_lines(int lines, int outputs, int taps,
                                 double cpu_factor, bool synthesis) {
  const int words_in = 2 * outputs + taps;
  for (int i = 0; i < lines; ++i) {
    if (router_.use_fpga(words_in)) {
      detail::check_engine_fit(accel_.engine(), taps, synthesis);
      charge(accel_.line_time(
          words_in, 2 * outputs,
          hw::cost::engine_compute_cycles(outputs, accel_.engine().slots)));
      note_pl(accel_.last_line_pl_time());
    } else {
      charge(hw::ps_cycles(cpu_line_cycles(cpu_factor, 2 * outputs, taps)));
    }
  }
}

// --- probing ----------------------------------------------------------------

void TimedFusionRunner::begin_frame(int pixels) {
  backend_.begin_frame();
  backend_.begin_stage(Stage::kPrep);
  backend_.charge(backend_.prep_time(pixels));
}

FrameRunResult TimedFusionRunner::end_frame() {
  backend_.finish_frame();
  FrameRunResult result;
  result.times = backend_.frame_times();
  result.pl_times = backend_.frame_pl_times();
  return result;
}

FrameRunResult TimedFusionRunner::replay_frame_pair(const dwt::FusionPlan& plan) {
  // The plan's replay enters the forward, fusion and inverse stages where
  // the staged pass would (begin_stage).
  begin_frame(2 * plan.rows() * plan.cols());
  plan.replay(backend_);
  return end_frame();
}

FrameRunResult TimedFusionRunner::run_frame_pair(const image::ImageF& visible,
                                                 const image::ImageF& thermal) {
  // The numerics make no backend calls, so they may run before the frame's
  // accounting opens.
  const dwt::FusionPlan plan(visible.rows(), visible.cols(), config_.transform);
  image::ImageF fused = plan.fuse(visible, thermal, backend_.kernels());
  FrameRunResult result = replay_frame_pair(plan);
  result.fused = std::move(fused);
  return result;
}

namespace detail {

std::vector<FrameRunResult> measure_frames(TransformBackend& backend,
                                           const fusion::FuseConfig& config,
                                           const std::vector<FramePair>& frames,
                                           const FusedSink& sink) {
  // Every shape is checked before any numerics or accounting run, so a bad
  // pair cannot surface only after part of the window was accounted.
  // Consecutive frames of one shape share a plan.
  const int n = static_cast<int>(frames.size());
  std::vector<dwt::FusionPlan> plans;
  std::vector<std::size_t> plan_of(frames.size());
  for (std::size_t i = 0; i < frames.size(); ++i) {
    const image::ImageF& v = frames[i].visible;
    const image::ImageF& t = frames[i].thermal;
    if (t.rows() != v.rows() || t.cols() != v.cols()) {
      throw std::invalid_argument(
          "measure_frames: frame " + std::to_string(i) + " pairs a " +
          std::to_string(v.rows()) + "x" + std::to_string(v.cols()) +
          " visible image with a " + std::to_string(t.rows()) + "x" +
          std::to_string(t.cols()) + " thermal image (rows x cols)");
    }
    if (plans.empty() || plans.back().rows() != v.rows() ||
        plans.back().cols() != v.cols()) {
      plans.emplace_back(v.rows(), v.cols(), config.transform);
    }
    plan_of[i] = plans.size() - 1;
  }

  // Numerics only read the frames and plans and write their own frames'
  // images; accounting is one thread walking the window in frame order.
  const simd::KernelSet& kernels = backend.kernels();
  const auto fuse_frame = [&](int i) {
    const std::size_t f = static_cast<std::size_t>(i);
    image::ImageF fused =
        plans[plan_of[f]].fuse(frames[f].visible, frames[f].thermal, kernels);
    if (sink) sink(i, std::move(fused));
  };
  std::vector<FrameRunResult> out;
  out.reserve(frames.size());
  const auto account_window = [&] {
    TimedFusionRunner runner(backend, config);
    for (std::size_t f = 0; f < frames.size(); ++f) {
      out.push_back(runner.replay_frame_pair(plans[plan_of[f]]));
    }
  };

  ThreadPool* pool = backend.host_pool();
  if (!pool || n < 2) {
    for (int i = 0; i < n; ++i) fuse_frame(i);
    account_window();
    return out;
  }
  // One fork/join per window: a frame is the smallest chunk that amortizes
  // waking a worker (a line never does). Task 0 accounts the whole window
  // while the other tasks fuse, then joins them; frames are claimed one at
  // a time, so whoever finishes early takes the rest. The join orders the
  // accounting's writes to `out` before the return.
  std::atomic<int> next{0};
  pool->parallel_for(0, pool->threads(), [&](int task, int) {
    if (task == 0) account_window();
    for (int i; (i = next.fetch_add(1, std::memory_order_relaxed)) < n;) {
      fuse_frame(i);
    }
  });
  return out;
}

}  // namespace detail

ProbeResult probe_backend(TransformBackend& backend, const FrameSize& size,
                          int frames, const fusion::FuseConfig& config) {
  TimedFusionRunner runner(backend, config);
  const std::vector<FramePair> pairs = make_sweep_frames(size, frames);
  ProbeResult probe;
  probe.frames = frames;
  for (const FramePair& pair : pairs) {
    const FrameRunResult r = runner.run_frame_pair(pair.visible, pair.thermal);
    probe.prep += r.times.prep;
    probe.forward += r.times.forward;
    probe.fusion += r.times.fusion;
    probe.inverse += r.times.inverse;
  }
  probe.total = probe.prep + probe.forward + probe.fusion + probe.inverse;
  probe.energy_mj = power::energy_mj(backend.compute_mode(), probe.total);
  return probe;
}

}  // namespace vf::sched
