// Engine scheduling on the modeled ZC702: the transform backends and
// per-stage time accounting. The paper's ARM, NEON, ARM+FPGA and adaptive
// configurations are four kinds of one SerialBackend; adaptivity, which the
// paper's future-work section asks for ("an adaptive system that
// intelligently selects between the NEON engine and the FPGA"), is its
// LineRouter policy, not a backend of its own.
//
// A backend executes the *same* numerics as every other backend (fused
// output is bit-identical across engines); what differs is the modeled time
// charged per line request. Cost-model constants are calibrated against the
// paper's measured curves — see DESIGN.md §2 and tests/test_sched.cpp.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "src/common/sim_time.h"
#include "src/fusion/dwt_fusion.h"
#include "src/fusion/fuse.h"
#include "src/fusion/fused_plan.h"
#include "src/hw/driver.h"
#include "src/hw/resources.h"
#include "src/image/metrics.h"
#include "src/power/recorder.h"
#include "src/sched/run_config.h"

namespace vf::sched {

// --- frame sweep ------------------------------------------------------------
// (FrameSize / paper_frame_sizes live in run_config.h since the PR 7 API
// redesign; this header re-exports them via the include above.)

struct FramePair {
  image::ImageF visible;
  image::ImageF thermal;
};

// Deterministic synthetic surveillance scene: a textured visible frame and a
// thermal frame whose hot target drifts with the frame index.
std::vector<FramePair> make_sweep_frames(const FrameSize& size, int count);

// --- time accounting --------------------------------------------------------

using dwt::Stage;

struct StageTimes {
  SimDuration prep, forward, fusion, inverse;
  SimDuration total() const { return prep + forward + fusion + inverse; }
};

// --- backends ---------------------------------------------------------------

// A backend is the LineFilter the fusion plan replays its accounting into:
// it charges modeled time per line request (account_*), fences dependent
// requests (barrier) and switches its stage ledger on begin_stage. Numerics
// come from kernels() (the dispatch set) on every backend, so fused output
// is bit-identical across engines; the *model*, not the host instruction
// set, decides what a backend represents.
class TransformBackend : public dwt::LineFilter {
 public:
  // Engine models keep pointers into their own backend (the batched
  // accelerator schedules on the backend's clocks), so a copy would alias.
  TransformBackend(const TransformBackend&) = delete;
  TransformBackend& operator=(const TransformBackend&) = delete;

  virtual const char* name() const = 0;
  virtual power::ComputeMode compute_mode() const = 0;

  // Host pool for the numeric half of a window of frames
  // (detail::measure_frames fans whole frames out over it). Affects only how
  // fast the host computes; every modeled time above is charged through the
  // account_* path, which one thread issues in frame order, and is
  // bit-identical at any pool width.
  ThreadPool* host_pool() const { return host_pool_; }

  void begin_frame() {
    times_ = {};
    pl_times_ = {};
  }
  void begin_stage(Stage s) override {
    if (s != stage_) on_stage_exit(stage_);
    stage_ = s;
  }
  Stage stage() const { return stage_; }
  const StageTimes& frame_times() const { return times_; }

  // Per-stage PL-resident portion of frame_times(): DMA transfers, engine
  // busy time, PS-waits-for-PL stalls. A frame-level pipeline may overlap
  // this with another frame's PS work; frame_times() minus this is the
  // work the PS core itself must execute.
  const StageTimes& frame_pl_times() const { return pl_times_; }

  // Adds modeled time to the current stage's ledger. Virtual so event-queue
  // backends can route generic PS charges onto a timeline instead.
  virtual void charge(SimDuration d);

  // Tags the PL-resident sub-portion of time already charged (never adds
  // to frame_times(), only to the split).
  void note_pl(SimDuration d);

  // The fusion rule always runs on the PS at scalar rates — the paper only
  // accelerates the transforms: two magnitude charges, then the select.
  void account_select_band(int n) override;

  // Called by the runner once the frame's last stage is complete; backends
  // with in-flight work (batched submission) drain and reconcile here.
  virtual void finish_frame() {}

  // Frame prep/conversion runs on the ARM regardless of engine.
  SimDuration prep_time(int pixels) const;

 protected:
  explicit TransformBackend(const HostConfig& host = {})
      : host_pool_(host::pool(host)) {}
  void ledger_add(Stage s, SimDuration d);
  void ledger_add_pl(Stage s, SimDuration d);
  virtual void on_stage_exit(Stage old_stage) { (void)old_stage; }

 private:
  StageTimes times_;
  StageTimes pl_times_;
  Stage stage_ = Stage::kPrep;
  ThreadPool* host_pool_ = nullptr;
};

namespace detail {

// Throws std::invalid_argument if a filter bank cannot fit the modeled
// engine's coefficient shift-register chain (`slots` for analysis,
// `slots + 2` for synthesis).
void check_engine_fit(const hw::WaveletEngineConfig& engine, int taps,
                      bool synthesis);

}  // namespace detail

// Per-line NEON/FPGA routing decision + statistics: a line goes to the
// FPGA when it has at least `threshold_samples` and at most `max_samples`
// samples.
class LineRouter {
 public:
  LineRouter(int threshold_samples, int max_samples)
      : threshold_(threshold_samples), max_(max_samples) {}

  // `line_samples` is the full line request size (payload + filter window),
  // i.e. the number of words the driver would ship to the engine.
  bool use_fpga(int line_samples) {
    const bool fpga = line_samples >= threshold_ && line_samples <= max_;
    (fpga ? fpga_lines_ : simd_lines_) += 1;
    return fpga;
  }

  long long lines_on_fpga() const { return fpga_lines_; }
  long long lines_on_simd() const { return simd_lines_; }

 private:
  int threshold_;
  int max_;
  long long fpga_lines_ = 0;
  long long simd_lines_ = 0;
};

// The paper's four serial configurations as one additive-ledger model: each
// line request is charged either at the CPU line cost (hw::cost, ARM or NEON
// factors) or, one driver call per line, to the WaveletAccelerator (the
// paper's calibrated Fig. 9/10 engine model). A LineRouter picks the engine
// per line: a request shorter than its threshold runs on the CPU. The kind
// sets the CPU factors, the threshold, name() and compute_mode():
//   kArm       ARM model, no line on the engine;
//   kNeon      NEON model, no line on the engine;
//   kFpga      threshold 0: every line on the engine (static ARM+FPGA); a
//              line longer than the engine's kernel buffer throws
//              std::invalid_argument;
//   kAdaptive  threshold RunConfig::adaptive_threshold_samples, short lines
//              on the NEON model. A line longer than the kernel buffer
//              (engine.buffer_words) degrades to the NEON model too, so
//              Adaptive accepts every shape ARM and NEON accept; its time
//              is then NEON's for those lines.
// kFpgaBatched is BatchedFpgaBackend's (pipeline.h) and throws
// std::invalid_argument here.
class SerialBackend final : public TransformBackend {
 public:
  explicit SerialBackend(BackendKind kind, const RunConfig& config = {});
  const char* name() const override { return backend_name(kind_); }
  power::ComputeMode compute_mode() const override;

  void account_analyze_lines(int lines, int out_len, int taps) override {
    charge_lines(lines, out_len, taps, analysis_factor_, /*synthesis=*/false);
  }
  void account_synthesize_lines(int lines, int pairs, int taps) override {
    charge_lines(lines, pairs, taps, synthesis_factor_, /*synthesis=*/true);
  }

  const LineRouter& router() const { return router_; }
  const driver::WaveletAccelerator& accelerator() const { return accel_; }

 private:
  // Routes and charges a run line by line: the ledger sums non-integral
  // seconds, so only the per-line order reproduces its bits.
  void charge_lines(int lines, int outputs, int taps, double cpu_factor,
                    bool synthesis);

  BackendKind kind_;
  // CPU line-cost factors (hw::cost): 1 on the ARM, the NEON stage factors
  // on every other kind (the adaptive router's short lines run on NEON).
  double analysis_factor_;
  double synthesis_factor_;
  driver::WaveletAccelerator accel_;
  LineRouter router_;
};

// --- probing / timed runs ---------------------------------------------------

struct FrameRunResult {
  StageTimes times;
  StageTimes pl_times;  // PL-resident portion of `times` (see frame_pl_times)
  image::ImageF fused;
};

// Runs the full fusion pipeline on one backend, clocking each stage.
class TimedFusionRunner {
 public:
  explicit TimedFusionRunner(TransformBackend& backend,
                             fusion::FuseConfig config = {})
      : backend_(backend), config_(config) {}

  // Fuses one frame pair through the band-streaming dwt::FusionPlan and
  // replays its accounting (replay_frame_pair). Throws
  // std::invalid_argument when the two frames differ in shape.
  FrameRunResult run_frame_pair(const image::ImageF& visible,
                                const image::ImageF& thermal);

  // The accounting half of run_frame_pair for a frame pair of `plan`'s shape
  // whose numerics ran elsewhere through plan.fuse(): the same backend call
  // sequence, so the same times; `fused` is left empty.
  FrameRunResult replay_frame_pair(const dwt::FusionPlan& plan);

 private:
  void begin_frame(int pixels);
  FrameRunResult end_frame();

  TransformBackend& backend_;
  fusion::FuseConfig config_;
};

namespace detail {

// Receives frame `index`'s fused image. Called once per frame, from the
// thread that fused it: with a host pool, concurrently for different frames
// and in no particular order.
using FusedSink = std::function<void(int index, image::ImageF&& fused)>;

// Pass 1 of run_pipelined and of each run_fleet stream: fuses every frame
// pair through `backend` and returns each frame's modeled stage times
// (FrameRunResult::fused left empty; the image goes to `sink`, or is dropped
// when the sink is empty).
//
// Every pair's shapes are checked first: a visible/thermal mismatch anywhere
// in the window throws std::invalid_argument before any numerics or
// accounting run. Numerics are FusionPlan::fuse, one plan per run of
// same-shape frames, each frame fused whole with scratch from the fusing
// thread's arena. The backend's accounting (TimedFusionRunner::
// replay_frame_pair) is issued by exactly one thread, in frame order, so
// the returned times and any captured stream trace equal a serial run's bit
// for bit. Without a host_pool() (or for a one-frame window) the caller
// fuses every frame, then accounts the window. With one, the window is a
// single parallel_for over the pool's threads: one task accounts the whole
// window while the others fuse, then joins them; frames are claimed one at
// a time from a shared counter. An exception from either half (e.g.
// check_engine_fit) reaches the caller once every task has finished.
std::vector<FrameRunResult> measure_frames(TransformBackend& backend,
                                           const fusion::FuseConfig& config,
                                           const std::vector<FramePair>& frames,
                                           const FusedSink& sink = {});

}  // namespace detail

struct ProbeResult {
  SimDuration prep, forward, fusion, inverse, total;
  double energy_mj = 0.0;
  int frames = 0;
};

// Fuses `frames` consecutive frame pairs at `size` on `backend` and returns
// accumulated modeled times and energy.
ProbeResult probe_backend(TransformBackend& backend, const FrameSize& size,
                          int frames, const fusion::FuseConfig& config = {});

}  // namespace vf::sched
