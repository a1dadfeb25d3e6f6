// Host-parallel execution contract (thread_pool.h + the frame fan-out in
// sched::detail::measure_frames): any --threads width computes bit-identical
// numerics AND leaves the modeled ZC702 output bit-identical, because each
// frame's numerics run whole on one worker and accounting replays serially
// in canonical frame order. These tests pin both halves of that contract,
// and pin the fused plan to the staged per-line reference it replaces for
// frame pairs: same calls, same bits.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/fusion/fuse.h"
#include "src/fusion/fused_plan.h"
#include "src/sched/adaptive.h"
#include "src/sched/pipeline.h"
#include "src/simd/dispatch.h"

namespace {

using namespace vf;

// --- pool mechanics ---------------------------------------------------------

TEST(ThreadPool, StaticPartitionCoversRangeOnce) {
  ThreadPool pool(4);
  for (int n : {1, 2, 3, 4, 5, 7, 16, 61, 72, 88}) {
    std::vector<int> hits(static_cast<std::size_t>(n), 0);
    std::vector<std::pair<int, int>> chunks;
    std::mutex m;
    pool.parallel_for(0, n, [&](int b, int e) {
      std::lock_guard<std::mutex> lock(m);
      chunks.emplace_back(b, e);
      for (int i = b; i < e; ++i) ++hits[static_cast<std::size_t>(i)];
    });
    for (int i = 0; i < n; ++i) EXPECT_EQ(hits[static_cast<std::size_t>(i)], 1) << i;
    // Static partition: sorted chunks tile [0, n) contiguously, sizes differ
    // by at most one, and there are min(threads, n) of them.
    std::sort(chunks.begin(), chunks.end());
    EXPECT_EQ(static_cast<int>(chunks.size()), std::min(4, n));
    int expect_begin = 0, min_sz = n, max_sz = 0;
    for (const auto& [b, e] : chunks) {
      EXPECT_EQ(b, expect_begin);
      expect_begin = e;
      min_sz = std::min(min_sz, e - b);
      max_sz = std::max(max_sz, e - b);
    }
    EXPECT_EQ(expect_begin, n);
    EXPECT_LE(max_sz - min_sz, 1);
  }
}

TEST(ThreadPool, OffsetRangeAndEmptyRange) {
  ThreadPool pool(3);
  std::vector<int> hits(10, 0);
  pool.parallel_for(4, 9, [&](int b, int e) {
    for (int i = b; i < e; ++i) ++hits[static_cast<std::size_t>(i)];
  });
  for (int i = 0; i < 10; ++i) EXPECT_EQ(hits[static_cast<std::size_t>(i)],
                                         i >= 4 && i < 9 ? 1 : 0);
  bool called = false;
  pool.parallel_for(5, 5, [&](int, int) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, NestedParallelForRunsInline) {
  ThreadPool pool(4);
  std::atomic<int> inner_chunks{0};
  std::atomic<int> outer_chunks{0};
  pool.parallel_for(0, 4, [&](int b, int e) {
    ++outer_chunks;
    // From a worker the nested call must run the whole range as one inline
    // chunk — no new job submission, no deadlock.
    pool.parallel_for(0, 8, [&](int ib, int ie) {
      ++inner_chunks;
      EXPECT_EQ(ib, 0);
      EXPECT_EQ(ie, 8);
    });
    (void)b;
    (void)e;
  });
  EXPECT_EQ(outer_chunks.load(), 4);
  EXPECT_EQ(inner_chunks.load(), 4);
}

TEST(ThreadPool, ChunkExceptionReachesTheCaller) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  EXPECT_THROW(pool.parallel_for(0, 8,
                                 [&](int b, int) {
                                   ++ran;
                                   if (b >= 4) throw std::runtime_error("chunk");
                                 }),
               std::runtime_error);
  EXPECT_EQ(ran.load(), 4);  // every chunk still ran to completion
  std::atomic<int> after{0};
  pool.parallel_for(0, 8, [&](int b, int e) { after += e - b; });
  EXPECT_EQ(after.load(), 8);  // and the pool stays usable
}

TEST(HostPoolRegistry, SerialWidthsHaveNoPool) {
  // Library default is serial: HostConfig{} resolves to 1 thread -> nullptr.
  EXPECT_EQ(host::default_threads(), 1);
  EXPECT_EQ(host::pool(HostConfig{}), nullptr);
  EXPECT_EQ(host::pool(HostConfig{1}), nullptr);
  ThreadPool* p4 = host::pool(HostConfig{4});
  if (host::kMaxThreads == 1) {
    EXPECT_EQ(p4, nullptr);  // -DVF_THREADS=1 build: threading compiled out
  } else {
    ASSERT_NE(p4, nullptr);
    EXPECT_EQ(p4->threads(),
              host::kMaxThreads > 0 ? std::min(4, host::kMaxThreads) : 4);
    EXPECT_EQ(host::pool(HostConfig{4}), p4);  // registry caches per width
  }
}

// --- bit-identity across thread counts --------------------------------------

std::uint64_t fnv1a(const float* data, std::size_t n) {
  std::uint64_t h = 1469598103934665603ull;
  for (std::size_t i = 0; i < n * sizeof(float); ++i) {
    h ^= reinterpret_cast<const unsigned char*>(data)[i];
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t hash_image(const image::ImageF& img) {
  return fnv1a(img.data(), img.size());
}

bool same_bits(const image::ImageF& a, const image::ImageF& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

const int kThreadWidths[] = {1, 2, 8};

// Every worker fuses the same frame pair at once, each in its own arena: the
// concurrent results must all match the serial fuse_frames bits.
TEST(HostParallelIdentity, FusedImageBitsInvariantAcrossThreads) {
  const auto frames = sched::make_sweep_frames({88, 72}, 1);
  dwt::SimdLineFilter serial;
  const image::ImageF want =
      fusion::fuse_frames(frames[0].visible, frames[0].thermal, {}, serial);
  const dwt::FusionPlan plan(72, 88, fusion::FuseConfig{}.transform);
  for (int n : kThreadWidths) {
    ThreadPool pool(n);
    std::vector<image::ImageF> got(static_cast<std::size_t>(2 * n));
    pool.parallel_for(0, 2 * n, [&](int b, int e) {
      for (int i = b; i < e; ++i) {
        got[static_cast<std::size_t>(i)] =
            plan.fuse(frames[0].visible, frames[0].thermal, serial.kernels());
      }
    });
    for (const image::ImageF& img : got) {
      EXPECT_EQ(hash_image(img), hash_image(want)) << "threads=" << n;
    }
  }
}

// MAC statistics are accounting: numerics on pool workers, then the replay
// on the caller, must count exactly what the serial fuse_frames counts.
TEST(HostParallelIdentity, FilterStatsInvariantAcrossThreads) {
  const auto frames = sched::make_sweep_frames({64, 48}, 4);
  dwt::ScalarLineFilter serial;
  for (const sched::FramePair& pair : frames) {
    (void)fusion::fuse_frames(pair.visible, pair.thermal, {}, serial);
  }
  const dwt::FusionPlan plan(48, 64, fusion::FuseConfig{}.transform);
  for (int n : {2, 8}) {
    ThreadPool pool(n);
    dwt::ScalarLineFilter split;
    pool.parallel_for(0, static_cast<int>(frames.size()), [&](int b, int e) {
      for (int i = b; i < e; ++i) {
        const sched::FramePair& pair = frames[static_cast<std::size_t>(i)];
        (void)plan.fuse(pair.visible, pair.thermal, split.kernels());
      }
    });
    for (std::size_t i = 0; i < frames.size(); ++i) plan.replay(split);
    EXPECT_EQ(split.stats().analysis_macs, serial.stats().analysis_macs);
    EXPECT_EQ(split.stats().synthesis_macs, serial.stats().synthesis_macs);
    EXPECT_EQ(split.stats().analysis_lines, serial.stats().analysis_lines);
    EXPECT_EQ(split.stats().synthesis_lines, serial.stats().synthesis_lines);
  }
}

const sched::BackendKind kAllBackends[] = {
    sched::BackendKind::kArm, sched::BackendKind::kNeon,
    sched::BackendKind::kFpga, sched::BackendKind::kFpgaBatched,
    sched::BackendKind::kAdaptive};

// Every modeled backend through the frame fan-out: per-frame stage times and
// probe energy bit-identical at any width.
TEST(HostParallelIdentity, ModeledProbeInvariantAcrossThreads) {
  const sched::FrameSize size{88, 72};
  const auto frames = sched::make_sweep_frames(size, 3);
  for (const sched::BackendKind kind : kAllBackends) {
    std::vector<sched::FrameRunResult> ref;
    for (int n : kThreadWidths) {
      sched::RunConfig run;
      run.host.threads = n;
      const auto b = sched::make_backend(kind, run);
      const std::vector<sched::FrameRunResult> got =
          sched::detail::measure_frames(*b, run.fuse, frames);
      ASSERT_EQ(got.size(), frames.size());
      if (n == 1) {
        ref = got;
        // The fan-out's serial case is the probe's own loop.
        const auto probe_backend = sched::make_backend(kind, run);
        const sched::ProbeResult probe =
            sched::probe_backend(*probe_backend, size, 3);
        sched::StageTimes sum;
        for (const auto& r : got) {
          sum.prep += r.times.prep;
          sum.forward += r.times.forward;
          sum.fusion += r.times.fusion;
          sum.inverse += r.times.inverse;
        }
        EXPECT_TRUE(sum.total() == probe.total) << sched::backend_name(kind);
        continue;
      }
      for (std::size_t f = 0; f < got.size(); ++f) {
        EXPECT_TRUE(got[f].times.prep == ref[f].times.prep) << sched::backend_name(kind);
        EXPECT_TRUE(got[f].times.forward == ref[f].times.forward)
            << sched::backend_name(kind) << " threads=" << n;
        EXPECT_TRUE(got[f].times.fusion == ref[f].times.fusion) << sched::backend_name(kind);
        EXPECT_TRUE(got[f].times.inverse == ref[f].times.inverse)
            << sched::backend_name(kind);
        EXPECT_TRUE(got[f].pl_times.total() == ref[f].pl_times.total())
            << sched::backend_name(kind);
      }
    }
  }
}

// The frame fan-out itself: through the sink, every frame's fused image
// arrives exactly once and equals the width-1 run_frame_pair output bit for
// bit — for a single frame, fewer frames than workers, many frames per
// worker, an odd shape, and a window that changes shape mid-way.
TEST(HostParallelIdentity, FrameFanOutMatchesSerialRunFramePair) {
  std::vector<std::vector<sched::FramePair>> windows;
  for (const sched::FrameSize size : {sched::FrameSize{88, 72}, sched::FrameSize{33, 25}}) {
    for (int count : {1, 3, 64}) windows.push_back(sched::make_sweep_frames(size, count));
  }
  std::vector<sched::FramePair> mixed = sched::make_sweep_frames({33, 25}, 2);
  for (auto& pair : sched::make_sweep_frames({88, 72}, 3)) mixed.push_back(std::move(pair));
  mixed.push_back(sched::make_sweep_frames({33, 25}, 1)[0]);
  windows.push_back(std::move(mixed));

  for (const std::vector<sched::FramePair>& frames : windows) {
    const int count = static_cast<int>(frames.size());
    const std::string label = std::to_string(frames[0].visible.cols()) + "x" +
                              std::to_string(frames[0].visible.rows()) + " x" +
                              std::to_string(count);
    sched::RunConfig serial_run;
    serial_run.host.threads = 1;
    const auto serial_backend =
        sched::make_backend(sched::BackendKind::kFpgaBatched, serial_run);
    sched::TimedFusionRunner runner(*serial_backend, serial_run.fuse);
    std::vector<sched::FrameRunResult> want;
    for (const sched::FramePair& pair : frames) {
      want.push_back(runner.run_frame_pair(pair.visible, pair.thermal));
    }
    for (int n : {1, 2, 4, 8}) {
      sched::RunConfig run;
      run.host.threads = n;
      const auto backend = sched::make_backend(sched::BackendKind::kFpgaBatched, run);
      std::vector<image::ImageF> got(frames.size());
      std::vector<std::atomic<int>> calls(frames.size());
      std::atomic<int> out_of_range{0};
      const std::vector<sched::FrameRunResult> results = sched::detail::measure_frames(
          *backend, run.fuse, frames, [&](int i, image::ImageF&& fused) {
            if (i < 0 || i >= count) {
              ++out_of_range;
              return;
            }
            ++calls[static_cast<std::size_t>(i)];
            got[static_cast<std::size_t>(i)] = std::move(fused);
          });
      EXPECT_EQ(out_of_range.load(), 0) << label;
      ASSERT_EQ(results.size(), frames.size()) << label;
      for (std::size_t f = 0; f < frames.size(); ++f) {
        EXPECT_EQ(calls[f].load(), 1) << label << " threads=" << n << " frame " << f;
        EXPECT_TRUE(same_bits(got[f], want[f].fused))
            << label << " threads=" << n << " frame " << f;
        EXPECT_EQ(results[f].fused.size(), 0u) << label;
        EXPECT_TRUE(results[f].times.total() == want[f].times.total())
            << label << " threads=" << n << " frame " << f;
        EXPECT_TRUE(results[f].pl_times.total() == want[f].pl_times.total())
            << label << " threads=" << n << " frame " << f;
      }
    }
  }
}

// Shapes are checked before any work: a mismatched last pair throws before
// the first frame is fused or accounted, at every pool width.
TEST(HostParallelIdentity, MismatchedPairThrowsBeforeAnyWork) {
  for (const int width : {1, 2}) {
    std::vector<sched::FramePair> frames = sched::make_sweep_frames({88, 72}, 8);
    frames.back().thermal = image::ImageF(72, 87);
    sched::RunConfig rc;
    rc.host.threads = width;
    sched::BatchedFpgaBackend backend(rc);
    std::atomic<int> fused{0};
    EXPECT_THROW(sched::detail::measure_frames(
                     backend, rc.fuse, frames,
                     [&](int, image::ImageF&&) { ++fused; }),
                 std::invalid_argument)
        << "width " << width;
    EXPECT_EQ(fused.load(), 0) << "width " << width;
    EXPECT_EQ(backend.accelerator().lines(), 0) << "width " << width;
  }
}

// A bank the engine cannot hold (the 14-tap q-shift levels on a 12-slot
// engine) is refused in accounting; with the accounting on a pool thread
// the refusal still reaches the caller as an exception.
TEST(HostParallelIdentity, EngineFitRefusalReachesTheCallerAtAnyWidth) {
  const auto frames = sched::make_sweep_frames({40, 40}, 4);
  for (const int width : {1, 2}) {
    sched::RunConfig rc;
    rc.host.threads = width;
    rc.engine.slots = 12;
    sched::BatchedFpgaBackend backend(rc);
    EXPECT_THROW(sched::run_pipelined(backend, frames, rc), std::invalid_argument)
        << "width " << width;
  }
}

// The event-queue pipeline schedule too: makespan/ledger/energy bit-identical.
TEST(HostParallelIdentity, PipelinedRunInvariantAcrossThreads) {
  const auto stream = sched::make_sweep_frames({88, 72}, 4);
  sched::PipelineRunResult ref;
  for (int i = 0; i < 3; ++i) {
    sched::RunConfig rc;
    rc.host.threads = kThreadWidths[i];
    sched::BatchedFpgaBackend backend(rc);
    const sched::PipelineRunResult run = sched::run_pipelined(backend, stream);
    if (i == 0) {
      ref = run;
      continue;
    }
    EXPECT_TRUE(run.makespan == ref.makespan) << "threads=" << kThreadWidths[i];
    EXPECT_TRUE(run.serial_total == ref.serial_total);
    EXPECT_TRUE(run.ps_busy == ref.ps_busy);
    EXPECT_TRUE(run.pl_busy == ref.pl_busy);
    EXPECT_EQ(run.energy_mj, ref.energy_mj);
    EXPECT_EQ(run.energy_gated_mj, ref.energy_gated_mj);
  }
}

// --- one host path: the fused plan against the staged reference ------------

// The staged pass with the timed runner's stage points: each stage of
// forward_dtcwt x2 -> fuse_pyramids -> inverse_dtcwt preceded by its
// begin_stage.
image::ImageF staged_fuse(const image::ImageF& a, const image::ImageF& b,
                          const dwt::TransformConfig& config, dwt::LineFilter& f) {
  f.begin_stage(dwt::Stage::kForward);
  const dwt::DtcwtPyramid pa = dwt::forward_dtcwt(a, config, f);
  const dwt::DtcwtPyramid pb = dwt::forward_dtcwt(b, config, f);
  f.begin_stage(dwt::Stage::kFusion);
  dwt::DtcwtPyramid fused;
  fusion::fuse_pyramids(pa, pb, &fused, f);
  f.begin_stage(dwt::Stage::kInverse);
  return dwt::inverse_dtcwt(fused, config, f);
}

// One filter call as a backend sees it: 'a'nalyze or 's'ynthesize (one
// entry per line of a run), 'x' one select band, 'b'arrier, or begin_stage
// 'F'/'U'/'I'.
struct Call {
  char what;
  int n, taps;
  bool operator==(const Call& o) const {
    return what == o.what && n == o.n && taps == o.taps;
  }
};

// Logs every line a run charges with its arguments, every select band,
// every barrier() and every begin_stage. Every backend's modeled time is a
// function of this sequence.
class RecordingFilter : public dwt::LineFilter {
 public:
  void barrier() override { log.push_back({'b', 0, 0}); }
  void account_analyze_lines(int lines, int out_len, int taps) override {
    log.insert(log.end(), lines, Call{'a', out_len, taps});
  }
  void account_synthesize_lines(int lines, int pairs, int taps) override {
    log.insert(log.end(), lines, Call{'s', pairs, taps});
  }
  void account_select_band(int n) override { log.push_back({'x', n, 0}); }

  void begin_stage(dwt::Stage stage) override {
    log.push_back({"PFUI"[static_cast<int>(stage)], 0, 0});
  }

  std::vector<Call> log;
};

// Shapes that are all block tail (1x16, 16x1), straddle the 8-line block
// edge (9x7, 33x25), have odd rows at scale (88x71), and the paper's
// sizes whose packed planes (two chains of hc columns side by side) sit on
// each lane-width block edge (2hc = 32, 16 and 8 at 32x24) or pad odd deep
// levels (35x35, 40x40), plus the paper's largest frame. Every test below
// runs them at levels 1 to kPathLevels.
const sched::FrameSize kPathSizes[] = {{9, 7},   {33, 25}, {1, 16},  {16, 1},
                                       {32, 24}, {35, 35}, {40, 40}, {88, 71},
                                       {88, 72}};
constexpr int kPathLevels = 6;

// FusionPlan::run must issue exactly the staged pass's calls, in the same
// order, with the stage changes at the same points, and fuse the same bits.
TEST(HostPathIdentity, PlanReplaysTheStagedCallSequence) {
  for (const sched::FrameSize& size : kPathSizes) {
    const auto frames = sched::make_sweep_frames(size, 1);
    for (int levels = 1; levels <= kPathLevels; ++levels) {
      const std::string label = size.label() + " levels=" + std::to_string(levels);
      dwt::TransformConfig config;
      config.levels = levels;
      RecordingFilter staged, planned;
      const image::ImageF want =
          staged_fuse(frames[0].visible, frames[0].thermal, config, staged);
      const dwt::FusionPlan plan(size.height, size.width, config);
      const image::ImageF got =
          plan.run(frames[0].visible, frames[0].thermal, planned);
      EXPECT_TRUE(same_bits(got, want)) << label;
      ASSERT_EQ(planned.log.size(), staged.log.size()) << label;
      const auto diff = std::mismatch(planned.log.begin(), planned.log.end(),
                                      staged.log.begin());
      EXPECT_TRUE(diff.first == planned.log.end())
          << label << ": first difference at call "
          << (diff.first - planned.log.begin());
    }
  }
}

// Forwards every call to a backend, a run as that many runs of one line:
// the sequence the backend's run forms must charge identically.
class LineByLine : public dwt::LineFilter {
 public:
  explicit LineByLine(sched::TransformBackend& inner) : inner_(inner) {}
  void barrier() override { inner_.barrier(); }
  void begin_stage(dwt::Stage stage) override { inner_.begin_stage(stage); }
  void account_analyze_lines(int lines, int out_len, int taps) override {
    for (int i = 0; i < lines; ++i) inner_.account_analyze_lines(1, out_len, taps);
  }
  void account_synthesize_lines(int lines, int pairs, int taps) override {
    for (int i = 0; i < lines; ++i) inner_.account_synthesize_lines(1, pairs, taps);
  }
  void account_select_band(int n) override { inner_.account_select_band(n); }

 private:
  sched::TransformBackend& inner_;
};

// replay_frame_pair's steps on `backend`, with the plan's replay routed
// through a LineByLine adapter.
void replay_line_by_line(sched::TransformBackend& backend,
                         const dwt::FusionPlan& plan) {
  LineByLine adapter(backend);
  backend.begin_frame();
  backend.begin_stage(dwt::Stage::kPrep);
  backend.charge(backend.prep_time(2 * plan.rows() * plan.cols()));
  plan.replay(adapter);
  backend.finish_frame();
}

bool same_batch(const driver::Batch& a, const driver::Batch& b) {
  return a.words_in == b.words_in && a.words_out == b.words_out &&
         a.compute_cycles == b.compute_cycles && a.after_barrier == b.after_barrier;
}

bool same_op(const sched::detail::StreamOp& a, const sched::detail::StreamOp& b) {
  return a.kind == b.kind && a.stage == b.stage && a.ps == b.ps &&
         same_batch(a.batch, b.batch);
}

bool same_times(const sched::StageTimes& a, const sched::StageTimes& b) {
  return a.prep == b.prep && a.forward == b.forward && a.fusion == b.fusion &&
         a.inverse == b.inverse;
}

// BatchedFpgaBackend charges each row and column pass of the plan's replay
// as one run. Fed the same replay line by line (LineByLine), it must end
// every frame with the same stage times and PL split and capture the same
// op lists, bit for bit, at every path shape and depth, with flat driver
// entries and with descriptor chains (two frames each, so the second starts
// on the first's buffer and chain state).
TEST(HostPathIdentity, BatchedRunsChargeLikeLineByLine) {
  for (const sched::FrameSize& size : kPathSizes) {
    for (int levels = 1; levels <= kPathLevels; ++levels) {
      for (const int chain : {1, 8}) {
        const std::string label = size.label() + " levels=" + std::to_string(levels) +
                                  " chain=" + std::to_string(chain);
        sched::RunConfig rc;
        rc.fuse.transform.levels = levels;
        rc.batching.sg_chain_len = chain;
        const dwt::FusionPlan plan(size.height, size.width, rc.fuse.transform);
        sched::BatchedFpgaBackend runs(rc), lines(rc);
        runs.enable_stream_trace();
        lines.enable_stream_trace();
        sched::TimedFusionRunner runner(runs, rc.fuse);
        for (int frame = 0; frame < 2; ++frame) {
          const sched::FrameRunResult want = runner.replay_frame_pair(plan);
          replay_line_by_line(lines, plan);
          EXPECT_TRUE(same_times(want.times, lines.frame_times()))
              << label << " frame " << frame;
          EXPECT_TRUE(same_times(want.pl_times, lines.frame_pl_times()))
              << label << " frame " << frame;
        }
        const driver::PipelinedWaveletAccelerator& a = runs.accelerator();
        const driver::PipelinedWaveletAccelerator& b = lines.accelerator();
        EXPECT_EQ(a.lines(), b.lines()) << label;
        EXPECT_EQ(a.driver_calls(), b.driver_calls()) << label;
        EXPECT_EQ(a.chain_heads(), b.chain_heads()) << label;
        const auto got = runs.take_stream_trace();
        const auto want = lines.take_stream_trace();
        ASSERT_EQ(got.size(), want.size()) << label;
        for (std::size_t f = 0; f < got.size(); ++f) {
          ASSERT_EQ(got[f].size(), want[f].size()) << label << " frame " << f;
          for (std::size_t i = 0; i < got[f].size(); ++i) {
            EXPECT_TRUE(same_op(got[f][i], want[f][i]))
                << label << " frame " << f << " op " << i;
          }
        }
      }
    }
  }
}

// SerialBackend's run forms route and charge a run line by line. Fed the
// same replay as runs of one (LineByLine), each serial kind must end every
// frame with the same stage times and PL split, route the same lines and
// leave its engine model in the same state, bit for bit, at every path
// shape and depth (two frames each).
TEST(HostPathIdentity, SerialRunsChargeLikeLineByLine) {
  for (const sched::BackendKind kind :
       {sched::BackendKind::kArm, sched::BackendKind::kNeon,
        sched::BackendKind::kFpga, sched::BackendKind::kAdaptive}) {
    for (const sched::FrameSize& size : kPathSizes) {
      for (int levels = 1; levels <= kPathLevels; ++levels) {
        const std::string label = std::string(sched::backend_name(kind)) + " " +
                                  size.label() + " levels=" + std::to_string(levels);
        sched::RunConfig rc;
        rc.fuse.transform.levels = levels;
        const dwt::FusionPlan plan(size.height, size.width, rc.fuse.transform);
        sched::SerialBackend runs(kind, rc), lines(kind, rc);
        sched::TimedFusionRunner runner(runs, rc.fuse);
        for (int frame = 0; frame < 2; ++frame) {
          const sched::FrameRunResult want = runner.replay_frame_pair(plan);
          replay_line_by_line(lines, plan);
          EXPECT_TRUE(same_times(want.times, lines.frame_times()))
              << label << " frame " << frame;
          EXPECT_TRUE(same_times(want.pl_times, lines.frame_pl_times()))
              << label << " frame " << frame;
        }
        EXPECT_EQ(runs.router().lines_on_fpga(), lines.router().lines_on_fpga())
            << label;
        EXPECT_EQ(runs.router().lines_on_simd(), lines.router().lines_on_simd())
            << label;
        EXPECT_EQ(runs.accelerator().lines(), lines.accelerator().lines()) << label;
        EXPECT_TRUE(runs.accelerator().stall_time() == lines.accelerator().stall_time())
            << label;
      }
    }
  }
}

// fuse_frames takes the plan; with scalar kernels it must match the staged
// scalar reference bit for bit and count the same MACs and lines.
TEST(HostPathIdentity, FuseFramesMatchesTheStagedBitsAndStats) {
  for (const sched::FrameSize& size : kPathSizes) {
    const auto frames = sched::make_sweep_frames(size, 1);
    for (int levels = 1; levels <= kPathLevels; ++levels) {
      const std::string label = size.label() + " levels=" + std::to_string(levels);
      fusion::FuseConfig config;
      config.transform.levels = levels;
      dwt::ScalarLineFilter staged, planned;
      const image::ImageF want = staged_fuse(frames[0].visible, frames[0].thermal,
                                             config.transform, staged);
      const image::ImageF got =
          fusion::fuse_frames(frames[0].visible, frames[0].thermal, config, planned);
      EXPECT_TRUE(same_bits(got, want)) << label;
      EXPECT_EQ(planned.stats().analysis_macs, staged.stats().analysis_macs) << label;
      EXPECT_EQ(planned.stats().synthesis_macs, staged.stats().synthesis_macs) << label;
      EXPECT_EQ(planned.stats().analysis_lines, staged.stats().analysis_lines) << label;
      EXPECT_EQ(planned.stats().synthesis_lines, staged.stats().synthesis_lines)
          << label;
    }
  }
}

// --- bit-identity across kernel flavours -------------------------------------

// Every simd set the host runs (AVX-512F / AVX2 / the 4-lane baseline) is
// bit-identical to "scalar": the plan fuses the same bits with each of them,
// and all match the staged scalar per-line reference — at every block-edge
// shape and depth, so each lane width's narrow-block step-down and shifted
// last block are covered.
TEST(HostParallelIdentity, ScalarAndSimdDispatchFuseIdentically) {
  ASSERT_FALSE(simd::simd_kernel_sets().empty());
  for (const sched::FrameSize& size : kPathSizes) {
    const auto frames = sched::make_sweep_frames(size, 1);
    for (int levels = 1; levels <= kPathLevels; ++levels) {
      const std::string label = size.label() + " levels=" + std::to_string(levels);
      dwt::TransformConfig config;
      config.levels = levels;
      dwt::ScalarLineFilter reference;
      const image::ImageF want = staged_fuse(frames[0].visible, frames[0].thermal,
                                             config, reference);
      const dwt::FusionPlan plan(size.height, size.width, config);
      const image::ImageF scalar =
          plan.fuse(frames[0].visible, frames[0].thermal, simd::scalar_kernels());
      EXPECT_TRUE(same_bits(scalar, want)) << label;
      for (const simd::KernelSet* k : simd::simd_kernel_sets()) {
        const image::ImageF wide = plan.fuse(frames[0].visible, frames[0].thermal, *k);
        EXPECT_TRUE(same_bits(wide, want)) << label << " isa=" << k->isa;
      }
    }
  }
}

}  // namespace
