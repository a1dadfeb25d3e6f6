// Event-queue timeline, batched double buffering, and frame pipelining.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/timeline.h"
#include "src/hw/cost_constants.h"
#include "src/hw/driver.h"
#include "src/sched/pipeline.h"

namespace {

using namespace vf;

// --- Timeline substrate -----------------------------------------------------

TEST(Timeline, GreedyEarliestStartScheduling) {
  Timeline tl;
  const ResourceId a = tl.add_resource("A");
  const ResourceId b = tl.add_resource("B");

  const auto e1 = tl.schedule(a, "x", SimDuration::zero(), SimDuration::milliseconds(2));
  EXPECT_DOUBLE_EQ(e1.start.sec(), 0.0);
  EXPECT_DOUBLE_EQ(e1.end.ms(), 2.0);

  // Same resource: serializes after e1 even though ready = 0.
  const auto e2 = tl.schedule(a, "y", SimDuration::zero(), SimDuration::milliseconds(1));
  EXPECT_DOUBLE_EQ(e2.start.ms(), 2.0);

  // Other resource: free at 0, but the ready dependency delays the start.
  const auto e3 = tl.schedule(b, "z", SimDuration::milliseconds(5),
                              SimDuration::milliseconds(1));
  EXPECT_DOUBLE_EQ(e3.start.ms(), 5.0);

  EXPECT_DOUBLE_EQ(tl.makespan().ms(), 6.0);
  EXPECT_DOUBLE_EQ(tl.busy_time(a).ms(), 3.0);
  EXPECT_DOUBLE_EQ(tl.busy_time(b).ms(), 1.0);
  EXPECT_EQ(tl.events().size(), 3u);
}

TEST(Timeline, BusyIntervalsMergeOverlapAcrossResources) {
  Timeline tl;
  const ResourceId a = tl.add_resource("A");
  const ResourceId b = tl.add_resource("B");
  tl.schedule(a, "x", SimDuration::zero(), SimDuration::milliseconds(10));
  tl.schedule(b, "y", SimDuration::milliseconds(5), SimDuration::milliseconds(10));
  tl.schedule(a, "z", SimDuration::milliseconds(30), SimDuration::milliseconds(5));

  const auto merged = tl.busy_intervals({a, b});
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_DOUBLE_EQ(merged[0].first.ms(), 0.0);
  EXPECT_DOUBLE_EQ(merged[0].second.ms(), 15.0);  // [0,10) and [5,15) coalesce
  EXPECT_DOUBLE_EQ(merged[1].first.ms(), 30.0);
  EXPECT_DOUBLE_EQ(merged[1].second.ms(), 35.0);

  // Single-resource view leaves the gap visible.
  const auto only_a = tl.busy_intervals({a});
  ASSERT_EQ(only_a.size(), 2u);
  EXPECT_DOUBLE_EQ(only_a[0].second.ms(), 10.0);
}

TEST(Timeline, DeterministicAcrossRepeatedConstruction) {
  // The ctest suite runs with -j: identical schedules must produce identical
  // timelines regardless of what else runs concurrently. Everything is pure
  // function of the inputs — no clocks, no globals.
  auto build = [] {
    Timeline tl;
    const ResourceId a = tl.add_resource("A");
    const ResourceId b = tl.add_resource("B");
    for (int i = 0; i < 100; ++i) {
      tl.schedule(i % 2 ? a : b, "e", SimDuration::microseconds(i * 3),
                  SimDuration::microseconds(7 + i % 5));
    }
    return tl;
  };
  const Timeline t1 = build();
  const Timeline t2 = build();
  ASSERT_EQ(t1.events().size(), t2.events().size());
  for (std::size_t i = 0; i < t1.events().size(); ++i) {
    EXPECT_EQ(t1.events()[i].start.sec(), t2.events()[i].start.sec());
    EXPECT_EQ(t1.events()[i].end.sec(), t2.events()[i].end.sec());
  }
  EXPECT_EQ(t1.makespan().sec(), t2.makespan().sec());
}

// busy_intervals merges per-resource span lists; it must equal the plain
// algorithm (collect the spans, sort them by start, coalesce) exactly, on
// the shapes that make a merge go wrong: zero-length events, equal starts
// across resources, intervals that only touch, duplicate ids in the query,
// a resource without events, and an empty query.
TEST(Timeline, BusyIntervalsMatchSortedReference) {
  using Interval = Timeline::Interval;
  auto reference = [](const Timeline& tl, const std::vector<ResourceId>& ids) {
    std::vector<Interval> spans;
    for (const Timeline::Event& ev : tl.events()) {
      if (ev.end == ev.start) continue;
      if (std::find(ids.begin(), ids.end(), ev.resource) == ids.end()) continue;
      spans.emplace_back(ev.start, ev.end);
    }
    std::sort(spans.begin(), spans.end(),
              [](const Interval& a, const Interval& b) { return a.first < b.first; });
    std::vector<Interval> merged;
    for (const Interval& span : spans) {
      if (!merged.empty() && span.first <= merged.back().second) {
        merged.back().second = std::max(merged.back().second, span.second);
      } else {
        merged.push_back(span);
      }
    }
    return merged;
  };

  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    Timeline tl;
    std::vector<ResourceId> used;
    for (int r = 0; r < 4; ++r) used.push_back(tl.add_resource("R"));
    const ResourceId idle = tl.add_resource("idle");  // never scheduled
    const int events = 1 + static_cast<int>(rng.next_u64() % 300);
    for (int i = 0; i < events; ++i) {
      const ResourceId r = used[rng.next_u64() % used.size()];
      // A coarse grid makes equal starts and touching ends common; one
      // event in five is zero-length.
      const SimDuration ready = SimDuration::microseconds(
          static_cast<double>(rng.next_u64() % 64) * 4.0);
      const SimDuration duration =
          rng.next_u64() % 5 == 0
              ? SimDuration::zero()
              : SimDuration::microseconds(static_cast<double>(rng.next_u64() % 6) * 4.0);
      tl.schedule(r, "e", ready, duration);
    }

    std::vector<std::vector<ResourceId>> queries = {
        {}, {idle}, {0, 0}, {3, 1, 3, 1}, {2, idle, 2}, {0, 1, 2, 3, idle}};
    for (int mask = 1; mask < 16; ++mask) {
      std::vector<ResourceId> q;
      for (int r = 0; r < 4; ++r) {
        if (mask & (1 << r)) q.push_back(used[static_cast<std::size_t>(r)]);
      }
      queries.push_back(q);
    }
    for (const std::vector<ResourceId>& q : queries) {
      const std::vector<Interval> want = reference(tl, q);
      const std::vector<Interval> got = tl.busy_intervals(q);
      ASSERT_EQ(got.size(), want.size()) << "seed " << seed << ", " << q.size() << " ids";
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_TRUE(got[i] == want[i]) << "seed " << seed << ", interval " << i;
      }
    }
  }
}

// --- batched accelerator ----------------------------------------------------

TEST(PipelinedAccelerator, BatchingAmortizesDriverCalls) {
  Timeline tl;
  const ResourceId ps = tl.add_resource("PS");
  const ResourceId dma = tl.add_resource("DMA");
  const ResourceId pl = tl.add_resource("PL");
  driver::PipelinedWaveletAccelerator accel({}, {}, {.max_lines_per_call = 16},
                                            &tl, ps, dma, pl);
  for (int i = 0; i < 64; ++i) accel.submit_line(102, 88, 102);
  accel.flush();
  EXPECT_EQ(accel.lines(), 64);
  EXPECT_EQ(accel.driver_calls(), 4);  // 16 lines per 2048-word buffer fill

  // The serial ledger pays the driver entry per line.
  driver::WaveletAccelerator serial({}, {});
  SimDuration serial_total;
  for (int i = 0; i < 64; ++i) serial_total += serial.line_time(102, 88, 102);
  EXPECT_LT(tl.makespan().sec(), serial_total.sec());
  EXPECT_LT(tl.makespan().sec(), 0.5 * serial_total.sec());
}

TEST(PipelinedAccelerator, BufferCapacityCapsTheBatch) {
  Timeline tl;
  const ResourceId ps = tl.add_resource("PS");
  const ResourceId dma = tl.add_resource("DMA");
  const ResourceId pl = tl.add_resource("PL");
  driver::PipelinedWaveletAccelerator accel({}, {}, {.max_lines_per_call = 1024},
                                            &tl, ps, dma, pl);
  // 1200-word lines: only one fits the 2048-word kernel buffer.
  for (int i = 0; i < 6; ++i) accel.submit_line(1200, 1188, 1200);
  accel.flush();
  EXPECT_EQ(accel.driver_calls(), 6);
}

TEST(PipelinedAccelerator, OverLongLineThrowsAndQueuesNothing) {
  ResourceClocks clocks;
  const ResourceId ps = clocks.add_resource();
  const ResourceId dma = clocks.add_resource();
  const ResourceId pl = clocks.add_resource();
  driver::PipelinedWaveletAccelerator accel({}, {}, {}, &clocks, ps, dma, pl);
  // 2049 words cannot fit the 2048-word kernel buffer: an error the caller
  // can catch, not a process abort.
  EXPECT_THROW(accel.submit_line(2049, 2036, 2049), std::invalid_argument);
  EXPECT_EQ(accel.lines(), 0);
  accel.submit_line(2048, 2036, 2048);
  accel.flush();
  EXPECT_EQ(accel.driver_calls(), 1);
}

// The accelerator only advances clocks: handing it a Timeline places the
// same schedule without logging a single event.
TEST(PipelinedAccelerator, SchedulesOnClocksWithoutAnEventLog) {
  auto run = [](ResourceClocks* clocks) {
    const ResourceId ps = clocks->add_resource();
    const ResourceId dma = clocks->add_resource();
    const ResourceId pl = clocks->add_resource();
    driver::PipelinedWaveletAccelerator accel({}, {}, {.max_lines_per_call = 4},
                                              clocks, ps, dma, pl);
    for (int i = 0; i < 32; ++i) accel.submit_line(400, 388, 4000);
    return accel.flush();
  };
  ResourceClocks clocks;
  Timeline tl;
  const SimDuration bare = run(&clocks);
  EXPECT_TRUE(run(&tl) == bare);
  EXPECT_TRUE(tl.makespan() == clocks.makespan());
  EXPECT_TRUE(tl.busy_time(2) == clocks.busy_time(2));
  EXPECT_TRUE(tl.events().empty());
}

TEST(PipelinedAccelerator, BarrierOrdersDependentTransfers) {
  auto run = [](bool with_barrier) {
    Timeline tl;
    const ResourceId ps = tl.add_resource("PS");
    const ResourceId dma = tl.add_resource("DMA");
    const ResourceId pl = tl.add_resource("PL");
    driver::PipelinedWaveletAccelerator accel({}, {}, {.max_lines_per_call = 4},
                                              &tl, ps, dma, pl);
    for (int i = 0; i < 4; ++i) accel.submit_line(200, 176, 200);
    if (with_barrier) accel.barrier();
    for (int i = 0; i < 4; ++i) accel.submit_line(200, 176, 200);
    return accel.flush();
  };
  // Dependent lines may not overlap the producing batch, so the fenced
  // schedule finishes no earlier — and strictly later here, because the
  // second batch's driver call must wait for the first batch's outputs.
  EXPECT_GT(run(true).sec(), run(false).sec());
}

TEST(PipelinedAccelerator, DoubleBufferingOverlapsFillWithProcessing) {
  auto makespan = [](bool double_buffering) {
    Timeline tl;
    const ResourceId ps = tl.add_resource("PS");
    const ResourceId dma = tl.add_resource("DMA");
    const ResourceId pl = tl.add_resource("PL");
    driver::DriverCosts costs;
    costs.double_buffering = double_buffering;
    driver::PipelinedWaveletAccelerator accel({}, costs, {.max_lines_per_call = 4},
                                              &tl, ps, dma, pl);
    // Long compute per line so buffer recycling is the binding constraint.
    for (int i = 0; i < 32; ++i) accel.submit_line(400, 388, 4000);
    accel.flush();
    return tl.makespan();
  };
  EXPECT_LT(makespan(true).sec(), makespan(false).sec());
}

// submit_lines(n, ...) must place exactly the batches of n submit_line
// calls. Twin accelerators on twin clocks take the same seeded sequence of
// runs (0, 1 or many lines; short lines, and long ones of which only 1-3
// fit a batch), barriers and flushes, one as runs and one line by line, at
// several line caps and chain lengths; runs often start mid-batch. Every
// traced batch, the counters and the clocks must then agree bit for bit.
TEST(PipelinedAccelerator, SubmitLinesMatchesLineByLine) {
  const int kTaps[] = {5, 7, 9, 14, 16};
  for (const int cap : {1, 16, 64}) {
    for (const int chain : {1, 8}) {
      for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        const std::string label = "cap " + std::to_string(cap) + " chain " +
                                  std::to_string(chain) + " seed " +
                                  std::to_string(seed);
        const driver::PipelinedWaveletAccelerator::Batching batching{cap, chain};
        ResourceClocks run_clocks, line_clocks;
        for (ResourceClocks* c : {&run_clocks, &line_clocks}) {
          for (int r = 0; r < 3; ++r) c->add_resource();
        }
        driver::PipelinedWaveletAccelerator runs({}, {}, batching, &run_clocks, 0, 1, 2);
        driver::PipelinedWaveletAccelerator lines({}, {}, batching, &line_clocks, 0, 1,
                                                  2);
        std::vector<driver::Batch> run_trace, line_trace;
        runs.set_trace(&run_trace);
        lines.set_trace(&line_trace);
        Rng rng(0x5b1e5ull * seed + 131u * cap + chain);
        for (int step = 0; step < 300; ++step) {
          const int action = rng.next_index(12);
          if (action == 0) {
            runs.barrier();
            lines.barrier();
            continue;
          }
          if (action == 1) {
            EXPECT_TRUE(runs.flush() == lines.flush()) << label << " step " << step;
            continue;
          }
          const int kind = rng.next_index(4);
          const int n = kind == 0 ? 0 : kind == 1 ? 1 : 2 + rng.next_index(90);
          const int taps = kTaps[rng.next_index(5)];
          // Long lines of 513 to 2048 words, of which only 1-3 fit the
          // 2048-word buffer; short ones pack dozens.
          const int outputs = rng.next_index(3) == 0 ? 254 + rng.next_index(763)
                                                     : 1 + rng.next_index(100);
          const int words_in = 2 * outputs + taps;
          const double cycles = hw::cost::engine_compute_cycles(outputs, 14);
          runs.submit_lines(n, words_in, 2 * outputs, cycles);
          for (int i = 0; i < n; ++i) lines.submit_line(words_in, 2 * outputs, cycles);
        }
        // An over-long run throws before queuing anything.
        EXPECT_THROW(runs.submit_lines(3, 2049, 2036, 2049), std::invalid_argument);
        EXPECT_TRUE(runs.flush() == lines.flush()) << label;

        EXPECT_EQ(runs.lines(), lines.lines()) << label;
        EXPECT_EQ(runs.driver_calls(), lines.driver_calls()) << label;
        EXPECT_EQ(runs.chain_heads(), lines.chain_heads()) << label;
        ASSERT_EQ(run_trace.size(), line_trace.size()) << label;
        for (std::size_t i = 0; i < run_trace.size(); ++i) {
          const driver::Batch& a = run_trace[i];
          const driver::Batch& b = line_trace[i];
          EXPECT_TRUE(a.words_in == b.words_in && a.words_out == b.words_out &&
                      a.compute_cycles == b.compute_cycles &&
                      a.after_barrier == b.after_barrier)
              << label << " batch " << i;
        }
        EXPECT_TRUE(run_clocks.makespan() == line_clocks.makespan()) << label;
        for (ResourceId r = 0; r < 3; ++r) {
          EXPECT_TRUE(run_clocks.busy_time(r) == line_clocks.busy_time(r)) << label;
          EXPECT_TRUE(run_clocks.free_at(r) == line_clocks.free_at(r)) << label;
        }
      }
    }
  }
}

// A run that starts mid-batch tops the open batch up first: 3 short lines,
// then a run of 40 at a 16-line cap, is 16 + 16 + 11 lines in 3 calls.
TEST(PipelinedAccelerator, SubmitLinesFillsTheOpenBatchFirst) {
  ResourceClocks clocks;
  for (int r = 0; r < 3; ++r) clocks.add_resource();
  driver::PipelinedWaveletAccelerator accel({}, {}, {.max_lines_per_call = 16},
                                            &clocks, 0, 1, 2);
  std::vector<driver::Batch> trace;
  accel.set_trace(&trace);
  accel.submit_lines(3, 100, 88, 102);
  accel.submit_lines(40, 100, 88, 102);
  accel.flush();
  ASSERT_EQ(trace.size(), 3u);
  EXPECT_EQ(trace[0].words_in, 1600);
  EXPECT_EQ(trace[1].words_in, 1600);
  EXPECT_EQ(trace[2].words_in, 1100);
  EXPECT_EQ(accel.lines(), 43);
}

// --- batched FPGA backend ---------------------------------------------------

TEST(BatchedFpga, FusedOutputBitIdenticalToArm) {
  const auto pairs = sched::make_sweep_frames({40, 40}, 1);
  sched::SerialBackend arm(sched::BackendKind::kArm);
  sched::BatchedFpgaBackend batched;
  sched::TimedFusionRunner run_arm(arm), run_batched(batched);
  const auto ra = run_arm.run_frame_pair(pairs[0].visible, pairs[0].thermal);
  const auto rb = run_batched.run_frame_pair(pairs[0].visible, pairs[0].thermal);
  ASSERT_EQ(ra.fused.size(), rb.fused.size());
  for (std::size_t i = 0; i < ra.fused.size(); ++i) {
    EXPECT_EQ(ra.fused.data()[i], rb.fused.data()[i]) << i;
  }
}

TEST(BatchedFpga, MovesTheTimeBreakPointLeftOf35x35) {
  // The serial ledger's break point sits between 35x35 and 40x40 (NEON wins
  // at 35x35 — tests/test_sched.cpp). Transfer-granularity double buffering
  // amortizes the ~12k-cycle driver entry and moves it left of 35x35.
  sched::SerialBackend neon(sched::BackendKind::kNeon);
  sched::BatchedFpgaBackend batched;
  const auto rn = sched::probe_backend(neon, {35, 35}, 4);
  const auto rb = sched::probe_backend(batched, {35, 35}, 4);
  EXPECT_LT(rb.total.sec(), rn.total.sec());

  // And it stays ahead at the sizes the serial FPGA already won.
  sched::SerialBackend neon_l(sched::BackendKind::kNeon);
  sched::BatchedFpgaBackend batched_l;
  const auto rnl = sched::probe_backend(neon_l, {88, 72}, 4);
  const auto rbl = sched::probe_backend(batched_l, {88, 72}, 4);
  EXPECT_LT(rbl.total.sec(), rnl.total.sec());
}

TEST(BatchedFpga, FasterThanSerialFpgaEverywhere) {
  for (const sched::FrameSize& size : sched::paper_frame_sizes()) {
    sched::SerialBackend serial(sched::BackendKind::kFpga);
    sched::BatchedFpgaBackend batched;
    const auto rs = sched::probe_backend(serial, size, 2);
    const auto rb = sched::probe_backend(batched, size, 2);
    EXPECT_LT(rb.total.sec(), rs.total.sec()) << size.label();
  }
}

TEST(BatchedFpga, DeterministicAcrossRuns) {
  sched::BatchedFpgaBackend b1, b2;
  const auto r1 = sched::probe_backend(b1, {40, 40}, 2);
  const auto r2 = sched::probe_backend(b2, {40, 40}, 2);
  EXPECT_EQ(r1.total.sec(), r2.total.sec());
  EXPECT_EQ(r1.energy_mj, r2.energy_mj);
}

// --- serial-path regression (Fig. 9 anchors must not move) ------------------

TEST(SerialPath, Fig9NumbersUnchangedByTheTimelineRefactor) {
  // With pipelining disabled (i.e. the plain backends every Fig. 9/10 bench
  // uses), the modeled totals must reproduce the seed ledger exactly; these
  // constants were recorded from the pre-refactor model.
  sched::SerialBackend arm(sched::BackendKind::kArm);
  sched::SerialBackend neon(sched::BackendKind::kNeon);
  sched::SerialBackend fpga(sched::BackendKind::kFpga);
  const auto ra = sched::probe_backend(arm, {88, 72}, 10);
  const auto rn = sched::probe_backend(neon, {88, 72}, 10);
  const auto rf = sched::probe_backend(fpga, {88, 72}, 10);
  EXPECT_NEAR(ra.total.sec(), 1.974639061914, 1.974639061914 * 1e-7);
  EXPECT_NEAR(rn.total.sec(), 1.756228939587, 1.756228939587 * 1e-7);
  EXPECT_NEAR(rf.total.sec(), 0.972304478799, 0.972304478799 * 1e-7);
  EXPECT_NEAR(ra.energy_mj, 1053.075011718568, 1053.075011718568 * 1e-7);
  EXPECT_NEAR(rf.energy_mj, 537.198224536573, 537.198224536573 * 1e-7);
}

TEST(SerialPath, PlSplitNeverExceedsTheLedger) {
  sched::SerialBackend fpga(sched::BackendKind::kFpga);
  sched::TimedFusionRunner runner(fpga);
  const auto pairs = sched::make_sweep_frames({64, 48}, 1);
  const auto r = runner.run_frame_pair(pairs[0].visible, pairs[0].thermal);
  EXPECT_GT(r.pl_times.forward.sec(), 0.0);
  EXPECT_LE(r.pl_times.forward.sec(), r.times.forward.sec());
  EXPECT_LE(r.pl_times.inverse.sec(), r.times.inverse.sec());
  EXPECT_DOUBLE_EQ(r.pl_times.prep.sec(), 0.0);

  sched::SerialBackend arm(sched::BackendKind::kArm);
  sched::TimedFusionRunner arm_runner(arm);
  const auto ra = arm_runner.run_frame_pair(pairs[0].visible, pairs[0].thermal);
  EXPECT_DOUBLE_EQ(ra.pl_times.total().sec(), 0.0);  // no PL work on the CPU
}

// --- frame-level pipeline ---------------------------------------------------

TEST(PipelinedRunner, OverlapDisabledMatchesTheAdditiveLedger) {
  // DESIGN.md §2 invariant: the event-queue path with overlap disabled
  // reproduces the additive ledger (up to float summation order).
  for (const sched::FrameSize& size : {sched::FrameSize{35, 35},
                                       sched::FrameSize{88, 72}}) {
    sched::SerialBackend fpga(sched::BackendKind::kFpga);
    sched::RunConfig serial;
    serial.frame_size = size;
    serial.frames = 3;
    serial.pipeline_depth = 1;
    const auto r = sched::probe_pipelined(fpga, serial);
    EXPECT_NEAR(r.makespan.sec(), r.serial_total.sec(),
                r.serial_total.sec() * 1e-9)
        << size.label();
  }
}

TEST(PipelinedRunner, CpuBackendsGainNothingFpgaGains) {
  // Every stage of a CPU backend needs the PS core, so the pipeline cannot
  // overlap anything; the FPGA backends offload the transforms to the PL
  // and overlap them with the fusion rule and prep of neighboring frames.
  sched::RunConfig run;
  run.frame_size = {64, 48};
  run.frames = 4;
  sched::SerialBackend neon(sched::BackendKind::kNeon);
  const auto rn = sched::probe_pipelined(neon, run);
  EXPECT_NEAR(rn.makespan.sec(), rn.serial_total.sec(),
              rn.serial_total.sec() * 1e-9);

  sched::BatchedFpgaBackend batched;
  const auto rb = sched::probe_pipelined(batched, run);
  EXPECT_LT(rb.makespan.sec(), rb.serial_total.sec());
}

TEST(PipelinedRunner, SustainedFpsBeatsTheSerialRunnerByAtLeast1p3x) {
  // Acceptance: at 88x72 the pipelined schedule sustains >= 1.3x the fps of
  // the serial runner (the serial FPGA backend through probe_backend).
  const int frames = 6;
  sched::SerialBackend serial(sched::BackendKind::kFpga);
  const auto rs = sched::probe_backend(serial, {88, 72}, frames);
  const double serial_fps = frames / rs.total.sec();

  sched::RunConfig run;
  run.frame_size = {88, 72};
  run.frames = frames;
  sched::BatchedFpgaBackend batched;
  const auto rp = sched::probe_pipelined(batched, run);
  EXPECT_GE(rp.sustained_fps, 1.3 * serial_fps);

  // The frame overlap also beats the batched backend's own serial schedule.
  sched::BatchedFpgaBackend batched_serial;
  sched::RunConfig no_overlap = run;
  no_overlap.pipeline_depth = 1;
  const auto rb = sched::probe_pipelined(batched_serial, no_overlap);
  EXPECT_LT(rp.makespan.sec(), rb.makespan.sec());
}

TEST(PipelinedRunner, EnergyPerFrameDropsWithThePipeline) {
  const int frames = 4;
  sched::BatchedFpgaBackend serial_b, piped_b;
  sched::RunConfig run;
  run.frame_size = {88, 72};
  run.frames = frames;
  sched::RunConfig no_overlap = run;
  no_overlap.pipeline_depth = 1;
  const auto rs = sched::probe_pipelined(serial_b, no_overlap);
  const auto rp = sched::probe_pipelined(piped_b, run);
  EXPECT_LT(rp.energy_per_frame_mj(), rs.energy_per_frame_mj());
  // Gating the engine draw to PL-busy intervals can only save more.
  EXPECT_LE(rp.energy_gated_mj, rp.energy_mj);
}

}  // namespace
