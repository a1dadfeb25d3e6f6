// Cross-frame streaming + scatter-gather driver tests (ISSUE 9).
//
// Contracts: legacy outputs are bit-identical with cross_frame off (and with
// the default sg_chain_len = 1 everywhere), the streaming replay is a pure
// re-schedule of the serial measurement (numerics and serial totals
// unchanged, deterministic at any host pool width), the fleet's 1-stream
// streaming case reproduces run_pipelined's streaming schedule exactly, and
// the performance claims the bench tables report (fps at 88x72, the
// break-point move at small frames) hold.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstring>
#include <vector>

#include "src/hw/driver.h"
#include "src/sched/adaptive.h"
#include "src/sched/fleet.h"
#include "src/sched/pipeline.h"
#include "src/sched/streaming.h"

namespace vf {
namespace {

sched::RunConfig streaming_config(const sched::FrameSize& size, int frames,
                                  int sg_chain_len) {
  sched::RunConfig run;
  run.frame_size = size;
  run.frames = frames;
  run.cross_frame = true;
  run.batching.sg_chain_len = sg_chain_len;
  return run;
}

sched::PipelineRunResult run_piped(const sched::RunConfig& run) {
  sched::BatchedFpgaBackend backend(run);
  return sched::probe_pipelined(backend, run);
}

// --- defaults keep every legacy schedule ------------------------------------

TEST(Streaming, DefaultsAreLegacy) {
  EXPECT_FALSE(sched::RunConfig{}.cross_frame);
  EXPECT_EQ(driver::PipelinedWaveletAccelerator::Batching{}.sg_chain_len, 1);
  EXPECT_FALSE(sched::FleetConfig{}.cross_frame);
  // The run_pipelined defaults: 4 frames in flight, stage-granular overlap.
  EXPECT_EQ(sched::RunConfig{}.pipeline_depth, 4);
}

// --- scatter-gather chain on the serial accelerator --------------------------

TEST(Streaming, SgChainAmortizesDriverEntriesOnSerialSchedule) {
  auto run_serial = [](int sg) {
    Timeline tl;
    const ResourceId ps = tl.add_resource("ps");
    const ResourceId dma = tl.add_resource("dma");
    const ResourceId pl = tl.add_resource("pl");
    driver::PipelinedWaveletAccelerator::Batching batching;
    batching.max_lines_per_call = 4;
    batching.sg_chain_len = sg;
    driver::PipelinedWaveletAccelerator accel(
        hw::WaveletEngineConfig{}, driver::DriverCosts{}, batching, &tl, ps,
        dma, pl);
    // Driver-entry-bound batches (comp ~4 us << ~23.5 us entry): the regime
    // the chain exists for. Compute-bound batches hide the entry behind the
    // double buffer already, and there SG's descriptor fetch is pure cost.
    for (int i = 0; i < 64; ++i) accel.submit_line(190, 176, 100.0);
    accel.flush();
    return std::make_tuple(tl.makespan(), accel.driver_calls(),
                           accel.chain_heads());
  };
  const auto [flat_makespan, flat_calls, flat_heads] = run_serial(1);
  const auto [sg_makespan, sg_calls, sg_heads] = run_serial(8);
  // Same batches either way; with sg=1 every batch is a chain head.
  EXPECT_EQ(flat_calls, sg_calls);
  EXPECT_EQ(flat_heads, flat_calls);
  // With sg=8 only every 8th batch pays the driver entry...
  EXPECT_EQ(sg_heads, (sg_calls + 7) / 8);
  // ...and the descriptor appends are cheaper than the entries they replace.
  EXPECT_LT(sg_makespan, flat_makespan);
}

TEST(Streaming, FlushClosesTheArmedChain) {
  Timeline tl;
  const ResourceId ps = tl.add_resource("ps");
  const ResourceId dma = tl.add_resource("dma");
  const ResourceId pl = tl.add_resource("pl");
  driver::PipelinedWaveletAccelerator::Batching batching;
  batching.max_lines_per_call = 1;
  batching.sg_chain_len = 64;  // longer than either burst below
  driver::PipelinedWaveletAccelerator accel(
      hw::WaveletEngineConfig{}, driver::DriverCosts{}, batching, &tl, ps, dma,
      pl);
  for (int i = 0; i < 3; ++i) accel.submit_line(190, 176, 1000.0);
  accel.flush();
  for (int i = 0; i < 3; ++i) accel.submit_line(190, 176, 1000.0);
  accel.flush();
  // One chain head per flush-separated burst: the synchronous drain ends the
  // ioctl context, so the next batch re-enters the driver.
  EXPECT_EQ(accel.driver_calls(), 6);
  EXPECT_EQ(accel.chain_heads(), 2);
}

// --- streaming is a pure re-schedule -----------------------------------------

TEST(Streaming, CrossFrameKeepsSerialTotalAndChangesOnlyTheSchedule) {
  sched::RunConfig off = streaming_config({64, 48}, 6, 1);
  off.cross_frame = false;
  sched::RunConfig on = streaming_config({64, 48}, 6, 1);
  const sched::PipelineRunResult legacy = run_piped(off);
  const sched::PipelineRunResult streaming = run_piped(on);
  // Pass 1 runs the identical serial schedule, so the additive ledger total
  // matches as exact doubles; only the pass-2 replay differs.
  EXPECT_EQ(legacy.serial_total, streaming.serial_total);
  EXPECT_NE(legacy.makespan.sec(), streaming.makespan.sec());
}

TEST(Streaming, FusedOutputsIdenticalWithCrossFrameOnOrOff) {
  const auto pairs = sched::make_sweep_frames({40, 40}, 2);
  auto fused_at = [&](bool cross_frame) {
    sched::RunConfig run = streaming_config({40, 40}, 2, 8);
    run.cross_frame = cross_frame;
    sched::BatchedFpgaBackend backend(run);
    if (cross_frame) backend.enable_stream_trace();
    sched::TimedFusionRunner runner(backend, run.fuse);
    return runner.run_frame_pair(pairs[0].visible, pairs[0].thermal).fused;
  };
  const image::ImageF off = fused_at(false);
  const image::ImageF on = fused_at(true);
  ASSERT_EQ(off.size(), on.size());
  for (std::size_t i = 0; i < off.size(); ++i) {
    ASSERT_EQ(off.data()[i], on.data()[i]) << "pixel " << i;
  }
}

TEST(Streaming, ModeledOutputsIdenticalAtAnyHostThreadCount) {
  sched::PipelineRunResult results[3];
  const int threads[] = {1, 2, 8};
  for (int i = 0; i < 3; ++i) {
    sched::RunConfig run = streaming_config({64, 48}, 5, 8);
    run.host.threads = threads[i];
    results[i] = run_piped(run);
  }
  for (int i = 1; i < 3; ++i) {
    EXPECT_EQ(results[0].makespan, results[i].makespan);
    EXPECT_EQ(results[0].serial_total, results[i].serial_total);
    EXPECT_EQ(results[0].energy_mj, results[i].energy_mj);
    EXPECT_EQ(results[0].energy_gated_mj, results[i].energy_gated_mj);
  }
}

TEST(Streaming, PipelineDepthOneDisablesTheReplay) {
  sched::RunConfig run = streaming_config({40, 40}, 4, 8);
  run.pipeline_depth = 1;
  sched::RunConfig off = run;
  off.cross_frame = false;
  const sched::PipelineRunResult on_r = run_piped(run);
  const sched::PipelineRunResult off_r = run_piped(off);
  // depth <= 1 means the serial event schedule on both paths.
  EXPECT_EQ(on_r.makespan, off_r.makespan);
  EXPECT_EQ(on_r.energy_mj, off_r.energy_mj);
}

TEST(Streaming, NonBatchedBackendsFallBackToLegacySilently) {
  sched::RunConfig run = streaming_config({40, 40}, 4, 8);
  sched::RunConfig off = run;
  off.cross_frame = false;
  auto piped_neon = [](const sched::RunConfig& rc) {
    const auto backend = sched::make_backend(sched::BackendKind::kNeon, rc);
    return sched::probe_pipelined(*backend, rc);
  };
  const sched::PipelineRunResult on_r = piped_neon(run);
  const sched::PipelineRunResult off_r = piped_neon(off);
  EXPECT_EQ(on_r.makespan, off_r.makespan);
  EXPECT_EQ(on_r.energy_mj, off_r.energy_mj);
}

// --- performance claims the bench tables report -------------------------------

TEST(Streaming, ChainedStreamingBeatsLegacyAndThePaperRateAt88x72) {
  const sched::PipelineRunResult streaming =
      run_piped(streaming_config({88, 72}, 10, 8));
  sched::RunConfig legacy_cfg = streaming_config({88, 72}, 10, 1);
  legacy_cfg.cross_frame = false;
  const sched::PipelineRunResult legacy = run_piped(legacy_cfg);
  // ISSUE 9 acceptance: sustained fps above the pre-streaming 63.4 ceiling.
  EXPECT_GT(streaming.sustained_fps, 63.4);
  EXPECT_GT(streaming.sustained_fps, legacy.sustained_fps);
  EXPECT_LT(streaming.energy_mj, legacy.energy_mj);
}

TEST(Streaming, StreamingWinsAgainstNeonBelowThePaperSweep) {
  // The legacy break point already sits at the paper's smallest size; the
  // streaming schedule must keep the FPGA ahead even at 16x12, where the
  // driver entry dominates hardest (the "move left" claim in EXPERIMENTS.md).
  const sched::FrameSize tiny{16, 12};
  const sched::PipelineRunResult streaming =
      run_piped(streaming_config(tiny, 10, 8));
  sched::RunConfig neon_cfg = streaming_config(tiny, 10, 1);
  neon_cfg.cross_frame = false;
  const auto neon = sched::make_backend(sched::BackendKind::kNeon, neon_cfg);
  const sched::PipelineRunResult neon_r = sched::probe_pipelined(*neon, neon_cfg);
  EXPECT_LT(streaming.makespan, neon_r.makespan);
}

// --- fleet integration --------------------------------------------------------

TEST(Streaming, OneStreamFleetReproducesRunPipelinedBitForBit) {
  const sched::RunConfig run = streaming_config({88, 72}, 6, 8);
  const sched::PipelineRunResult piped = run_piped(run);

  sched::StreamConfig stream;
  stream.backend = sched::BackendKind::kFpgaBatched;
  stream.run = run;
  stream.queue_depth = 0;  // unbounded, like run_pipelined
  sched::FleetConfig fleet;
  fleet.engines = 1;
  fleet.cores = 1;
  fleet.pipeline_depth = run.pipeline_depth;
  fleet.steal_engines = true;
  fleet.spill_wait_frac = 0.0;
  fleet.cross_frame = true;
  const sched::FleetResult fleet_r = sched::run_fleet({stream}, fleet);

  EXPECT_EQ(fleet_r.makespan, piped.makespan);
  EXPECT_EQ(fleet_r.energy_mj, piped.energy_mj);
  EXPECT_EQ(fleet_r.energy_gated_mj, piped.energy_gated_mj);
  EXPECT_EQ(fleet_r.completed, 6);
}

TEST(Streaming, FleetMixesBatchTracesWithStageGranularStreams) {
  // A batched-FPGA stream and a NEON stream share the replay: the first
  // contributes its captured batch ops, the second sliced stage costs. All
  // frames must complete (fps 0 = everything ready at t=0, no drops).
  sched::StreamConfig fpga;
  fpga.backend = sched::BackendKind::kFpgaBatched;
  fpga.run = streaming_config({40, 40}, 4, 8);
  fpga.queue_depth = 0;
  sched::StreamConfig neon = fpga;
  neon.backend = sched::BackendKind::kNeon;
  sched::FleetConfig fleet;
  fleet.engines = 1;
  fleet.cores = 2;
  fleet.cross_frame = true;
  const sched::FleetResult r = sched::run_fleet({fpga, neon}, fleet);
  EXPECT_EQ(r.completed, 8);
  EXPECT_EQ(r.dropped, 0);
  EXPECT_GT(r.makespan, SimDuration::zero());

  // Determinism: the replay is a pure function of the modeled inputs.
  const sched::FleetResult again = sched::run_fleet({fpga, neon}, fleet);
  EXPECT_EQ(r.makespan, again.makespan);
  EXPECT_EQ(r.energy_mj, again.energy_mj);
}

TEST(Streaming, FleetCrossFrameOffKeepsLegacySchedule) {
  sched::StreamConfig stream;
  stream.backend = sched::BackendKind::kFpgaBatched;
  stream.run.frame_size = {64, 48};
  stream.run.frames = 4;
  stream.queue_depth = 0;
  sched::FleetConfig legacy;
  legacy.engines = 1;
  legacy.cores = 1;
  legacy.spill_wait_frac = 0.0;
  sched::FleetConfig off = legacy;
  off.cross_frame = false;  // explicit and default spellings must agree
  const sched::FleetResult a = sched::run_fleet({stream}, legacy);
  const sched::FleetResult b = sched::run_fleet({stream}, off);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.energy_mj, b.energy_mj);
}

// A long saturated cross-frame fleet: six 300 fps cameras of 48 frames on
// two engines, a bounded queue and the NEON spill, so frames drop, spill,
// and (3 of them) finish after a later frame of their own stream. Every
// modeled field is locked to the values this configuration produced before
// the dispatch loop stopped rescanning each stream's whole admitted list.
TEST(Streaming, SaturatedLongWindowFleetLocked) {
  std::vector<sched::StreamConfig> streams;
  for (int s = 0; s < 6; ++s) {
    sched::StreamConfig c;
    c.run = streaming_config({32, 24}, 48, 8);
    c.arrival.fps = 300.0;
    c.arrival.jitter_frac = 0.5;
    c.arrival.offset = SimDuration::milliseconds(s);
    c.queue_depth = 4;
    streams.push_back(c);
  }
  sched::FleetConfig fleet;
  fleet.engines = 2;
  fleet.cores = 6;
  fleet.pipeline_depth = 8;
  fleet.fixed_point_engines = true;
  fleet.spill_wait_frac = 0.5;
  fleet.cross_frame = true;
  const sched::FleetResult r = sched::run_fleet(streams, fleet);

  std::vector<double> got = {r.makespan.sec(), double(r.arrived), double(r.admitted),
                             double(r.dropped), double(r.completed), r.ps_busy.sec(),
                             r.pl_busy.sec(), r.energy_mj, r.energy_gated_mj};
  int spilled = 0;
  for (const sched::StreamStats& s : r.streams) {
    spilled += s.spilled;
    got.insert(got.end(), {double(s.arrived), double(s.admitted), double(s.completed),
                           double(s.dropped), double(s.spilled), s.p50_latency.sec(),
                           s.p99_latency.sec(), s.max_latency.sec(),
                           s.last_completion.sec(), s.ps_busy.sec(), s.pl_busy.sec(),
                           s.energy_mj});
  }
  EXPECT_GT(r.dropped, 0);
  EXPECT_GT(spilled, 0);
  // Fleet totals, then per stream: counts and latencies, completion and
  // busy times, energy (%.17g).
  const std::vector<double> want = {
      0.26636570358408501, 288, 241, 47, 241,
      1.3757329215758427, 0.17484503999999129, 147.16705123020716, 144.49329585034832,
      48, 48, 48, 0, 0,
      0.021022338386664403, 0.027189984358583122, 0.027189984358583122, 0.16910496221654861,
      0.15318979362101182, 0.039997440000006407, 18.335611760167485,
      48, 42, 42, 6, 5,
      0.025130536331628317, 0.11439530895863501, 0.11439530895863501, 0.25370050991944482,
      0.2390663437147949, 0.03058584000000629, 25.592983854074056,
      48, 47, 47, 1, 5,
      0.024309397280405487, 0.1096343261381236, 0.1096343261381236, 0.26636570358408501,
      0.24940452382736714, 0.034870560000006171, 26.980859306536985,
      48, 44, 44, 4, 5,
      0.026440405483033072, 0.11208825074731743, 0.11208825074731743, 0.25990760129682733,
      0.24342045253280753, 0.032295120000006582, 26.168466722347446,
      48, 33, 33, 15, 7,
      0.026992166587193007, 0.11542337853581208, 0.11542337853581208, 0.26463030765416257,
      0.24612791684799951, 0.021452640000004162, 25.396363481031983,
      48, 27, 27, 21, 8,
      0.03369943038570701, 0.11617139864120077, 0.11617139864120077, 0.26490469225779523,
      0.24452389103186586, 0.015643440000003016, 24.692766106053526};
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(std::memcmp(&got[i], &want[i], sizeof(double)), 0)
        << "field " << i << ": " << got[i] << " vs " << want[i];
  }
}

// --- op-list construction -----------------------------------------------------

TEST(Streaming, PsSlicingIsDeterministicAndPreservesTotals) {
  std::vector<sched::detail::StreamOp> ops;
  const SimDuration quantum = hw::ps_cycles(hw::cost::kStreamPsSliceCycles);
  sched::detail::append_sliced_ps(&ops, 2, quantum * 3.5);
  ASSERT_EQ(ops.size(), 4u);  // ceil(3.5) equal slices
  SimDuration total;
  for (const auto& op : ops) {
    EXPECT_EQ(op.kind, sched::detail::StreamOp::Kind::kPs);
    EXPECT_EQ(op.stage, 2);
    EXPECT_LE(op.ps, quantum);
    total += op.ps;
  }
  EXPECT_NEAR(total.sec(), (quantum * 3.5).sec(), 1e-15);

  // Zero and negative durations contribute nothing.
  sched::detail::append_sliced_ps(&ops, 0, SimDuration::zero());
  EXPECT_EQ(ops.size(), 4u);
}

// A one-entry spill_ops list stands for every frame's spill. A saturated
// cross-frame stream set whose spill fires must schedule bit for bit the
// same with one shared list as with a copy per frame: every frame outcome,
// every busy total and every timeline event.
TEST(Streaming, SharedSpillListMatchesPerFrameCopies) {
  std::vector<sched::detail::StreamingStreamInput> per_frame;
  for (int s = 0; s < 3; ++s) {
    const sched::RunConfig run = streaming_config({32, 24}, 6, 4);
    sched::BatchedFpgaBackend backend(run);
    backend.enable_stream_trace();
    sched::detail::measure_frames(backend, run.fuse,
                                  sched::make_sweep_frames(run.frame_size, run.frames));
    sched::detail::StreamingStreamInput in;
    in.frame_ops = backend.take_stream_trace();
    in.period = SimDuration::milliseconds(2);
    for (int f = 0; f < run.frames; ++f) {
      in.arrivals.push_back(in.period * static_cast<double>(f) +
                            SimDuration::milliseconds(0.25 * s));
    }
    std::array<sched::detail::FleetStageCost, 4> spill;
    for (int g = 0; g < 4; ++g) {
      spill[g].ps = SimDuration::milliseconds(0.5 + g);
    }
    in.spill_ops.assign(in.frame_ops.size(), sched::detail::stage_cost_ops(spill));
    in.engine = run.engine;
    in.costs = run.driver_costs;
    in.sg_chain_len = run.batching.sg_chain_len;
    per_frame.push_back(std::move(in));
  }
  std::vector<sched::detail::StreamingStreamInput> shared = per_frame;
  for (auto& in : shared) in.spill_ops.resize(1);

  auto schedule = [](const std::vector<sched::detail::StreamingStreamInput>& in) {
    return sched::detail::schedule_streaming(in, /*cores=*/2, /*engines=*/1,
                                             /*pipeline_depth=*/4,
                                             /*steal_engines=*/false,
                                             /*spill_wait_frac=*/0.5);
  };
  const sched::detail::FleetSchedule a = schedule(per_frame);
  const sched::detail::FleetSchedule b = schedule(shared);
  auto same = [](SimDuration x, SimDuration y) {
    const double dx = x.sec(), dy = y.sec();
    return std::memcmp(&dx, &dy, sizeof(double)) == 0;
  };
  int spilled = 0;
  ASSERT_EQ(a.frames.size(), b.frames.size());
  for (std::size_t s = 0; s < a.frames.size(); ++s) {
    ASSERT_EQ(a.frames[s].size(), b.frames[s].size());
    for (std::size_t f = 0; f < a.frames[s].size(); ++f) {
      const sched::detail::FleetFrameOutcome& x = a.frames[s][f];
      const sched::detail::FleetFrameOutcome& y = b.frames[s][f];
      EXPECT_EQ(x.dropped, y.dropped) << s << "/" << f;
      EXPECT_EQ(x.spilled, y.spilled) << s << "/" << f;
      EXPECT_TRUE(same(x.completion, y.completion)) << s << "/" << f;
      EXPECT_TRUE(same(x.latency, y.latency)) << s << "/" << f;
      spilled += x.spilled;
    }
    EXPECT_TRUE(same(a.stream_ps_busy[s], b.stream_ps_busy[s])) << s;
    EXPECT_TRUE(same(a.stream_pl_busy[s], b.stream_pl_busy[s])) << s;
  }
  EXPECT_GT(spilled, 0);
  ASSERT_EQ(a.timeline.events().size(), b.timeline.events().size());
  for (std::size_t i = 0; i < a.timeline.events().size(); ++i) {
    const Timeline::Event& x = a.timeline.events()[i];
    const Timeline::Event& y = b.timeline.events()[i];
    EXPECT_EQ(x.resource, y.resource) << i;
    EXPECT_TRUE(same(x.start, y.start) && same(x.end, y.end)) << i;
  }
}

// The depth-exact window: at depth D a frame's first event may not start
// before the frame D admitted places earlier has completed, even when that
// frame's last op (a PL tail) was committed long before it ends.
TEST(Streaming, FrameStartsOnlyAfterTheFrameDepthPlacesEarlierEnds) {
  std::vector<sched::detail::StreamingStreamInput> in(2);
  auto first_ps = [](std::size_t s, int f) {
    return SimDuration::milliseconds(3.0 + 0.001 * (100.0 * s + f));
  };
  for (std::size_t s = 0; s < in.size(); ++s) {
    for (int f = 0; f < 8; ++f) {
      in[s].arrivals.push_back(SimDuration::zero());
      const std::array<sched::detail::FleetStageCost, 4> cost = {{
          {first_ps(s, f), SimDuration::zero()},
          {SimDuration::zero(), SimDuration::milliseconds(2.0)},
          {SimDuration::milliseconds(0.5), SimDuration::zero()},
          {SimDuration::zero(), SimDuration::milliseconds(1.0)},
      }};
      in[s].frame_ops.push_back(sched::detail::stage_block_ops(cost));
    }
  }
  for (const int depth : {1, 2, 3}) {
    const sched::detail::FleetSchedule sched = sched::detail::schedule_streaming(
        in, /*cores=*/2, /*engines=*/1, depth, /*steal_engines=*/true,
        /*spill_wait_frac=*/0.0);
    for (std::size_t s = 0; s < in.size(); ++s) {
      for (int f = 0; f < 8; ++f) {
        // The frame's first event is its prep block, found by its length.
        const Timeline::Event* first = nullptr;
        for (const Timeline::Event& ev : sched.timeline.events()) {
          if (std::abs(ev.duration().sec() - first_ps(s, f).sec()) < 1e-12) {
            ASSERT_EQ(first, nullptr) << "prep lengths must be unique";
            first = &ev;
          }
        }
        ASSERT_NE(first, nullptr) << depth << " " << s << "/" << f;
        if (f < depth) continue;
        EXPECT_GE(first->start.sec(),
                  sched.frames[s][static_cast<std::size_t>(f - depth)].completion.sec())
            << "depth " << depth << " stream " << s << " frame " << f;
      }
    }
  }
}

// One batch-placement rule: with GP-port transfers (no DMA block), the replay
// puts a batch's copies on the PS core (as the accelerator does during the
// serial measurement), so no DMA channel gets an event and the PS busy time
// counts the copies.
TEST(Streaming, GpPortCopiesRunOnThePsCore) {
  sched::RunConfig run = streaming_config({32, 24}, 4, 4);
  run.engine.dma_enabled = false;
  ASSERT_EQ(run.pipeline_depth, 4);
  const std::vector<sched::FramePair> frames =
      sched::make_sweep_frames(run.frame_size, run.frames);
  sched::BatchedFpgaBackend backend(run);
  const sched::PipelineRunResult piped = sched::run_pipelined(backend, frames, run);

  // The same schedule, with its events.
  sched::BatchedFpgaBackend twin(run);
  std::vector<sched::detail::StreamingStreamInput> in(1);
  in[0].arrivals.assign(frames.size(), SimDuration::zero());
  sched::detail::measure_stream(twin, run.fuse, frames, /*cross_frame=*/true, &in[0]);
  sched::FleetConfig fleet;
  fleet.cores = 1;
  fleet.pipeline_depth = run.pipeline_depth;
  fleet.cross_frame = true;
  sched::FleetResult totals;
  const sched::detail::FleetSchedule sched =
      sched::detail::schedule_streams(fleet, in, twin.compute_mode(), &totals);
  EXPECT_TRUE(totals.makespan == piped.makespan);
  EXPECT_TRUE(totals.ps_busy == piped.ps_busy);
  EXPECT_TRUE(totals.pl_busy == piped.pl_busy);

  SimDuration copies;
  for (const Timeline::Event& ev : sched.timeline.events()) {
    EXPECT_NE(ev.resource, sched.dmas[0]) << ev.label;
    if (std::strcmp(ev.label, "in") == 0 || std::strcmp(ev.label, "out") == 0) {
      EXPECT_EQ(ev.resource, sched.cores[0]) << ev.label;
      copies += ev.duration();
    }
  }
  EXPECT_GT(copies.sec(), 0.0);
  // The PL side is the engine's compute alone; the PS side holds the copies.
  EXPECT_TRUE(piped.pl_busy == sched.timeline.busy_time(sched.engines[0]));
  EXPECT_GT(piped.ps_busy.sec(), copies.sec());
  EXPECT_NEAR(sched.stream_ps_busy[0].sec(), piped.ps_busy.sec(),
              1e-12 * piped.ps_busy.sec());
  EXPECT_NEAR(sched.stream_pl_busy[0].sec(), piped.pl_busy.sec(),
              1e-12 * piped.pl_busy.sec());
}

}  // namespace
}  // namespace vf
