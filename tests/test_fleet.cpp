// Fleet scheduler tests (PR 7): admission under saturation, engine stealing,
// queue-overflow drops, the 1-stream == run_pipelined bit-identity contract,
// and determinism at any host pool width.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/hw/fixed_point.h"
#include "src/power/recorder.h"
#include "src/sched/fleet.h"
#include "src/sched/pipeline.h"
#include "src/sched/streaming.h"

namespace vf {
namespace {

sched::StreamConfig camera_stream(const sched::FrameSize& size, int frames,
                                  double fps) {
  sched::StreamConfig s;
  s.backend = sched::BackendKind::kFpgaBatched;
  s.run.frame_size = size;
  s.run.frames = frames;
  s.arrival.fps = fps;
  s.arrival.jitter_frac = 0.2;
  return s;
}

// --- Table-I engine fit ------------------------------------------------------

TEST(EngineFit, FloatDatapathFitsOnceFixedPointSeveralTimes) {
  const hw::DevicePart part;
  const int float_fit = hw::max_engine_instances(
      part, hw::estimate_engine_resources(hw::WaveletEngineConfig{}));
  const int fixed_fit = hw::max_engine_instances(
      part, hw::estimate_engine_resources_fixed(hw::WaveletEngineConfig{},
                                                hw::FixedPointFormat{}));
  EXPECT_EQ(float_fit, 1);  // Table I: 59% of slices per instance
  EXPECT_GE(fixed_fit, 4);
  EXPECT_LE(fixed_fit, 16);
}

// --- backend factory ---------------------------------------------------------

// Both configuration checks reject before any stream does work, with an
// exception the caller can catch rather than a process abort.
TEST(EngineFit, RunFleetRejectsAnEngineCountThePartCannotHold) {
  const std::vector<sched::StreamConfig> streams = {
      camera_stream({32, 24}, 2, 30.0)};
  for (const int engines : {0, 2}) {  // the float datapath fits once
    sched::FleetConfig fc;
    fc.engines = engines;
    EXPECT_THROW(sched::run_fleet(streams, fc), std::invalid_argument)
        << engines;
  }
}

// The engine count is checked against the largest engine the streams model
// (their RunConfig::engine), not against a default footprint: a float engine
// with 28 coefficient slots does not fit the part at all, and a 32-slot
// fixed-point engine fits three times, not seven.
TEST(EngineFit, RunFleetChecksTheStreamsOwnEngines) {
  const auto instances = [](const hw::WaveletEngineConfig& engine, bool fixed) {
    return hw::max_engine_instances(
        hw::DevicePart{},
        fixed ? hw::estimate_engine_resources_fixed(engine, hw::FixedPointFormat{})
              : hw::estimate_engine_resources(engine));
  };
  std::vector<sched::StreamConfig> streams = {
      camera_stream({32, 24}, 2, 30.0), camera_stream({32, 24}, 2, 30.0)};

  streams[1].run.engine.slots = 28;
  ASSERT_EQ(instances(streams[1].run.engine, false), 0);
  sched::FleetConfig float_fleet;
  float_fleet.engines = 1;
  EXPECT_THROW(sched::run_fleet(streams, float_fleet), std::invalid_argument);

  streams[1].run.engine.slots = 32;
  ASSERT_EQ(instances(streams[1].run.engine, true), 3);
  ASSERT_GE(instances(streams[0].run.engine, true), 7);
  sched::FleetConfig fixed_fleet;
  fixed_fleet.engines = 7;
  fixed_fleet.fixed_point_engines = true;
  EXPECT_THROW(sched::run_fleet(streams, fixed_fleet), std::invalid_argument);
  fixed_fleet.engines = 3;
  EXPECT_EQ(sched::run_fleet(streams, fixed_fleet).arrived, 4);

  // With no PL stream the default engine still bounds the count (every
  // engine is laid out), and a CPU stream's engine is never on the part.
  sched::FleetConfig two_engines;
  two_engines.engines = 2;
  EXPECT_THROW(sched::run_fleet({}, two_engines), std::invalid_argument);
  std::vector<sched::StreamConfig> cpu = {camera_stream({32, 24}, 2, 30.0)};
  cpu[0].backend = sched::BackendKind::kNeon;
  cpu[0].run.engine.slots = 28;
  EXPECT_EQ(sched::run_fleet(cpu, sched::FleetConfig{}).arrived, 2);
}

TEST(Fleet, RunFleetRejectsJitterOutsideTheUnitInterval) {
  for (const double jitter : {-0.1, 1.0, 1.5}) {
    std::vector<sched::StreamConfig> streams = {
        camera_stream({32, 24}, 2, 30.0), camera_stream({32, 24}, 2, 30.0)};
    streams[1].arrival.jitter_frac = jitter;
    EXPECT_THROW(sched::run_fleet(streams), std::invalid_argument) << jitter;
  }
}

TEST(BackendFactory, BuildsEveryKindWithMatchingNameAndMode) {
  const struct {
    sched::BackendKind kind;
    const char* name;
    power::ComputeMode mode;
  } cases[] = {
      {sched::BackendKind::kArm, "ARM", power::ComputeMode::kArmOnly},
      {sched::BackendKind::kNeon, "NEON", power::ComputeMode::kArmNeon},
      {sched::BackendKind::kFpga, "FPGA", power::ComputeMode::kArmFpga},
      {sched::BackendKind::kFpgaBatched, "FPGA+batch",
       power::ComputeMode::kArmFpga},
      {sched::BackendKind::kAdaptive, "Adaptive", power::ComputeMode::kArmFpga},
  };
  for (const auto& c : cases) {
    const auto backend = sched::make_backend(c.kind, sched::RunConfig{});
    ASSERT_NE(backend, nullptr);
    EXPECT_STREQ(backend->name(), c.name);
    EXPECT_STREQ(sched::backend_name(c.kind), c.name);
    EXPECT_EQ(backend->compute_mode(), c.mode);
  }
  // The serial backend models every kind but the batched engine.
  EXPECT_THROW(sched::SerialBackend(sched::BackendKind::kFpgaBatched),
               std::invalid_argument);
}

// --- 1-stream fleet == run_pipelined ----------------------------------------

// The contract that keeps the fleet honest: with one stream, every frame
// ready at t=0, an unbounded queue, one core and one engine, run_fleet must
// reproduce run_pipelined's overlapped schedule bit-for-bit — makespan,
// busy times, and both energy integrals as exact doubles.
TEST(Fleet, OneStreamReproducesRunPipelinedBitForBit) {
  const sched::FrameSize size{88, 72};
  const int frames = 6;

  sched::RunConfig run;
  run.frame_size = size;
  run.frames = frames;
  sched::BatchedFpgaBackend backend(run);
  const sched::PipelineRunResult piped =
      sched::run_pipelined(backend, sched::make_sweep_frames(size, frames));

  sched::StreamConfig stream;
  stream.backend = sched::BackendKind::kFpgaBatched;
  stream.run = run;
  stream.arrival.fps = 0.0;  // batch mode: everything ready at t=0
  stream.queue_depth = 0;    // unbounded, as run_pipelined has no admission
  sched::FleetConfig fleet;
  fleet.engines = 1;
  fleet.cores = 1;
  fleet.pipeline_depth = 4;
  const sched::FleetResult r = sched::run_fleet({stream}, fleet);

  EXPECT_TRUE(r.makespan == piped.makespan)
      << r.makespan.sec() << " vs " << piped.makespan.sec();
  EXPECT_TRUE(r.ps_busy == piped.ps_busy);
  EXPECT_TRUE(r.pl_busy == piped.pl_busy);
  EXPECT_EQ(r.energy_mj, piped.energy_mj);
  EXPECT_EQ(r.energy_gated_mj, piped.energy_gated_mj);
  ASSERT_EQ(r.streams.size(), 1u);
  EXPECT_EQ(r.dropped, 0);
  EXPECT_EQ(r.completed, frames);
  EXPECT_TRUE(r.streams[0].last_completion == piped.makespan);
}

// At pipeline_depth 1 a frame starts only once the previous one has ended in
// model time, so run_pipelined's serial schedule and a 1-core, 1-engine
// depth-1 fleet are the same replay, for every backend, size and window.
TEST(Fleet, DepthOneRunPipelinedIsTheOneStreamFleet) {
  const sched::BackendKind kinds[] = {
      sched::BackendKind::kArm, sched::BackendKind::kNeon,
      sched::BackendKind::kFpga, sched::BackendKind::kFpgaBatched,
      sched::BackendKind::kAdaptive};
  const sched::FrameSize sizes[] = {{32, 24}, {35, 35}, {40, 40}, {64, 48}, {88, 72}};
  auto same = [](double x, double y) {
    return std::memcmp(&x, &y, sizeof(double)) == 0;
  };
  for (const sched::BackendKind kind : kinds) {
    for (const sched::FrameSize& size : sizes) {
      for (const int frames : {1, 4, 10}) {
        sched::RunConfig run;
        run.frame_size = size;
        run.frames = frames;
        run.pipeline_depth = 1;
        const auto backend = sched::make_backend(kind, run);
        const sched::PipelineRunResult piped = sched::probe_pipelined(*backend, run);

        sched::StreamConfig stream;
        stream.backend = kind;
        stream.run = run;
        stream.queue_depth = 0;
        sched::FleetConfig fleet;
        fleet.cores = 1;
        fleet.pipeline_depth = 1;
        const sched::FleetResult r = sched::run_fleet({stream}, fleet);

        const std::string at = std::string(sched::backend_name(kind)) + " " +
                               std::to_string(size.width) + "x" +
                               std::to_string(size.height) + " x" +
                               std::to_string(frames);
        EXPECT_TRUE(same(r.makespan.sec(), piped.makespan.sec()))
            << at << ": " << r.makespan.ms() << " vs " << piped.makespan.ms();
        EXPECT_TRUE(same(r.ps_busy.sec(), piped.ps_busy.sec())) << at;
        EXPECT_TRUE(same(r.pl_busy.sec(), piped.pl_busy.sec())) << at;
        EXPECT_TRUE(same(r.energy_mj, piped.energy_mj)) << at;
        EXPECT_TRUE(same(r.energy_gated_mj, piped.energy_gated_mj)) << at;
        // One frame at a time, stage after stage: the ledger sum (DESIGN.md
        // §2), up to the order the two add the same costs in.
        EXPECT_NEAR(piped.makespan.sec(), piped.serial_total.sec(),
                    1e-9 * piped.serial_total.sec())
            << at;
      }
    }
  }
}

// --- admission / drops -------------------------------------------------------

TEST(Fleet, BoundedQueueDropsUnderSaturationDeterministically) {
  // Two 120 fps cameras at the full frame on a single engine: far beyond the
  // sustainable rate, so the bounded queues must shed frames.
  std::vector<sched::StreamConfig> streams = {
      camera_stream({88, 72}, 12, 120.0), camera_stream({88, 72}, 12, 120.0)};
  for (auto& s : streams) s.queue_depth = 2;
  sched::FleetConfig fleet;
  fleet.engines = 1;
  const sched::FleetResult a = sched::run_fleet(streams, fleet);
  EXPECT_GT(a.dropped, 0);
  EXPECT_EQ(a.arrived, 24);
  EXPECT_EQ(a.admitted + a.dropped, a.arrived);
  EXPECT_EQ(a.completed, a.admitted);
  for (const sched::StreamStats& s : a.streams) {
    EXPECT_EQ(s.arrived, 12);
    EXPECT_EQ(s.admitted + s.dropped, s.arrived);
    EXPECT_TRUE(s.p50_latency <= s.p99_latency);
    EXPECT_TRUE(s.p99_latency <= s.max_latency);
  }

  // Same inputs, same schedule: the whole run is a pure function.
  const sched::FleetResult b = sched::run_fleet(streams, fleet);
  EXPECT_TRUE(a.makespan == b.makespan);
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_EQ(a.energy_mj, b.energy_mj);
}

TEST(Fleet, UnboundedQueueNeverDrops) {
  std::vector<sched::StreamConfig> streams = {
      camera_stream({64, 48}, 8, 120.0), camera_stream({64, 48}, 8, 120.0)};
  for (auto& s : streams) s.queue_depth = 0;
  sched::FleetConfig fleet;
  fleet.engines = 1;
  const sched::FleetResult r = sched::run_fleet(streams, fleet);
  EXPECT_EQ(r.dropped, 0);
  EXPECT_EQ(r.completed, 16);
}

// --- engine stealing ---------------------------------------------------------

// Synthetic stage costs make the placement arithmetic exact: three streams
// of pure-PL frames over two engines. Home placement maps streams 0 and 2
// onto engine 0 (16 frames x 10 ms serialized); stealing balances the same
// work across both engines.
TEST(Fleet, StealingIdleEnginesBalancesTheLoad) {
  using sched::detail::FleetStreamInput;
  const SimDuration stage = SimDuration::milliseconds(10);
  const std::array<sched::detail::FleetStageCost, 4> frame_cost = {{
      {SimDuration::zero(), stage},
      {SimDuration::zero(), stage},
      {SimDuration::zero(), stage},
      {SimDuration::zero(), stage},
  }};
  std::vector<FleetStreamInput> inputs(3);
  for (std::size_t s = 0; s < inputs.size(); ++s) {
    inputs[s].arrivals.assign(4, SimDuration::zero());
    inputs[s].cost.assign(4, frame_cost);
    inputs[s].home_engine = static_cast<int>(s);
  }
  const auto stolen = sched::detail::schedule_fleet(
      inputs, /*cores=*/1, /*engines=*/2, /*pipeline_depth=*/4,
      /*steal_engines=*/true, 0.0);
  const auto pinned = sched::detail::schedule_fleet(
      inputs, /*cores=*/1, /*engines=*/2, /*pipeline_depth=*/4,
      /*steal_engines=*/false, 0.0);
  // 48 stage events x 10 ms over two engines: perfectly balanced when
  // stealing (240 ms); pinned, engine 0 serializes streams 0 and 2 (320 ms).
  // 10 ms is not binary-exact, so the chained additions need an ulp-scale
  // tolerance rather than exact equality.
  EXPECT_NEAR(stolen.timeline.makespan().ms(), 240.0, 1e-9);
  EXPECT_NEAR(pinned.timeline.makespan().ms(), 320.0, 1e-9);
}

// --- one scheduler -----------------------------------------------------------

// schedule_fleet is a view of the streaming replay: on a contended stage-
// granular fleet (4 camera streams of measured 88x72 batched-FPGA frames on
// 2 cores and 2 engines, bounded queues, spill on), it places the same
// events as schedule_streaming over the frames' stage blocks — per stage one
// PS op with the whole PS part, one PL block, and a stage boundary — and
// gives every frame the same outcome.
TEST(Fleet, StageScheduleIsTheReplayOverStageBlocks) {
  using sched::detail::StreamOp;
  sched::RunConfig run;
  run.frame_size = {88, 72};
  run.frames = 8;
  sched::BatchedFpgaBackend backend(run);
  const std::vector<sched::FrameRunResult> measured = sched::detail::measure_frames(
      backend, run.fuse, sched::make_sweep_frames(run.frame_size, run.frames));
  auto split = [](SimDuration total, SimDuration pl) {
    return sched::detail::FleetStageCost{
        total > pl ? total - pl : SimDuration::zero(), pl};
  };
  std::vector<std::array<sched::detail::FleetStageCost, 4>> cost;
  for (const sched::FrameRunResult& r : measured) {
    cost.push_back({{split(r.times.prep, r.pl_times.prep),
                     split(r.times.forward, r.pl_times.forward),
                     split(r.times.fusion, r.pl_times.fusion),
                     split(r.times.inverse, r.pl_times.inverse)}});
  }

  std::vector<sched::detail::FleetStreamInput> stage(4);
  std::vector<sched::detail::StreamingStreamInput> blocks(4);
  for (std::size_t s = 0; s < stage.size(); ++s) {
    sched::detail::FleetStreamInput& in = stage[s];
    in.period = SimDuration::seconds(1.0 / 60.0);
    in.queue_depth = 2;
    in.home_engine = static_cast<int>(s);
    in.cost = cost;
    for (int f = 0; f < run.frames; ++f) {
      in.arrivals.push_back(in.period * static_cast<double>(f) +
                            SimDuration::microseconds(static_cast<double>(
                                (7 * f + 3 * static_cast<int>(s)) % 5 * 100)));
    }
    sched::detail::StreamingStreamInput& b = blocks[s];
    b.arrivals = in.arrivals;
    b.period = in.period;
    b.queue_depth = in.queue_depth;
    b.home_engine = in.home_engine;
    for (const auto& frame : cost) {
      std::vector<StreamOp> ops;
      auto add = [&](StreamOp::Kind kind, int g, SimDuration d) {
        StreamOp op;
        op.kind = kind;
        op.stage = g;
        op.ps = d;
        ops.push_back(op);
      };
      for (int g = 0; g < 4; ++g) {
        const sched::detail::FleetStageCost& c = frame[static_cast<std::size_t>(g)];
        if (c.ps > SimDuration::zero()) add(StreamOp::Kind::kPs, g, c.ps);
        if (c.pl > SimDuration::zero()) add(StreamOp::Kind::kPlBlock, g, c.pl);
        if (g < 3) add(StreamOp::Kind::kStageBoundary, g, SimDuration::zero());
      }
      b.frame_ops.push_back(std::move(ops));
    }
  }
  const sched::detail::FleetSchedule fleet = sched::detail::schedule_fleet(
      stage, /*cores=*/2, /*engines=*/2, /*pipeline_depth=*/4,
      /*steal_engines=*/true, /*spill_wait_frac=*/0.5);
  const sched::detail::FleetSchedule replay = sched::detail::schedule_streaming(
      blocks, /*cores=*/2, /*engines=*/2, /*pipeline_depth=*/4,
      /*steal_engines=*/true, /*spill_wait_frac=*/0.5);

  const std::vector<Timeline::Event>& got = fleet.timeline.events();
  const std::vector<Timeline::Event>& want = replay.timeline.events();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(fleet.timeline.resource_name(got[i].resource),
              replay.timeline.resource_name(want[i].resource))
        << "event " << i;
    EXPECT_STREQ(got[i].label, want[i].label) << "event " << i;
    EXPECT_TRUE(got[i].start == want[i].start && got[i].end == want[i].end)
        << "event " << i << ": [" << got[i].start.us() << ", " << got[i].end.us()
        << "] vs [" << want[i].start.us() << ", " << want[i].end.us() << "] us";
  }
  int dropped = 0;
  ASSERT_EQ(fleet.frames.size(), replay.frames.size());
  for (std::size_t s = 0; s < fleet.frames.size(); ++s) {
    ASSERT_EQ(fleet.frames[s].size(), replay.frames[s].size());
    for (std::size_t f = 0; f < fleet.frames[s].size(); ++f) {
      const sched::detail::FleetFrameOutcome& a = fleet.frames[s][f];
      const sched::detail::FleetFrameOutcome& b = replay.frames[s][f];
      EXPECT_EQ(a.dropped, b.dropped) << "stream " << s << " frame " << f;
      EXPECT_EQ(a.spilled, b.spilled) << "stream " << s << " frame " << f;
      EXPECT_TRUE(a.completion == b.completion && a.latency == b.latency)
          << "stream " << s << " frame " << f << ": " << a.completion.us() << " vs "
          << b.completion.us() << " us";
      dropped += b.dropped ? 1 : 0;
    }
  }
  // The fleet really is contended: 4 cameras at 60 fps overrun 2 engines.
  EXPECT_GT(dropped, 0);
}

// A frame whose stage costs are all zero has no ops to dispatch. It must
// complete on arrival, not wait forever and hold back the frames behind it.
TEST(Fleet, FrameWithoutWorkCompletesOnArrival) {
  const SimDuration ms = SimDuration::milliseconds(1);
  const std::array<sched::detail::FleetStageCost, 4> work = {
      {{ms, ms}, {ms, ms}, {ms, ms}, {ms, ms}}};
  sched::detail::FleetStreamInput in;
  in.arrivals = {SimDuration::zero(), ms, ms * 2.0};
  in.cost = {work, {}, work};
  const sched::detail::FleetSchedule s = sched::detail::schedule_fleet(
      {in}, /*cores=*/1, /*engines=*/1, /*pipeline_depth=*/4,
      /*steal_engines=*/true, /*spill_wait_frac=*/0.0);
  ASSERT_EQ(s.frames[0].size(), 3u);
  EXPECT_TRUE(s.frames[0][1].completion == ms);
  EXPECT_TRUE(s.frames[0][1].latency == SimDuration::zero());
  EXPECT_GT(s.frames[0][2].completion, s.frames[0][0].completion);
}

// --- NEON spill --------------------------------------------------------------

TEST(Fleet, SaturatedEngineSpillsFramesToNeonCosts) {
  // Four full-frame cameras against one engine with the spill enabled: some
  // frames must fall back to the NEON cost model, and with unbounded queues
  // every frame still completes.
  std::vector<sched::StreamConfig> streams(4, camera_stream({88, 72}, 6, 30.0));
  for (auto& s : streams) s.queue_depth = 0;
  sched::FleetConfig fleet;
  fleet.engines = 1;
  fleet.spill_wait_frac = 0.5;
  const sched::FleetResult r = sched::run_fleet(streams, fleet);
  int spilled = 0;
  for (const sched::StreamStats& s : r.streams) spilled += s.spilled;
  EXPECT_GT(spilled, 0);
  EXPECT_EQ(r.dropped, 0);
  EXPECT_EQ(r.completed, 24);
}

// --- determinism across host pool widths -------------------------------------

TEST(Fleet, ModeledResultInvariantAcrossThreads) {
  // Every modeled field of a fleet result, in a fixed order.
  auto fields = [](const sched::FleetResult& r) {
    std::vector<double> v = {r.makespan.sec(), double(r.arrived), double(r.admitted),
                             double(r.dropped), double(r.completed), r.ps_busy.sec(),
                             r.pl_busy.sec(), r.energy_mj, r.energy_gated_mj};
    for (const sched::StreamStats& s : r.streams) {
      v.insert(v.end(), {double(s.arrived), double(s.admitted), double(s.completed),
                         double(s.dropped), double(s.spilled), s.p50_latency.sec(),
                         s.p99_latency.sec(), s.max_latency.sec(),
                         s.last_completion.sec(), s.ps_busy.sec(), s.pl_busy.sec(),
                         s.energy_mj});
    }
    return v;
  };
  // The legacy stage-granular fleet, and a multi-stream cross-frame fleet
  // (the streaming replay over captured batch traces).
  for (const bool cross_frame : {false, true}) {
    std::vector<double> ref;
    for (const int width : {1, 2, 8}) {
      std::vector<sched::StreamConfig> streams = {
          camera_stream({64, 48}, 5, 30.0), camera_stream({32, 24}, 5, 60.0)};
      if (cross_frame) {
        streams.push_back(camera_stream({32, 24}, 7, 30.0));
        streams.push_back(camera_stream({40, 40}, 3, 30.0));
        streams[3].backend = sched::BackendKind::kNeon;
      }
      for (auto& s : streams) {
        s.run.host.threads = width;
        if (cross_frame) s.run.batching.sg_chain_len = 8;
      }
      sched::FleetConfig fleet;
      fleet.engines = 2;
      fleet.fixed_point_engines = true;
      fleet.spill_wait_frac = 0.5;
      fleet.cross_frame = cross_frame;
      const std::vector<double> got = fields(sched::run_fleet(streams, fleet));
      if (width == 1) {
        ref = got;
        continue;
      }
      ASSERT_EQ(got.size(), ref.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(std::memcmp(&got[i], &ref[i], sizeof(double)), 0)
            << "cross_frame=" << cross_frame << " threads=" << width << " field " << i
            << ": " << got[i] << " vs " << ref[i];
      }
    }
  }
}

// --- energy integration ------------------------------------------------------

// integrate_fleet_energy merges the PL-side busy intervals once and feeds
// both integrals from that merge; it must equal the two per-mode timeline
// replays it stands for, bit for bit. The schedule is a cross-frame replay of
// captured batch traces, so engines and DMA channels overlap and leave gaps.
TEST(Fleet, EnergyIntegrationMatchesPerModeTimelineReplay) {
  std::vector<sched::detail::StreamingStreamInput> inputs;
  const std::vector<sched::FrameSize> sizes = {{32, 24}, {40, 40}, {32, 24}};
  for (std::size_t s = 0; s < sizes.size(); ++s) {
    sched::RunConfig run;
    run.frame_size = sizes[s];
    run.frames = 5;
    run.batching.sg_chain_len = 4;
    sched::BatchedFpgaBackend backend(run);
    backend.enable_stream_trace();
    sched::detail::measure_frames(backend, run.fuse,
                                  sched::make_sweep_frames(run.frame_size, run.frames));
    sched::detail::StreamingStreamInput in;
    in.frame_ops = backend.take_stream_trace();
    in.period = SimDuration::milliseconds(20);
    for (int f = 0; f < run.frames; ++f) {
      in.arrivals.push_back(in.period * static_cast<double>(f) +
                            SimDuration::milliseconds(static_cast<double>(s)));
    }
    in.home_engine = static_cast<int>(s);
    in.engine = run.engine;
    in.costs = run.driver_costs;
    in.sg_chain_len = run.batching.sg_chain_len;
    inputs.push_back(std::move(in));
  }
  const sched::detail::FleetSchedule sched = sched::detail::schedule_streaming(
      inputs, /*cores=*/2, /*engines=*/2, /*pipeline_depth=*/4,
      /*steal_engines=*/true, /*spill_wait_frac=*/0.0);
  std::vector<ResourceId> pl = sched.engines;
  pl.insert(pl.end(), sched.dmas.begin(), sched.dmas.end());
  ASSERT_EQ(pl.size(), 4u);
  std::size_t pl_events = 0;
  for (const Timeline::Event& ev : sched.timeline.events()) {
    if (std::find(pl.begin(), pl.end(), ev.resource) != pl.end()) ++pl_events;
  }
  const std::size_t intervals = sched.timeline.busy_intervals(pl).size();
  EXPECT_GT(intervals, 1u);          // idle gaps between PL bursts
  EXPECT_LT(intervals, pl_events);   // and spans that coalesce

  for (const power::ComputeMode mode :
       {power::ComputeMode::kArmFpga, power::ComputeMode::kArmNeon}) {
    const sched::detail::FleetEnergy got =
        sched::detail::integrate_fleet_energy(sched.timeline, pl, mode);
    power::PowerRecorder loaded(SimDuration::milliseconds(1));
    loaded.run_timeline(sched.timeline, pl, mode, mode);
    power::PowerRecorder gated(SimDuration::milliseconds(1));
    gated.run_timeline(sched.timeline, pl, power::ComputeMode::kArmOnly, mode);
    const double want_loaded = loaded.exact_energy_mj();
    const double want_gated = gated.exact_energy_mj();
    EXPECT_EQ(std::memcmp(&got.loaded_mj, &want_loaded, sizeof(double)), 0)
        << got.loaded_mj << " vs " << want_loaded;
    EXPECT_EQ(std::memcmp(&got.gated_mj, &want_gated, sizeof(double)), 0)
        << got.gated_mj << " vs " << want_gated;
    if (mode == power::ComputeMode::kArmFpga) {
      EXPECT_LT(got.gated_mj, got.loaded_mj);
    }
  }
}

// --- per-stream frames ---------------------------------------------------------

// run_fleet generates each distinct (frame size, window) once and shares it
// between the streams of that shape; a stream of another shape in between
// must still fuse its own frames. On the legacy path, with a core and an
// engine of its own, an unbounded queue and no spill, a stream's schedule
// does not depend on the others, so its busy times equal a 1-stream fleet
// of the same config exactly.
TEST(Fleet, MixedShapeStreamsFuseTheirOwnFrames) {
  std::vector<sched::StreamConfig> streams = {camera_stream({32, 24}, 3, 0.0),
                                              camera_stream({88, 72}, 2, 0.0),
                                              camera_stream({32, 24}, 3, 0.0)};
  for (auto& s : streams) s.queue_depth = 0;
  sched::FleetConfig fleet;
  fleet.engines = 3;
  fleet.cores = 3;
  fleet.steal_engines = false;
  fleet.fixed_point_engines = true;
  const sched::FleetResult mixed = sched::run_fleet(streams, fleet);
  ASSERT_EQ(mixed.streams.size(), streams.size());
  for (std::size_t s = 0; s < streams.size(); ++s) {
    const sched::FleetResult alone = sched::run_fleet({streams[s]}, fleet);
    ASSERT_EQ(alone.streams.size(), 1u);
    EXPECT_EQ(mixed.streams[s].completed, alone.streams[0].completed);
    EXPECT_TRUE(mixed.streams[s].ps_busy == alone.streams[0].ps_busy)
        << "stream " << s << ": " << mixed.streams[s].ps_busy.sec() << " vs "
        << alone.streams[0].ps_busy.sec();
    EXPECT_TRUE(mixed.streams[s].pl_busy == alone.streams[0].pl_busy)
        << "stream " << s << ": " << mixed.streams[s].pl_busy.sec() << " vs "
        << alone.streams[0].pl_busy.sec();
  }
  // The shapes really differ, so a stream fusing another's frames would show.
  EXPECT_GT(mixed.streams[1].pl_busy, mixed.streams[0].pl_busy);
}

// Arrival jitter is part of the model, not noise: the same stream config
// always produces the same arrival times, and jitter keeps arrivals strictly
// increasing (jitter_frac < 1 bounds each frame's offset under one period).
TEST(Fleet, ArrivalsAreDeterministicAndMonotonic) {
  const sched::StreamConfig s = camera_stream({32, 24}, 8, 30.0);
  const sched::FleetResult a = sched::run_fleet({s});
  const sched::FleetResult b = sched::run_fleet({s});
  EXPECT_TRUE(a.makespan == b.makespan);
  ASSERT_EQ(a.streams.size(), 1u);
  EXPECT_EQ(a.streams[0].arrived, 8);
  EXPECT_EQ(a.streams[0].completed + a.streams[0].dropped, 8);
}

}  // namespace
}  // namespace vf
