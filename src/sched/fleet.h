// Fleet scheduler: N concurrent fusion streams over M modeled PL engines
// and K PS cores (ROADMAP "multi-stream fleet scheduler").
//
// The production north star is judged on per-stream latency percentiles and
// dropped frames, not aggregate fps. Streams arrive at camera rate
// (configurable fps + deterministic jitter) instead of all-at-t=0, carry a
// bounded frame queue with drop-on-overflow, and share K PS cores (one home
// core per stream) and M PL engine slots, bounded by the Table-I resource
// model (hw::max_engine_instances — the paper's float engine fits the
// xc7z020 once; the Q2.16 fixed-point datapath about seven times). Idle
// engines may be stolen across streams, and a frame whose engine wait
// exceeds a fraction of its frame period spills to the NEON cost model
// instead of queueing on the PL.
//
// There is one scheduler: every stream's frames become op lists replayed by
// detail::schedule_streaming (src/sched/streaming.h), which owns admission,
// the pipeline-depth window, engine placement and the spill.
// FleetConfig::cross_frame selects only the op granularity: stage blocks
// (off) or captured line batches (on). sched::run_pipelined is this fleet
// with one stream in batch mode (every frame ready at t=0, unbounded queue,
// one core, one engine): it measures its frames with detail::measure_stream
// and schedules them with detail::schedule_streams, the two steps run_fleet
// runs per stream and per fleet, so a 1-stream fleet at camera-rate-0
// reproduces run_pipelined bit-for-bit at every depth, the serial depth 1
// included (tests/test_fleet.cpp and tests/test_streaming.cpp lock makespan
// and energy equality).
//
// Everything is modeled and deterministic: op costs come from the same
// per-frame PS/PL-split ledgers as the serial runner, the dispatch order is
// a pure function of those costs, and energy integrates over the merged
// PL-side busy intervals (DESIGN.md §4).
#pragma once

#include <array>
#include <vector>

#include "src/common/timeline.h"
#include "src/sched/adaptive.h"

namespace vf::sched {

// --- public fleet API -------------------------------------------------------

// Arrival process of one camera stream. fps == 0 means the whole stream is
// ready at t=0 (the batch mode run_pipelined uses); otherwise frame f
// arrives at offset + f/fps + jitter, with jitter drawn deterministically
// (per stream, per frame) uniform in [0, jitter_frac/fps).
struct ArrivalModel {
  double fps = 0.0;
  double jitter_frac = 0.0;  // in [0, 1)
  SimDuration offset;
};

struct StreamConfig {
  BackendKind backend = BackendKind::kFpgaBatched;
  RunConfig run;  // frame size, frame count, host, engine/driver config, ...
  ArrivalModel arrival;
  // Admission bound: a frame arriving while this many admitted frames still
  // wait for their first dispatch is dropped. <= 0 = unbounded.
  int queue_depth = 4;
};

struct FleetConfig {
  int engines = 1;  // M modeled PL engine slots
  int cores = 2;    // K PS cores (the ZC702 has two Cortex-A9s)
  // Frames of one stream in flight at once (run_pipelined's 4-stage window).
  int pipeline_depth = 4;
  // Placement policy: steal any idle engine vs stay on the home engine
  // (stream index modulo M).
  bool steal_engines = true;
  // > 0: when the shortest engine wait at admission exceeds this fraction of
  // the stream's frame period, the frame falls back to the NEON cost model
  // instead of queueing on the saturated PL. 0 disables the spill.
  double spill_wait_frac = 0.0;
  // Resource model used to validate `engines` against the part: the paper's
  // float32 datapath (one instance fits) or the Q2.16 fixed-point datapath
  // (about seven fit), at the largest footprint among the PL streams'
  // RunConfig::engine (the default engine if no stream uses the PL).
  // run_fleet throws std::invalid_argument on an impossible count.
  bool fixed_point_engines = false;
  // Op granularity of the replay. On: cross-frame line streaming —
  // batched-FPGA streams at captured batch granularity (an engine slot
  // switching streams keeps its ping-pong buffer state instead of draining,
  // and descriptor chains of the streams' RunConfig sg_chain_len amortize
  // the driver entry), other backends as sliced stage ops. Off (default):
  // every stream as stage blocks (streaming.h, stage_block_ops).
  bool cross_frame = false;
};

struct StreamStats {
  int arrived = 0;
  int admitted = 0;
  int dropped = 0;
  int completed = 0;
  int spilled = 0;  // frames that fell back to the NEON cost model
  // Per-frame latency (completion - arrival) percentiles, nearest-rank over
  // the stream's completed frames.
  SimDuration p50_latency, p99_latency, max_latency;
  SimDuration last_completion;
  SimDuration ps_busy, pl_busy;  // this stream's resource occupancy
  // Fleet energy attributed by busy-time share (the modeled board draws one
  // system power; per-stream energy is an accounting split, not a meter).
  double energy_mj = 0.0;
  double energy_per_frame_mj() const {
    return completed > 0 ? energy_mj / completed : 0.0;
  }
};

struct FleetResult {
  SimDuration makespan;
  std::vector<StreamStats> streams;
  int arrived = 0, admitted = 0, dropped = 0, completed = 0;
  SimDuration ps_busy, pl_busy;  // summed over cores / engines
  // PowerRecorder::run_timeline over the merged engine-busy intervals:
  // loaded keeps the +3.6% PL draw for the whole run (paper methodology),
  // gated charges it only while some engine is actually busy.
  double energy_mj = 0.0;
  double energy_gated_mj = 0.0;

  double energy_per_frame_mj() const {
    return completed > 0 ? energy_mj / completed : 0.0;
  }
};

// Runs the fleet: per-stream pass 1 (detail::measure_stream through the
// stream's factory-built backend), then the replay of every stream's ops on
// the shared cores/engines (detail::schedule_streams), then stats + energy
// integration. Deterministic at any --threads. Throws
// std::invalid_argument, before any stream does work, when `fleet.engines`
// instances of the largest PL stream engine do not fit the part or a paced
// stream's jitter_frac is outside [0, 1).
FleetResult run_fleet(const std::vector<StreamConfig>& streams,
                      const FleetConfig& fleet = {});

// --- shared event-driven core (used by run_fleet and run_pipelined) ---------

namespace detail {

struct FleetStageCost {
  SimDuration ps, pl;
};

// One stream of per-frame stage costs, for schedule_fleet.
struct FleetStreamInput {
  // Per frame: arrival time and the 4-stage (prep/fwd/fus/inv) cost split.
  std::vector<SimDuration> arrivals;
  std::vector<std::array<FleetStageCost, 4>> cost;
  SimDuration period;   // frame period; zero = batch mode (no spill, no jitter)
  int queue_depth = 0;  // <= 0 = unbounded
  int home_engine = 0;
};

struct FleetFrameOutcome {
  bool dropped = false;
  bool spilled = false;
  SimDuration completion;
  SimDuration latency;  // completion - arrival (dropped frames: zero)
};

struct FleetSchedule {
  Timeline timeline;
  std::vector<ResourceId> cores, engines;
  // Per-engine ACP DMA channels; only line batches place events on them.
  std::vector<ResourceId> dmas;
  std::vector<std::vector<FleetFrameOutcome>> frames;  // per stream, per frame
  std::vector<SimDuration> stream_ps_busy, stream_pl_busy;
};

// schedule_streaming over each frame's stage blocks (stage_block_ops). The
// inputs carry no spill ops, so spill_wait_frac has no effect here.
FleetSchedule schedule_fleet(const std::vector<FleetStreamInput>& streams,
                             int cores, int engines, int pipeline_depth,
                             bool steal_engines, double spill_wait_frac);

struct FleetEnergy {
  double loaded_mj = 0.0;
  double gated_mj = 0.0;
};

// Shared energy integration: `mode` power over the whole makespan (loaded),
// and with the engine draw gated to the merged busy intervals of `engines`.
FleetEnergy integrate_fleet_energy(const Timeline& timeline,
                                   const std::vector<ResourceId>& engines,
                                   power::ComputeMode mode);

struct StreamingStreamInput;  // src/sched/streaming.h

// Pass 1 of one stream (run_pipelined, and each run_fleet stream):
// measure_frames through `backend`, filling `in->frame_ops`. With
// `cross_frame` set, a BatchedFpgaBackend's frames are the batch stream it
// captures during the pass (and `in` takes its engine, driver costs and
// chain length), any other backend's the stage costs as sliced ops
// (stage_cost_ops); otherwise every frame is its stage blocks
// (stage_block_ops). Returns the additive ledger total.
SimDuration measure_stream(TransformBackend& backend,
                           const fusion::FuseConfig& fuse,
                           const std::vector<FramePair>& frames,
                           bool cross_frame, StreamingStreamInput* in);

// Pass 2 of run_pipelined and run_fleet: schedule_streaming over `streams`.
// Sets `totals`' makespan, busy times and energy (in `mode`; PL time and
// the gated draw cover the engines and the DMA channels) and returns the
// schedule.
FleetSchedule schedule_streams(const FleetConfig& fleet,
                               const std::vector<StreamingStreamInput>& streams,
                               power::ComputeMode mode, FleetResult* totals);

}  // namespace detail

}  // namespace vf::sched
