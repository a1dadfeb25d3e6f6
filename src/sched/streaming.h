// The modeled scheduler: one deterministic replay of op streams on shared
// PS cores, PL engine slots and their ACP DMA channels. Every schedule in
// src/sched runs here (run_pipelined at any depth — depth <= 1 is the
// one-frame-deep replay, i.e. the serial schedule — run_fleet, and
// detail::schedule_fleet). A frame is a list of ops, at one of two
// granularities:
//
//   - stage blocks (cross_frame off, and schedule_fleet): per stage one PS
//     op with the stage's whole PS part, one opaque PL block, and a stage
//     boundary, so the engine drains at every stage boundary
//     (stage_block_ops);
//   - batches (cross_frame on): the op stream a BatchedFpgaBackend captures
//     during the serial measurement pass (PS slices, line batches, barriers,
//     stage boundaries), replayed with per-engine ping-pong buffer state that
//     persists across frame, level and stream boundaries — buffer B refills
//     from the next frame's rows while buffer A's last batch is still on the
//     engine. One ioctl arms a scatter-gather descriptor chain of up to
//     sg_chain_len batches; continuation batches pay only the descriptor
//     build/fetch charges (driver::sg_desc_*_time), so the ~12k-cycle driver
//     entry amortizes across the chain, which closes when the engine switches
//     streams or fills. Other backends' stages run as PS work sliced at
//     kStreamPsSliceCycles (stage_cost_ops), so the modeled interrupt-driven
//     driver can interleave descriptor appends with application work.
//
// Dispatch is non-delay list scheduling, one op at a time: among all
// eligible next ops (admitted, in the pipeline-depth window), the earliest
// feasible start commits first; ties break by stream, then frame. Batches
// are placed by driver::place_batch, the serial accelerator's rule. Numerics
// are untouched — pass 1 runs the exact serial schedule, so fused outputs
// and serial totals stay bit-identical at either granularity
// (tests/test_streaming.cpp).
#pragma once

#include <array>
#include <vector>

#include "src/hw/driver.h"
#include "src/sched/fleet.h"

namespace vf::sched::detail {

// One schedulable unit of a frame's replayed execution.
struct StreamOp {
  enum class Kind {
    kPs,             // PS-core work: a slice, or a stage block's PS part
    kBatch,          // one accelerator batch: drv/desc + in + comp + out
    kPlBlock,        // opaque PL block (stage-granular streams, e.g. kFpga)
    kStageBoundary,  // phase-exit sync: later PS work waits for the drain
  };
  Kind kind = Kind::kPs;
  int stage = 0;  // 0..3 (prep/fwd/fus/inv), for event labels
  SimDuration ps;              // kPs / kPlBlock duration
  driver::Batch batch;         // kBatch
};

// Appends `d` of PS work as one or more kPs slices of at most
// kStreamPsSliceCycles each (equal slices, deterministic count).
void append_sliced_ps(std::vector<StreamOp>* ops, int stage, SimDuration d);

// Op list of one frame from its stage-granular cost split, with the PS part
// sliced by append_sliced_ps (cross-frame streams that do not run the
// batched accelerator: CPU backends, serial FPGA, NEON spill).
std::vector<StreamOp> stage_cost_ops(const std::array<FleetStageCost, 4>& cost);

// The same split as stage blocks: per stage one kPs op with the whole PS
// part (when > 0), one kPlBlock with the PL part (when > 0), and a stage
// boundary between stages.
std::vector<StreamOp> stage_block_ops(const std::array<FleetStageCost, 4>& cost);

// One stream's input to the streaming replay. frame_ops[f] is frame f's
// captured op list; spill_ops (when non-empty) is the all-PS NEON
// alternative the admission layer may switch a frame to: spill_ops[f] for
// frame f, or, when it holds exactly one list, that list for every frame.
struct StreamingStreamInput {
  std::vector<SimDuration> arrivals;
  std::vector<std::vector<StreamOp>> frame_ops;
  std::vector<std::vector<StreamOp>> spill_ops;
  SimDuration period;   // frame period; zero = batch mode (no spill)
  int queue_depth = 0;  // <= 0 = unbounded
  int home_engine = 0;
  // Modeled hardware driving this stream's kBatch ops.
  hw::WaveletEngineConfig engine;
  driver::DriverCosts costs;
  int sg_chain_len = 1;
};

// Replays the op streams on `cores` PS cores (stream s on core s % cores)
// and `engines` PL engine slots (each with its own ACP DMA channel, listed
// in FleetSchedule::dmas). A frame arriving while its stream's admitted-but-
// unstarted backlog has reached queue_depth is dropped at its arrival
// instant. A frame starts no earlier than the completion of the frame
// pipeline_depth admitted places before it (so at most pipeline_depth
// frames per stream are in flight). Each PL
// op goes to the earliest-free engine when steal_engines is set (ties: the
// home slot, then the lowest id), else to the home slot. When the wait for
// that engine, measured from the arrival, exceeds spill_wait_frac of the
// period at a frame's first dispatch, the frame runs its spill ops instead.
// Ping-pong buffers and descriptor chains are per engine slot and persist
// across frames and streams (a slot switching streams re-arms its chain but
// keeps its buffer state — no drain).
FleetSchedule schedule_streaming(const std::vector<StreamingStreamInput>& streams,
                                 int cores, int engines, int pipeline_depth,
                                 bool steal_engines, double spill_wait_frac);

}  // namespace vf::sched::detail
