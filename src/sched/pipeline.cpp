#include "src/sched/pipeline.h"

#include "src/hw/cost_constants.h"
#include "src/sched/fleet.h"

namespace vf::sched {

// --- BatchedFpgaBackend -----------------------------------------------------

BatchedFpgaBackend::BatchedFpgaBackend(const RunConfig& config)
    : TransformBackend(config.host),
      ps_(clocks_.add_resource()),
      dma_(clocks_.add_resource()),
      pl_(clocks_.add_resource()),
      accel_(config.engine, config.driver_costs, config.batching, &clocks_,
             ps_, dma_, pl_) {}

// Batch submission and buffer ping-pong depend only on the request sequence
// (sizes + barriers), never on sample values, so the whole clock
// interaction lives in accounting: the serial account_*/barrier() replay
// reproduces the exact event schedule at any host thread count.
//
// A run goes to the accelerator whole (submit_lines). That is exact only
// while a line's compute cycles are integral, which holds because the
// initiation interval and the slot count are.
static_assert(hw::cost::kEngineInitiationInterval ==
                  static_cast<double>(static_cast<long long>(
                      hw::cost::kEngineInitiationInterval)),
              "submit_lines adds k lines' compute cycles at once, which is "
              "exact only for integral per-line cycles");

void BatchedFpgaBackend::submit_run(int lines, int outputs, int taps,
                                    bool synthesis) {
  if (lines <= 0) return;
  detail::check_engine_fit(accel_.engine(), taps, synthesis);
  accel_.submit_lines(lines, 2 * outputs + taps, 2 * outputs,
                      hw::cost::engine_compute_cycles(outputs,
                                                      accel_.engine().slots));
}

void BatchedFpgaBackend::charge(SimDuration d) {
  // Generic PS work (prep, fusion-rule kernels) becomes a PS event; the
  // ledger is reconciled from the makespan at the next sync, so no direct
  // ledger_add here — adding both would double-charge.
  clocks_.schedule(ps_, "ps", ps_ready_, d);
  if (tracing_) {
    drain_trace(stage());
    detail::append_sliced_ps(&cur_ops_, static_cast<int>(stage()), d);
  }
}

void BatchedFpgaBackend::on_stage_exit(Stage old_stage) {
  sync(old_stage);
  if (tracing_) {
    drain_trace(old_stage);
    push_stage_boundary(old_stage);
  }
}

void BatchedFpgaBackend::finish_frame() {
  sync(stage());
  if (tracing_) {
    drain_trace(stage());
    // The next frame's list starts at this one's size, so a run of frames
    // of one shape fills each list without regrowing it.
    const std::size_t ops = cur_ops_.size();
    trace_frames_.push_back(std::move(cur_ops_));
    cur_ops_.clear();
    cur_ops_.reserve(ops);
    batch_trace_.clear();
    batch_drained_ = 0;
  }
}

void BatchedFpgaBackend::enable_stream_trace() {
  tracing_ = true;
  batch_trace_.clear();
  batch_drained_ = 0;
  cur_ops_.clear();
  trace_frames_.clear();
  accel_.set_trace(&batch_trace_);
}

std::vector<std::vector<detail::StreamOp>> BatchedFpgaBackend::take_stream_trace() {
  tracing_ = false;
  accel_.set_trace(nullptr);
  return std::move(trace_frames_);
}

void BatchedFpgaBackend::drain_trace(Stage stage) {
  for (; batch_drained_ < batch_trace_.size(); ++batch_drained_) {
    detail::StreamOp op;
    op.kind = detail::StreamOp::Kind::kBatch;
    op.stage = static_cast<int>(stage);
    op.batch = batch_trace_[batch_drained_];
    cur_ops_.push_back(op);
  }
}

void BatchedFpgaBackend::push_stage_boundary(Stage stage) {
  // A leading or doubled boundary carries no information (the next frame's
  // begin_stage(kPrep) re-exits the previous frame's kInverse after
  // finish_frame already drained it) — skip those.
  if (cur_ops_.empty() ||
      cur_ops_.back().kind == detail::StreamOp::Kind::kStageBoundary) {
    return;
  }
  detail::StreamOp op;
  op.kind = detail::StreamOp::Kind::kStageBoundary;
  op.stage = static_cast<int>(stage);
  cur_ops_.push_back(op);
}

void BatchedFpgaBackend::sync(Stage charge_to) {
  accel_.flush();
  const SimDuration now = clocks_.makespan();
  ledger_add(charge_to, now - mark_);
  const SimDuration pl_busy = clocks_.busy_time(pl_) + clocks_.busy_time(dma_);
  ledger_add_pl(charge_to, pl_busy - mark_pl_busy_);
  mark_ = now;
  mark_pl_busy_ = pl_busy;
  // A stage consumes the previous stage's outputs: later PS work must wait
  // for the drain point.
  ps_ready_ = now;
}

// --- frame-level pipelining -------------------------------------------------

PipelineRunResult run_pipelined(TransformBackend& backend,
                                const std::vector<FramePair>& frames,
                                const RunConfig& config) {
  PipelineRunResult result;
  result.frames = static_cast<int>(frames.size());

  // A one-stream fleet in batch mode: every frame ready at t=0, an unbounded
  // queue, one PS core and one engine slot (depth <= 1: the serial
  // schedule). Only an overlapped window replays a BatchedFpgaBackend's
  // captured batch stream; everything else runs as stage blocks.
  FleetConfig fleet;  // one engine, no spill by default
  fleet.cores = 1;
  fleet.pipeline_depth = config.pipeline_depth;
  fleet.cross_frame = config.pipeline_depth > 1 && config.cross_frame &&
                      dynamic_cast<BatchedFpgaBackend*>(&backend) != nullptr;

  // Pass 1: numerics (fanned out over the host pool, one frame at a time per
  // thread) and the in-order accounting replay overlapped with them.
  std::vector<detail::StreamingStreamInput> stream(1);
  stream[0].arrivals.assign(frames.size(), SimDuration::zero());
  result.serial_total = detail::measure_stream(backend, config.fuse, frames,
                                               fleet.cross_frame, &stream[0]);

  // Pass 2: the PS part of a stage (driver calls, fusion rule, prep) runs on
  // the PS core; the PL part follows it on the engine. Stages of one frame
  // chain by data dependency; stages of *different* frames share only the
  // resources, which is where the overlap comes from. `energy_mj` keeps the
  // paper's methodology (the loaded bitstream's draw for the whole run when
  // the backend uses the PL at all); `energy_gated_mj` charges the engine
  // draw only while the PL side is busy.
  FleetResult totals;
  detail::schedule_streams(fleet, stream, backend.compute_mode(), &totals);
  result.makespan = totals.makespan;
  result.ps_busy = totals.ps_busy;
  result.pl_busy = totals.pl_busy;
  result.energy_mj = totals.energy_mj;
  result.energy_gated_mj = totals.energy_gated_mj;
  result.sustained_fps =
      result.makespan.sec() > 0.0 ? result.frames / result.makespan.sec() : 0.0;
  return result;
}

PipelineRunResult probe_pipelined(TransformBackend& backend,
                                  const RunConfig& config) {
  return run_pipelined(
      backend, make_sweep_frames(config.frame_size, config.frames), config);
}

}  // namespace vf::sched
