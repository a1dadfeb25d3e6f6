// Event-queue execution on top of the Timeline (ROADMAP items 1–2).
//
// Two layers of computed (not assumed) concurrency:
//
//   BatchedFpgaBackend     the FPGA engine driven through the
//                          PipelinedWaveletAccelerator: consecutive lines
//                          are packed into the 2048-word kernel buffers,
//                          one driver call per batch, and the two buffers
//                          ping-pong at transfer granularity (the paper's
//                          Fig. 5 schedule across *consecutive* lines).
//                          Amortizing the ~12k-cycle driver entry moves the
//                          FPGA time break point left of 35x35
//                          (tests/test_timeline.cpp locks this).
//
//   run_pipelined          frame-level software pipelining: while the PL
//                          transforms frame N, the PS runs frame N-1's
//                          fusion rule and frame N+1's prep. It is the
//                          fleet scheduler's one-stream case (fleet.h):
//                          stage costs come from the per-frame ledger
//                          (split into PS-resident and PL-resident parts)
//                          and are re-scheduled by the fleet's event-driven
//                          core; at pipeline_depth <= 1 that replay is the
//                          serial schedule, which degenerates to the ledger
//                          sum (DESIGN.md §2 invariant).
//
// Numerics are untouched in both layers: the same kernels run in the same
// order, so fused outputs stay bit-identical with every other backend.
#pragma once

#include <vector>

#include "src/common/timeline.h"
#include "src/sched/adaptive.h"
#include "src/sched/streaming.h"

namespace vf::sched {

// FPGA backend with batched line submission and transfer-granularity double
// buffering. Modeled time is computed on internal ResourceClocks over three
// resources (PS core, ACP DMA, PL engine); the additive per-stage ledger is
// reconciled from makespan deltas at stage boundaries, so
// frame_times().total() is the PS-visible end-to-end time, overlap included.
// No event is logged (nothing reads a per-line schedule; the streaming
// replay re-schedules from the batch trace instead), so accounting a frame
// allocates nothing with stream tracing off. Accounting is issued by one
// thread at a time, in frame order: detail::measure_frames may run it on a
// pool thread, concurrently with the window's numerics.
class BatchedFpgaBackend : public TransformBackend {
 public:
  BatchedFpgaBackend() : BatchedFpgaBackend(RunConfig{}) {}
  explicit BatchedFpgaBackend(const RunConfig& config);

  const char* name() const override { return "FPGA+batch"; }
  power::ComputeMode compute_mode() const override {
    return power::ComputeMode::kArmFpga;
  }

  void barrier() override { accel_.barrier(); }
  void account_analyze_lines(int lines, int out_len, int taps) override {
    submit_run(lines, out_len, taps, /*synthesis=*/false);
  }
  void account_synthesize_lines(int lines, int pairs, int taps) override {
    submit_run(lines, pairs, taps, /*synthesis=*/true);
  }
  void charge(SimDuration d) override;
  void finish_frame() override;

  const driver::PipelinedWaveletAccelerator& accelerator() const { return accel_; }

  // Cross-frame streaming trace (ISSUE 9): record every frame's op stream
  // (PS slices, accelerator batches, stage boundaries) during the serial
  // measurement pass. Recording is pure observation — the serial schedule,
  // ledgers, and numerics are unchanged. take_stream_trace() returns one op
  // list per completed frame and stops recording.
  void enable_stream_trace();
  std::vector<std::vector<detail::StreamOp>> take_stream_trace();

 protected:
  void on_stage_exit(Stage old_stage) override;

 private:
  // One engine-fit check and one submit_lines per run.
  void submit_run(int lines, int outputs, int taps, bool synthesis);

  // Closes in-flight batches and charges the makespan growth since the last
  // sync to `charge_to` (PL/DMA busy growth goes to the PL split ledger).
  void sync(Stage charge_to);

  // Converts accelerator batches closed since the last drain into kBatch
  // ops, then (optionally) appends a stage boundary; no-ops unless tracing.
  void drain_trace(Stage stage);
  void push_stage_boundary(Stage stage);

  ResourceClocks clocks_;
  ResourceId ps_, dma_, pl_;
  driver::PipelinedWaveletAccelerator accel_;
  SimDuration mark_;          // makespan at last sync
  SimDuration mark_pl_busy_;  // PL+DMA busy time at last sync
  SimDuration ps_ready_;      // PS events wait for drained outputs

  // Streaming trace capture (enable_stream_trace).
  bool tracing_ = false;
  std::vector<driver::Batch> batch_trace_;
  std::size_t batch_drained_ = 0;
  std::vector<detail::StreamOp> cur_ops_;
  std::vector<std::vector<detail::StreamOp>> trace_frames_;
};

// --- frame-level pipelining -------------------------------------------------

struct PipelineRunResult {
  int frames = 0;
  // Additive ledger sum over frames — what the serial TimedFusionRunner
  // reports for the same backend and input.
  SimDuration serial_total;
  // Completion time of the last frame on the event-queue schedule.
  SimDuration makespan;
  SimDuration ps_busy, pl_busy;
  double sustained_fps = 0.0;
  // Timeline-integrated energy with the bitstream-loaded draw for the whole
  // run (the paper's methodology), and with the engine draw gated to PL-busy
  // intervals (what clock-gating the idle engine would save).
  double energy_mj = 0.0;
  double energy_gated_mj = 0.0;

  double energy_per_frame_mj() const {
    return frames > 0 ? energy_mj / frames : 0.0;
  }
  double speedup_vs_serial() const {
    return makespan.sec() > 0.0 ? serial_total / makespan : 0.0;
  }
};

// Runs every frame pair through `backend` (detail::measure_stream: numerics
// fanned out over the host pool, accounting replayed in frame order beside
// them), then schedules the 4-stage software pipeline prep -> forward ->
// fusion -> inverse as a one-stream fleet in batch mode
// (detail::schedule_streams: one PS core, one engine, every frame ready at
// t=0, config.pipeline_depth frames in flight); pipeline_depth <= 1 is the
// serial schedule. At depth > 1, config.cross_frame replays a
// BatchedFpgaBackend's captured batch stream at line granularity instead
// (other backends ignore it). config.fuse drives the numerics; the modeled
// hardware is the backend's own.
PipelineRunResult run_pipelined(TransformBackend& backend,
                                const std::vector<FramePair>& frames,
                                const RunConfig& config = {});

// run_pipelined over the deterministic sweep scene of config.frame_size and
// config.frames.
PipelineRunResult probe_pipelined(TransformBackend& backend,
                                  const RunConfig& config);

}  // namespace vf::sched
