// Modeled Linux driver + DMA accelerator front-end (paper §V, Fig. 5).
//
// Each wavelet line is one request to the PL engine: the driver copies the
// extended line into kernel memory, starts the engine, and either polls the
// status register or sleeps on the completion interrupt. Double buffering
// (Fig. 5) splits the kernel memory into two areas so the next line's input
// copy overlaps the engine's processing of the current line.
//
// Two accounting front-ends share one cost decomposition (LineCost), one
// buffer-fit rule (check_line_fits) and one batch placement (place_batch):
//
//   WaveletAccelerator          the additive ledger path — one synchronous
//                               line request at a time, PS-visible time
//                               returned per call (the seed model; every
//                               Fig. 9/10 bench still runs through it).
//   PipelinedWaveletAccelerator the event-queue path — lines are batched
//                               into the 2048-word kernel buffers, one
//                               driver call per batch, and the two buffers
//                               ping-pong at transfer granularity: buffer A
//                               is processed by the engine while buffer B
//                               fills across *consecutive* lines (the real
//                               Fig. 5 schedule). Time is computed on
//                               ResourceClocks, not assumed additive.
#pragma once

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/common/sim_time.h"
#include "src/common/timeline.h"
#include "src/hw/axi.h"
#include "src/hw/clock.h"
#include "src/hw/cost_constants.h"
#include "src/hw/resources.h"

namespace vf::driver {

enum class CompletionMode { kPolling, kInterrupt };

// The driver's ablation switches; its calibrated costs are hw::cost's.
struct DriverCosts {
  CompletionMode completion = CompletionMode::kPolling;
  bool double_buffering = true;
};

// Whether copies ride the ACP DMA channel (PL side, may overlap PS work);
// without the DMA block (the GP-port design) the CPU moves every word itself.
inline bool dma_path(const hw::WaveletEngineConfig& engine) {
  return engine.dma_enabled;
}

// The four cost components of servicing line requests, kept separate so the
// ledger path and the timeline path charge the same numbers to different
// schedules (additive vs event-queue).
struct LineCost {
  SimDuration driver;   // PS: ioctl + copy + completion (poll/irq)
  SimDuration input;    // input words over the configured transfer path
  SimDuration compute;  // PL engine busy time
  SimDuration output;   // result words back
};

// PS time of one user->kernel driver entry including completion.
inline SimDuration driver_call_time(const DriverCosts& costs) {
  SimDuration t = hw::ps_cycles(hw::cost::kDriverCallPsCycles);
  if (costs.completion == CompletionMode::kPolling) {
    t += hw::ps_cycles(hw::cost::kStatusPollPsCycles *
                       hw::cost::kExpectedPollsPerCall);
  } else {
    t += hw::ps_cycles(hw::cost::kIrqLatencyPsCycles);
  }
  return t;
}

// A batch that continues an armed scatter-gather chain pays these two
// instead of the full driver entry. PS time to append one descriptor to the
// already-armed ring (user-space bd fill + tail-pointer bump — no kernel
// entry):
inline SimDuration sg_desc_build_time() {
  return hw::ps_cycles(hw::cost::kSgDescBuildPsCycles);
}

// DMA-side time to fetch the next chained descriptor before its burst.
inline SimDuration sg_desc_fetch_time() {
  return hw::pl_cycles(hw::cost::kSgDescFetchPlCycles);
}

// Time to move `words` over the configured PS<->PL path: ACP DMA bursts at
// the PL clock, or CPU-issued GP-port beats at the PS clock.
inline SimDuration transfer_time(const hw::WaveletEngineConfig& engine, int words) {
  if (!dma_path(engine)) return hw::ps_cycles(hw::gp_port_cycles(words));
  return hw::pl_cycles(hw::acp_dma_cycles(words));
}

inline LineCost line_cost(const hw::WaveletEngineConfig& engine,
                          const DriverCosts& costs, int words_in, int words_out,
                          double compute_cycles) {
  LineCost c;
  c.driver = driver_call_time(costs);
  c.input = transfer_time(engine, words_in);
  c.output = transfer_time(engine, words_out);
  c.compute = hw::pl_cycles(compute_cycles);
  return c;
}

// Throws std::invalid_argument for a line request longer than the kernel
// buffer (same policy as check_engine_fit: modeling a request the hardware
// cannot hold would produce plausible-looking nonsense).
inline void check_line_fits(const hw::WaveletEngineConfig& engine, int words_in) {
  if (words_in > engine.buffer_words) {
    throw std::invalid_argument(
        std::to_string(words_in) + "-word line request does not fit the "
        "modeled kernel buffer (" + std::to_string(engine.buffer_words) +
        " words)");
  }
}

// One batch of line requests: what place_batch charges, and what the
// streaming replay (src/sched/streaming.h) re-schedules across frames.
struct Batch {
  int words_in = 0;
  int words_out = 0;
  double compute_cycles = 0.0;  // PL cycles
  // True when a barrier() separates this batch from the previous one: its
  // input depends on outputs of earlier batches (row -> column pass).
  bool after_barrier = false;
};

// The ping-pong buffers and descriptor chain of one PL engine slot.
struct EngineSlot {
  SimDuration buffer_free[2];  // when the engine has drained each buffer
  long long batches = 0;       // flips the ping-pong buffer
  int chain_pos = 0;           // 0: the next batch heads a new chain
  int chain_owner = -1;        // who armed the chain (the replay's stream)

  // The buffer the next batch fills.
  int next_buffer(const DriverCosts& costs) const {
    return costs.double_buffering ? static_cast<int>(batches & 1) : 0;
  }
};

struct BatchEvents {
  ResourceClocks::Event drv, in, comp, out;
};

// Places one batch on `clocks` (a ResourceClocks, or a Timeline to log the
// events): driver entry on `ps`, input copy, compute on `pl`, output copy,
// the copies on `dma` or, off the DMA path, on `ps`. The driver call's
// copy_from_user writes this batch's kernel buffer, so it also waits for the
// engine to drain the batch that last used it (Fig. 5); `ready` is the
// caller's data fence. With chain_len > 1 only a chain head pays the full
// driver entry; continuations pay a descriptor append on the PS and a
// descriptor fetch before the input burst. (`inline` is deliberate: without
// it GCC keeps a template this size out of the accounting hot path.)
template <class Clocks>
inline BatchEvents place_batch(Clocks& clocks, EngineSlot& slot, ResourceId ps,
                               ResourceId dma, ResourceId pl,
                               const hw::WaveletEngineConfig& engine,
                               const DriverCosts& costs, int chain_len,
                               SimDuration ready, const Batch& batch) {
  const ResourceId xfer = dma_path(engine) ? dma : ps;
  const bool head = slot.chain_pos == 0;
  const int buf = slot.next_buffer(costs);
  BatchEvents ev;
  ev.drv = clocks.schedule(
      ps, head ? "drv" : "desc", std::max(ready, slot.buffer_free[buf]),
      head ? driver_call_time(costs) : sg_desc_build_time());
  SimDuration in_time = transfer_time(engine, batch.words_in);
  if (!head) in_time += sg_desc_fetch_time();
  ev.in = clocks.schedule(xfer, "in", ev.drv.end, in_time);
  ev.comp = clocks.schedule(pl, "comp", ev.in.end,
                            hw::pl_cycles(batch.compute_cycles));
  ev.out = clocks.schedule(xfer, "out", ev.comp.end,
                           transfer_time(engine, batch.words_out));
  // The engine has consumed the input buffer once compute ends; the next
  // batch using this buffer may start filling then.
  slot.buffer_free[buf] = ev.comp.end;
  ++slot.batches;
  slot.chain_pos = (slot.chain_pos + 1) % (chain_len < 1 ? 1 : chain_len);
  return ev;
}

// Accounts modeled time for line requests against one engine configuration.
class WaveletAccelerator {
 public:
  WaveletAccelerator(const hw::WaveletEngineConfig& engine, const DriverCosts& costs)
      : engine_(engine), costs_(costs) {}

  const hw::WaveletEngineConfig& engine() const { return engine_; }

  // PS-visible time to process one line: `words_in` extended input words,
  // `words_out` result words, `compute_cycles` PL cycles of engine busy time.
  // Throws std::invalid_argument (check_line_fits) for an over-long line.
  SimDuration line_time(int words_in, int words_out, double compute_cycles) {
    check_line_fits(engine_, words_in);
    const LineCost cost = line_cost(engine_, costs_, words_in, words_out,
                                    compute_cycles);

    // Double buffering hides engine busy time behind the next line's input
    // copy; without it the PS waits out the full compute phase.
    SimDuration stall;
    if (costs_.double_buffering) {
      stall = cost.compute > cost.input ? cost.compute - cost.input
                                        : SimDuration::zero();
    } else {
      stall = cost.compute;
    }
    stall_time_ += stall;

    const SimDuration total = cost.driver + cost.input + stall + cost.output;
    ++lines_;
    last_ps_time_ = dma_path(engine_) ? cost.driver
                                      : cost.driver + cost.input + cost.output;
    last_pl_time_ = total - last_ps_time_;
    return total;
  }

  // Accumulated PS wait-for-PL time (what double buffering removes).
  SimDuration stall_time() const { return stall_time_; }
  long long lines() const { return lines_; }

  // Split of the most recent line_time() between PS-resident work (driver
  // entry, GP-port word moves) and the PL-side remainder (DMA, engine,
  // stall) — what a frame-level pipeline may overlap with other PS work.
  SimDuration last_line_ps_time() const { return last_ps_time_; }
  SimDuration last_line_pl_time() const { return last_pl_time_; }

 private:
  hw::WaveletEngineConfig engine_;
  DriverCosts costs_;
  SimDuration stall_time_;
  long long lines_ = 0;
  SimDuration last_ps_time_;
  SimDuration last_pl_time_;
};

// Transfer-granularity double buffering with batched submission.
//
// Consecutive line requests are packed into one kernel buffer (up to
// `engine.buffer_words` words and `max_lines_per_call` lines) and shipped
// with a single driver call, amortizing the ~12k-cycle user->kernel entry —
// the cost that puts the serial FPGA behind NEON below 40x40. The two
// kernel buffers ping-pong: batch i's input copy may start as soon as the
// engine has finished reading batch i-2's buffer, so the DMA fills buffer B
// while the engine processes buffer A (Fig. 5 across consecutive lines).
//
// All time lands on caller-owned ResourceClocks across three resources (PS
// core, DMA channel, PL engine); PS-visible completion is the last output
// transfer's end, i.e. the clocks' makespan, not a sum. Only the clocks
// advance: no event is logged, so a batch costs O(1) and never allocates.
class PipelinedWaveletAccelerator {
 public:
  struct Batching {
    // Cap on lines per driver call; the 2048-word buffer capacity caps the
    // batch too, whichever bites first.
    int max_lines_per_call = 16;
    // Scatter-gather descriptor chain length: one driver entry (ioctl) arms
    // up to this many batches; the rest of the chain pays only the
    // descriptor build/fetch charges (sg_desc_*_time). 1 = every batch
    // is a chain head, i.e. the flat per-batch driver entry — bit-identical
    // to the pre-SG schedule.
    int sg_chain_len = 1;
  };

  PipelinedWaveletAccelerator(const hw::WaveletEngineConfig& engine,
                              const DriverCosts& costs, const Batching& batching,
                              ResourceClocks* clocks, ResourceId ps,
                              ResourceId dma, ResourceId pl)
      : engine_(engine), costs_(costs), batching_(batching), clocks_(clocks),
        ps_(ps), dma_(dma), pl_(pl) {}

  const hw::WaveletEngineConfig& engine() const { return engine_; }
  const DriverCosts& costs() const { return costs_; }
  const Batching& batching() const { return batching_; }

  // Record every closed batch into `trace` (nullptr disables). Recording is
  // pure observation: the event schedule is unchanged.
  void set_trace(std::vector<Batch>* trace) { trace_ = trace; }

  // Queues one line into the current batch, closing the batch first if the
  // line would overflow the kernel buffer or the per-call line cap. Throws
  // std::invalid_argument (check_line_fits) for a line longer than the
  // kernel buffer; nothing is queued then. The reference submit_lines is
  // held to (PipelinedAccelerator.SubmitLinesMatchesLineByLine).
  void submit_line(int words_in, int words_out, double compute_cycles) {
    check_line_fits(engine_, words_in);
    if (pending_lines_ > 0 &&
        (pending_lines_ >= batching_.max_lines_per_call ||
         pending_.words_in + words_in > engine_.buffer_words)) {
      close_batch();
    }
    ++pending_lines_;
    pending_.words_in += words_in;
    pending_.words_out += words_out;
    pending_.compute_cycles += compute_cycles;
    ++lines_;
  }

  // Queues a run of `lines` identical lines: the same batches as `lines`
  // submit_line calls, placed a batch at a time. Each step adds as many of
  // the run's lines as the line cap and the buffer words leave room for,
  // and a batch is closed only where the next line would not fit, so batch
  // boundaries fall where the per-line calls put them. Adding k lines at
  // once is exact while `compute_cycles` is integral (as
  // hw::cost::engine_compute_cycles is): k * compute_cycles and every
  // partial sum are then integers a double holds exactly, and the word
  // counts are ints. Throws like submit_line for an over-long line, before
  // anything is queued; a run of 0 lines queues nothing.
  void submit_lines(int lines, int words_in, int words_out, double compute_cycles) {
    if (lines <= 0) return;
    check_line_fits(engine_, words_in);
    assert(compute_cycles == std::floor(compute_cycles));
    const int cap = std::max(batching_.max_lines_per_call, 1);
    while (lines > 0) {
      if (pending_lines_ > 0 &&
          (pending_lines_ >= cap ||
           pending_.words_in + words_in > engine_.buffer_words)) {
        close_batch();
      }
      int k = std::min(lines, cap - pending_lines_);
      if (words_in > 0) {
        k = std::min(k, (engine_.buffer_words - pending_.words_in) / words_in);
      }
      pending_lines_ += k;
      pending_.words_in += k * words_in;
      pending_.words_out += k * words_out;
      pending_.compute_cycles += k * compute_cycles;
      lines_ += k;
      lines -= k;
    }
  }

  // Data-dependency fence: lines submitted after the barrier consume outputs
  // of lines before it (e.g. the column pass reads the row pass's results),
  // so their input copies may not start until those outputs have landed.
  void barrier() {
    close_batch();
    dep_ready_ = last_output_end_;
    pending_.after_barrier = true;
  }

  // Closes any pending batch and returns the completion time of the last
  // output transfer (PS-visible drain point). A drain closes the armed
  // descriptor chain too: the ioctl context ends with the synchronous wait,
  // so the next batch re-enters the driver (chain head).
  SimDuration flush() {
    close_batch();
    slot_.chain_pos = 0;
    return last_output_end_;
  }

  long long lines() const { return lines_; }
  long long driver_calls() const { return slot_.batches; }
  // Batches that paid the full driver entry (chain heads). With
  // sg_chain_len = 1 this equals driver_calls().
  long long chain_heads() const { return chain_heads_; }

 private:
  // Out of line on purpose: the placement runs once per batch, but without
  // the attribute GCC copies it into every site that can close one
  // (submit_lines' loop, barrier(), flush()), so BatchedFpgaBackend's run
  // body, barrier() and sync() grow from 531, 41 and 170 bytes to 1181, 889
  // and 1041 (`nm -S -C` on pipeline.cpp.o), for no measurable gain in the
  // accounting replay.
  [[gnu::noinline]] void close_batch() {
    if (pending_lines_ == 0) return;
    // dep_ready_: outputs these lines depend on (barrier()). Chains persist
    // across barriers and close at flush().
    if (slot_.chain_pos == 0) ++chain_heads_;
    last_output_end_ =
        place_batch(*clocks_, slot_, ps_, dma_, pl_, engine_, costs_,
                    batching_.sg_chain_len, dep_ready_, pending_)
            .out.end;
    if (trace_) trace_->push_back(pending_);
    pending_ = Batch{};
    pending_lines_ = 0;
  }

  hw::WaveletEngineConfig engine_;
  DriverCosts costs_;
  Batching batching_;
  ResourceClocks* clocks_;
  ResourceId ps_, dma_, pl_;
  Batch pending_;
  int pending_lines_ = 0;
  EngineSlot slot_;
  SimDuration dep_ready_;
  SimDuration last_output_end_;
  long long lines_ = 0;
  long long chain_heads_ = 0;
  std::vector<Batch>* trace_ = nullptr;
};

}  // namespace vf::driver
