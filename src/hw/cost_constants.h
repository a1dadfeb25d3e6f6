// The calibrated cost constants of the modeled ZC702, in one place.
//
// Until PR 5 these lived as magic numerals spread across the driver model
// (src/hw/driver.h) and the CPU cost model (src/sched/adaptive.h); now the
// additive-ledger path and the event-queue timeline path share one set of
// named values, so the "ledger == timeline with overlap disabled" invariant
// (DESIGN.md §2) cannot drift by one path editing a constant the other
// still hardcodes.
//
// Every value is calibrated against the paper's one measured operating
// point, and the models read them directly: no per-instance config copies
// them. The anchor for each is noted inline (the clocks are in clock.h, the
// AXI burst shapes in axi.h). tests/test_hw.cpp locks the driver-side values,
// tests/test_sched.cpp locks the curves they produce.
#pragma once

namespace vf::hw::cost {

// --- driver front-end (paper §V, Fig. 5) ------------------------------------

// Per driver call user->kernel entry: ioctl + copy_from_user + engine kick,
// in PS cycles. Dominates short lines; this is exactly why the paper's FPGA
// loses below the 35x35..40x40 break point (calibrated against Fig. 9).
// Batched line submission (transfer-granularity double buffering) amortizes
// this over every line sharing one 2048-word kernel buffer.
inline constexpr double kDriverCallPsCycles = 12150;

// One status-register read across the GP port, and how many the polling
// completion path expects before the engine reports done.
inline constexpr double kStatusPollPsCycles = 120;
inline constexpr double kExpectedPollsPerCall = 3.0;

// Sleep + IRQ + wake path when the driver uses interrupt completion.
inline constexpr double kIrqLatencyPsCycles = 5200;

// --- scatter-gather descriptor chain (streaming driver, ISSUE 9) ------------

// One ioctl arms a bd-ring of up to Batching::sg_chain_len descriptors;
// batches after the chain head pay only these two charges instead of the
// full kDriverCallPsCycles entry:
//
//   build: the PS appends one descriptor to the already-armed ring
//          (fill the bd, flush the cache line, bump the tail pointer) —
//          user-space writes, no kernel entry.
//   fetch: the DMA engine reads the next descriptor from memory before it
//          can start the batch's input burst (PL cycles on the DMA channel).
//
// With sg_chain_len = 1 every batch is a chain head and the schedule is
// bit-identical to the flat per-batch driver entry (locked by the PR 5
// regression tests), so the default path cannot drift.
inline constexpr double kSgDescBuildPsCycles = 360;
inline constexpr double kSgDescFetchPlCycles = 48;

// Preemption granularity of the streaming replay: PS work longer than this
// is sliced so the interrupt-driven driver can interleave descriptor
// appends (keeping the PL fed) with application work like frame prep.
// ~31 us at 533 MHz — a few batch services per slice.
inline constexpr double kStreamPsSliceCycles = 16384;

// --- PL wavelet engine ------------------------------------------------------

// The float engine retires one output pair every two PL cycles after a
// pipeline fill of one cycle per coefficient slot (HLS II=2 schedule).
inline constexpr double kEngineInitiationInterval = 2.0;

constexpr double engine_compute_cycles(int outputs, int slots) {
  return kEngineInitiationInterval * outputs + slots;
}

// --- CPU (Cortex-A9) line-cost model ----------------------------------------

// Constants reproduce the paper's absolute times — which imply roughly 70
// cycles per float MAC on the A9 (unoptimized single-thread float code with
// OS overhead, not what the core could theoretically do) — so the model is
// dominated by a per-sample constant with a weak filter-length term.
inline constexpr double kCpuLineOverheadCycles = 400;
inline constexpr double kCpuPerSampleBaseCycles = 470;
inline constexpr double kCpuPerSampleTapCycles = 2.0;
inline constexpr double kCpuMagnitudeCyclesPerSample = 110;
inline constexpr double kCpuSelectCyclesPerSample = 35;
inline constexpr double kCpuPrepCyclesPerPixel = 300;

// NEON stage factors: the paper measures -10% on the forward transform and
// -16% on the inverse (whose interleaved synthesis loop vectorizes better).
inline constexpr double kNeonAnalysisFactor = 0.90;
inline constexpr double kNeonSynthesisFactor = 0.84;

// --- system power (paper §VI) ----------------------------------------------

// Total system draw while fusing on the PS only, and the PL engine's net
// draw on top of it: 19.2 mW is +3.6% of 533.3, the paper's reported net
// cost of the loaded bitstream. NEON adds no measurable draw.
inline constexpr double kSystemMw = 533.3;
inline constexpr double kPlEngineNetMw = 19.2;

// --- adaptive router --------------------------------------------------------

// Calibrated crossover in request words (payload + filter window): lines at
// least this long go to the FPGA engine, shorter ones stay on NEON. Matches
// calibrate_adaptive_threshold's kTotalTime optimum over the paper sweep.
inline constexpr int kAdaptiveThresholdSamples = 44;

}  // namespace vf::hw::cost
