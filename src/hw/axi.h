// AXI transfer models for the two PS<->PL paths the paper compares (§V).
//
//   GP port:  the CPU moves every 32-bit word itself over the general-purpose
//             port — "every transfer requires around 25 clock cycles" (PS
//             cycles, CPU blocked for all of them).
//   ACP DMA:  the HLS-memcpy DMA engine bursts 64-bit beats through the
//             Accelerator Coherency Port at the PL clock, CPU free.
#pragma once

namespace vf::hw {

// PS cycles per 32-bit word with the CPU issuing each beat (paper: ~25).
inline constexpr int kGpPortCyclesPerWord = 25;

// ACP DMA burst shape, in PL cycles.
inline constexpr int kAcpSetupCycles = 40;    // descriptor write + DMA start
inline constexpr int kAcpWordsPerBeat = 2;    // 64-bit path, two 32-bit words
inline constexpr int kAcpBeatsPerBurst = 16;  // AXI burst length
inline constexpr int kAcpBurstOverhead = 2;   // address/response per burst

// PS cycles to move `words` over the GP port.
constexpr double gp_port_cycles(int words) {
  return static_cast<double>(words) * kGpPortCyclesPerWord;
}

// PL cycles to move `words` by ACP DMA.
constexpr double acp_dma_cycles(int words) {
  const int beats = (words + kAcpWordsPerBeat - 1) / kAcpWordsPerBeat;
  const int bursts = (beats + kAcpBeatsPerBurst - 1) / kAcpBeatsPerBurst;
  return static_cast<double>(kAcpSetupCycles) + beats +
         static_cast<double>(bursts) * kAcpBurstOverhead;
}

}  // namespace vf::hw
