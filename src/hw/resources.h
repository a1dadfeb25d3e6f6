// Fabric resource model for the PL wavelet engine on the xc7z020.
//
// Calibrated so that the paper's 12-slot float engine reproduces Table I
// exactly (Registers 23412/22%, LUTs 17405/32%, Slices 7890/59%, BUFG 3/9%);
// tests/test_resources.cpp locks those values. Other configurations
// (register depth, fixed-point datapath) extrapolate linearly from the same
// per-slot costs.
#pragma once

#include <string>

namespace vf::hw {

struct DevicePart {
  std::string name = "xc7z020clg484-1";
  int registers = 106400;
  int luts = 53200;
  int slices = 13300;
  int bufg = 32;
  int bram36 = 140;
  int dsp48 = 220;
};

struct WaveletEngineConfig {
  // Coefficient-register depth per filter (paper HLS code: 12; the standard
  // Kingsbury q-shift filters need 14 — see bench_ablation_taps).
  int slots = 14;
  // Words per kernel line buffer; two buffers when double buffering.
  int buffer_words = 2048;
  // HLS-memcpy DMA block on the ACP; false is the GP-port design, where the
  // CPU moves every word itself (driver::dma_path).
  bool dma_enabled = true;
};

// The exact configuration of the paper's Table I row set.
WaveletEngineConfig paper_engine_config();

struct ResourceUsage {
  int registers = 0;
  int luts = 0;
  int slices = 0;
  int bufg = 0;
  int bram36 = 0;
  int dsp48 = 0;

  // Utilization percentages truncate like the paper's table.
  int pct_registers(const DevicePart& p) const { return registers * 100 / p.registers; }
  int pct_luts(const DevicePart& p) const { return luts * 100 / p.luts; }
  int pct_slices(const DevicePart& p) const { return slices * 100 / p.slices; }
  int pct_bufg(const DevicePart& p) const { return bufg * 100 / p.bufg; }
};

// Float32 datapath (the paper's HLS engine: logic-implemented multipliers,
// no DSP48 usage).
ResourceUsage estimate_engine_resources(const WaveletEngineConfig& config);

struct FixedPointFormat;  // src/hw/fixed_point.h

// Qm.n fixed-point datapath with DSP48 multipliers (ablation A7).
ResourceUsage estimate_engine_resources_fixed(const WaveletEngineConfig& config,
                                              const FixedPointFormat& fmt);

// How many independent instances of a `per_engine` datapath fit the part:
// the minimum across resource classes the instance actually consumes. BUFG
// clock trees are shared (every instance rides the same PS/PL/DMA clocks),
// so they do not divide. The paper's float engine fits once (slice-bound at
// 59%); the Q2.16 fixed-point datapath about seven times (DSP48-bound).
int max_engine_instances(const DevicePart& part, const ResourceUsage& per_engine);

}  // namespace vf::hw
