// PS/PL clocks of the modeled ZC702.
//
// The paper's system runs the Cortex-A9 PS at 533 MHz and the PL wavelet
// engine at 100 MHz; every modeled duration in the repo is derived by
// converting a cycle count at one of these clocks.
#pragma once

#include "src/common/sim_time.h"

namespace vf::hw {

inline constexpr double kPsHz = 533e6;  // PS (Cortex-A9)
inline constexpr double kPlHz = 100e6;  // PL (wavelet engine)

constexpr SimDuration ps_cycles(double n) { return SimDuration::seconds(n / kPsHz); }
constexpr SimDuration pl_cycles(double n) { return SimDuration::seconds(n / kPlHz); }

}  // namespace vf::hw
