// PS/PL clock domains of the modeled ZC702.
//
// The paper's system runs the Cortex-A9 PS at 533 MHz and the PL wavelet
// engine at 100 MHz; every modeled duration in the repo is derived by
// converting a cycle count through one of these domains.
#pragma once

#include <string>

#include "src/common/sim_time.h"

namespace vf::hw {

class ClockDomain {
 public:
  ClockDomain(std::string name, double hz) : name_(std::move(name)), hz_(hz) {}

  const std::string& name() const { return name_; }
  double hz() const { return hz_; }

  SimDuration cycles(double n) const { return SimDuration::seconds(n / hz_); }

 private:
  std::string name_;
  double hz_;
};

// Returned by reference: these sit on per-line hot paths (every modeled
// line request converts cycles through a domain).
inline const ClockDomain& ps_clock() {
  static const ClockDomain domain("PS (Cortex-A9)", 533e6);
  return domain;
}
inline const ClockDomain& pl_clock() {
  static const ClockDomain domain("PL (wavelet engine)", 100e6);
  return domain;
}

}  // namespace vf::hw
