// System power model and the sampled power recorder (paper §VI).
//
// The paper measures energy by integrating "power values, measured by
// power-recording software running simultaneously" with the fusion run.
// system_power_mw() holds the two steady-state operating points the paper
// reports (ARM-only vs ARM+FPGA, +19.2 mW / +3.6% net for the PL engine;
// hw::cost::kSystemMw / kPlEngineNetMw); the PowerRecorder replays a run
// through a fixed-period sampler and exposes both the sampled integral and
// the exact one so the benches can quantify the methodology's error.
#pragma once

#include <vector>

#include "src/common/sim_time.h"
#include "src/common/timeline.h"
#include "src/hw/cost_constants.h"

namespace vf::power {

enum class ComputeMode { kArmOnly, kArmNeon, kArmFpga };

inline double system_power_mw(ComputeMode mode) {
  switch (mode) {
    case ComputeMode::kArmOnly:
    case ComputeMode::kArmNeon:  // NEON adds no measurable system draw
      return hw::cost::kSystemMw;
    case ComputeMode::kArmFpga:
      return hw::cost::kSystemMw + hw::cost::kPlEngineNetMw;
  }
  return hw::cost::kSystemMw;
}

inline double energy_mj(ComputeMode mode, SimDuration t) {
  return system_power_mw(mode) * t.sec();  // mW * s = mJ
}

// Sample-and-hold integrator with a fixed sampling period (the paper's
// power-recording software). Segments are replayed in order; each completed
// period contributes sample_power * period, so the tail of a run shorter
// than one period is the sampling error.
class PowerRecorder {
 public:
  explicit PowerRecorder(SimDuration period) : period_(period) {}

  void run_segment(ComputeMode mode, SimDuration duration) {
    const double mw = system_power_mw(mode);
    exact_mj_ += mw * duration.sec();
    double remaining = duration.sec();
    while (remaining > 0.0) {
      const double to_boundary = period_.sec() - into_period_;
      const double step = remaining < to_boundary ? remaining : to_boundary;
      into_period_ += step;
      remaining -= step;
      if (into_period_ >= period_.sec()) {
        sampled_mj_ += mw * period_.sec();  // sample taken at the boundary
        into_period_ = 0.0;
      }
    }
  }

  // Integrates mode power against a timeline instead of summed durations:
  // the run is replayed in timestamp order, charging `active` power during
  // the merged busy intervals of `pl_resources` and `idle` power in the
  // gaps. Because intervals are merged before integration, PS and PL being
  // concurrently active charges the engine's +3.6% system draw once —
  // the additive ledger would have charged it per overlapping segment.
  void run_timeline(const Timeline& timeline,
                    const std::vector<ResourceId>& pl_resources,
                    ComputeMode idle = ComputeMode::kArmOnly,
                    ComputeMode active = ComputeMode::kArmFpga) {
    run_intervals(timeline.busy_intervals(pl_resources), timeline.makespan(),
                  idle, active);
  }

  // run_timeline over precomputed Timeline::busy_intervals, so several
  // recorders can integrate one merge: `active` power inside `intervals`,
  // `idle` power in the gaps up to `makespan`.
  void run_intervals(const std::vector<Timeline::Interval>& intervals,
                     SimDuration makespan, ComputeMode idle, ComputeMode active) {
    SimDuration cursor;
    for (const auto& [start, end] : intervals) {
      if (start > cursor) run_segment(idle, start - cursor);
      run_segment(active, end - start);
      cursor = end;
    }
    if (makespan > cursor) run_segment(idle, makespan - cursor);
  }

  double sampled_energy_mj() const { return sampled_mj_; }
  double exact_energy_mj() const { return exact_mj_; }

 private:
  SimDuration period_;
  double into_period_ = 0.0;
  double sampled_mj_ = 0.0;
  double exact_mj_ = 0.0;
};

}  // namespace vf::power
