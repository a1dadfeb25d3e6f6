#include "src/sched/calibrate.h"

#include "src/hw/cost_constants.h"

namespace vf::sched {

ThresholdCalibration calibrate_adaptive_threshold(CrossoverMetric metric,
                                                  const fusion::FuseConfig& config,
                                                  int frames) {
  ThresholdCalibration cal;
  // Candidate grid brackets the shipped default threshold
  // (hw::cost::kAdaptiveThresholdSamples): the extremes pin all-FPGA (0) and
  // all-NEON (1 << 20) routing so the sweep always contains both static
  // engines as degenerate cases.
  cal.candidates = {0,  16, 24, 32,
                   36, 40, hw::cost::kAdaptiveThresholdSamples, 48,
                   56, 64, 80, 96,
                   128, 1 << 20};
  const std::vector<FrameSize> sizes = paper_frame_sizes();
  for (const int threshold : cal.candidates) {
    double cost = 0.0;
    for (const FrameSize& size : sizes) {
      RunConfig run;
      run.adaptive_threshold_samples = threshold;
      SerialBackend backend(BackendKind::kAdaptive, run);
      const ProbeResult r = probe_backend(backend, size, frames, config);
      cost += metric == CrossoverMetric::kTotalTime ? r.total.sec() : r.energy_mj;
    }
    cal.costs.push_back(cost);
    if (cal.costs.size() == 1 || cost < cal.best_cost) {
      cal.best_cost = cost;
      cal.best_threshold = threshold;
    }
  }
  return cal;
}

}  // namespace vf::sched
