// make_backend(): the one construction path for transform backends (PR 7
// API redesign). Everything — benches, tests, calibrate, the fleet
// scheduler — builds backends through here.
#include "src/sched/pipeline.h"
#include "src/sched/run_config.h"

namespace vf::sched {

const char* backend_name(BackendKind kind) {
  switch (kind) {
    case BackendKind::kArm:
      return "ARM";
    case BackendKind::kNeon:
      return "NEON";
    case BackendKind::kFpga:
      return "FPGA";
    case BackendKind::kFpgaBatched:
      return "FPGA+batch";
    case BackendKind::kAdaptive:
      return "Adaptive";
  }
  return "?";
}

std::unique_ptr<TransformBackend> make_backend(BackendKind kind,
                                               const RunConfig& config) {
  if (kind == BackendKind::kFpgaBatched) {
    return std::make_unique<BatchedFpgaBackend>(config);
  }
  return std::make_unique<SerialBackend>(kind, config);
}

}  // namespace vf::sched
