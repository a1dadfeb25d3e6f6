// The unified run-configuration API for the sched layer (PR 7 redesign).
//
// Every backend used to grow its own ad-hoc constructor signature, which
// made "run this stream on that hardware with this host config"
// inexpressible the moment the fleet scheduler needed it. RunConfig is the
// one bag of knobs every backend understands: each backend is built from a
// RunConfig (SerialBackend also from the BackendKind it models), and
// make_backend() is the construction path the rest of the tree uses.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/fusion/fuse.h"
#include "src/hw/cost_constants.h"
#include "src/hw/driver.h"
#include "src/hw/resources.h"

namespace vf::sched {

// --- frame sweep geometry ---------------------------------------------------

struct FrameSize {
  int width = 0;
  int height = 0;
  std::string label() const;
  int pixels() const { return width * height; }
};

// The five sizes of the paper's figures: 32x24, 35x35, 40x40, 64x48, 88x72.
std::vector<FrameSize> paper_frame_sizes();

// --- run configuration ------------------------------------------------------

// One description of "how to run a fusion stream": what to fuse, how the
// host executes the numerics, which modeled hardware the stream runs on, and
// how deep the frame pipeline may fill. Backends read the subset they care
// about and ignore the rest, so a single RunConfig can parameterize an
// entire sweep (bench_util builds one from the CLI flags).
struct RunConfig {
  // What to fuse.
  FrameSize frame_size{88, 72};
  int frames = 10;  // the paper's "10 input frames"
  fusion::FuseConfig fuse;

  // Host execution: the pool width for the numerics. Affects only how fast
  // the host computes them; modeled time/energy is bit-identical at any
  // width (DESIGN.md §3). Every backend runs the one host path (the
  // band-streaming plan, DESIGN.md §7) with simd::active_kernels().
  HostConfig host;

  // Modeled hardware the stream runs on.
  hw::WaveletEngineConfig engine;
  driver::DriverCosts driver_costs;
  driver::PipelinedWaveletAccelerator::Batching batching;

  // Scheduling: run_pipelined's frames in flight (a frame starts once the
  // one this many places earlier has ended; <= 1 = the serial schedule), and
  // the NEON/FPGA crossover of SerialBackend's router (kAdaptive).
  int pipeline_depth = 4;
  int adaptive_threshold_samples = hw::cost::kAdaptiveThresholdSamples;

  // Cross-frame line streaming (ISSUE 9): when true and the stream runs on
  // the batched FPGA path with pipeline_depth > 1, run_pipelined replays
  // the captured batch stream at line granularity across frame and
  // level boundaries (ping-pong buffers refill from the next frame's rows
  // while the current frame's last batch is on the engine) instead of the
  // stage-granular overlap. Off (default) keeps every legacy schedule
  // bit-identical. Pair with batching.sg_chain_len to amortize the driver
  // entry over a descriptor chain.
  bool cross_frame = false;
};

// --- backend factory --------------------------------------------------------

enum class BackendKind { kArm, kNeon, kFpga, kFpgaBatched, kAdaptive };

// Display name, identical to the backend's name() ("ARM", "NEON", "FPGA",
// "FPGA+batch", "Adaptive").
const char* backend_name(BackendKind kind);

class TransformBackend;

// The one construction path for backends: builds the requested backend from
// the RunConfig fields it understands. Touches no process-wide state.
std::unique_ptr<TransformBackend> make_backend(BackendKind kind,
                                               const RunConfig& config);

}  // namespace vf::sched
