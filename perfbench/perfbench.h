// The repository benchmark: closed-loop host timing of the fusion stack on
// seeded inputs, a correctness oracle for every operation, and a traced
// per-layer mode that times each layer's public entry points from outside.
//
// Two clocks are reported side by side. Host time (wall-clock, scaled to a
// reference machine speed by a fixed probe timed beside every operation) is
// what performance work moves; modeled ZC702 time and energy are deterministic
// and must repeat bit-for-bit across runs, pool widths and (for the
// single-camera workloads) input seeds, because accounting reads shapes,
// never pixel values.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/common/json.h"
#include "src/sched/fleet.h"
#include "src/sched/pipeline.h"

namespace perfbench {

using vf::image::ImageF;
using vf::sched::FramePair;

// --- statistics ---------------------------------------------------------------

// Nearest-rank percentile (q in (0, 1]): the smallest sample with at least
// q*n samples at or below it. Same rule the fleet scheduler uses for its
// latency percentiles.
double percentile(std::vector<double> samples, double q);
// Median as the mean of the two middle samples for even n.
double median(std::vector<double> samples);

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Process CPU time (all threads, user + system). The timed run prints it
// beside its wall-clock figures; the traced mode times layers with it, so
// self times on pool threads add up to the operation's.
double cpu_s();

// --- seeded inputs ------------------------------------------------------------

// Frame f of a camera stream: a textured visible frame (oriented gratings,
// block structure and sensor noise, all drawn from `seed`) and a thermal
// frame with a hot target whose position drifts from frame to frame.
FramePair make_frame(std::uint64_t seed, int rows, int cols, int f);
std::vector<FramePair> make_frames(std::uint64_t seed, int rows, int cols,
                                   int count);

// Camera phase offsets in [0, period_s), one per stream, drawn from `seed`.
std::vector<double> make_phase_offsets(std::uint64_t seed, int streams,
                                       double period_s);

// --- workloads ----------------------------------------------------------------

struct Workload {
  const char* name;
  int rows, cols;
  int window;      // frames per operation (per stream for a fleet)
  int streams;     // 0 = one camera through run_pipelined; N = run_fleet
  int max_width;   // host pool width is min(max_width, nproc)
};

const Workload* find_workload(const std::string& name);
int pool_width(const Workload& w);

// The RunConfig every backend of the workload is built from, at pool
// width `width`.
vf::sched::RunConfig run_config(const Workload& w, int width);
std::vector<vf::sched::StreamConfig> fleet_streams(const Workload& w,
                                                   std::uint64_t seed);
vf::sched::FleetConfig fleet_config();

// Named modeled fields of one operation, compared bit for bit.
using Modeled = std::vector<std::pair<std::string, double>>;
Modeled modeled_fields(const vf::sched::PipelineRunResult& r);
Modeled modeled_fields(const vf::sched::FleetResult& r);

// The four end-to-end modeled metrics, derived from one operation.
struct ModeledSummary {
  double fps = 0.0;
  double mj_per_frame = 0.0;
  double p99_ms = 0.0;
  double served_frac = 0.0;
};

// One closed-loop operation: builds what the workload needs, runs it, and
// returns its modeled fields. Single-camera operations build a fresh backend
// (its timeline starts at zero, so modeled fields are reproducible) and run
// run_pipelined over `frames`; fleet operations call run_fleet.
struct Operation {
  const Workload* w = nullptr;
  int width = 1;
  std::vector<vf::sched::StreamConfig> streams;  // fleet only

  Modeled run(const std::vector<FramePair>& frames,
              ModeledSummary* summary = nullptr) const;
};

// --- correctness oracle -------------------------------------------------------

// Fused frame by the staged forward_dtcwt -> fuse_pyramids -> inverse_dtcwt
// path over the scalar kernel set at width 1.
ImageF reference_fuse(const FramePair& pair);
// Fused frame through the workload's backend (TimedFusionRunner).
ImageF backend_fuse(const Workload& w, int width, const FramePair& pair);

// Empty when equal bit for bit; otherwise a one-line description.
std::string diff_images(const ImageF& got, const ImageF& want);
std::string diff_modeled(const Modeled& got, const Modeled& want);

// --- traced mode ----------------------------------------------------------------

// In-memory spans, one per timed call into a layer, written out at exit.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0.0, end = 0.0;  // wall seconds, steady_clock
    double cpu = 0.0;               // process CPU seconds inside the span
    int parent = -1;                // index into spans(), -1 = root
    int op = -1;                    // operation id, -1 = run-level probe
  };

  int begin(std::string name, int op);
  double end(int id);  // returns the span's CPU seconds
  const std::vector<Span>& spans() const { return spans_; }
  vf::json::Value to_json() const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
  std::vector<double> open_cpu_;
};

// The traced run's own check. The self times of the layers on the
// workload's path must each be non-negative and add up to the untraced
// operation within kReconcileTolerance of it, and the operation rebuilt
// from the layer calls must reproduce the real one's modeled makespan and
// energy bit for bit (so the per-layer figures describe the schedule the
// program actually runs).
constexpr double kReconcileTolerance = 0.15;
struct LayerBalance {
  double op_us = 0.0;        // untraced operation, per frame
  double residual_us = 0.0;  // op_us minus the path layers' self times
  std::vector<std::pair<std::string, double>> path_us;  // self times, per frame
  bool rebuilt_exact = false;
};
// Empty when the balance holds; otherwise the first violation.
std::string check_balance(const LayerBalance& b);

// Runs the traced mode for `seconds` and returns the per-layer metrics
// (name -> value, unit) plus the run's human-readable report lines. The
// report is incorrect when an operation fails the oracle or the layers do
// not balance.
struct LayerReport {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::vector<std::string> lines;
  bool correct = true;
  int attempted = 0;
  int failed = 0;
};
LayerReport run_traced(const Workload& w, std::uint64_t seed, double seconds,
                       Tracer* tracer);

// --- self-tests -----------------------------------------------------------------

// Returns the number of failed checks; prints one line per check.
int run_self_tests();

}  // namespace perfbench
