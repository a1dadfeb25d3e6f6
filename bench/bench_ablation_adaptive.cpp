// Ablation A3 — the adaptive engine-selection system (paper future work).
//
// Sweeps the routing threshold of the adaptive backend, with the routing
// statistics that show *why* it wins: deep pyramid levels of large frames
// are small workloads, exactly the regime where the paper shows the FPGA
// losing. The comparison against the static engines across the sweep is
// bench_paper's "Adaptive vs best static" column (Fig. 9(b), Fig. 10).
#include "bench/bench_util.h"

int main(int argc, char** argv) {
  using namespace vf;
  using namespace vf::bench;

  const BenchOptions options = parse_bench_options(argc, argv);
  json::Value jrun = json_run_header("bench_ablation_adaptive", options);

  print_header("Ablation A3 — adaptive NEON/FPGA selection",
               "§VIII: \"an adaptive system that intelligently selects between the "
               "NEON engine and the FPGA\"");

  // Threshold sweep at the full frame size.
  std::printf("threshold sweep at 88x72 (%d frames):\n", options.frames);
  TextTable sweep({"threshold (samples)", "total (s)", "energy (mJ)", "lines FPGA",
                   "lines NEON"});
  const sched::RunConfig base = bench_run_config(options);
  json::Value jsweep = json::Value::array();
  for (int threshold : {0, 24, 36, 44, 64, 96, 1 << 20}) {
    sched::RunConfig run = base;
    run.adaptive_threshold_samples = threshold;
    // Concrete: router stats below.
    sched::SerialBackend backend(sched::BackendKind::kAdaptive, run);
    const auto r = probe_backend(backend, {88, 72}, options.frames);
    const std::string label =
        threshold >= (1 << 20) ? "inf (all NEON)" : std::to_string(threshold);
    sweep.add_row({label, TextTable::num(r.total.sec(), 3),
                   TextTable::num(r.energy_mj, 1),
                   std::to_string(backend.router().lines_on_fpga()),
                   std::to_string(backend.router().lines_on_simd())});
    jsweep.push(json::Value::object()
                    .set("threshold", threshold)
                    .set("total_s", r.total.sec())
                    .set("energy_mj", r.energy_mj)
                    .set("lines_fpga",
                         static_cast<double>(backend.router().lines_on_fpga()))
                    .set("lines_neon",
                         static_cast<double>(backend.router().lines_on_simd())));
  }
  jrun.set("threshold_sweep", std::move(jsweep));
  std::printf("%s\n", sweep.to_string().c_str());

  // Self-tuning: let the system calibrate its own threshold across the sweep
  // (the run-time intelligence the paper's future work asks for).
  const sched::ThresholdCalibration cal_time =
      calibrate_adaptive_threshold(sched::CrossoverMetric::kTotalTime, {}, 2);
  const sched::ThresholdCalibration cal_energy =
      calibrate_adaptive_threshold(sched::CrossoverMetric::kEnergy, {}, 2);
  std::printf("auto-calibrated thresholds over the paper sweep: %d samples for time,\n"
              "%d samples for energy (shipped default: 44).\n\n",
              cal_time.best_threshold, cal_energy.best_threshold);

  std::printf("the adaptive system beats the static FPGA configuration at 88x72 by\n"
              "keeping the small deep-level lines on NEON; bench_paper's \"Adaptive vs\n"
              "best static\" column (Fig. 9(b), Fig. 10) compares it across the sweep.\n");
  jrun.set("calibration", json::Value::object()
                              .set("best_threshold_time", cal_time.best_threshold)
                              .set("best_threshold_energy",
                                   cal_energy.best_threshold));
  return write_json_report(options, jrun);
}
