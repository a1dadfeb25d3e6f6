// Ablation A8 — decomposition depth.
//
// "In this test the decomposition level of the CT-DWT was varied..." (§VII).
// Sweeps the DT-CWT level count at the full 88x72 frame and reports per-
// engine transform time plus the adaptive router's split. Deeper levels add
// little work (each level is a quarter of the previous) but shrink line
// lengths — exactly the regime where the per-line driver overhead makes the
// FPGA lose, so the FPGA's edge narrows with depth while the adaptive
// backend keeps the deep levels on NEON.
#include "bench/bench_util.h"

int main(int argc, char** argv) {
  using namespace vf;
  using namespace vf::bench;

  const BenchOptions options = parse_bench_options(argc, argv);
  json::Value jrun = json_run_header("bench_ablation_levels", options);

  print_header("Ablation A8 — DT-CWT decomposition level sweep at 88x72",
               "§VII: \"the decomposition level of the CT-DWT was varied\"");

  TextTable table({"levels", "ARM (s)", "NEON (s)", "FPGA (s)", "Adaptive (s)",
                   "FPGA vs NEON", "adaptive lines FPGA/NEON"});
  const sched::RunConfig base = bench_run_config(options);
  json::Value jlevels = json::Value::array();
  for (int levels = 1; levels <= 4; ++levels) {
    sched::RunConfig run = base;
    run.fuse.transform.levels = levels;
    const fusion::FuseConfig& config = run.fuse;

    const auto arm = sched::make_backend(sched::BackendKind::kArm, run);
    const auto neon = sched::make_backend(sched::BackendKind::kNeon, run);
    const auto fpga = sched::make_backend(sched::BackendKind::kFpga, run);
    // Concrete: router stats below.
    sched::SerialBackend adaptive(sched::BackendKind::kAdaptive, run);
    const auto ra = probe_backend(*arm, {88, 72}, options.frames, config);
    const auto rn = probe_backend(*neon, {88, 72}, options.frames, config);
    const auto rf = probe_backend(*fpga, {88, 72}, options.frames, config);
    const auto rx = probe_backend(adaptive, {88, 72}, options.frames, config);

    table.add_row({std::to_string(levels), TextTable::num(ra.total.sec(), 3),
                   TextTable::num(rn.total.sec(), 3), TextTable::num(rf.total.sec(), 3),
                   TextTable::num(rx.total.sec(), 3),
                   TextTable::num(100.0 * (1.0 - rf.total.sec() / rn.total.sec()), 1) + "%",
                   std::to_string(adaptive.router().lines_on_fpga()) + "/" +
                       std::to_string(adaptive.router().lines_on_simd())});
    jlevels.push(json::Value::object()
                     .set("levels", levels)
                     .set("arm_s", ra.total.sec())
                     .set("neon_s", rn.total.sec())
                     .set("fpga_s", rf.total.sec())
                     .set("adaptive_s", rx.total.sec())
                     .set("lines_fpga",
                          static_cast<double>(adaptive.router().lines_on_fpga()))
                     .set("lines_neon",
                          static_cast<double>(adaptive.router().lines_on_simd())));
  }
  jrun.set("level_sweep", std::move(jlevels));
  std::printf("%s\n", table.to_string().c_str());
  std::printf("each extra level adds ~25%% of the previous level's samples but a\n"
              "disproportionate number of short lines; the FPGA's advantage over\n"
              "NEON narrows with depth and the adaptive router responds by keeping\n"
              "every line shorter than its threshold on the SIMD engine.\n");
  return write_json_report(options, jrun);
}
