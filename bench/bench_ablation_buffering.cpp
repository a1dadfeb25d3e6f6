// Ablation A2 — the Fig. 5 double-buffering pipeline.
//
// "To increase the performance of the system we divided the kernel memory
// into two areas or buffers. This double buffering mechanism is used to
// parallelize the transfer and processing of data from user space to kernel
// space."
//
// Runs the FPGA configuration with the ping-pong schedule enabled and
// disabled and reports the end-to-end difference per frame size.
#include "bench/bench_util.h"

int main(int argc, char** argv) {
  using namespace vf;
  using namespace vf::bench;

  const BenchOptions options = parse_bench_options(argc, argv);
  json::Value jrun = json_run_header("bench_ablation_buffering", options);

  print_header("Ablation A2 — double buffering (Fig. 5) on vs off",
               "§V / Fig. 5: overlap of user-space transfer and PL processing");

  TextTable table({"frame size", "single buf (s)", "double buf (s)", "saved", "PS stall single",
                   "PS stall double"});
  const sched::RunConfig base = bench_run_config(options);
  json::Value jsizes = json::Value::array();
  for (const sched::FrameSize& size : sched::paper_frame_sizes()) {
    sched::RunConfig single = base;
    single.driver_costs.double_buffering = false;
    sched::RunConfig dual = base;
    dual.driver_costs.double_buffering = true;

    // Concrete backends: the stall-time readout below needs accelerator().
    sched::SerialBackend fpga_single(sched::BackendKind::kFpga, single);
    sched::SerialBackend fpga_dual(sched::BackendKind::kFpga, dual);
    const auto rs = probe_backend(fpga_single, size, options.frames);
    const auto rd = probe_backend(fpga_dual, size, options.frames);
    const SimDuration stall_s = fpga_single.accelerator().stall_time();
    const SimDuration stall_d = fpga_dual.accelerator().stall_time();

    table.add_row({size.label(), TextTable::num(rs.total.sec(), 3),
                   TextTable::num(rd.total.sec(), 3),
                   TextTable::num(100.0 * (1.0 - rd.total.sec() / rs.total.sec()), 1) + "%",
                   stall_s.to_string(), stall_d.to_string()});
    jsizes.push(json::Value::object()
                    .set("size", size.label())
                    .set("single_buffer_s", rs.total.sec())
                    .set("double_buffer_s", rd.total.sec())
                    .set("stall_single_s", stall_s.sec())
                    .set("stall_double_s", stall_d.sec()));
  }
  jrun.set("sizes", std::move(jsizes));
  std::printf("%s\n", table.to_string().c_str());
  std::printf("double buffering hides the engine's processing time behind the next\n"
              "line's input copy; the benefit grows with line length (PL busy time).\n");
  return write_json_report(options, jrun);
}
