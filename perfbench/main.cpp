// perfbench: the repository benchmark binary.
//
//   perfbench --workload W --seed N --seconds S --trace 0|1 [--setup-only]
//             [--trace-file PATH]
//   perfbench --self-test
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. perfbench/run.py builds this
// binary, runs its self-tests and several --setup-only processes, and
// relays the result.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench/bench_util.h"
#include "perfbench/perfbench.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

// The loop runs at least this many operations so that nearest-rank p90 has
// at least ten samples beyond it, and stops at this wall-clock cap so the
// process always exits well inside the harness's time limit.
constexpr int kMinOps = 100;
constexpr double kLoopCapS = 140.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  bool setup_only = false;
  bool self_test = false;
  std::string trace_file;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload W --seed N --seconds S "
               "--trace 0|1 [--setup-only] [--trace-file PATH] | --self-test\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const bool has_value = i + 1 < argc;
    if (k == "--workload" && has_value) {
      a.workload = argv[++i];
    } else if (k == "--seed" && has_value) {
      a.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (k == "--seconds" && has_value) {
      a.seconds = std::atof(argv[++i]);
    } else if (k == "--trace" && has_value) {
      a.trace = std::atoi(argv[++i]);
    } else if (k == "--trace-file" && has_value) {
      a.trace_file = argv[++i];
    } else if (k == "--setup-only") {
      a.setup_only = true;
    } else if (k == "--self-test") {
      a.self_test = true;
    } else {
      usage(("unknown argument '" + k + "'").c_str());
    }
  }
  if (!a.self_test && a.workload.empty()) usage("--workload is required");
  if (a.seconds <= 0.0) usage("--seconds must be positive");
  return a;
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

// The run configuration recorded next to every result: the fields
// json_run_header emits for the repo's own benches, plus the machine,
// toolchain and seed.
vf::json::Value run_header(const Workload& w, const Args& a) {
  vf::bench::BenchOptions options;
  options.frames = w.window;
  vf::json::Value run = vf::bench::json_run_header("perfbench", options);
  run.set("workload", w.name);
  run.set("seed", std::to_string(a.seed));
  run.set("streams", w.streams);
  run.set("nproc", vf::host::hardware_threads());
  run.set("compiler", compiler());
  run.set("build_type", PERFBENCH_BUILD_TYPE);
  run.set("trace", a.trace);
  return run;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// A single-threaded workload stays on whichever virtual CPU it starts on,
// and on a shared machine one CPU can run a third slower than another for
// seconds at a time (a busy hyperthread sibling). Such a workload therefore
// pins each operation to the next CPU it may use in turn, so every run
// samples every CPU throughout. The destructor restores the initial mask.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&initial_);
    if (sched_getaffinity(0, sizeof(initial_), &initial_) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &initial_)) cpus_.push_back(c);
      }
    }
  }
  ~CpuRotation() { sched_setaffinity(0, sizeof(initial_), &initial_); }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  // Pins the calling thread to CPU number `slot` of those it may use.
  void pin(int slot) {
    if (cpus_.empty() || slot == pinned_) return;
    pinned_ = slot;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[static_cast<std::size_t>(slot) % cpus_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
  }
  int count() const { return static_cast<int>(cpus_.size()); }

 private:
  cpu_set_t initial_;
  std::vector<int> cpus_;
  int pinned_ = -1;
};

// The vCPUs of a shared host run the same code up to 1.4x slower for
// minutes at a time (neighbours on the same physical cores and caches),
// which moves whole runs; process CPU time slows with them, so no clock
// sees past it. The probe is fixed code of the benchmark's own, timed after
// every operation on the same CPU: a sort of 16K keys (branches) and a
// 13-tap filter over 64K floats (vector arithmetic), on data it touches
// just before, so that it runs from cache whatever the program left there.
// Every host time is scaled by kProbeRefMs over the probe's time in the
// same stretch of the run, i.e. reported at the machine speed at which the
// probe takes kProbeRefMs (about its time on an idle 4-vCPU KVM Xeon). A
// change to the program moves the scaled times as it moves wall time; the
// probe does not depend on the program.
constexpr double kProbeRefMs = 1.4;

class SpeedProbe {
 public:
  SpeedProbe() : keys_(16384), x_(65536 + 16), y_(65536) {
    for (std::size_t i = 0; i < x_.size(); ++i) x_[i] = 0.01f * static_cast<float>(i % 97);
  }

  double run_ms() {
    std::uint32_t r = 2463534242u;
    for (std::uint32_t& k : keys_) {
      r ^= r << 13;
      r ^= r >> 17;
      r ^= r << 5;
      k = r;
    }
    float touch = 0.0f;
    for (const float v : x_) touch += v;
    for (float& v : y_) v = touch;
    const double t = now_s();
    std::sort(keys_.begin(), keys_.end());
    for (int rep = 0; rep < 4; ++rep) {
      for (std::size_t i = 0; i < y_.size(); ++i) {
        float acc = 0.0f;
        for (int k = 0; k < 13; ++k) acc += x_[i + k] * (0.1f + 0.01f * k);
        y_[i] = acc + 0.5f * y_[i];
      }
    }
    const double ms = (now_s() - t) * 1e3;
    sink_ = y_[keys_[0] % y_.size()];
    return ms;
  }

 private:
  std::vector<std::uint32_t> keys_;
  std::vector<float> x_, y_;
  volatile float sink_ = 0.0f;
};

void print_result(bool correct, int attempted, int failed,
                  const vf::json::Value& metrics) {
  vf::json::Value out = vf::json::Value::object();
  out.set("correct", correct);
  out.set("attempted", attempted);
  out.set("failed", failed);
  out.set("metrics", metrics);
  std::printf("%s\n", out.dump().c_str());
}

vf::json::Value metric(double value, const char* unit) {
  return vf::json::Value::object().set("value", value).set("unit", unit);
}

int run_timed(const Workload& w, const Args& a) {
  const int width = pool_width(w);
  const std::vector<FramePair> frames = make_frames(a.seed, w.rows, w.cols, w.window);
  Operation op{&w, width, w.streams > 0 ? fleet_streams(w, a.seed)
                                        : std::vector<vf::sched::StreamConfig>{}};

  // Set-up: pool spawn, backend construction and the first (cold) operation,
  // in wall-clock time. Peak memory is read right after it, before the probe
  // and the oracle below allocate anything: it is the program's own peak
  // over set-up and one operation. Set-up time is scaled by the median of a
  // few probes taken right after it (see SpeedProbe).
  const double t0 = now_s();
  vf::host::pool(vf::HostConfig{width});
  ModeledSummary summary;
  const Modeled cold = op.run(frames, &summary);
  const double setup_wall_s = now_s() - t0;
  const double rss = peak_rss_mb();
  SpeedProbe probe;
  std::vector<double> setup_probes;
  for (int i = 0; i < 5; ++i) setup_probes.push_back(probe.run_ms());
  const double setup_s = setup_wall_s * kProbeRefMs / median(setup_probes);
  if (a.setup_only) {
    std::printf("%s\n", vf::json::Value::object()
                            .set("setup_s", setup_s)
                            .set("peak_rss_mb", rss)
                            .dump()
                            .c_str());
    return 0;
  }

  // The oracle's references, computed in-process and outside every timing:
  // the same window at pool width 1, and each frame fused by the staged
  // scalar path.
  Operation serial = op;
  serial.width = 1;
  const Modeled want = serial.run(frames);
  std::vector<ImageF> want_fused;
  for (const FramePair& pair : frames) want_fused.push_back(reference_fuse(pair));

  int attempted = 0, failed = 0;
  std::string first_failure;
  auto check = [&](const Modeled& got, int index) {
    ++attempted;
    const int f = index % w.window;
    std::string why = diff_modeled(got, want);
    if (why.empty()) {
      why = diff_images(backend_fuse(w, width, frames[static_cast<std::size_t>(f)]),
                        want_fused[static_cast<std::size_t>(f)]);
    }
    if (!why.empty()) {
      ++failed;
      if (first_failure.empty()) {
        first_failure = "operation " + std::to_string(index) + " frame " +
                        std::to_string(f) + ": " + why;
      }
    }
  };
  check(cold, 0);
  check(op.run(frames), 1);  // warm-up, untimed

  CpuRotation rotation;
  const bool rotate = width == 1 && rotation.count() > 1;
  // Seconds per operation and probe milliseconds, in order.
  std::vector<double> wall_ops, cpu_ops, probe_ms;
  double wall_total = 0.0, cpu_total = 0.0;
  const double start = now_s();
  for (;;) {
    const double elapsed = now_s() - start;
    const int n = static_cast<int>(wall_ops.size());
    if ((elapsed >= a.seconds && n >= kMinOps) || elapsed >= kLoopCapS) break;
    if (rotate) rotation.pin(n % rotation.count());
    const double t = now_s();
    const double c = cpu_s();
    const Modeled got = op.run(frames);
    wall_ops.push_back(now_s() - t);
    cpu_ops.push_back(cpu_s() - c);
    wall_total += wall_ops.back();
    cpu_total += cpu_ops.back();
    probe_ms.push_back(probe.run_ms());
    check(got, n + 2);
  }

  // Percentiles of the wall time per operation. A shared machine slows down
  // in stretches of several seconds (neighbours busy on the same cores or
  // memory); with a multi-thread pool such a stretch can double every
  // operation in it. The run is therefore cut into consecutive blocks of at
  // least kMinOps operations, so that each block's nearest-rank p90 has ten
  // samples beyond it, and each host metric is the median over the blocks of
  // that block's figure: the typical stretch of the run, which a disturbance
  // covering less than half of the run does not move. A change to the
  // program moves every block. Each block's times are scaled by the median
  // probe of the same block (see SpeedProbe). Throughput comes from the
  // median operation.
  const int n = static_cast<int>(wall_ops.size());
  const int blocks = std::max(1, n / kMinOps);
  // The median operation of ops [lo, hi). In a rotated loop the CPUs can
  // differ in speed by a third for a whole run, which splits the times into
  // one cluster per CPU and makes a pooled median jump between clusters;
  // there each CPU's median is taken on its own and the CPUs are averaged
  // with equal weight. The p90 lies inside the slowest cluster and is pooled.
  const int cpus = rotate ? rotation.count() : 1;
  auto block_median = [&](int lo, int hi) {
    std::vector<std::vector<double>> per_cpu(static_cast<std::size_t>(cpus));
    for (int i = lo; i < hi; ++i) {
      per_cpu[static_cast<std::size_t>(i % cpus)].push_back(
          wall_ops[static_cast<std::size_t>(i)]);
    }
    double sum = 0.0;
    for (const std::vector<double>& v : per_cpu) sum += percentile(v, 0.50);
    return sum / cpus;
  };
  std::vector<double> block_p50, block_p90, block_scale;
  for (int b = 0; b < blocks; ++b) {
    const int lo = b * n / blocks, hi = (b + 1) * n / blocks;
    block_scale.push_back(
        kProbeRefMs / median(std::vector<double>(probe_ms.begin() + lo, probe_ms.begin() + hi)));
    block_p50.push_back(block_median(lo, hi));
    block_p90.push_back(percentile(
        std::vector<double>(wall_ops.begin() + lo, wall_ops.begin() + hi), 0.90));
  }
  auto scaled = [&](const std::vector<double>& v) {
    std::vector<double> out;
    for (int b = 0; b < blocks; ++b) {
      out.push_back(v[static_cast<std::size_t>(b)] * block_scale[static_cast<std::size_t>(b)]);
    }
    return out;
  };
  const int block_ops = n / blocks;
  const int beyond_p90 = block_ops - static_cast<int>(std::ceil(0.90 * block_ops));
  const int frames_per_op = w.window * (w.streams > 0 ? w.streams : 1);
  const double p50 = median(scaled(block_p50)) * 1e3;
  const double p90 = median(scaled(block_p90)) * 1e3;
  const double host_fps = frames_per_op * 1e3 / p50;
  const double error_rate = static_cast<double>(failed) / attempted;

  std::printf("config %s\n", run_header(w, a).dump().c_str());
  std::printf("workload %s: %d operations of %d frame pairs, %.2f s wall "
              "(closed loop, one client)\n",
              w.name, n, frames_per_op, wall_total);
  std::printf("host times are wall-clock scaled to the probe's reference speed "
              "(%.2f ms per probe; median probe here %.4f ms), the median over %d "
              "blocks of at least %d operations (%d beyond p90 in each); unscaled "
              "wall and process CPU time (all threads, every operation) "
              "alongside%s\n",
              kProbeRefMs, median(probe_ms), blocks, block_ops, beyond_p90,
              rotate ? "; loop rotated over every CPU, CPUs weighted equally in the median" : "");
  std::printf("  %-22s %14.4f frames/s (median op; unscaled %.4f)   cpu %.4f "
              "frames/cpu-s\n",
              "host_fps", host_fps, frames_per_op / median(block_p50),
              frames_per_op * n / cpu_total);
  std::printf("  %-22s %14.4f ms (n=%d)   unscaled %.4f ms   cpu %.4f ms\n", "op_ms_p50",
              p50, n, median(block_p50) * 1e3, percentile(cpu_ops, 0.50) * 1e3);
  std::printf("  %-22s %14.4f ms (n=%d)   unscaled %.4f ms   cpu %.4f ms\n", "op_ms_p90",
              p90, n, median(block_p90) * 1e3, percentile(cpu_ops, 0.90) * 1e3);
  std::printf("  %-22s %14.4f s (this process; unscaled %.4f s)\n", "setup_s", setup_s,
              setup_wall_s);
  std::printf("  %-22s %14.4f MB (this process, after set-up)\n", "peak_rss_mb", rss);
  std::printf("  %-22s %14.4f (%d of %d operations failed)\n", "error_rate",
              error_rate, failed, attempted);
  std::printf("  %-22s %14.6f frames/s (modeled)\n", "modeled_fps", summary.fps);
  std::printf("  %-22s %14.6f mJ (modeled)\n", "modeled_mj_per_frame",
              summary.mj_per_frame);
  std::printf("  %-22s %14.6f ms (modeled)\n", "modeled_p99_ms", summary.p99_ms);
  std::printf("  %-22s %14.6f (modeled; drop frac %.6f)\n", "modeled_served_frac",
              summary.served_frac, 1.0 - summary.served_frac);
  std::printf("  per-block unscaled op_ms p50/p90 x scale:");
  for (std::size_t b = 0; b < block_p50.size(); ++b) {
    std::printf(" %.3f/%.3f x%.4f", block_p50[b] * 1e3, block_p90[b] * 1e3, block_scale[b]);
  }
  std::printf("\n");
  if (!first_failure.empty()) {
    std::printf("FAILED %s\n", first_failure.c_str());
  }

  vf::json::Value metrics = vf::json::Value::object();
  metrics.set("host_fps", metric(host_fps, "frames/s"));
  metrics.set("op_ms_p50", metric(p50, "ms"));
  metrics.set("op_ms_p90", metric(p90, "ms"));
  metrics.set("setup_s", metric(setup_s, "s"));
  metrics.set("peak_rss_mb", metric(rss, "MB"));
  metrics.set("modeled_fps", metric(summary.fps, "frames/model-s"));
  metrics.set("modeled_mj_per_frame", metric(summary.mj_per_frame, "mJ"));
  metrics.set("modeled_p99_ms", metric(summary.p99_ms, "model-ms"));
  metrics.set("modeled_served_frac", metric(summary.served_frac, "frac"));
  print_result(failed == 0, attempted, failed, metrics);
  return failed == 0 ? 0 : 1;
}

int run_layers(const Workload& w, const Args& a) {
  Tracer tracer;
  const LayerReport report = run_traced(w, a.seed, a.seconds, &tracer);
  const vf::json::Value header = run_header(w, a);
  std::printf("config %s\n", header.dump().c_str());
  for (const std::string& line : report.lines) std::printf("%s\n", line.c_str());
  if (!a.trace_file.empty()) {
    vf::json::Value file = vf::json::Value::object();
    file.set("config", header);
    file.set("spans", tracer.to_json());
    if (!vf::json::write_file(a.trace_file, file)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", a.trace_file.c_str());
      return 1;
    }
    std::printf("wrote %zu spans to %s\n", tracer.spans().size(),
                a.trace_file.c_str());
  }
  vf::json::Value metrics = vf::json::Value::object();
  for (const auto& m : report.metrics) {
    metrics.set(m.first, metric(m.second.first, m.second.second.c_str()));
  }
  print_result(report.correct, report.attempted, report.failed, metrics);
  return report.correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse(argc, argv);
  if (a.self_test) return run_self_tests() == 0 ? 0 : 1;

  const Workload* w = find_workload(a.workload);
  if (!w) usage(("unknown workload '" + a.workload + "'").c_str());
#ifndef NDEBUG
  const bool release = false;
#else
  const bool release = std::strcmp(PERFBENCH_BUILD_TYPE, "Release") == 0;
#endif
  if (!release) {
    std::fprintf(stderr,
                 "perfbench: refusing to report timings from a '%s' build; "
                 "configure with -DCMAKE_BUILD_TYPE=Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }
  // Pool width for every HostConfig{threads: 0} and for the recorded header.
  vf::host::set_default_threads(pool_width(*w));
  return a.trace ? run_layers(*w, a) : run_timed(*w, a);
}
