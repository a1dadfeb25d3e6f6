// Ablation A5 — host wall-clock microbenchmarks of the compute kernels
// (google-benchmark). Everything else in bench/ reports *modeled* ZC702
// time; this binary shows the kernel library is real code with a real
// vectorization speedup on the build host, across all five kernel families
// (analyze, synthesize, magnitude, select, average) and all three flavours
// (scalar, simd intrinsics, autovec).
//
// Extra flag (stripped before google-benchmark sees the command line):
//   --json PATH   write the collected per-benchmark timings as JSON
//                 (vf-bench-v1 schema, like bench_pipeline --json)
#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <vector>

#include "src/common/json.h"
#include "src/common/rng.h"
#include "src/simd/dispatch.h"

namespace {

std::vector<float> randv(int n, std::uint64_t seed) {
  vf::Rng rng(seed);
  std::vector<float> v(static_cast<std::size_t>(n));
  for (float& x : v) x = rng.next_float(-1.0f, 1.0f);
  return v;
}

// One bench per kernel family, parameterized over the dispatch set so every
// flavour of every family is measured with identical inputs. q-shift width
// (14 taps) everywhere: it is the widest bank and the one that dominates
// DT-CWT runtime. Line lengths: 44 = an 88x72 level-1 line, 1024 = a long
// line to expose the asymptotic throughput; 1584 = the 88x72 level-1 subband.

void BM_Analyze(benchmark::State& state, const vf::simd::KernelSet& k) {
  const int out_len = static_cast<int>(state.range(0));
  const int taps = 14;
  const auto x = randv(2 * out_len + taps, 1);
  const auto lp = randv(taps, 2);
  const auto hp = randv(taps, 3);
  std::vector<float> lo(static_cast<std::size_t>(out_len));
  std::vector<float> hi(static_cast<std::size_t>(out_len));
  for (auto _ : state) {
    k.analyze(x.data(), out_len, lp.data(), hp.data(), taps, lo.data(), hi.data());
    benchmark::DoNotOptimize(lo.data());
    benchmark::DoNotOptimize(hi.data());
  }
  state.SetItemsProcessed(state.iterations() * out_len);
}

void BM_Synthesize(benchmark::State& state, const vf::simd::KernelSet& k) {
  const int pairs = static_cast<int>(state.range(0));
  const int taps = 14;
  const auto x = randv(2 * pairs + taps, 4);
  const auto ca = randv(taps, 5);
  const auto cb = randv(taps, 6);
  std::vector<float> out(static_cast<std::size_t>(2 * pairs));
  for (auto _ : state) {
    k.synthesize(x.data(), pairs, ca.data(), cb.data(), taps, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * pairs);
}

void BM_Magnitude(benchmark::State& state, const vf::simd::KernelSet& k) {
  const int n = static_cast<int>(state.range(0));
  const auto re = randv(n, 7);
  const auto im = randv(n, 8);
  std::vector<float> mag(static_cast<std::size_t>(n));
  for (auto _ : state) {
    k.magnitude(re.data(), im.data(), n, mag.data());
    benchmark::DoNotOptimize(mag.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}

void BM_Select(benchmark::State& state, const vf::simd::KernelSet& k) {
  const int n = static_cast<int>(state.range(0));
  const auto a_re = randv(n, 9);
  const auto a_im = randv(n, 10);
  const auto b_re = randv(n, 11);
  const auto b_im = randv(n, 12);
  std::vector<float> mag_a(static_cast<std::size_t>(n));
  std::vector<float> mag_b(static_cast<std::size_t>(n));
  vf::simd::complex_magnitude_scalar(a_re.data(), a_im.data(), n, mag_a.data());
  vf::simd::complex_magnitude_scalar(b_re.data(), b_im.data(), n, mag_b.data());
  std::vector<float> out_re(static_cast<std::size_t>(n));
  std::vector<float> out_im(static_cast<std::size_t>(n));
  for (auto _ : state) {
    k.select(a_re.data(), a_im.data(), b_re.data(), b_im.data(), mag_a.data(),
             mag_b.data(), n, out_re.data(), out_im.data());
    benchmark::DoNotOptimize(out_re.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}

// Multi-line variants: a kMaxLinesPerCall block of independent lines per
// dispatch, the shape the band-streaming plan feeds them. Contrast with
// the single-line rows to see the per-call amortization.

void BM_AnalyzeMl(benchmark::State& state, const vf::simd::KernelSet& k) {
  const int out_len = static_cast<int>(state.range(0));
  const int nlines = vf::simd::kMaxLinesPerCall;
  const int taps = 14;
  const int x_stride = 2 * out_len + taps;
  const auto x = randv(nlines * x_stride, 15);
  const auto lp = randv(taps, 2);
  const auto hp = randv(taps, 3);
  std::vector<float> lo(static_cast<std::size_t>(nlines) * out_len);
  std::vector<float> hi(static_cast<std::size_t>(nlines) * out_len);
  for (auto _ : state) {
    k.analyze_ml(x.data(), x_stride, nlines, out_len, lp.data(), hp.data(), taps,
                 lo.data(), hi.data(), out_len);
    benchmark::DoNotOptimize(lo.data());
    benchmark::DoNotOptimize(hi.data());
  }
  state.SetItemsProcessed(state.iterations() * nlines * out_len);
}

void BM_SynthesizeMl(benchmark::State& state, const vf::simd::KernelSet& k) {
  const int pairs = static_cast<int>(state.range(0));
  const int nlines = vf::simd::kMaxLinesPerCall;
  const int taps = 14;
  const int x_stride = 2 * pairs + taps;
  const auto x = randv(nlines * x_stride, 16);
  const auto ca = randv(taps, 5);
  const auto cb = randv(taps, 6);
  std::vector<float> out(static_cast<std::size_t>(nlines) * 2 * pairs);
  for (auto _ : state) {
    k.synthesize_ml(x.data(), x_stride, nlines, pairs, ca.data(), cb.data(), taps,
                    out.data(), 2 * pairs);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * nlines * pairs);
}

void BM_MagnitudeMl(benchmark::State& state, const vf::simd::KernelSet& k) {
  const int len = static_cast<int>(state.range(0));
  const int nlines = vf::simd::kMaxLinesPerCall;
  const auto re = randv(nlines * len, 17);
  const auto im = randv(nlines * len, 18);
  std::vector<float> mag(static_cast<std::size_t>(nlines) * len);
  for (auto _ : state) {
    k.magnitude_ml(re.data(), im.data(), nlines, len, len, mag.data(), len);
    benchmark::DoNotOptimize(mag.data());
  }
  state.SetItemsProcessed(state.iterations() * nlines * len);
}

void BM_SelectMl(benchmark::State& state, const vf::simd::KernelSet& k) {
  const int len = static_cast<int>(state.range(0));
  const int nlines = vf::simd::kMaxLinesPerCall;
  const int n = nlines * len;
  const auto a_re = randv(n, 19);
  const auto a_im = randv(n, 20);
  const auto b_re = randv(n, 21);
  const auto b_im = randv(n, 22);
  std::vector<float> mag_a(static_cast<std::size_t>(n));
  std::vector<float> mag_b(static_cast<std::size_t>(n));
  vf::simd::complex_magnitude_scalar(a_re.data(), a_im.data(), n, mag_a.data());
  vf::simd::complex_magnitude_scalar(b_re.data(), b_im.data(), n, mag_b.data());
  std::vector<float> out_re(static_cast<std::size_t>(n));
  std::vector<float> out_im(static_cast<std::size_t>(n));
  for (auto _ : state) {
    k.select_ml(a_re.data(), a_im.data(), b_re.data(), b_im.data(), mag_a.data(),
                mag_b.data(), nlines, len, len, out_re.data(), out_im.data(), len);
    benchmark::DoNotOptimize(out_re.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}

void BM_Average(benchmark::State& state, const vf::simd::KernelSet& k) {
  const int n = static_cast<int>(state.range(0));
  const auto a = randv(n, 13);
  const auto b = randv(n, 14);
  std::vector<float> out(static_cast<std::size_t>(n));
  for (auto _ : state) {
    k.average(a.data(), b.data(), n, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}

void register_benches() {
  const vf::simd::KernelSet* sets[] = {&vf::simd::scalar_kernels(),
                                       &vf::simd::simd_kernels(),
                                       &vf::simd::autovec_kernels()};
  for (const vf::simd::KernelSet* k : sets) {
    benchmark::RegisterBenchmark((std::string("BM_Analyze/") + k->name).c_str(),
                                 BM_Analyze, *k)
        ->Arg(44)
        ->Arg(1024);
    benchmark::RegisterBenchmark((std::string("BM_Synthesize/") + k->name).c_str(),
                                 BM_Synthesize, *k)
        ->Arg(44)
        ->Arg(1024);
    benchmark::RegisterBenchmark((std::string("BM_Magnitude/") + k->name).c_str(),
                                 BM_Magnitude, *k)
        ->Arg(1584);
    benchmark::RegisterBenchmark((std::string("BM_Select/") + k->name).c_str(),
                                 BM_Select, *k)
        ->Arg(1584);
    benchmark::RegisterBenchmark((std::string("BM_Average/") + k->name).c_str(),
                                 BM_Average, *k)
        ->Arg(1584);
    benchmark::RegisterBenchmark((std::string("BM_AnalyzeMl/") + k->name).c_str(),
                                 BM_AnalyzeMl, *k)
        ->Arg(44)
        ->Arg(1024);
    benchmark::RegisterBenchmark(
        (std::string("BM_SynthesizeMl/") + k->name).c_str(), BM_SynthesizeMl, *k)
        ->Arg(44)
        ->Arg(1024);
    benchmark::RegisterBenchmark(
        (std::string("BM_MagnitudeMl/") + k->name).c_str(), BM_MagnitudeMl, *k)
        ->Arg(198);  // 1584 total over 8 lines
    benchmark::RegisterBenchmark((std::string("BM_SelectMl/") + k->name).c_str(),
                                 BM_SelectMl, *k)
        ->Arg(198);
  }
}

// Console output as usual, plus a copy of every run for --json.
class CollectingReporter : public benchmark::ConsoleReporter {
 public:
  struct Row {
    std::string name;
    long long iterations;
    double ns_per_op;
    double items_per_second;
  };

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      Row row;
      row.name = run.benchmark_name();
      row.iterations = static_cast<long long>(run.iterations);
      row.ns_per_op = run.iterations > 0
                          ? run.real_accumulated_time / run.iterations * 1e9
                          : 0.0;
      const auto it = run.counters.find("items_per_second");
      row.items_per_second = it != run.counters.end() ? it->second.value : 0.0;
      rows_.push_back(std::move(row));
    }
    ConsoleReporter::ReportRuns(runs);
  }

  const std::vector<Row>& rows() const { return rows_; }

 private:
  std::vector<Row> rows_;
};

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
      continue;
    }
    args.push_back(argv[i]);
  }
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data())) return 1;

  register_benches();
  CollectingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  if (!json_path.empty()) {
    vf::json::Value run = vf::json::Value::object();
    run.set("schema", "vf-bench-v1");
    run.set("bench", "bench_kernels");
    run.set("simd_isa", vf::simd::simd_isa_name());
    vf::json::Value rows = vf::json::Value::array();
    for (const CollectingReporter::Row& row : reporter.rows()) {
      rows.push(vf::json::Value::object()
                    .set("name", row.name)
                    .set("iterations", row.iterations)
                    .set("ns_per_op", row.ns_per_op)
                    .set("items_per_second", row.items_per_second));
    }
    run.set("results", std::move(rows));
    if (!vf::json::write_file(json_path, run)) return 1;
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}
