// Ablation A5 — host wall-clock microbenchmarks of the compute kernels
// (google-benchmark). Everything else in bench/ reports *modeled* ZC702
// time; this binary shows the kernel library is real code with a real
// vectorization speedup on the build host, across the kernel families
// (analyze, synthesize, magnitude, select, average, the multi-line analyze
// and synthesize forms and the row and column passes of the fused plan) in
// both flavours: scalar, and simd at the widest instruction set the host
// runs (its name is the JSON's simd_isa field). BM_AccountReplay times the
// serial accounting replay beside them, the host work the modeled
// accelerator's bookkeeping costs per frame pair.
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
#include "src/fusion/dwt_fusion.h"
#include "src/fusion/fused_plan.h"
#include "src/sched/adaptive.h"
#include "src/sched/pipeline.h"
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
// dispatch. Contrast with the single-line rows to see the per-call
// amortization.

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

// Column passes of the fused plan on an 88x72 level-0 plane pair (72 rows
// x 44 columns, row-major): analysis + magnitude of a re/im plane pair, and
// synthesis from an lo/hi plane pair. Items are output samples.

std::vector<int> periodic_rows(int rows, int len, int offset) {
  std::vector<int> ext(static_cast<std::size_t>(len));
  for (int k = 0; k < len; ++k) ext[k] = (((k - offset) % rows) + rows) % rows;
  return ext;
}

void BM_AnalyzeMagCols(benchmark::State& state, const vf::simd::KernelSet& k) {
  const int rows = 72;
  const int cols = static_cast<int>(state.range(0));
  const int taps = 14;
  const auto x_re = randv(rows * cols, 23);
  const auto x_im = randv(rows * cols, 24);
  const auto lp = randv(taps, 2);
  const auto hp = randv(taps, 3);
  const std::vector<int> ext = periodic_rows(rows, rows + taps, 6);
  const std::size_t q = static_cast<std::size_t>(rows / 2) * cols;
  std::vector<float> out(6 * q);
  for (auto _ : state) {
    k.analyze_mag_cols(x_re.data(), x_im.data(), cols, cols, ext.data(), ext.data(),
                       rows / 2, lp.data(), hp.data(), hp.data(), lp.data(), taps,
                       &out[0], &out[q], &out[2 * q], &out[3 * q], &out[4 * q],
                       &out[5 * q], cols);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long long>(4 * q));
}

void BM_SynthesizeCols(benchmark::State& state, const vf::simd::KernelSet& k) {
  const int rows = 72;
  const int cols = static_cast<int>(state.range(0));
  const int taps = 16;
  const auto lo = randv(rows / 2 * cols, 25);
  const auto hi = randv(rows / 2 * cols, 26);
  const auto ca = randv(taps, 5);
  const auto cb = randv(taps, 6);
  const std::vector<int> ext = periodic_rows(rows, rows + taps, 7);
  std::vector<float> out(static_cast<std::size_t>(rows) * cols);
  for (auto _ : state) {
    k.synthesize_cols(lo.data(), cols, hi.data(), cols, cols, ext.data(), rows / 2,
                      ca.data(), cb.data(), taps, out.data(), cols);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long long>(rows) * cols);
}

// Row passes of the fused plan at the three level shapes of an 88x72 frame
// (args: rows, source columns): 72x88 through the 5/7-tap level-0 bank,
// 36x44 and 18x22 through the 14/16-tap q-shift bank, with the plan's
// extension tables and offsets. Items are output samples.

struct RowPassShape {
  int rows, cols, hc;
  vf::dwt::FilterBank bank;
};

RowPassShape row_pass_shape(const benchmark::State& state) {
  RowPassShape s;
  s.rows = static_cast<int>(state.range(0));
  s.cols = static_cast<int>(state.range(1));
  s.hc = s.cols / 2;
  int level = 0;  // the level whose rows are s.cols wide
  while ((88 >> level) > s.cols) ++level;
  s.bank = vf::dwt::detail::bank_for_level(vf::dwt::TransformConfig{}, level, 0);
  return s;
}

void BM_AnalyzeRows(benchmark::State& state, const vf::simd::KernelSet& k) {
  const RowPassShape s = row_pass_shape(state);
  const int taps = s.bank.taps();
  const auto src = randv(s.rows * s.cols, 27);
  const std::vector<int> ext = periodic_rows(s.cols, s.cols + taps, s.bank.analysis_offset);
  std::vector<float> lo(static_cast<std::size_t>(s.rows) * s.hc);
  std::vector<float> hi(static_cast<std::size_t>(s.rows) * s.hc);
  for (auto _ : state) {
    k.analyze_rows(src.data(), s.cols, s.rows, s.rows, ext.data(), s.hc,
                   s.bank.lp.data(), s.bank.hp.data(), taps, lo.data(), hi.data(),
                   s.hc);
    benchmark::DoNotOptimize(lo.data());
    benchmark::DoNotOptimize(hi.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long long>(s.rows) * s.cols);
}

void BM_SynthesizeRows(benchmark::State& state, const vf::simd::KernelSet& k) {
  const RowPassShape s = row_pass_shape(state);
  const int taps = s.bank.synth_taps();
  const int halo = vf::simd::synth_row_halo(taps);
  const int hs = s.hc + 2 * halo;
  auto lo = randv(s.rows * hs, 28);
  auto hi = randv(s.rows * hs, 29);
  std::vector<float> out(static_cast<std::size_t>(s.rows) * s.cols);
  for (auto _ : state) {
    k.synthesize_rows(lo.data() + halo, hi.data() + halo, hs, s.rows, s.hc,
                      s.bank.ca.data(), s.bank.cb.data(), taps,
                      s.bank.synthesis_offset, out.data(), s.cols);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long long>(s.rows) * s.cols);
}

// The serial accounting replay: TimedFusionRunner::replay_frame_pair on the
// batched FPGA backend over a 64-frame window of one paper size, with
// stream capture off (capture:0) and on (capture:1, the window's op lists
// taken at its end, as pass 1 of a streaming run does). Items are frame
// pairs.
void BM_AccountReplay(benchmark::State& state, vf::sched::FrameSize size) {
  constexpr int kWindow = 64;
  const bool capture = state.range(0) != 0;
  const vf::sched::RunConfig rc;
  const vf::dwt::FusionPlan plan(size.height, size.width, rc.fuse.transform);
  vf::sched::BatchedFpgaBackend backend(rc);
  vf::sched::TimedFusionRunner runner(backend, rc.fuse);
  for (auto _ : state) {
    if (capture) backend.enable_stream_trace();
    for (int f = 0; f < kWindow; ++f) {
      benchmark::DoNotOptimize(runner.replay_frame_pair(plan).times);
    }
    if (capture) benchmark::DoNotOptimize(backend.take_stream_trace());
  }
  state.SetItemsProcessed(state.iterations() * kWindow);
}

void register_benches() {
  const vf::simd::KernelSet* sets[] = {&vf::simd::scalar_kernels(),
                                       &vf::simd::simd_kernels()};
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
        (std::string("BM_AnalyzeMagCols/") + k->name).c_str(), BM_AnalyzeMagCols, *k)
        ->Arg(44);
    benchmark::RegisterBenchmark(
        (std::string("BM_SynthesizeCols/") + k->name).c_str(), BM_SynthesizeCols, *k)
        ->Arg(44);
  }
  // Registered after the families above so their rows keep their places in
  // the --json results.
  for (const vf::simd::KernelSet* k : sets) {
    benchmark::RegisterBenchmark((std::string("BM_AnalyzeRows/") + k->name).c_str(),
                                 BM_AnalyzeRows, *k)
        ->Args({72, 88})
        ->Args({36, 44})
        ->Args({18, 22});
    benchmark::RegisterBenchmark(
        (std::string("BM_SynthesizeRows/") + k->name).c_str(), BM_SynthesizeRows, *k)
        ->Args({72, 88})
        ->Args({36, 44})
        ->Args({18, 22});
  }
  for (const vf::sched::FrameSize size : {vf::sched::FrameSize{32, 24},
                                          vf::sched::FrameSize{88, 72}}) {
    benchmark::RegisterBenchmark(("BM_AccountReplay/" + size.label()).c_str(),
                                 BM_AccountReplay, size)
        ->ArgName("capture")
        ->Arg(0)
        ->Arg(1);
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
