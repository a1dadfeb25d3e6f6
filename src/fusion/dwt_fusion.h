// Multi-level DT-CWT analysis/synthesis built on the decimating
// dual-correlation kernels.
//
// Layering: this file depends only on src/common and src/simd (plus ImageF).
// Filter banks are stored pre-baked in the exact array form the kernels (and
// the modeled FPGA wavelet engine) consume:
//
//   analysis:  lo[i] = sum_t lp[t] * ext[2i + t]   with ext[k] = x[(k-E) mod N]
//   synthesis: y[2m]   = sum_t ca[t] * extu[2m + t]
//              y[2m+1] = sum_t cb[t] * extu[2m + t]
//   where extu is the periodically extended interleaved lo/hi stream.
//
// Banks are constructed from a biorthogonal prototype (h0, g0) via the
// quadrature pairing H1(z) = z^-k G0(-z), G1(z) = z^k H0(-z) with odd k,
// which cancels aliasing exactly, so a single analysis+synthesis level is a
// zero-delay identity on periodic signals (tests/test_dwt.cpp locks < 1e-4
// over random frames). The dual tree doubles this per dimension: tree B is
// the one-sample-delayed bank at level 1 and the reversed q-shift filter at
// levels >= 2 (Kingsbury's construction).
#pragma once

#include <string>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/image/metrics.h"
#include "src/simd/dispatch.h"

namespace vf::dwt {

enum class Wavelet {
  kLeGall53,   // 5/3 biorthogonal — level-1 default, fits a 5-slot engine
  kCdf97,      // 9/7 biorthogonal — higher-quality level-1 alternative
  kQshift14A,  // Kingsbury q-shift 14-tap, tree A (levels >= 2)
  kQshift14B,  // time-reverse of A, tree B
};

const char* wavelet_name(Wavelet w);

struct FilterBank {
  Wavelet wavelet = Wavelet::kLeGall53;
  // Analysis pair, padded to one shared window of `taps()` samples.
  std::vector<float> lp, hp;
  int analysis_offset = 0;  // E in ext[k] = x[(k - E) mod N]
  // Synthesis pair over the interleaved stream.
  std::vector<float> ca, cb;
  int synthesis_offset = 0;  // S in extu[k] = u[(k - S) mod N]

  int taps() const { return static_cast<int>(lp.size()); }
  int synth_taps() const { return static_cast<int>(ca.size()); }
};

// `delay` shifts the analysis filters by +delay samples (and the synthesis
// filters by -delay) — used to build the level-1 tree-B bank.
FilterBank make_filter_bank(Wavelet w, int delay = 0);

// Coefficient-register depth the modeled FPGA engine needs to run this bank
// (= the analysis window width; see bench_ablation_taps).
int required_slots(const FilterBank& bank);

// --- execution backends -----------------------------------------------------

struct FilterStats {
  long long analysis_macs = 0;
  long long synthesis_macs = 0;
  long long analysis_lines = 0;
  long long synthesis_lines = 0;
  long long total_macs() const { return analysis_macs + synthesis_macs; }
};

// The stages of fusing one frame pair, in the order a frame enters them.
// FusionPlan::replay announces kForward, kFusion and kInverse through
// LineFilter::begin_stage; kPrep (frame conversion before the transform)
// belongs to the caller.
enum class Stage { kPrep, kForward, kFusion, kInverse };

// A LineFilter executes line-sized kernel requests — the granularity at
// which the paper's driver feeds the PL engine. Subclasses pick the
// implementation (scalar / SIMD / fixed-point datapath / time-accounted
// engine models: every sched::TransformBackend is one).
//
// The interface is split into two halves so host execution can parallelize
// without perturbing modeled time:
//
//   kernels()    pure numeric implementations (a simd::KernelSet). Thread-
//                safe by construction — the frame fan-out
//                (sched::detail::measure_frames) calls them from pool
//                workers, one whole frame per worker.
//   account_*()  modeled-time / statistics bookkeeping, one virtual per
//                charge kind, in canonical order, always on the caller
//                thread: a run of identical line requests (a whole row or
//                column pass, or one line of the per-line path) and one
//                fusion-rule subband. Accounting is inherently
//                order-dependent (double-precision ledgers, accelerator
//                double-buffer state, event-queue scheduling), so it is never
//                fanned out; the fan-out runs the numerics first and then
//                replays the account_*/barrier() sequence serially in frame
//                order — which is why modeled output is bit-identical at any
//                thread count.
//
// analyze/synthesize are kernels() plus a one-line run, the call the
// per-line passes make. A filter whose transform numerics are not
// expressible as a KernelSet (the fixed-point datapath) overrides them and
// returns splittable() == false, so every path stays serial and per-line.
// The fusion rule's numerics always come from kernels().
class LineFilter {
 public:
  virtual ~LineFilter() = default;

  // Data-dependency fence between line batches: lines issued after the
  // barrier read outputs of lines issued before it (row pass -> column
  // pass, level L -> level L+1). Synchronous filters need nothing — the
  // default is a no-op — but pipelined engine models (which overlap
  // consecutive line requests) must not start a dependent input transfer
  // before the producing outputs have landed.
  virtual void barrier() {}

  // Fired before the first request of each stage of a frame pair, in the
  // same call stream as account_*() and barrier().
  virtual void begin_stage(Stage stage) { (void)stage; }

  // --- split half: pure numerics + serial accounting -----------------------
  virtual const simd::KernelSet& kernels() const;  // default: active_kernels()
  // A run of `lines` identical line requests. Modeled time is charged as if
  // the lines arrived one at a time: a run must leave a filter's ledger bit
  // for bit where that many one-line runs would.
  virtual void account_analyze_lines(int lines, int out_len, int taps) {
    (void)lines;
    (void)out_len;
    (void)taps;
  }
  virtual void account_synthesize_lines(int lines, int pairs, int taps) {
    (void)lines;
    (void)pairs;
    (void)taps;
  }
  // One subband of `n` coefficients through the max-magnitude rule: two
  // magnitude planes, then the select.
  virtual void account_select_band(int n) { (void)n; }

  // False when analyze/synthesize do more than kernels()+account_*()
  // (fixed-point quantizing datapath); such filters always run serial.
  virtual bool splittable() const { return true; }

  // --- one line: kernels + a one-line run -----------------------------------
  virtual void analyze(const float* ext, int out_len, const float* lp, const float* hp,
                       int taps, float* lo, float* hi);
  virtual void synthesize(const float* ext, int pairs, const float* ca, const float* cb,
                          int taps, float* out);
};

class ScalarLineFilter : public LineFilter {
 public:
  const simd::KernelSet& kernels() const override { return simd::scalar_kernels(); }
  // Integer counters: a run's sums equal the per-line ones exactly.
  void account_analyze_lines(int lines, int out_len, int taps) override {
    stats_.analysis_macs += 2LL * out_len * taps * lines;
    stats_.analysis_lines += lines;
  }
  void account_synthesize_lines(int lines, int pairs, int taps) override {
    stats_.synthesis_macs += 2LL * pairs * taps * lines;
    stats_.synthesis_lines += lines;
  }

  void reset_stats() { stats_ = {}; }
  const FilterStats& stats() const { return stats_; }

 private:
  FilterStats stats_;
};

// ScalarLineFilter with the bit-identical SIMD kernels in place of the
// scalar ones.
class SimdLineFilter : public ScalarLineFilter {
 public:
  SimdLineFilter() = default;
  // The width is ignored: host parallelism is per frame
  // (sched::detail::measure_frames), so a filter never holds a pool.
  explicit SimdLineFilter(const HostConfig& host) { (void)host; }

  const simd::KernelSet& kernels() const override { return simd::simd_kernels(); }
};

// --- 1-D line transforms ----------------------------------------------------

// x has n samples (n even); lo/hi receive n/2 each. `scratch` avoids
// reallocating the extension buffer across the thousands of line calls.
void analyze_line(LineFilter& f, const FilterBank& bank, const float* x, int n,
                  float* lo, float* hi, std::vector<float>& scratch);
void synthesize_line(LineFilter& f, const FilterBank& bank, const float* lo,
                     const float* hi, int n, float* y, std::vector<float>& scratch);

// --- 2-D multi-level transform ----------------------------------------------

// Two host paths, one per job:
//
//   * frame pairs — fusion::fuse_frames and the timed runners — run the
//     band-streaming plan (src/fusion/fused_plan.h) whenever
//     FusionPlan::applicable holds;
//   * everything else — standalone forward_tree/forward_dtcwt and their
//     inverses, the non-splittable fixed-point filter, and the staged
//     reference the plan is tested against — runs the per-line passes
//     below: one analyze_line/synthesize_line per row and column.
//
// Both feed every line the same extended samples through the same per-line
// kernel flavour and emit the same account_*/barrier() sequence, so fused
// bits and modeled time/energy are identical (tests/test_host_parallel.cpp).

// Levels >= 2 always run the q-shift pair (tree A kQshift14A, tree B its
// reverse).
struct TransformConfig {
  int levels = 3;
  Wavelet level1 = Wavelet::kLeGall53;
};

struct LevelBands {
  image::ImageF lh, hl, hh;  // row-lo/col-hi, row-hi/col-lo, row-hi/col-hh
  int in_rows = 0, in_cols = 0;  // pre-padding input dims (crop on inverse)
};

// One critically sampled wavelet decomposition (one tree of the dual tree,
// or the whole transform for the plain-DWT baseline).
struct TreePyramid {
  std::vector<LevelBands> levels;
  image::ImageF ll;
};

// `row_tree`/`col_tree`: 0 = tree A, 1 = tree B (one-sample level-1 delay +
// reversed q-shift filters at levels >= 2) applied along that dimension.
TreePyramid forward_tree(const image::ImageF& img, const TransformConfig& config,
                         int row_tree, int col_tree, LineFilter& filter);
image::ImageF inverse_tree(const TreePyramid& pyr, const TransformConfig& config,
                           int row_tree, int col_tree, LineFilter& filter);

// The full 4x-redundant 2-D DT-CWT: trees indexed by (row_tree, col_tree) in
// {A,B}^2, i.e. tree[0]=AA, tree[1]=AB, tree[2]=BA, tree[3]=BB.
struct DtcwtPyramid {
  TreePyramid tree[4];
};

// Trees run in order AA, AB, BA, BB, each through `filter`.
DtcwtPyramid forward_dtcwt(const image::ImageF& img, const TransformConfig& config,
                           LineFilter& filter);
// Averages the four trees' reconstructions.
image::ImageF inverse_dtcwt(const DtcwtPyramid& pyr, const TransformConfig& config,
                            LineFilter& filter);

// --- shared transform internals ---------------------------------------------
// Used by the band-streaming fused plan (src/fusion/fused_plan.cpp), which
// must produce the exact per-line inputs and the exact account_*/barrier()
// sequence of the per-line path above.
namespace detail {

// The bank a given tree applies at a given level (tree B = one-sample delay
// at level 1, reversed q-shift at levels >= 2). Every bank comes from one
// table built on first use (4 wavelets x 2 trees), so a lookup allocates
// nothing and the reference stays valid for the life of the program.
const FilterBank& bank_for_level(const TransformConfig& config, int level, int tree);

// Replay one tree's forward / inverse account_*/barrier() sequence for an
// input of the given pre-padding dims — the exact sequence the staged
// forward_tree/inverse_tree emit, derived from shapes alone (accounting
// never reads sample values). Each row pass and each column pass is one
// account_*_lines run.
void account_forward_tree(int rows, int cols, const TransformConfig& config,
                          int row_tree, int col_tree, LineFilter& f);
void account_inverse_tree(int rows, int cols, const TransformConfig& config,
                          int row_tree, int col_tree, LineFilter& f);

}  // namespace detail

}  // namespace vf::dwt
