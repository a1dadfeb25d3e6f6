// Band-streaming fused execution plan for the host fusion hot path.
//
// The staged path (forward_dtcwt -> fuse_pyramids -> inverse_dtcwt) runs four
// full-image passes — forward A, forward B, magnitude/select, inverse — and
// materializes two complete DtcwtPyramids in between, so every band plane
// crosses DRAM several times. The paper's PL engine wins precisely by not
// doing that: it streams lines through a fused analyze→fuse→synthesize
// datapath. FusionPlan is the host-side equivalent:
//
//   * the two frames' transforms run band-by-band, interleaved: level L of
//     frame A and frame B are produced back-to-back and consumed immediately by the magnitude/select rule while
//     still hot in cache — the second pyramid is never materialized;
//   * the forward column pass and the complex magnitude are one kernel
//     (KernelSet::analyze_mag_cols), and the select rule runs elementwise
//     over each level's band planes right after it, so the pass count over
//     band data drops from ~10 to ~3 per frame pair;
//   * all scratch comes from the calling thread's arena, and every band is
//     stored row-major (hr x hc). The column passes filter vertically on
//     those planes, one column per SIMD lane (KernelSet::analyze_mag_cols /
//     synthesize_cols): in a row-major plane the 8 or 16 floats of one row
//     are sample r of 8 or 16 adjacent column lines, so nothing is ever
//     transposed. Extension (and the edge pad of odd sizes) is a per-level
//     table mapping each extended sample to its source, built once in the
//     constructor; the next level reads the LL band in place, and the
//     inverse reads the level below's output plane by stride.
//
// The plan is two halves. fuse() is the numerics: always serial, no filter
// calls, so one frame pair is one unit of host work that any thread can run
// (sched::detail::measure_frames fans a window's frames out over the pool,
// one frame per worker at a time). replay() is the filter's
// account_*/barrier() bookkeeping, derived from shapes alone and issued in
// the exact canonical sequence the staged path emits (forward A trees 0-3,
// forward B trees 0-3, fusion pair/level/subband, inverse trees 0-3).
// StageHooks let a timed runner interleave its phase transitions with that
// replay, so every backend observes the same call stream as the staged path.
//
// Bit-identity is by construction, not by tolerance: every line sees the same
// extended samples as in the staged path, every kernel keeps the scalar
// per-output arithmetic order in every instruction set (kernels.h), and the
// reconstruction accumulates trees in the same order.
#pragma once

#include <functional>
#include <vector>

#include "src/fusion/dwt_fusion.h"

namespace vf::dwt {

class FusionPlan {
 public:
  // Callbacks fired between the replay stages (never during the numerics,
  // which make no filter calls besides kernels()). A timed runner hangs its
  // backend phase transitions here so the modeled call sequence —
  // set_phase(forward), accounting, set_phase(fusion), ... — is identical
  // to the staged path's.
  struct StageHooks {
    std::function<void()> before_forward;
    std::function<void()> before_fusion;
    std::function<void()> before_inverse;
  };

  // Throws std::invalid_argument unless rows, cols and config.levels are
  // all at least 1.
  FusionPlan(int rows, int cols, const TransformConfig& config);

  int rows() const { return rows_; }
  int cols() const { return cols_; }

  // The plan handles splittable filters (numerics expressible as a
  // KernelSet) with at least one decomposition level; everything else stays
  // on the staged path.
  static bool applicable(const TransformConfig& config,
                         const LineFilter& filter);

  // Fuse one frame pair: fuse() through filter.kernels(), then replay().
  image::ImageF run(const image::ImageF& a, const image::ImageF& b,
                    LineFilter& filter, const StageHooks& hooks = {}) const;

  // The numeric half: the fused image of one frame pair, computed serially
  // on the calling thread with scratch from its arena. Makes no filter
  // calls, so it may run on any thread, concurrently with other frames.
  // Throws std::invalid_argument unless both frames have the plan's shape.
  image::ImageF fuse(const image::ImageF& a, const image::ImageF& b,
                     const simd::KernelSet& kernels) const;

  // The accounting half: the staged path's canonical account_*/barrier()
  // sequence for one frame pair of this plan's shape, with `hooks` fired
  // between the stages. Reads no samples; call it on the thread that owns
  // the filter, in frame order.
  void replay(LineFilter& filter, const StageHooks& hooks = {}) const;

  // Estimated DRAM traffic per frame pair, derived from the pass structure
  // (each plane-sized read/write a pass makes, x4 bytes; block scratch that
  // stays cache-resident is not charged). `staged_bytes` models a staged
  // pass over whole planes — per tree-level a row pass, a column pass and
  // the transposes that make columns contiguous, then a separate fusion
  // pass — as the reference this plan is measured against; `fused_bytes`
  // models the plan's pass structure as it stood when bench_pipeline's
  // baseline was locked (band planes then stored transposed, one LL
  // transpose per level; the row-major plan skips those moves, so this is
  // an upper bound). `flops` counts the transform MACs (x2) plus the
  // fusion-rule ops, for arithmetic-intensity reporting in bench_pipeline
  // --json.
  struct Traffic {
    double staged_bytes = 0.0;
    double fused_bytes = 0.0;
    double flops = 0.0;
  };
  Traffic estimate_traffic() const;

 private:
  struct LevelDims {
    int r, c;    // pre-padding input dims of this level
    int rp, cp;  // padded (even) dims
    int hr, hc;  // subband dims (rp/2, cp/2)
  };
  // Extension tables of one (tree, level), see kernels.h's plane kernels.
  struct ExtTables {
    std::vector<int> row_cols;   // row analysis: source column, cp + taps
    std::vector<int> col_rows;   // column analysis: source row, rp + taps
    std::vector<int> col_synth;  // column synthesis: stream row, rp + synth_taps
  };

  int rows_ = 0, cols_ = 0;
  TransformConfig config_;
  std::vector<LevelDims> dims_;      // [level]
  std::vector<FilterBank> banks_[2];  // [tree][level], rows and columns alike
  std::vector<ExtTables> ext_[2];     // [tree][level]
};

}  // namespace vf::dwt
