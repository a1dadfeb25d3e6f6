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
//     stored row-major. The column passes filter vertically on those
//     planes, one column per SIMD lane (KernelSet::analyze_mag_cols /
//     synthesize_cols): in a row-major plane the 8 or 16 floats of one row
//     are sample r of 8 or 16 adjacent column lines, so nothing is ever
//     transposed. Extension (and the edge pad of odd sizes) is a per-level
//     table mapping each extended sample to its source, built once in the
//     constructor;
//   * planes are packed by column filter. Of a frame's four trees, the two
//     that filter their columns with the same bank (tree 0 of the first
//     complex pair and tree 2 of the second, and trees 3 and 1) sit side by
//     side in one plane of 2*hc columns, so one column-pass call fills the
//     lanes of both: at the deep levels a lone plane is 22 or 11 columns
//     wide and would run partly empty blocks. The magnitude pairs the two
//     packed planes lane by lane, the select rule and the residue average
//     run over whole packed planes, and the next level's row passes read
//     each tree's half in place. Level 0 is the exception in both
//     directions: its forward row passes are shared between the pairs, so
//     its column pass runs one call per pair, and its inverse column pass
//     runs one call per tree, because a packed level's row synthesis must
//     give the second tree a copy of its planes (each tree's halo overlaps
//     its neighbour) and at level 0's widths packing saves too few lane
//     blocks to pay for it;
//   * row synthesis reads its periodic extension in place, from halo
//     columns of its input planes, and level 0 synthesizes straight into
//     the per-tree reconstruction planes. Row passes stay one call per tree
//     and level: two rows side by side would gain nothing, since the phase
//     gap between them costs as many lane blocks as it saves.
//
// The plan is two halves. fuse() is the numerics: always serial, no filter
// calls, so one frame pair is one unit of host work that any thread can run
// (sched::detail::measure_frames fans a window's frames out over the pool,
// one frame per worker at a time). replay() is the filter's
// account_*/barrier() bookkeeping, derived from shapes alone and issued in
// the exact canonical sequence the staged path emits (forward A trees 0-3,
// forward B trees 0-3, fusion pair/level/subband, inverse trees 0-3), with
// LineFilter::begin_stage fired before each stage, so every backend observes
// the same call stream as the staged path.
//
// Bit-identity is by construction, not by tolerance: every line sees the same
// extended samples as in the staged path, every kernel keeps the scalar
// per-output arithmetic order in every instruction set (kernels.h), and the
// reconstruction accumulates trees in the same order.
#pragma once

#include <vector>

#include "src/fusion/dwt_fusion.h"

namespace vf::dwt {

class FusionPlan {
 public:
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
                    LineFilter& filter) const;

  // The numeric half: the fused image of one frame pair, computed serially
  // on the calling thread with scratch from its arena. Makes no filter
  // calls, so it may run on any thread, concurrently with other frames.
  // Throws std::invalid_argument unless both frames have the plan's shape.
  image::ImageF fuse(const image::ImageF& a, const image::ImageF& b,
                     const simd::KernelSet& kernels) const;

  // The accounting half: the staged path's canonical begin_stage/account_*/
  // barrier() sequence for one frame pair of this plan's shape. Reads no
  // samples; call it on the thread that owns the filter, in frame order.
  void replay(LineFilter& filter) const;

 private:
  // One level: its dims, and per tree (rows and columns alike) the bank and
  // the extension tables of kernels.h's plane kernels, as offsets into ext_.
  struct LevelDims {
    int r, c;    // pre-padding input dims of this level
    int rp, cp;  // padded (even) dims
    int hr, hc;  // subband dims (rp/2, cp/2)
    const FilterBank* bank[2];
    size_t row_cols[2];   // row analysis: source column, cp + taps
    size_t col_rows[2];   // column analysis: source row, rp + taps
    size_t col_synth[2];  // column synthesis: stream row, rp + synth_taps
    // Offset of this level's six fused band planes (two packed groups of
    // three subbands) in fuse()'s band block, so fuse() allocates them in
    // one call.
    size_t band_off;
  };

  const int* ext(size_t offset) const { return ext_.data() + offset; }

  int rows_ = 0, cols_ = 0;
  TransformConfig config_;
  std::vector<LevelDims> dims_;  // [level]
  std::vector<int> ext_;         // every level's extension tables
  size_t band_floats_ = 0;       // fuse()'s band block
};

}  // namespace vf::dwt
