#include "src/fusion/fuse.h"

#include <stdexcept>
#include <vector>

#include "src/common/arena.h"
#include "src/fusion/fused_plan.h"

namespace vf::fusion {

namespace {

using image::ImageF;

// Max-magnitude selection on one complex coefficient plane. The pair
// (re_tree, im_tree) indexes the two trees whose coefficients are combined
// into one complex subband (AA+jBB and AB+jBA). Magnitude scratch comes from
// the per-thread arena: this runs once per (pair, level, subband) per frame,
// and the deeper subbands are small enough that two vector constructions per
// call used to rival the arithmetic.
void select_band(const ImageF& a_re, const ImageF& a_im, const ImageF& b_re,
                 const ImageF& b_im, ImageF* out_re, ImageF* out_im,
                 dwt::LineFilter& filter) {
  const int n = static_cast<int>(a_re.size());
  ArenaScope scratch;
  float* mag_a = scratch.alloc(n);
  float* mag_b = scratch.alloc(n);
  const simd::KernelSet& k = filter.kernels();
  k.magnitude(a_re.data(), a_im.data(), n, mag_a);
  k.magnitude(b_re.data(), b_im.data(), n, mag_b);
  *out_re = ImageF(a_re.rows(), a_re.cols());
  *out_im = ImageF(a_im.rows(), a_im.cols());
  k.select(a_re.data(), a_im.data(), b_re.data(), b_im.data(), mag_a, mag_b, n,
           out_re->data(), out_im->data());
  filter.account_select_band(n);
}

// The lowpass residue average is not time-accounted: the paper folds it into
// the fusion rule's bookkeeping, and no backend ever charged for it.
void average_into(const ImageF& a, const ImageF& b, ImageF* out,
                  dwt::LineFilter& filter) {
  *out = ImageF(a.rows(), a.cols());
  filter.kernels().average(a.data(), b.data(), static_cast<int>(a.size()),
                           out->data());
}

const ImageF& band(const dwt::LevelBands& lv, int which) {
  return which == 0 ? lv.lh : which == 1 ? lv.hl : lv.hh;
}
ImageF& band(dwt::LevelBands& lv, int which) {
  return which == 0 ? lv.lh : which == 1 ? lv.hl : lv.hh;
}

// Same level count, and the same input dims at every level.
bool same_shape(const dwt::TreePyramid& a, const dwt::TreePyramid& b) {
  if (a.levels.size() != b.levels.size()) return false;
  for (std::size_t lv = 0; lv < a.levels.size(); ++lv) {
    if (a.levels[lv].in_rows != b.levels[lv].in_rows ||
        a.levels[lv].in_cols != b.levels[lv].in_cols) {
      return false;
    }
  }
  return a.ll.rows() == b.ll.rows() && a.ll.cols() == b.ll.cols();
}

}  // namespace

void fuse_pyramids(const dwt::DtcwtPyramid& a, const dwt::DtcwtPyramid& b,
                   dwt::DtcwtPyramid* out, dwt::LineFilter& filter) {
  const int levels = static_cast<int>(a.tree[0].levels.size());
  for (int t = 0; t < 4; ++t) {
    if (!same_shape(a.tree[t], b.tree[t])) {
      throw std::invalid_argument("fuse_pyramids: the two pyramids differ in shape");
    }
  }
  for (int t = 0; t < 4; ++t) {
    out->tree[t].levels.resize(levels);
    for (int lv = 0; lv < levels; ++lv) {
      out->tree[t].levels[lv].in_rows = a.tree[t].levels[lv].in_rows;
      out->tree[t].levels[lv].in_cols = a.tree[t].levels[lv].in_cols;
    }
  }
  // Complex pairs: (AA, BB) and (AB, BA) — trees 0&3 and 1&2.
  const int pair_re[2] = {0, 1};
  const int pair_im[2] = {3, 2};
  for (int p = 0; p < 2; ++p) {
    const int tr = pair_re[p];
    const int ti = pair_im[p];
    for (int lv = 0; lv < levels; ++lv) {
      for (int sb = 0; sb < 3; ++sb) {
        select_band(band(a.tree[tr].levels[lv], sb), band(a.tree[ti].levels[lv], sb),
                    band(b.tree[tr].levels[lv], sb), band(b.tree[ti].levels[lv], sb),
                    &band(out->tree[tr].levels[lv], sb),
                    &band(out->tree[ti].levels[lv], sb), filter);
      }
    }
  }
  for (int t = 0; t < 4; ++t) {
    average_into(a.tree[t].ll, b.tree[t].ll, &out->tree[t].ll, filter);
  }
}

image::ImageF fuse_frames(const image::ImageF& a, const image::ImageF& b,
                          const FuseConfig& config, dwt::LineFilter& filter) {
  if (dwt::FusionPlan::applicable(config.transform, filter)) {
    const dwt::FusionPlan plan(a.rows(), a.cols(), config.transform);
    return plan.run(a, b, filter);
  }
  const dwt::DtcwtPyramid pa = dwt::forward_dtcwt(a, config.transform, filter);
  const dwt::DtcwtPyramid pb = dwt::forward_dtcwt(b, config.transform, filter);
  dwt::DtcwtPyramid fused;
  fuse_pyramids(pa, pb, &fused, filter);
  return dwt::inverse_dtcwt(fused, config.transform, filter);
}

FusionOutcome fuse_frames_with_quality(const image::ImageF& a, const image::ImageF& b,
                                       const FuseConfig& config,
                                       dwt::LineFilter& filter) {
  FusionOutcome outcome;
  outcome.fused = fuse_frames(a, b, config, filter);
  outcome.quality = image::evaluate_fusion(a, b, outcome.fused);
  return outcome;
}

image::ImageF fuse_frames_dwt(const image::ImageF& a, const image::ImageF& b,
                              const FuseConfig& config, dwt::LineFilter& filter) {
  dwt::TreePyramid pa = dwt::forward_tree(a, config.transform, 0, 0, filter);
  dwt::TreePyramid pb = dwt::forward_tree(b, config.transform, 0, 0, filter);
  dwt::TreePyramid fused;
  const int levels = static_cast<int>(pa.levels.size());
  fused.levels.resize(levels);
  // Scratch sized for the largest (level-1) subband, reused across bands.
  const std::size_t max_n = levels > 0 ? pa.levels[0].lh.size() : 0;
  const std::vector<float> zeros(max_n, 0.0f);
  std::vector<float> mag_a(max_n), mag_b(max_n), out_im(max_n);
  const simd::KernelSet& k = filter.kernels();
  for (int lv = 0; lv < levels; ++lv) {
    fused.levels[lv].in_rows = pa.levels[lv].in_rows;
    fused.levels[lv].in_cols = pa.levels[lv].in_cols;
    for (int sb = 0; sb < 3; ++sb) {
      const ImageF& ba = band(pa.levels[lv], sb);
      const ImageF& bb = band(pb.levels[lv], sb);
      const int n = static_cast<int>(ba.size());
      // Real coefficients: magnitude of (c, 0) is |c|.
      k.magnitude(ba.data(), zeros.data(), n, mag_a.data());
      k.magnitude(bb.data(), zeros.data(), n, mag_b.data());
      ImageF& out = band(fused.levels[lv], sb);
      out = ImageF(ba.rows(), ba.cols());
      k.select(ba.data(), zeros.data(), bb.data(), zeros.data(), mag_a.data(),
               mag_b.data(), n, out.data(), out_im.data());
      filter.account_select_band(n);
    }
  }
  average_into(pa.ll, pb.ll, &fused.ll, filter);
  return dwt::inverse_tree(fused, config.transform, 0, 0, filter);
}

}  // namespace vf::fusion
