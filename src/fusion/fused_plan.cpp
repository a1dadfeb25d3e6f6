#include "src/fusion/fused_plan.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <stdexcept>
#include <string>

#include "src/common/arena.h"

namespace vf::dwt {
namespace {

using image::ImageF;

// tree(pair, side): trees (0,3) form the first complex pair, (1,2) the
// second; within a pair the re side is row-tree A and the im side row-tree B
// (see fuse.cpp). col_tree(pair, side) = side == 0 ? pair : 1 - pair, i.e.
// pair ^ side.
constexpr int kPairRe[2] = {0, 1};
constexpr int kPairIm[2] = {3, 2};

// out[k] = min((k - offset) mod n, clamp) for k < len: a periodic
// extension table, filled by walking the period rather than taking a
// remainder per entry.
void fill_periodic(int* out, int len, int offset, int n, int clamp) {
  int j = (-offset) % n;
  if (j < 0) j += n;
  for (int k = 0; k < len; ++k) {
    out[k] = std::min(j, clamp);
    if (++j == n) j = 0;
  }
}

// Plane sizes inside one arena allocation round up to a 64-byte line, as
// separate Arena::alloc calls would.
size_t line_aligned(size_t floats) { return (floats + 15) & ~static_cast<size_t>(15); }

}  // namespace

FusionPlan::FusionPlan(int rows, int cols, const TransformConfig& config)
    : rows_(rows), cols_(cols), config_(config) {
  if (rows < 1 || cols < 1 || config.levels < 1) {
    throw std::invalid_argument("FusionPlan: needs rows, cols and levels >= 1, got " +
                                std::to_string(rows) + "x" + std::to_string(cols) +
                                " at " + std::to_string(config.levels) + " levels");
  }
  // Two allocations at any depth: the level records and one block holding
  // every (tree, level)'s extension tables.
  dims_.resize(static_cast<size_t>(config.levels));
  size_t ext_len = 0;
  int r = rows, c = cols;
  for (int level = 0; level < config.levels; ++level) {
    LevelDims& d = dims_[level];
    d.r = r;
    d.c = c;
    d.rp = r + (r & 1);
    d.cp = c + (c & 1);
    d.hr = d.rp / 2;
    d.hc = d.cp / 2;
    d.band_off = band_floats_;
    band_floats_ += 6 * line_aligned(2 * static_cast<size_t>(d.hr) * d.hc);
    // Row and column passes of a tree share its bank at every level.
    for (int tree = 0; tree < 2; ++tree) {
      const FilterBank& bank = detail::bank_for_level(config_, level, tree);
      // analyze_mag_cols filters the re and im planes through one tap loop,
      // and the column kernels hold one row pointer per tap; make_filter_bank
      // keeps tree A and tree B on the same window widths (the level-1 delay
      // shifts both window ends; the q-shift reversal stays inside the same
      // 14-tap window), all well inside kMaxTaps.
      assert(bank.taps() <= simd::kMaxTaps && bank.synth_taps() <= simd::kMaxTaps);
      assert(bank.taps() == detail::bank_for_level(config_, level, 0).taps());
      assert(bank.synth_taps() == detail::bank_for_level(config_, level, 0).synth_taps());
      // synthesize_rows reads its extension in place, inside the halo.
      assert(bank.synthesis_offset >= 0 && bank.synthesis_offset <= bank.synth_taps());
      d.bank[tree] = &bank;
      d.row_cols[tree] = ext_len;
      ext_len += static_cast<size_t>(d.cp + bank.taps());
      d.col_rows[tree] = ext_len;
      ext_len += static_cast<size_t>(d.rp + bank.taps());
      d.col_synth[tree] = ext_len;
      ext_len += static_cast<size_t>(d.rp + bank.synth_taps());
    }
    r = d.hr;
    c = d.hc;
  }
  ext_.resize(ext_len);
  for (const LevelDims& d : dims_) {
    for (int tree = 0; tree < 2; ++tree) {
      const FilterBank& bank = *d.bank[tree];
      // Row analysis: the periodic extension of the padded row (column
      // cp - 1 replicates column c - 1 when c is odd).
      fill_periodic(&ext_[d.row_cols[tree]], d.cp + bank.taps(), bank.analysis_offset,
                    d.cp, d.c - 1);
      // Column analysis over the rp rows of a row-pass output.
      fill_periodic(&ext_[d.col_rows[tree]], d.rp + bank.taps(), bank.analysis_offset,
                    d.rp, d.rp - 1);
      // Column synthesis: stream row of the interleaved lo/hi extension.
      fill_periodic(&ext_[d.col_synth[tree]], d.rp + bank.synth_taps(),
                    bank.synthesis_offset, d.rp, d.rp - 1);
    }
  }
}

bool FusionPlan::applicable(const TransformConfig& config, const LineFilter& filter) {
  return filter.splittable() && config.levels >= 1;
}

ImageF FusionPlan::run(const ImageF& a, const ImageF& b, LineFilter& f) const {
  assert(f.splittable());
  ImageF out = fuse(a, b, f.kernels());
  replay(f);
  return out;
}

ImageF FusionPlan::fuse(const ImageF& a, const ImageF& b,
                        const simd::KernelSet& k) const {
  if (a.rows() != rows_ || a.cols() != cols_ || b.rows() != rows_ ||
      b.cols() != cols_) {
    throw std::invalid_argument(
        "FusionPlan::fuse: frames " + std::to_string(a.rows()) + "x" +
        std::to_string(a.cols()) + " and " + std::to_string(b.rows()) + "x" +
        std::to_string(b.cols()) + " do not match the plan's " +
        std::to_string(rows_) + "x" + std::to_string(cols_) + " (rows x cols)");
  }

  const int D = config_.levels;
  const int DL = D - 1;  // deepest level index
  const LevelDims& d0 = dims_[0];
  const LevelDims& dd = dims_[DL];

  ArenaScope outer;

  // One forward row pass: the rp x cp padded plane of an r x c source
  // (padding comes from the row clamp and the column table) -> rp x hc of
  // rowlo/rowhi, whose rows are out_stride apart.
  auto row_pass = [&](const float* src, int src_stride, int L, int tree,
                      float* rowlo, float* rowhi, int out_stride) {
    const LevelDims& d = dims_[L];
    const FilterBank& bank = *d.bank[tree];
    k.analyze_rows(src, src_stride, d.r, d.rp, ext(d.row_cols[tree]), d.hc,
                   bank.lp.data(), bank.hp.data(), bank.taps(), rowlo, rowhi,
                   out_stride);
  };

  // Planes are packed by column filter. Chain (pair p, side s), one of the
  // four trees of one frame, filters its columns with column tree p ^ s, so
  // group g = p ^ s holds chains (0, g) and (1, 1 - g). Every band plane
  // below is a group's, hr x 2hc (rp x 2hc before the column pass), with
  // pair p's chain in columns [p*hc, (p+1)*hc): one column-pass call
  // filters both pairs. The magnitude pairs group 0 with group 1 lane by
  // lane, since column j of both is the same pair's two sides (swapped for
  // pair 1; the sum of their squares does not depend on the order).

  // Fused band planes of both groups, all in one block (band_off);
  // fused_at(g, L, sb): sb in {0=lh, 1=hl, 2=hh}. Frame A's bands are
  // written straight into them and the select rule fuses frame B's in place.
  float* const fused_bands = outer.alloc(band_floats_);
  auto fused_at = [&](int g, int L, int sb) {
    const size_t q = line_aligned(2 * static_cast<size_t>(dims_[L].hr) * dims_[L].hc);
    return fused_bands + dims_[L].band_off + static_cast<size_t>(g * 3 + sb) * q;
  };

  // Level-0 row passes, shared across the two complex pairs: in both pairs
  // the re side is row-tree A and the im side row-tree B, so four passes
  // (frame x side) cover all eight (frame x tree) level-0 row transforms the
  // staged path runs. Being shared, they cannot sit packed: level 0's
  // column pass runs one call per pair.
  const float* in[2] = {a.data(), b.data()};
  const size_t half0 = static_cast<size_t>(d0.rp) * d0.hc;
  float* row0lo[2][2];
  float* row0hi[2][2];
  for (int x = 0; x < 2; ++x) {
    for (int s = 0; s < 2; ++s) {
      row0lo[x][s] = outer.alloc(half0);
      row0hi[x][s] = outer.alloc(half0);
      row_pass(in[x], cols_, 0, s, row0lo[x][s], row0hi[x][s], d0.hc);
    }
  }

  // --- forward: both frames, level by level ------------------------------
  // ll[x][g]: frame x's lowpass residues of the current level, packed; the
  // next level's row passes read each chain's half in place.
  const float* ll[2][2] = {{nullptr, nullptr}, {nullptr, nullptr}};
  for (int L = 0; L < D; ++L) {
    const LevelDims& dl = dims_[L];
    const int w = 2 * dl.hc;
    const size_t q = static_cast<size_t>(dl.hr) * w;
    const FilterBank& cb0 = *dl.bank[0];
    const FilterBank& cb1 = *dl.bank[1];
    const int* ext0 = ext(dl.col_rows[0]);
    const int* ext1 = ext(dl.col_rows[1]);

    // ll_next[x][g]: this level's residues, which outlive its scope.
    float* ll_next[2][2];
    for (int x = 0; x < 2; ++x) {
      for (int g = 0; g < 2; ++g) ll_next[x][g] = outer.alloc(q);
    }
    ArenaScope level;
    // band[x][sb][g], mag[x][sb]; frame A's bands are the fused planes.
    float* band[2][3][2];
    float* mag[2][3];
    for (int sb = 0; sb < 3; ++sb) {
      for (int g = 0; g < 2; ++g) {
        band[0][sb][g] = fused_at(g, L, sb);
        band[1][sb][g] = level.alloc(q);
      }
      for (int x = 0; x < 2; ++x) mag[x][sb] = level.alloc(q);
    }
    for (int x = 0; x < 2; ++x) {
      // Column passes, analysis + magnitude straight on the row-major
      // planes, `cols` columns from column `at` of every output plane:
      // row-lo columns -> ll (both groups) + lh (+ |lh|), row-hi columns ->
      // hl + hh (+ magnitudes of both).
      auto columns = [&](const float* lo0, const float* lo1, const float* hi0,
                         const float* hi1, int in_stride, int cols, int at) {
        k.analyze_mag_cols(lo0, lo1, in_stride, cols, ext0, ext1, dl.hr,
                           cb0.lp.data(), cb0.hp.data(), cb1.lp.data(),
                           cb1.hp.data(), cb0.taps(), ll_next[x][0] + at,
                           band[x][0][0] + at, ll_next[x][1] + at,
                           band[x][0][1] + at, nullptr, mag[x][0] + at, w);
        k.analyze_mag_cols(hi0, hi1, in_stride, cols, ext0, ext1, dl.hr,
                           cb0.lp.data(), cb0.hp.data(), cb1.lp.data(),
                           cb1.hp.data(), cb0.taps(), band[x][1][0] + at,
                           band[x][2][0] + at, band[x][1][1] + at,
                           band[x][2][1] + at, mag[x][1] + at, mag[x][2] + at, w);
      };
      if (L == 0) {
        // Pair p's chain of group g is row tree p ^ g.
        for (int p = 0; p < 2; ++p) {
          columns(row0lo[x][p], row0lo[x][p ^ 1], row0hi[x][p], row0hi[x][p ^ 1],
                  d0.hc, d0.hc, p * d0.hc);
        }
        continue;
      }
      ArenaScope rows;
      float* rowlo[2];
      float* rowhi[2];
      for (int g = 0; g < 2; ++g) {
        rowlo[g] = rows.alloc(static_cast<size_t>(dl.rp) * w);
        rowhi[g] = rows.alloc(static_cast<size_t>(dl.rp) * w);
        for (int p = 0; p < 2; ++p) {
          row_pass(ll[x][g] + p * dl.c, 2 * dl.c, L, p ^ g, rowlo[g] + p * dl.hc,
                   rowhi[g] + p * dl.hc, w);
        }
      }
      columns(rowlo[0], rowlo[1], rowhi[0], rowhi[1], w, w, 0);
    }
    // The select rule: frame B's sample wherever its magnitude wins.
    for (int sb = 0; sb < 3; ++sb) {
      k.select(band[0][sb][0], band[0][sb][1], band[1][sb][0], band[1][sb][1],
               mag[0][sb], mag[1][sb], static_cast<int>(q), band[0][sb][0],
               band[0][sb][1]);
    }
    for (int x = 0; x < 2; ++x) {
      for (int g = 0; g < 2; ++g) ll[x][g] = ll_next[x][g];
    }
  }
  // Lowpass residue fusion (not time-accounted, matching average()).
  const size_t qd = static_cast<size_t>(dd.hr) * 2 * dd.hc;
  float* ll_fused[2];
  for (int g = 0; g < 2; ++g) {
    ll_fused[g] = outer.alloc(qd);
    k.average(ll[0][g], ll[1][g], static_cast<int>(qd), ll_fused[g]);
  }

  // Per-tree reconstructions, padded rp x cp: level 0's row synthesis writes
  // straight into them, and the combine at the end reads their first rows x
  // cols samples by stride, in tree order (the staged inverse_dtcwt
  // accumulation order).
  const size_t recon_stride = static_cast<size_t>(d0.cp);
  float* recon[4];
  for (int t = 0; t < 4; ++t) {
    recon[t] = outer.alloc(static_cast<size_t>(d0.rp) * d0.cp);
  }

  // --- inverse: each group's two chains side by side ---------------------
  for (int g = 0; g < 2; ++g) {
    ArenaScope group;
    // The lowpass input of a level: the fused residues at the deepest
    // level, else the output plane of the level below, read by stride (the
    // first hr rows and hc columns of each chain's half are this level's ll).
    const float* ll_in = ll_fused[g];
    int ll_stride = 2 * dd.hc;
    for (int L = DL; L >= 0; --L) {
      const LevelDims& dl = dims_[L];
      const int w = 2 * dl.hc;
      const FilterBank& colb = *dl.bank[g];
      const int* ext_rows = ext(dl.col_synth[g]);
      // Level L > 0 writes the next level's packed lowpass input (chain 1
      // from column c, that level's hc: chain 0's cp - c pad columns land
      // under it before chain 1 overwrites them); level 0 writes each
      // chain's own reconstruction plane.
      const int out_stride = L > 0 ? dl.c + dl.cp : d0.cp;
      float* padded = L > 0 ? group.alloc(static_cast<size_t>(dl.rp) * out_stride)
                            : nullptr;
      // Level 0 runs one column-synthesis call per chain: at its widths
      // packing saves few lane blocks (none for 2 x 44 columns on 16
      // lanes), and a packed level needs the plane copy below.
      const int n = L > 0 ? 2 : 1;  // chains per column-synthesis call
      const int halo = simd::synth_row_halo(dl.bank[0]->synth_taps());
      const int stride = n * dl.hc + 2 * halo;

      for (int p0 = 0; p0 < 2; p0 += n) {
        ArenaScope planes;
        // The column synthesis writes its chains' hc columns into rows of
        // `stride` floats, leaving the outer halos the row synthesis fills
        // and reads in place.
        float* rowlo = planes.alloc(static_cast<size_t>(dl.rp) * stride) + halo;
        float* rowhi = planes.alloc(static_cast<size_t>(dl.rp) * stride) + halo;
        const size_t at = static_cast<size_t>(p0) * dl.hc;
        k.synthesize_cols(ll_in + at, ll_stride, fused_at(g, L, 0) + at, w, n * dl.hc,
                          ext_rows, dl.hr, colb.ca.data(), colb.cb.data(),
                          colb.synth_taps(), rowlo, stride);
        k.synthesize_cols(fused_at(g, L, 1) + at, w, fused_at(g, L, 2) + at, w,
                          n * dl.hc, ext_rows, dl.hr, colb.ca.data(), colb.cb.data(),
                          colb.synth_taps(), rowhi, stride);

        // Chain i's row synthesis reads planes lo[i], hi[i]. Packed, each
        // chain's inner halo overlaps the other chain's edge columns, so
        // chain 1 reads (and writes its halo into) a copy of the planes.
        float* lo[2] = {rowlo, rowlo};
        float* hi[2] = {rowhi, rowhi};
        if (n == 2) {
          const size_t len = static_cast<size_t>(dl.rp) * stride;
          lo[1] = planes.alloc(len) + halo;
          hi[1] = planes.alloc(len) + halo;
          std::memcpy(lo[1] - halo, rowlo - halo, len * sizeof(float));
          std::memcpy(hi[1] - halo, rowhi - halo, len * sizeof(float));
        }
        for (int i = 0; i < n; ++i) {
          const int p = p0 + i;
          const int side = p ^ g;
          const FilterBank& rowb = *dl.bank[side];
          float* out = L > 0 ? padded + p * dl.c
                             : recon[side == 0 ? kPairRe[p] : kPairIm[p]];
          k.synthesize_rows(lo[i] + i * dl.hc, hi[i] + i * dl.hc, stride, dl.rp,
                            dl.hc, rowb.ca.data(), rowb.cb.data(), rowb.synth_taps(),
                            rowb.synthesis_offset, out, out_stride);
        }
      }
      ll_in = padded;
      ll_stride = out_stride;
    }
  }  // group scope

  // Combine the four trees in the staged accumulation order,
  // ((recs[0] + recs[1]) + recs[2]) + recs[3], then x 0.25f.
  ImageF out(rows_, cols_);
  for (int r = 0; r < rows_; ++r) {
    const size_t i = static_cast<size_t>(r) * recon_stride;
    const float* r0 = recon[0] + i;
    const float* r1 = recon[1] + i;
    const float* r2 = recon[2] + i;
    const float* r3 = recon[3] + i;
    float* acc = out.data() + static_cast<size_t>(r) * cols_;
    for (int c = 0; c < cols_; ++c) acc[c] = (((r0[c] + r1[c]) + r2[c]) + r3[c]) * 0.25f;
  }
  return out;
}

void FusionPlan::replay(LineFilter& f) const {
  const int D = config_.levels;
  f.begin_stage(Stage::kForward);
  for (int x = 0; x < 2; ++x) {
    for (int t = 0; t < 4; ++t) {
      detail::account_forward_tree(rows_, cols_, config_, t >> 1, t & 1, f);
    }
    (void)x;
  }
  f.begin_stage(Stage::kFusion);
  for (int p = 0; p < 2; ++p) {
    for (int L = 0; L < D; ++L) {
      const int nb = dims_[L].hr * dims_[L].hc;
      for (int sb = 0; sb < 3; ++sb) f.account_select_band(nb);
    }
    (void)p;
  }
  f.begin_stage(Stage::kInverse);
  for (int t = 0; t < 4; ++t) {
    detail::account_inverse_tree(rows_, cols_, config_, t >> 1, t & 1, f);
  }
}

}  // namespace vf::dwt
