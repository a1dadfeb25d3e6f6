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
// (see fuse.cpp). col_tree(pair, side) = side == 0 ? pair : 1 - pair.
constexpr int kPairRe[2] = {0, 1};
constexpr int kPairIm[2] = {3, 2};

int wrap(int k, int n) {
  k %= n;
  return k < 0 ? k + n : k;
}

}  // namespace

FusionPlan::FusionPlan(int rows, int cols, const TransformConfig& config)
    : rows_(rows), cols_(cols), config_(config) {
  if (rows < 1 || cols < 1 || config.levels < 1) {
    throw std::invalid_argument("FusionPlan: needs rows, cols and levels >= 1, got " +
                                std::to_string(rows) + "x" + std::to_string(cols) +
                                " at " + std::to_string(config.levels) + " levels");
  }
  int r = rows, c = cols;
  dims_.reserve(config.levels);
  for (int level = 0; level < config.levels; ++level) {
    LevelDims d;
    d.r = r;
    d.c = c;
    d.rp = r + (r & 1);
    d.cp = c + (c & 1);
    d.hr = d.rp / 2;
    d.hc = d.cp / 2;
    dims_.push_back(d);
    r = d.hr;
    c = d.hc;
  }
  // Row and column passes of a tree share its bank at every level.
  for (int tree = 0; tree < 2; ++tree) {
    banks_[tree].reserve(config.levels);
    ext_[tree].reserve(config.levels);
    for (int level = 0; level < config.levels; ++level) {
      const LevelDims& d = dims_[level];
      const FilterBank& bank =
          banks_[tree].emplace_back(detail::bank_for_level(config_, level, tree));
      // analyze_mag_cols filters the re and im planes through one tap loop,
      // and the column kernels hold one row pointer per tap; make_filter_bank
      // keeps tree A and tree B on the same window widths (the level-1 delay
      // shifts both window ends; the q-shift reversal stays inside the same
      // 14-tap window), all well inside kMaxTaps.
      assert(bank.taps() <= simd::kMaxTaps && bank.synth_taps() <= simd::kMaxTaps);
      ExtTables e;
      // Row analysis: the periodic extension of the padded row (column
      // cp - 1 replicates column c - 1 when c is odd).
      e.row_cols.resize(static_cast<size_t>(d.cp + bank.taps()));
      for (int k = 0; k < d.cp + bank.taps(); ++k) {
        e.row_cols[k] = std::min(wrap(k - bank.analysis_offset, d.cp), d.c - 1);
      }
      // Column analysis over the rp rows of a row-pass output.
      e.col_rows.resize(static_cast<size_t>(d.rp + bank.taps()));
      for (int k = 0; k < d.rp + bank.taps(); ++k) {
        e.col_rows[k] = wrap(k - bank.analysis_offset, d.rp);
      }
      // Column synthesis: stream row of the interleaved lo/hi extension.
      e.col_synth.resize(static_cast<size_t>(d.rp + bank.synth_taps()));
      for (int k = 0; k < d.rp + bank.synth_taps(); ++k) {
        e.col_synth[k] = wrap(k - bank.synthesis_offset, d.rp);
      }
      ext_[tree].push_back(std::move(e));
    }
  }
  for (int level = 0; level < config.levels; ++level) {
    assert(banks_[0][level].taps() == banks_[1][level].taps());
    assert(banks_[0][level].synth_taps() == banks_[1][level].synth_taps());
    (void)level;
  }
}

bool FusionPlan::applicable(const TransformConfig& config, const LineFilter& filter) {
  return filter.splittable() && config.levels >= 1;
}

ImageF FusionPlan::run(const ImageF& a, const ImageF& b, LineFilter& f,
                       const StageHooks& hooks) const {
  assert(f.splittable());
  ImageF out = fuse(a, b, f.kernels());
  replay(f, hooks);
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

  ArenaScope outer;

  // One forward row pass: the rp x cp padded plane of an r x c source
  // (padding comes from the row clamp and the column table) -> rowlo/rowhi,
  // rp x hc each.
  auto row_pass = [&](const float* src, int src_stride, int L, int tree,
                      float* rowlo, float* rowhi) {
    const LevelDims& d = dims_[L];
    const FilterBank& bank = banks_[tree][L];
    k.analyze_rows(src, src_stride, d.r, d.rp, ext_[tree][L].row_cols.data(), d.hc,
                   bank.lp.data(), bank.hp.data(), bank.taps(), rowlo, rowhi, d.hc);
  };

  // Level-0 row passes, shared across the two complex pairs: in both pairs
  // the re side is row-tree A and the im side row-tree B, so four passes
  // (frame x side) cover all eight (frame x tree) level-0 row transforms the
  // staged path runs.
  const float* in[2] = {a.data(), b.data()};
  const size_t half0 = static_cast<size_t>(d0.rp) * d0.hc;
  float* row0lo[2][2];
  float* row0hi[2][2];
  for (int x = 0; x < 2; ++x) {
    for (int s = 0; s < 2; ++s) {
      row0lo[x][s] = outer.alloc(half0);
      row0hi[x][s] = outer.alloc(half0);
      row_pass(in[x], cols_, 0, s, row0lo[x][s], row0hi[x][s]);
    }
  }

  // Per-tree reconstructions, combined at the end in tree order (the staged
  // inverse_dtcwt accumulation order).
  float* recon[4];
  for (int t = 0; t < 4; ++t) {
    recon[t] = outer.alloc(static_cast<size_t>(rows_) * cols_);
  }

  for (int p = 0; p < 2; ++p) {
    ArenaScope pair;
    const int col_tree[2] = {p, 1 - p};

    // Fused band planes, row-major hr x hc. fused_at(L, sb, s): sb in
    // {0=lh, 1=hl, 2=hh}, s = side.
    std::vector<float*> fused_bands(static_cast<size_t>(D) * 6, nullptr);
    auto fused_at = [&](int L, int sb, int s) -> float*& {
      return fused_bands[(static_cast<size_t>(L) * 3 + sb) * 2 + s];
    };
    for (int L = 0; L < D; ++L) {
      const size_t q = static_cast<size_t>(dims_[L].hr) * dims_[L].hc;
      for (int sb = 0; sb < 3; ++sb) {
        for (int s = 0; s < 2; ++s) fused_at(L, sb, s) = pair.alloc(q);
      }
    }
    const LevelDims& dd = dims_[DL];
    const size_t qd = static_cast<size_t>(dd.hr) * dd.hc;
    float* ll_fused[2] = {pair.alloc(qd), pair.alloc(qd)};

    // --- forward: both frames interleaved, level by level ----------------
    const float* cur[2][2] = {{nullptr, nullptr}, {nullptr, nullptr}};
    for (int L = 0; L < D; ++L) {
      const LevelDims& dl = dims_[L];
      const size_t half = static_cast<size_t>(dl.rp) * dl.hc;
      const size_t q = static_cast<size_t>(dl.hr) * dl.hc;

      // The lowpass residues survive this level: the next level's row pass
      // reads them in place.
      float* ll[2][2];
      for (int x = 0; x < 2; ++x) {
        for (int s = 0; s < 2; ++s) ll[x][s] = pair.alloc(q);
      }

      {
        ArenaScope level;

        // Row passes (level 0's were shared and precomputed above).
        float* rowlo[2][2];
        float* rowhi[2][2];
        for (int x = 0; x < 2; ++x) {
          for (int s = 0; s < 2; ++s) {
            if (L == 0) {
              rowlo[x][s] = row0lo[x][s];
              rowhi[x][s] = row0hi[x][s];
              continue;
            }
            rowlo[x][s] = level.alloc(half);
            rowhi[x][s] = level.alloc(half);
            row_pass(cur[x][s], dl.c, L, s, rowlo[x][s], rowhi[x][s]);
          }
        }

        // Column passes: analysis + magnitude straight on the row-major
        // planes. Frame A writes its bands into the fused planes, frame B
        // into scratch; the select rule then keeps B's sample wherever B's
        // magnitude wins. band[x][sb][side], mag[x][sb].
        const FilterBank& cb0 = banks_[col_tree[0]][L];
        const FilterBank& cb1 = banks_[col_tree[1]][L];
        const int* ext0 = ext_[col_tree[0]][L].col_rows.data();
        const int* ext1 = ext_[col_tree[1]][L].col_rows.data();
        float* band[2][3][2];
        float* mag[2][3];
        for (int sb = 0; sb < 3; ++sb) {
          for (int s = 0; s < 2; ++s) {
            band[0][sb][s] = fused_at(L, sb, s);
            band[1][sb][s] = level.alloc(q);
          }
          for (int x = 0; x < 2; ++x) mag[x][sb] = level.alloc(q);
        }
        for (int x = 0; x < 2; ++x) {
          // Row-lo columns -> ll (both sides) + lh (+ |lh|).
          k.analyze_mag_cols(rowlo[x][0], rowlo[x][1], dl.hc, dl.hc, ext0, ext1,
                             dl.hr, cb0.lp.data(), cb0.hp.data(), cb1.lp.data(),
                             cb1.hp.data(), cb0.taps(), ll[x][0], band[x][0][0],
                             ll[x][1], band[x][0][1], nullptr, mag[x][0], dl.hc);
          // Row-hi columns -> hl + hh (+ magnitudes of both).
          k.analyze_mag_cols(rowhi[x][0], rowhi[x][1], dl.hc, dl.hc, ext0, ext1,
                             dl.hr, cb0.lp.data(), cb0.hp.data(), cb1.lp.data(),
                             cb1.hp.data(), cb0.taps(), band[x][1][0],
                             band[x][2][0], band[x][1][1], band[x][2][1],
                             mag[x][1], mag[x][2], dl.hc);
        }
        for (int sb = 0; sb < 3; ++sb) {
          k.select(band[0][sb][0], band[0][sb][1], band[1][sb][0], band[1][sb][1],
                   mag[0][sb], mag[1][sb], static_cast<int>(q), band[0][sb][0],
                   band[0][sb][1]);
        }
      }  // transient level scope

      for (int x = 0; x < 2; ++x) {
        for (int s = 0; s < 2; ++s) cur[x][s] = ll[x][s];
      }
    }
    // Lowpass residue fusion (not time-accounted, matching average()).
    for (int s = 0; s < 2; ++s) {
      k.average(cur[0][s], cur[1][s], static_cast<int>(qd), ll_fused[s]);
    }

    // --- inverse: fused bands stream straight into synthesis ------------
    for (int s = 0; s < 2; ++s) {
      // The lowpass input of a level: the fused residue at the deepest
      // level, else the padded output plane of the level below, read by
      // stride (its first hr rows and hc columns are this level's ll).
      const float* ll_in = ll_fused[s];
      int ll_stride = dd.hc;
      for (int L = DL; L >= 0; --L) {
        const LevelDims& dl = dims_[L];
        const FilterBank& colb = banks_[col_tree[s]][L];
        const FilterBank& rowb = banks_[s][L];
        const int* ext = ext_[col_tree[s]][L].col_synth.data();

        float* rowlo = pair.alloc(static_cast<size_t>(dl.rp) * dl.hc);
        float* rowhi = pair.alloc(static_cast<size_t>(dl.rp) * dl.hc);
        float* padded = pair.alloc(static_cast<size_t>(dl.rp) * dl.cp);

        k.synthesize_cols(ll_in, ll_stride, fused_at(L, 0, s), dl.hc, dl.hc, ext,
                          dl.hr, colb.ca.data(), colb.cb.data(), colb.synth_taps(),
                          rowlo, dl.hc);
        k.synthesize_cols(fused_at(L, 1, s), dl.hc, fused_at(L, 2, s), dl.hc, dl.hc,
                          ext, dl.hr, colb.ca.data(), colb.cb.data(),
                          colb.synth_taps(), rowhi, dl.hc);
        k.synthesize_rows(rowlo, rowhi, dl.hc, dl.rp, dl.hc, rowb.ca.data(),
                          rowb.cb.data(), rowb.synth_taps(), rowb.synthesis_offset,
                          padded, dl.cp);

        if (L > 0) {
          ll_in = padded;
          ll_stride = dl.cp;
        } else {
          float* dst = recon[s == 0 ? kPairRe[p] : kPairIm[p]];
          for (int r = 0; r < rows_; ++r) {
            std::memcpy(dst + static_cast<size_t>(r) * cols_,
                        padded + static_cast<size_t>(r) * dl.cp,
                        static_cast<size_t>(cols_) * sizeof(float));
          }
        }
      }
    }
  }  // pair scope

  // Combine the four trees in the staged accumulation order:
  // recs[0] += recs[1..3], then x 0.25f.
  ImageF out(rows_, cols_);
  float* acc = out.data();
  const size_t n = out.size();
  std::memcpy(acc, recon[0], n * sizeof(float));
  for (int t = 1; t < 4; ++t) {
    const float* r = recon[t];
    for (size_t i = 0; i < n; ++i) acc[i] += r[i];
  }
  for (size_t i = 0; i < n; ++i) acc[i] *= 0.25f;
  return out;
}

void FusionPlan::replay(LineFilter& f, const StageHooks& hooks) const {
  const int D = config_.levels;
  if (hooks.before_forward) hooks.before_forward();
  for (int x = 0; x < 2; ++x) {
    for (int t = 0; t < 4; ++t) {
      detail::account_forward_tree(rows_, cols_, config_,
                                   banks_[t >> 1].data(),
                                   banks_[t & 1].data(), f);
    }
    (void)x;
  }
  if (hooks.before_fusion) hooks.before_fusion();
  for (int p = 0; p < 2; ++p) {
    for (int L = 0; L < D; ++L) {
      const int nb = dims_[L].hr * dims_[L].hc;
      for (int sb = 0; sb < 3; ++sb) {
        f.account_magnitude(nb);
        f.account_magnitude(nb);
        f.account_select(nb);
      }
    }
    (void)p;
  }
  if (hooks.before_inverse) hooks.before_inverse();
  for (int t = 0; t < 4; ++t) {
    detail::account_inverse_tree(rows_, cols_, config_,
                                 banks_[t >> 1].data(),
                                 banks_[t & 1].data(), f);
  }
}

FusionPlan::Traffic FusionPlan::estimate_traffic() const {
  Traffic t;
  const int D = config_.levels;
  const int DL = D - 1;
  for (int L = 0; L < D; ++L) {
    const LevelDims& d = dims_[L];
    const double P = static_cast<double>(d.rp) * d.cp;  // padded plane elems
    const double Q = P / 4.0;                           // one band plane
    const double rc = static_cast<double>(d.r) * d.c;
    const int row_taps = banks_[0][L].taps();
    const int col_taps = banks_[0][L].taps();
    const int row_staps = banks_[0][L].synth_taps();
    const int col_staps = banks_[0][L].synth_taps();

    // FLOPs are layout-independent: 2 per MAC over 8 forward and 4 inverse
    // tree-level transforms, plus the fusion rule (4 per magnitude element,
    // 1 per select, 2 per residue average).
    t.flops += 8.0 * (P * 2.0 * row_taps + P * 2.0 * col_taps);
    t.flops += 4.0 * (P * 2.0 * col_staps + P * 2.0 * row_staps);
    t.flops += 2.0 * 3.0 * (2.0 * 4.0 * Q + Q);
    if (L == DL) t.flops += 4.0 * 2.0 * Q;

    // Staged: per tree-level, forward = row pass (r+w) + transpose
    // of both half-planes (r+w) + column pass (r+w) + transpose of the four
    // quarter planes back (r+w) = 8P element moves; x8 trees. Inverse
    // mirrors it with 4 transposes of quarter/half planes = 8P; x4 trees.
    // Fusion: per band, two magnitude passes (2r+1w each over Q) and one
    // select (6r+2w over Q); x3 bands x2 pairs; + residue average x4 trees.
    double staged = 8.0 * 8.0 * P + 4.0 * 8.0 * P;
    staged += 2.0 * 3.0 * (2.0 * 3.0 * Q + 8.0 * Q);
    if (L == DL) staged += 4.0 * 3.0 * Q;
    t.staged_bytes += 4.0 * staged;

    // Fused: level-0 row passes are shared across pairs (4 instead of 8);
    // the column pass reads the half planes once and writes bands once (the
    // magnitude and shallow-level select happen in cache); the inverse reads
    // each fused band exactly once. Per pair and level:
    //   rows: 4 passes x (r+w) = 8P (only levels > 0; level 0 shared = 4P
    //         across BOTH pairs, charged once below)
    //   cols: read 4 half planes (4P) + write 4 tll (P) + band writes
    //         (6Q shallow / 18Q deep incl. mags)
    //   ll:   shallow transpose back 4 x (r+w over Q) = 2P; deep average
    //         2 x (2r+1w over Q) = 6Q
    //   inv:  col pass reads (Q ll + 3Q bands shallow / Q + 12Q deep) +
    //         writes half planes (P) + row pass (r+w = 2P) + transpose or
    //         crop to next level (2 x rc).
    double fused = L == 0 ? 4.0 * P : 2.0 * 8.0 * P;
    fused += 2.0 * (4.0 * P + P);
    fused += 2.0 * (L == DL ? 18.0 * Q : 6.0 * Q);
    fused += L == DL ? 2.0 * 6.0 * Q : 2.0 * 2.0 * P;
    fused += 2.0 * 2.0 * ((L == DL ? 13.0 * Q : 4.0 * Q) + P + 2.0 * P + 2.0 * rc);
    t.fused_bytes += 4.0 * fused;
  }
  return t;
}

}  // namespace vf::dwt
