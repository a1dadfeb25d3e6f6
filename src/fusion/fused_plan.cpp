#include "src/fusion/fused_plan.h"

#include <algorithm>
#include <cassert>
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
  band_off_.assign(static_cast<size_t>(config.levels) + 1, 0);
  for (int level = 0; level < config.levels; ++level) {
    const LevelDims& d = dims_[level];
    band_off_[level + 1] =
        band_off_[level] + 6 * line_aligned(static_cast<size_t>(d.hr) * d.hc);
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
      // synthesize_rows reads its extension in place, inside the halo.
      assert(bank.synthesis_offset >= 0 && bank.synthesis_offset <= bank.synth_taps());
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

  // Per-tree reconstructions, padded rp x cp: level 0's row synthesis writes
  // straight into them, and the combine at the end reads their first rows x
  // cols samples by stride, in tree order (the staged inverse_dtcwt
  // accumulation order).
  const size_t recon_stride = static_cast<size_t>(d0.cp);
  float* recon[4];
  for (int t = 0; t < 4; ++t) {
    recon[t] = outer.alloc(static_cast<size_t>(d0.rp) * d0.cp);
  }

  for (int p = 0; p < 2; ++p) {
    ArenaScope pair;
    const int col_tree[2] = {p, 1 - p};

    // Fused band planes, row-major hr x hc, all in one block (band_off_).
    // fused_at(L, sb, s): sb in {0=lh, 1=hl, 2=hh}, s = side.
    float* const fused_bands = pair.alloc(band_off_[D]);
    auto fused_at = [&](int L, int sb, int s) {
      const size_t q = line_aligned(static_cast<size_t>(dims_[L].hr) * dims_[L].hc);
      return fused_bands + band_off_[L] + static_cast<size_t>(sb * 2 + s) * q;
    };
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

        // The column synthesis writes hc columns into rows of hs floats,
        // leaving the halo the row synthesis fills and reads in place.
        const int halo = simd::synth_row_halo(rowb.synth_taps());
        const int hs = dl.hc + 2 * halo;
        float* rowlo = pair.alloc(static_cast<size_t>(dl.rp) * hs) + halo;
        float* rowhi = pair.alloc(static_cast<size_t>(dl.rp) * hs) + halo;
        float* padded = L > 0 ? pair.alloc(static_cast<size_t>(dl.rp) * dl.cp)
                              : recon[s == 0 ? kPairRe[p] : kPairIm[p]];

        k.synthesize_cols(ll_in, ll_stride, fused_at(L, 0, s), dl.hc, dl.hc, ext,
                          dl.hr, colb.ca.data(), colb.cb.data(), colb.synth_taps(),
                          rowlo, hs);
        k.synthesize_cols(fused_at(L, 1, s), dl.hc, fused_at(L, 2, s), dl.hc, dl.hc,
                          ext, dl.hr, colb.ca.data(), colb.cb.data(),
                          colb.synth_taps(), rowhi, hs);
        k.synthesize_rows(rowlo, rowhi, hs, dl.rp, dl.hc, rowb.ca.data(),
                          rowb.cb.data(), rowb.synth_taps(), rowb.synthesis_offset,
                          padded, dl.cp);

        ll_in = padded;
        ll_stride = dl.cp;
      }
    }
  }  // pair scope

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
      detail::account_forward_tree(rows_, cols_, config_,
                                   banks_[t >> 1].data(),
                                   banks_[t & 1].data(), f);
    }
    (void)x;
  }
  f.begin_stage(Stage::kFusion);
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
  f.begin_stage(Stage::kInverse);
  for (int t = 0; t < 4; ++t) {
    detail::account_inverse_tree(rows_, cols_, config_,
                                 banks_[t >> 1].data(),
                                 banks_[t & 1].data(), f);
  }
}

}  // namespace vf::dwt
