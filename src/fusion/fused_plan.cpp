#include "src/fusion/fused_plan.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <stdexcept>
#include <string>

#include "src/common/arena.h"
#include "src/simd/kernels.h"

namespace vf::dwt {
namespace {

using image::ImageF;

constexpr int kLineBlock = simd::kMaxLinesPerCall;

// tree(pair, side): trees (0,3) form the first complex pair, (1,2) the
// second; within a pair the re side is row-tree A and the im side row-tree B
// (see fuse.cpp). col_tree(pair, side) = side == 0 ? pair : 1 - pair.
constexpr int kPairRe[2] = {0, 1};
constexpr int kPairIm[2] = {3, 2};

// Extension buffers are padded to a 64-byte line boundary so consecutive
// lines in a block start aligned.
int align16(int n) { return (n + 15) & ~15; }

// Edge-replicating pad of an rows x cols plane into rp x cp (rp, cp each at
// most one larger) — the same pad_even semantics as the staged path.
void pad_raw(const float* src, int rows, int cols, int src_stride, int rp,
             int cp, float* out) {
  for (int r = 0; r < rp; ++r) {
    const float* s = src + static_cast<size_t>(r < rows ? r : rows - 1) * src_stride;
    float* d = out + static_cast<size_t>(r) * cp;
    std::memcpy(d, s, static_cast<size_t>(cols) * sizeof(float));
    if (cp > cols) d[cols] = s[cols - 1];
  }
}

// One forward row pass: rp lines of `src` (stride src_stride, cp samples
// each) -> rowlo/rowhi (rp x hc, stride hc). Per line, the same extended
// samples and kernel flavour as the per-line analyze_line.
void forward_row_pass(const float* src, int src_stride, int rp, int cp, int hc,
                      const FilterBank& bank, const simd::KernelSet& k,
                      float* rowlo, float* rowhi) {
  const int taps = bank.taps();
  const int ext_stride = align16(cp + taps);
  ArenaScope scratch;
  float* ext = scratch.alloc(static_cast<size_t>(kLineBlock) * ext_stride);
  for (int r = 0; r < rp; r += kLineBlock) {
    const int nb = std::min(kLineBlock, rp - r);
    for (int l = 0; l < nb; ++l) {
      detail::fill_analysis_ext(bank, src + static_cast<size_t>(r + l) * src_stride,
                                cp, ext + static_cast<size_t>(l) * ext_stride);
    }
    k.analyze_ml(ext, ext_stride, nb, hc, bank.lp.data(), bank.hp.data(), taps,
                 rowlo + static_cast<size_t>(r) * hc,
                 rowhi + static_cast<size_t>(r) * hc, hc);
  }
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
  for (int tree = 0; tree < 2; ++tree) {
    row_banks_[tree].reserve(config.levels);
    col_banks_[tree].reserve(config.levels);
    for (int level = 0; level < config.levels; ++level) {
      row_banks_[tree].push_back(detail::bank_for_level(config_, level, tree));
      col_banks_[tree].push_back(detail::bank_for_level(config_, level, tree));
    }
  }
  // analyze_mag_ml filters the re and im lines through one shared extension
  // stride/tap window, and select_synth_ml interleaves one (ca, cb) pair per
  // call. Both rely on the tree-A and tree-B banks agreeing on window widths,
  // which make_filter_bank guarantees by construction (the level-1 delay
  // shifts both window ends; the q-shift reversal stays inside the same
  // 14-tap window).
  for (int level = 0; level < config.levels; ++level) {
    assert(col_banks_[0][level].taps() == col_banks_[1][level].taps());
    assert(col_banks_[0][level].synth_taps() == col_banks_[1][level].synth_taps());
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

  // Padded inputs, shared by every tree of both frames.
  const float* in[2] = {a.data(), b.data()};
  for (int x = 0; x < 2; ++x) {
    if (rows_ != d0.rp || cols_ != d0.cp) {
      float* p = outer.alloc(static_cast<size_t>(d0.rp) * d0.cp);
      pad_raw(in[x], rows_, cols_, cols_, d0.rp, d0.cp, p);
      in[x] = p;
    }
  }

  // Level-0 row passes, shared across the two complex pairs: in both pairs
  // the re side is row-tree A and the im side row-tree B, so four passes
  // (frame x side) cover all eight (frame x tree) level-0 row transforms the
  // staged path runs.
  const size_t half0 = static_cast<size_t>(d0.rp) * d0.hc;
  float* row0lo[2][2];
  float* row0hi[2][2];
  for (int x = 0; x < 2; ++x) {
    for (int s = 0; s < 2; ++s) {
      row0lo[x][s] = outer.alloc(half0);
      row0hi[x][s] = outer.alloc(half0);
      forward_row_pass(in[x], d0.cp, d0.rp, d0.cp, d0.hc, row_banks_[s][0], k,
                       row0lo[x][s], row0hi[x][s]);
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

    // Fused band planes for levels above the deepest, stored transposed
    // (line = image column, stride hr) so the inverse column pass reads them
    // directly. fused_at(L, sb, s): sb in {0=lh, 1=hl, 2=hh}, s = side.
    std::vector<float*> fused_bands(static_cast<size_t>(DL) * 6, nullptr);
    auto fused_at = [&](int L, int sb, int s) -> float*& {
      return fused_bands[(static_cast<size_t>(L) * 3 + sb) * 2 + s];
    };
    for (int L = 0; L < DL; ++L) {
      const size_t q = static_cast<size_t>(dims_[L].hr) * dims_[L].hc;
      for (int sb = 0; sb < 3; ++sb) {
        for (int s = 0; s < 2; ++s) fused_at(L, sb, s) = pair.alloc(q);
      }
    }
    // At the deepest level both frames' candidate bands and their magnitudes
    // are kept (transposed) so the select rule can run fused into the inverse
    // synthesis read. deep_band[sb][side][frame]; deep_mag[sb][frame].
    const LevelDims& dd = dims_[DL];
    const size_t qd = static_cast<size_t>(dd.hr) * dd.hc;
    float* deep_band[3][2][2];
    float* deep_mag[3][2];
    for (int sb = 0; sb < 3; ++sb) {
      for (int s = 0; s < 2; ++s) {
        for (int x = 0; x < 2; ++x) deep_band[sb][s][x] = pair.alloc(qd);
      }
      for (int x = 0; x < 2; ++x) deep_mag[sb][x] = pair.alloc(qd);
    }
    float* t_ll_fused[2] = {pair.alloc(qd), pair.alloc(qd)};

    // --- forward: both frames interleaved, band-by-band -----------------
    const float* cur[2][2] = {{nullptr, nullptr}, {nullptr, nullptr}};
    for (int L = 0; L < D; ++L) {
      const LevelDims& dl = dims_[L];
      const size_t half = static_cast<size_t>(dl.rp) * dl.hc;
      const size_t q = static_cast<size_t>(dl.hr) * dl.hc;

      // Outputs that must survive this level (allocated below the transient
      // scope's mark): the transposed lowpass residues, and — above the
      // deepest level — their transpose back into row-major for level L+1.
      float* tll[2][2];
      float* ll_next[2][2] = {{nullptr, nullptr}, {nullptr, nullptr}};
      for (int x = 0; x < 2; ++x) {
        for (int s = 0; s < 2; ++s) {
          tll[x][s] = pair.alloc(q);
          if (L < DL) ll_next[x][s] = pair.alloc(q);
        }
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
            const float* src = cur[x][s];
            int src_stride = dl.c;
            if (dl.rp != dl.r || dl.cp != dl.c) {
              float* pp = level.alloc(static_cast<size_t>(dl.rp) * dl.cp);
              pad_raw(src, dl.r, dl.c, src_stride, dl.rp, dl.cp, pp);
              src = pp;
              src_stride = dl.cp;
            }
            forward_row_pass(src, src_stride, dl.rp, dl.cp, dl.hc,
                             row_banks_[s][L], k, rowlo[x][s], rowhi[x][s]);
          }
        }

        // Column pass: analysis + magnitude fused per frame, then — above
        // the deepest level — the select rule immediately, while the block's
        // bands are hot. All outputs are transposed (stride hr).
        const FilterBank& cb0 = col_banks_[col_tree[0]][L];
        const FilterBank& cb1 = col_banks_[col_tree[1]][L];
        const int taps = cb0.taps();
        const int ext_stride = align16(dl.rp + taps);
        float* slab_lo[2];
        float* slab_hi[2];
        for (int s = 0; s < 2; ++s) {
          slab_lo[s] = level.alloc(static_cast<size_t>(kLineBlock) * dl.rp);
          slab_hi[s] = level.alloc(static_cast<size_t>(kLineBlock) * dl.rp);
        }
        float* ext_re = level.alloc(static_cast<size_t>(kLineBlock) * ext_stride);
        float* ext_im = level.alloc(static_cast<size_t>(kLineBlock) * ext_stride);
        // Block-local band planes for the in-cache select at shallow
        // levels: blk[frame][sb][0=re, 1=im, 2=mag].
        float* blk[2][3][3];
        if (L < DL) {
          for (int x = 0; x < 2; ++x) {
            for (int sb = 0; sb < 3; ++sb) {
              for (int j = 0; j < 3; ++j) {
                blk[x][sb][j] = level.alloc(static_cast<size_t>(kLineBlock) * dl.hr);
              }
            }
          }
        }
        for (int c = 0; c < dl.hc; c += kLineBlock) {
          const int nb = std::min(kLineBlock, dl.hc - c);
          const size_t off = static_cast<size_t>(c) * dl.hr;
          for (int x = 0; x < 2; ++x) {
            for (int s = 0; s < 2; ++s) {
              simd::transpose_f32(rowlo[x][s] + c, dl.rp, nb, dl.hc, slab_lo[s], dl.rp);
              simd::transpose_f32(rowhi[x][s] + c, dl.rp, nb, dl.hc, slab_hi[s], dl.rp);
            }
            // Row-lo columns -> ll (both sides) + lh (+ |lh|).
            for (int l = 0; l < nb; ++l) {
              detail::fill_analysis_ext(cb0, slab_lo[0] + static_cast<size_t>(l) * dl.rp,
                                        dl.rp, ext_re + static_cast<size_t>(l) * ext_stride);
              detail::fill_analysis_ext(cb1, slab_lo[1] + static_cast<size_t>(l) * dl.rp,
                                        dl.rp, ext_im + static_cast<size_t>(l) * ext_stride);
            }
            const bool deep = L == DL;
            k.analyze_mag_ml(ext_re, ext_im, ext_stride, nb, dl.hr,
                             cb0.lp.data(), cb0.hp.data(), cb1.lp.data(),
                             cb1.hp.data(), taps, tll[x][0] + off,
                             deep ? deep_band[0][0][x] + off : blk[x][0][0],
                             tll[x][1] + off,
                             deep ? deep_band[0][1][x] + off : blk[x][0][1],
                             nullptr,
                             deep ? deep_mag[0][x] + off : blk[x][0][2], dl.hr);
            // Row-hi columns -> hl + hh (+ magnitudes of both).
            for (int l = 0; l < nb; ++l) {
              detail::fill_analysis_ext(cb0, slab_hi[0] + static_cast<size_t>(l) * dl.rp,
                                        dl.rp, ext_re + static_cast<size_t>(l) * ext_stride);
              detail::fill_analysis_ext(cb1, slab_hi[1] + static_cast<size_t>(l) * dl.rp,
                                        dl.rp, ext_im + static_cast<size_t>(l) * ext_stride);
            }
            k.analyze_mag_ml(ext_re, ext_im, ext_stride, nb, dl.hr,
                             cb0.lp.data(), cb0.hp.data(), cb1.lp.data(),
                             cb1.hp.data(), taps,
                             deep ? deep_band[1][0][x] + off : blk[x][1][0],
                             deep ? deep_band[2][0][x] + off : blk[x][2][0],
                             deep ? deep_band[1][1][x] + off : blk[x][1][1],
                             deep ? deep_band[2][1][x] + off : blk[x][2][1],
                             deep ? deep_mag[1][x] + off : blk[x][1][2],
                             deep ? deep_mag[2][x] + off : blk[x][2][2], dl.hr);
          }
          if (L < DL) {
            for (int sb = 0; sb < 3; ++sb) {
              k.select_ml(blk[0][sb][0], blk[0][sb][1], blk[1][sb][0],
                          blk[1][sb][1], blk[0][sb][2], blk[1][sb][2], nb,
                          dl.hr, dl.hr, fused_at(L, sb, 0) + off,
                          fused_at(L, sb, 1) + off, dl.hr);
            }
          }
        }
      }  // transient level scope

      if (L < DL) {
        for (int x = 0; x < 2; ++x) {
          for (int s = 0; s < 2; ++s) {
            simd::transpose_f32(tll[x][s], dl.hc, dl.hr, dl.hr, ll_next[x][s], dl.hc);
            cur[x][s] = ll_next[x][s];
          }
        }
      } else {
        // Lowpass residue fusion (not time-accounted, matching average()).
        for (int s = 0; s < 2; ++s) {
          k.average(tll[0][s], tll[1][s], static_cast<int>(qd), t_ll_fused[s]);
        }
      }
    }

    // --- inverse: fused bands stream straight into synthesis ------------
    for (int s = 0; s < 2; ++s) {
      const FilterBank* rowb = &row_banks_[s][0];  // reassigned per level
      const float* t_cur = t_ll_fused[s];
      for (int L = DL; L >= 0; --L) {
        const LevelDims& dl = dims_[L];
        const int rp2 = dl.hr;  // synthesis pair count per column line
        const int cp2 = dl.hc;
        const FilterBank& colb = col_banks_[col_tree[s]][L];
        rowb = &row_banks_[s][L];

        float* rowlo = pair.alloc(static_cast<size_t>(dl.rp) * cp2);
        float* rowhi = pair.alloc(static_cast<size_t>(dl.rp) * cp2);
        float* padded = pair.alloc(static_cast<size_t>(dl.rp) * dl.cp);
        float* t_next =
            L > 0 ? pair.alloc(static_cast<size_t>(dl.c) * dl.r) : nullptr;

        // Column synthesis; at the deepest level the select rule runs fused
        // into the synthesis read of the candidate bands.
        {
          ArenaScope scratch;
          float* tslab_lo = scratch.alloc(static_cast<size_t>(kLineBlock) * dl.rp);
          float* tslab_hi = scratch.alloc(static_cast<size_t>(kLineBlock) * dl.rp);
          for (int c = 0; c < cp2; c += kLineBlock) {
            const int nb = std::min(kLineBlock, cp2 - c);
            const size_t off = static_cast<size_t>(c) * rp2;
            if (L == DL) {
              k.select_synth_ml(t_cur + off, nullptr, nullptr, nullptr,
                                deep_band[0][s][0] + off, deep_band[0][s][1] + off,
                                deep_mag[0][0] + off, deep_mag[0][1] + off, rp2,
                                nb, rp2, colb.ca.data(), colb.cb.data(),
                                colb.synth_taps(), colb.synthesis_offset,
                                tslab_lo, dl.rp);
              k.select_synth_ml(deep_band[1][s][0] + off, deep_band[1][s][1] + off,
                                deep_mag[1][0] + off, deep_mag[1][1] + off,
                                deep_band[2][s][0] + off, deep_band[2][s][1] + off,
                                deep_mag[2][0] + off, deep_mag[2][1] + off, rp2,
                                nb, rp2, colb.ca.data(), colb.cb.data(),
                                colb.synth_taps(), colb.synthesis_offset,
                                tslab_hi, dl.rp);
            } else {
              k.select_synth_ml(t_cur + off, nullptr, nullptr, nullptr,
                                fused_at(L, 0, s) + off, nullptr, nullptr,
                                nullptr, rp2, nb, rp2, colb.ca.data(),
                                colb.cb.data(), colb.synth_taps(),
                                colb.synthesis_offset, tslab_lo, dl.rp);
              k.select_synth_ml(fused_at(L, 1, s) + off, nullptr, nullptr,
                                nullptr, fused_at(L, 2, s) + off, nullptr,
                                nullptr, nullptr, rp2, nb, rp2, colb.ca.data(),
                                colb.cb.data(), colb.synth_taps(),
                                colb.synthesis_offset, tslab_hi, dl.rp);
            }
            simd::transpose_f32(tslab_lo, nb, dl.rp, dl.rp, rowlo + c, cp2);
            simd::transpose_f32(tslab_hi, nb, dl.rp, dl.rp, rowhi + c, cp2);
          }
        }

        // Row synthesis back to the padded plane of this level.
        for (int r = 0; r < dl.rp; r += kLineBlock) {
          const int nb = std::min(kLineBlock, dl.rp - r);
          k.select_synth_ml(rowlo + static_cast<size_t>(r) * cp2, nullptr,
                            nullptr, nullptr,
                            rowhi + static_cast<size_t>(r) * cp2, nullptr,
                            nullptr, nullptr, cp2, nb, cp2, rowb->ca.data(),
                            rowb->cb.data(), rowb->synth_taps(),
                            rowb->synthesis_offset,
                            padded + static_cast<size_t>(r) * dl.cp, dl.cp);
        }

        if (L > 0) {
          // Crop to this level's pre-padding dims and transpose so the next
          // (shallower) level's column pass reads contiguous lines.
          simd::transpose_f32(padded, dl.r, dl.c, dl.cp, t_next, dl.r);
          t_cur = t_next;
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
                                   row_banks_[t >> 1].data(),
                                   col_banks_[t & 1].data(), f);
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
                                 row_banks_[t >> 1].data(),
                                 col_banks_[t & 1].data(), f);
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
    const int row_taps = row_banks_[0][L].taps();
    const int col_taps = col_banks_[0][L].taps();
    const int row_staps = row_banks_[0][L].synth_taps();
    const int col_staps = col_banks_[0][L].synth_taps();

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
