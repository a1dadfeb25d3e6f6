#include "src/fusion/dwt_fusion.h"

#include <algorithm>
#include <cassert>
#include <cstring>


namespace vf::dwt {

namespace {

// A convolution filter with explicit support: coefficient of z^-n is
// coeffs[n - first] for n in [first, first + size - 1].
struct ConvFilter {
  std::vector<double> coeffs;
  int first = 0;
  int last() const { return first + static_cast<int>(coeffs.size()) - 1; }
  double at(int n) const {
    const int i = n - first;
    return (i >= 0 && i < static_cast<int>(coeffs.size())) ? coeffs[i] : 0.0;
  }
};

struct Prototype {
  ConvFilter h0;      // analysis lowpass
  ConvFilter g0;      // synthesis lowpass (already gain-normalized so that
                      // G0(1)H0(1) + G0(-1)H0(-1) = 2)
  int quadrature_k;   // odd shift in H1(z) = z^-k G0(-z), G1(z) = z^k H0(-z)
};

// Kingsbury q-shift 14-tap orthonormal lowpass (tree A), DC gain sqrt(2).
const double kQshift14[14] = {
    0.00325314, -0.00388321, 0.03466035, -0.03887280, -0.11720389,
    0.27529538, 0.75614564,  0.56881042, 0.01186609,  -0.10671180,
    0.02382538, 0.01702522,  -0.00543948, -0.00455690};

Prototype make_prototype(Wavelet w) {
  Prototype p;
  switch (w) {
    case Wavelet::kLeGall53:
      p.h0 = {{-0.125, 0.25, 0.75, 0.25, -0.125}, -2};
      p.g0 = {{0.5, 1.0, 0.5}, -1};
      p.quadrature_k = 1;
      return p;
    case Wavelet::kCdf97:
      p.h0 = {{0.026748757411, -0.016864118443, -0.078223266529, 0.266864118443,
               0.602949018236, 0.266864118443, -0.078223266529, -0.016864118443,
               0.026748757411},
              -4};
      // Standard CDF 9/7 synthesis lowpass, scaled by 2 for the PR gain
      // convention used here.
      p.g0 = {{2 * -0.045635881557, 2 * -0.028771763114, 2 * 0.295635881557,
               2 * 0.557543526229, 2 * 0.295635881557, 2 * -0.028771763114,
               2 * -0.045635881557},
              -3};
      p.quadrature_k = 1;
      return p;
    case Wavelet::kQshift14A:
    case Wavelet::kQshift14B: {
      ConvFilter h0;
      h0.first = -7;
      h0.coeffs.assign(kQshift14, kQshift14 + 14);
      if (w == Wavelet::kQshift14B) {
        // Tree B is the time reverse of tree A: b[n] = a[-1-n].
        std::vector<double> rev(14);
        for (int i = 0; i < 14; ++i) rev[i] = h0.coeffs[13 - i];
        h0.coeffs = rev;
      }
      p.h0 = h0;
      // Orthonormal: G0(z) = H0(1/z).
      ConvFilter g0;
      g0.first = -p.h0.last();
      g0.coeffs.assign(14, 0.0);
      for (int n = p.h0.first; n <= p.h0.last(); ++n) {
        g0.coeffs[-n - g0.first] = p.h0.at(n);
      }
      p.g0 = g0;
      // k = -1 keeps the quadrature filters inside the same 14-tap window.
      p.quadrature_k = -1;
      return p;
    }
  }
  return p;
}

}  // namespace

const char* wavelet_name(Wavelet w) {
  switch (w) {
    case Wavelet::kLeGall53:
      return "LeGall 5/3";
    case Wavelet::kCdf97:
      return "CDF 9/7";
    case Wavelet::kQshift14A:
      return "q-shift 14 (A)";
    case Wavelet::kQshift14B:
      return "q-shift 14 (B)";
  }
  return "?";
}

FilterBank make_filter_bank(Wavelet w, int delay) {
  Prototype p = make_prototype(w);
  const int k = p.quadrature_k;

  // H1(z) = z^-k G0(-z):  h1[n] = (-1)^(n-k) g0[n-k]
  ConvFilter h1;
  h1.first = p.g0.first + k;
  h1.coeffs.resize(p.g0.coeffs.size());
  for (int n = h1.first; n <= h1.last(); ++n) {
    const int parity = ((n - k) % 2 + 2) % 2;
    h1.coeffs[n - h1.first] = (parity ? -1.0 : 1.0) * p.g0.at(n - k);
  }
  // G1(z) = z^k H0(-z):  g1[n] = (-1)^(n+k) h0[n+k]
  ConvFilter g1;
  g1.first = p.h0.first - k;
  g1.coeffs.resize(p.h0.coeffs.size());
  for (int n = g1.first; n <= g1.last(); ++n) {
    const int parity = ((n + k) % 2 + 2) % 2;
    g1.coeffs[n - g1.first] = (parity ? -1.0 : 1.0) * p.h0.at(n + k);
  }

  // Tree delay: analysis filters gain z^-delay, synthesis filters z^+delay,
  // keeping the product (and thus PR) unchanged.
  ConvFilter h0 = p.h0;
  ConvFilter g0 = p.g0;
  h0.first += delay;
  h1.first += delay;
  g0.first -= delay;
  g1.first -= delay;

  FilterBank bank;
  bank.wavelet = w;

  // Analysis window: lp[t] = h0[E - t], hp[t] = h1[E - t].
  const int e = std::max(h0.last(), h1.last());
  const int nmin = std::min(h0.first, h1.first);
  const int taps = e - nmin + 1;
  bank.analysis_offset = e;
  bank.lp.assign(taps, 0.0f);
  bank.hp.assign(taps, 0.0f);
  for (int t = 0; t < taps; ++t) {
    bank.lp[t] = static_cast<float>(h0.at(e - t));
    bank.hp[t] = static_cast<float>(h1.at(e - t));
  }

  // Synthesis over the interleaved stream. From
  //   y[2m]   = sum_j u[2m-2j] g0[2j]   + u[2m-2j+1] g1[2j]
  //   y[2m+1] = sum_j u[2m-2j] g0[2j+1] + u[2m-2j+1] g1[2j+1]
  // the kernel arrays are (S = max filter end):
  //   g0[n] even -> ca[S-n]      g0[n] odd -> cb[S-n+1]
  //   g1[n] even -> ca[S-n+1]    g1[n] odd -> cb[S-n+2]
  const int s = std::max(g0.last(), g1.last());
  const int smin = std::min(g0.first, g1.first);
  const int width = s - smin + 3;
  bank.synthesis_offset = s;
  bank.ca.assign(width, 0.0f);
  bank.cb.assign(width, 0.0f);
  for (int n = g0.first; n <= g0.last(); ++n) {
    const bool even = ((n % 2) + 2) % 2 == 0;
    if (even) {
      bank.ca[s - n] += static_cast<float>(g0.at(n));
    } else {
      bank.cb[s - n + 1] += static_cast<float>(g0.at(n));
    }
  }
  for (int n = g1.first; n <= g1.last(); ++n) {
    const bool even = ((n % 2) + 2) % 2 == 0;
    if (even) {
      bank.ca[s - n + 1] += static_cast<float>(g1.at(n));
    } else {
      bank.cb[s - n + 2] += static_cast<float>(g1.at(n));
    }
  }
  return bank;
}

int required_slots(const FilterBank& bank) { return bank.taps(); }

// --- LineFilter implementations ---------------------------------------------

const simd::KernelSet& LineFilter::kernels() const { return simd::active_kernels(); }

void LineFilter::analyze(const float* ext, int out_len, const float* lp,
                         const float* hp, int taps, float* lo, float* hi) {
  kernels().analyze(ext, out_len, lp, hp, taps, lo, hi);
  account_analyze(out_len, taps);
}

void LineFilter::synthesize(const float* ext, int pairs, const float* ca,
                            const float* cb, int taps, float* out) {
  kernels().synthesize(ext, pairs, ca, cb, taps, out);
  account_synthesize(pairs, taps);
}

void LineFilter::magnitude(const float* re, const float* im, int n, float* mag) {
  kernels().magnitude(re, im, n, mag);
  account_magnitude(n);
}

void LineFilter::select(const float* a_re, const float* a_im, const float* b_re,
                        const float* b_im, const float* mag_a, const float* mag_b,
                        int n, float* out_re, float* out_im) {
  kernels().select(a_re, a_im, b_re, b_im, mag_a, mag_b, n, out_re, out_im);
  account_select(n);
}

void LineFilter::average(const float* a, const float* b, int n, float* out) {
  kernels().average(a, b, n, out);
}

// --- 1-D line transforms ----------------------------------------------------

namespace {

inline int wrap(int k, int n) {
  k %= n;
  return k < 0 ? k + n : k;
}

// Periodic extension for one analysis line; returns scratch.data().
const float* extend_analysis(const FilterBank& bank, const float* x, int n,
                             std::vector<float>& scratch) {
  const int ext_len = n + bank.taps();
  if (static_cast<int>(scratch.size()) < ext_len) scratch.resize(ext_len);
  for (int k = 0; k < ext_len; ++k) {
    scratch[k] = x[wrap(k - bank.analysis_offset, n)];
  }
  return scratch.data();
}

// Periodic extension of the interleaved lo/hi stream for one synthesis line.
const float* extend_synthesis(const FilterBank& bank, const float* lo,
                              const float* hi, int n, std::vector<float>& scratch) {
  const int ext_len = n + bank.synth_taps();
  if (static_cast<int>(scratch.size()) < ext_len) scratch.resize(ext_len);
  for (int k = 0; k < ext_len; ++k) {
    const int src = wrap(k - bank.synthesis_offset, n);
    scratch[k] = (src & 1) ? hi[src / 2] : lo[src / 2];
  }
  return scratch.data();
}

}  // namespace

void analyze_line(LineFilter& f, const FilterBank& bank, const float* x, int n,
                  float* lo, float* hi, std::vector<float>& scratch) {
  assert(n % 2 == 0);
  const float* ext = extend_analysis(bank, x, n, scratch);
  f.analyze(ext, n / 2, bank.lp.data(), bank.hp.data(), bank.taps(), lo, hi);
}

void synthesize_line(LineFilter& f, const FilterBank& bank, const float* lo,
                     const float* hi, int n, float* y, std::vector<float>& scratch) {
  assert(n % 2 == 0);
  const float* ext = extend_synthesis(bank, lo, hi, n, scratch);
  f.synthesize(ext, n / 2, bank.ca.data(), bank.cb.data(), bank.synth_taps(), y);
}

// --- 2-D transform ----------------------------------------------------------

namespace {

using image::ImageF;

// Pads to even dimensions by replicating the last row/column. Callers must
// check needs_padding() first; this always allocates.
bool needs_padding(const ImageF& img) {
  return ((img.rows() | img.cols()) & 1) != 0;
}

ImageF pad_even(const ImageF& img) {
  const int rp = img.rows() + (img.rows() & 1);
  const int cp = img.cols() + (img.cols() & 1);
  ImageF out(rp, cp);
  for (int r = 0; r < rp; ++r) {
    const int sr = r < img.rows() ? r : img.rows() - 1;
    for (int c = 0; c < cp; ++c) {
      const int sc = c < img.cols() ? c : img.cols() - 1;
      out(r, c) = img(sr, sc);
    }
  }
  return out;
}

struct LevelOut {
  ImageF ll, lh, hl, hh;
};

// One separable analysis level: rows with `row_bank`, columns with `col_bank`.
LevelOut analyze_level(const ImageF& padded, const FilterBank& row_bank,
                       const FilterBank& col_bank, LineFilter& f,
                       std::vector<float>& scratch) {
  const int rp = padded.rows();
  const int cp = padded.cols();
  ImageF rowlo(rp, cp / 2), rowhi(rp, cp / 2);
  for (int r = 0; r < rp; ++r) {
    analyze_line(f, row_bank, padded.row(r), cp, rowlo.row(r), rowhi.row(r),
                 scratch);
  }
  f.barrier();  // the column pass reads the row pass's outputs
  LevelOut out;
  out.ll = ImageF(rp / 2, cp / 2);
  out.lh = ImageF(rp / 2, cp / 2);
  out.hl = ImageF(rp / 2, cp / 2);
  out.hh = ImageF(rp / 2, cp / 2);
  std::vector<float> col(rp), lo(rp / 2), hi(rp / 2);
  for (int c = 0; c < cp / 2; ++c) {
    for (int r = 0; r < rp; ++r) col[r] = rowlo(r, c);
    analyze_line(f, col_bank, col.data(), rp, lo.data(), hi.data(), scratch);
    for (int r = 0; r < rp / 2; ++r) {
      out.ll(r, c) = lo[r];
      out.lh(r, c) = hi[r];
    }
    for (int r = 0; r < rp; ++r) col[r] = rowhi(r, c);
    analyze_line(f, col_bank, col.data(), rp, lo.data(), hi.data(), scratch);
    for (int r = 0; r < rp / 2; ++r) {
      out.hl(r, c) = lo[r];
      out.hh(r, c) = hi[r];
    }
  }
  f.barrier();  // the next level (or consumer) reads this level's outputs
  return out;
}

// Inverse of analyze_level; returns the padded-size image.
ImageF synthesize_level(const ImageF& ll, const LevelBands& bands,
                        const FilterBank& row_bank, const FilterBank& col_bank,
                        LineFilter& f, std::vector<float>& scratch) {
  const int rp2 = ll.rows();
  const int cp2 = ll.cols();
  const int rp = rp2 * 2;
  ImageF rowlo(rp, cp2), rowhi(rp, cp2);
  std::vector<float> lo(rp2), hi(rp2), col(rp);
  for (int c = 0; c < cp2; ++c) {
    for (int r = 0; r < rp2; ++r) {
      lo[r] = ll(r, c);
      hi[r] = bands.lh(r, c);
    }
    synthesize_line(f, col_bank, lo.data(), hi.data(), rp, col.data(), scratch);
    for (int r = 0; r < rp; ++r) rowlo(r, c) = col[r];
    for (int r = 0; r < rp2; ++r) {
      lo[r] = bands.hl(r, c);
      hi[r] = bands.hh(r, c);
    }
    synthesize_line(f, col_bank, lo.data(), hi.data(), rp, col.data(), scratch);
    for (int r = 0; r < rp; ++r) rowhi(r, c) = col[r];
  }
  f.barrier();  // the row pass reads the column pass's outputs
  const int cp = cp2 * 2;
  ImageF padded(rp, cp);
  for (int r = 0; r < rp; ++r) {
    synthesize_line(f, row_bank, rowlo.row(r), rowhi.row(r), cp, padded.row(r),
                    scratch);
  }
  f.barrier();  // the next (shallower) level reads this reconstruction
  // Crop back to the pre-padding size of this level.
  if (bands.in_rows == rp && bands.in_cols == cp) return padded;
  ImageF out(bands.in_rows, bands.in_cols);
  for (int r = 0; r < bands.in_rows; ++r) {
    for (int c = 0; c < bands.in_cols; ++c) out(r, c) = padded(r, c);
  }
  return out;
}

}  // namespace

namespace detail {

FilterBank bank_for_level(const TransformConfig& config, int level, int tree) {
  const Wavelet base = level == 0 ? config.level1 : config.higher;
  switch (base) {
    // Q-shift pairs: tree B is the time-reversed mate (half-sample delay).
    case Wavelet::kQshift14A:
      return make_filter_bank(tree ? Wavelet::kQshift14B : base);
    case Wavelet::kQshift14B:
      return make_filter_bank(tree ? Wavelet::kQshift14A : base);
    // Biorthogonal banks have no q-shift mate; tree B is the one-sample
    // delayed bank (Kingsbury's level-1 construction) at any level, so a
    // non-q-shift `higher` still yields a consistent dual tree.
    case Wavelet::kLeGall53:
    case Wavelet::kCdf97:
      return make_filter_bank(base, tree ? 1 : 0);
  }
  return make_filter_bank(base, tree ? 1 : 0);
}

// Serial replay of one tree's forward accounting: re-derives the per-level
// line dimensions (they depend only on the input size, never on the data)
// and issues the exact account/barrier sequence the serial combined path
// would have interleaved with the numerics.
void account_forward_tree(int rows, int cols, const TransformConfig& config,
                          const FilterBank* row_banks,
                          const FilterBank* col_banks, LineFilter& f) {
  int r = rows, c = cols;
  for (int level = 0; level < config.levels; ++level) {
    const int row_taps = row_banks[level].taps();
    const int col_taps = col_banks[level].taps();
    const int rp = r + (r & 1);
    const int cp = c + (c & 1);
    for (int i = 0; i < rp; ++i) f.account_analyze(cp / 2, row_taps);
    f.barrier();
    for (int i = 0; i < cp / 2; ++i) {
      f.account_analyze(rp / 2, col_taps);
      f.account_analyze(rp / 2, col_taps);
    }
    f.barrier();
    r = rp / 2;
    c = cp / 2;
  }
}

// Dims-based inverse replay for the fused plan, which never materializes a
// TreePyramid: the per-level pre-padding dims are re-derived from the input
// size exactly as forward_tree records them in bands.in_rows/in_cols.
void account_inverse_tree(int rows, int cols, const TransformConfig& config,
                          const FilterBank* row_banks,
                          const FilterBank* col_banks, LineFilter& f) {
  std::vector<int> lr(config.levels + 1), lc(config.levels + 1);
  lr[0] = rows;
  lc[0] = cols;
  for (int level = 0; level < config.levels; ++level) {
    lr[level + 1] = (lr[level] + (lr[level] & 1)) / 2;
    lc[level + 1] = (lc[level] + (lc[level] & 1)) / 2;
  }
  int rp2 = lr[config.levels], cp2 = lc[config.levels];
  for (int level = config.levels - 1; level >= 0; --level) {
    const int col_staps = col_banks[level].synth_taps();
    const int row_staps = row_banks[level].synth_taps();
    for (int i = 0; i < cp2; ++i) {
      f.account_synthesize(rp2, col_staps);
      f.account_synthesize(rp2, col_staps);
    }
    f.barrier();
    for (int i = 0; i < 2 * rp2; ++i) {
      f.account_synthesize(cp2, row_staps);
    }
    f.barrier();
    rp2 = lr[level];
    cp2 = lc[level];
  }
}

}  // namespace detail

TreePyramid forward_tree(const ImageF& img, const TransformConfig& config,
                         int row_tree, int col_tree, LineFilter& filter) {
  TreePyramid pyr;
  std::vector<float> scratch;
  // Level 0 reads `img` in place; deeper levels read the previous level's ll
  // (owned). The old path copied the whole input per tree — 4 copies per
  // transform — for no numeric reason.
  const ImageF* current = &img;
  ImageF own;
  for (int level = 0; level < config.levels; ++level) {
    const FilterBank row_bank = detail::bank_for_level(config, level, row_tree);
    const FilterBank col_bank = detail::bank_for_level(config, level, col_tree);
    LevelBands bands;
    bands.in_rows = current->rows();
    bands.in_cols = current->cols();
    const bool pad = needs_padding(*current);
    const ImageF padded_storage = pad ? pad_even(*current) : ImageF();
    const ImageF& padded = pad ? padded_storage : *current;
    LevelOut out = analyze_level(padded, row_bank, col_bank, filter, scratch);
    bands.lh = std::move(out.lh);
    bands.hl = std::move(out.hl);
    bands.hh = std::move(out.hh);
    pyr.levels.push_back(std::move(bands));
    own = std::move(out.ll);
    current = &own;
  }
  pyr.ll = config.levels > 0 ? std::move(own) : img;
  return pyr;
}

ImageF inverse_tree(const TreePyramid& pyr, const TransformConfig& config,
                    int row_tree, int col_tree, LineFilter& filter) {
  std::vector<float> scratch;
  ImageF current = pyr.ll;
  for (int level = static_cast<int>(pyr.levels.size()) - 1; level >= 0; --level) {
    const FilterBank row_bank = detail::bank_for_level(config, level, row_tree);
    const FilterBank col_bank = detail::bank_for_level(config, level, col_tree);
    current = synthesize_level(current, pyr.levels[level], row_bank, col_bank, filter,
                               scratch);
  }
  return current;
}

DtcwtPyramid forward_dtcwt(const ImageF& img, const TransformConfig& config,
                           LineFilter& filter) {
  DtcwtPyramid pyr;
  for (int t = 0; t < 4; ++t) {
    pyr.tree[t] = forward_tree(img, config, t >> 1, t & 1, filter);
  }
  return pyr;
}

ImageF inverse_dtcwt(const DtcwtPyramid& pyr, const TransformConfig& config,
                     LineFilter& filter) {
  ImageF acc;
  for (int t = 0; t < 4; ++t) {
    ImageF rec = inverse_tree(pyr.tree[t], config, t >> 1, t & 1, filter);
    if (t == 0) {
      acc = std::move(rec);
    } else {
      for (std::size_t i = 0; i < acc.size(); ++i) acc.data()[i] += rec.data()[i];
    }
  }
  for (std::size_t i = 0; i < acc.size(); ++i) acc.data()[i] *= 0.25f;
  return acc;
}

}  // namespace vf::dwt
