// The scalar reference kernels (kernels.h). The wide flavour lives in
// wide_kernels.h and is held to these bits by tests/test_kernels.cpp.
#include "src/simd/kernels.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <vector>

namespace vf::simd {

namespace {

// Line scratch of the composed kernels below (extended lines, selected
// halves, gathered columns); grows once per thread.
thread_local std::vector<float> g_line_scratch;

float* line_scratch(int n) {
  if (static_cast<int>(g_line_scratch.size()) < n) {
    g_line_scratch.resize(static_cast<std::size_t>(n));
  }
  return g_line_scratch.data();
}

int wrap(int k, int n) {
  k %= n;
  return k < 0 ? k + n : k;
}

// ext[k] = interleaved lo/hi stream at (k - synth_offset) mod 2*pairs.
void fill_synthesis_ext(const float* lo, const float* hi, int pairs, int taps,
                        int synth_offset, float* ext) {
  const int n = 2 * pairs;
  int src = wrap(-synth_offset, n);
  for (int k = 0; k < n + taps; ++k) {
    ext[k] = (src & 1) ? hi[src >> 1] : lo[src >> 1];
    if (++src == n) src = 0;
  }
}

// x[j] = x[j mod pairs] for j in [begin, 0) and [pairs, end): the halo
// samples of one synthesis stream that its phase line reads.
void fill_halo(float* x, int pairs, int begin, int end) {
  for (int j = begin, src = wrap(begin, pairs); j < 0; ++j) {
    x[j] = x[src];
    if (++src == pairs) src = 0;
  }
  for (int j = pairs, src = 0; j < end; ++j) {
    x[j] = x[src];
    if (++src == pairs) src = 0;
  }
}

}  // namespace

SynthesisPhases synthesis_phases(float* lo, float* hi, int pairs, int taps,
                                 int synth_offset) {
  // ext[0] is stream sample -s (s = synth_offset >= 0): lo[-s/2] for even s,
  // with the odd phase starting at hi[-s/2]; for odd s the even phase starts
  // at hi[-(s+1)/2] and the odd one at lo[-(s-1)/2].
  const bool odd_offset = synth_offset & 1;
  float* even = odd_offset ? hi : lo;
  float* odd = odd_offset ? lo : hi;
  const int even_begin = -((synth_offset + 1) / 2);
  const int odd_begin = -(synth_offset / 2);
  fill_halo(even, pairs, even_begin, even_begin + pairs + (taps + 1) / 2);
  fill_halo(odd, pairs, odd_begin, odd_begin + pairs + taps / 2);
  return {even + even_begin, odd + odd_begin};
}

// --- single-line kernels ------------------------------------------------------

void dual_corr_decimate2_scalar(const float* x, int out_len, const float* lp,
                                const float* hp, int taps, float* lo, float* hi) {
  for (int i = 0; i < out_len; ++i) {
    const float* w = x + 2 * i;
    float acc_lo = 0.0f;
    float acc_hi = 0.0f;
    for (int t = 0; t < taps; ++t) {
      acc_lo += lp[t] * w[t];
      acc_hi += hp[t] * w[t];
    }
    lo[i] = acc_lo;
    hi[i] = acc_hi;
  }
}

void dual_corr_decimate2_ileave_scalar(const float* x, int pairs, const float* ca,
                                       const float* cb, int taps, float* out) {
  for (int k = 0; k < pairs; ++k) {
    const float* w = x + 2 * k;
    float acc_a = 0.0f;
    float acc_b = 0.0f;
    for (int t = 0; t < taps; ++t) {
      acc_a += ca[t] * w[t];
      acc_b += cb[t] * w[t];
    }
    out[2 * k] = acc_a;
    out[2 * k + 1] = acc_b;
  }
}

void complex_magnitude_scalar(const float* re, const float* im, int n, float* mag) {
  for (int i = 0; i < n; ++i) {
    mag[i] = std::sqrt(re[i] * re[i] + im[i] * im[i]);
  }
}

void select_by_magnitude_scalar(const float* a_re, const float* a_im, const float* b_re,
                                const float* b_im, const float* mag_a,
                                const float* mag_b, int n, float* out_re,
                                float* out_im) {
  for (int i = 0; i < n; ++i) {
    const bool take_a = mag_a[i] >= mag_b[i];
    out_re[i] = take_a ? a_re[i] : b_re[i];
    out_im[i] = take_a ? a_im[i] : b_im[i];
  }
}

void select_half_scalar(const float* a, const float* b, const float* mag_a,
                        const float* mag_b, int n, float* out) {
  for (int i = 0; i < n; ++i) {
    out[i] = mag_a[i] >= mag_b[i] ? a[i] : b[i];
  }
}

void average_scalar(const float* a, const float* b, int n, float* out) {
  for (int i = 0; i < n; ++i) out[i] = 0.5f * (a[i] + b[i]);
}

// --- multi-line variants: one single-line call per line --------------------------

void dual_corr_decimate2_ml_scalar(const float* x, int x_stride, int nlines,
                                   int out_len, const float* lp, const float* hp,
                                   int taps, float* lo, float* hi, int out_stride) {
  for (int l = 0; l < nlines; ++l) {
    dual_corr_decimate2_scalar(x + l * x_stride, out_len, lp, hp, taps,
                               lo + l * out_stride, hi + l * out_stride);
  }
}

void dual_corr_decimate2_ileave_ml_scalar(const float* x, int x_stride, int nlines,
                                          int pairs, const float* ca, const float* cb,
                                          int taps, float* out, int out_stride) {
  for (int l = 0; l < nlines; ++l) {
    dual_corr_decimate2_ileave_scalar(x + l * x_stride, pairs, ca, cb, taps,
                                      out + l * out_stride);
  }
}

void analyze_mag_ml_scalar(const float* x_re, const float* x_im, int x_stride,
                           int nlines, int out_len, const float* lp_re,
                           const float* hp_re, const float* lp_im,
                           const float* hp_im, int taps, float* lo_re,
                           float* hi_re, float* lo_im, float* hi_im,
                           float* mag_lo, float* mag_hi, int out_stride) {
  for (int l = 0; l < nlines; ++l) {
    const int o = l * out_stride;
    dual_corr_decimate2_scalar(x_re + l * x_stride, out_len, lp_re, hp_re, taps,
                               lo_re + o, hi_re + o);
    dual_corr_decimate2_scalar(x_im + l * x_stride, out_len, lp_im, hp_im, taps,
                               lo_im + o, hi_im + o);
    if (mag_lo != nullptr) {
      complex_magnitude_scalar(lo_re + o, lo_im + o, out_len, mag_lo + o);
    }
    if (mag_hi != nullptr) {
      complex_magnitude_scalar(hi_re + o, hi_im + o, out_len, mag_hi + o);
    }
  }
}

void select_synth_ml_scalar(const float* lo_a, const float* lo_b,
                            const float* mlo_a, const float* mlo_b,
                            const float* hi_a, const float* hi_b,
                            const float* mhi_a, const float* mhi_b,
                            int in_stride, int nlines, int pairs,
                            const float* ca, const float* cb, int taps,
                            int synth_offset, float* out, int out_stride) {
  if (pairs <= 0) return;
  float* sel_lo = line_scratch(2 * pairs + 2 * pairs + taps);
  float* sel_hi = sel_lo + pairs;
  float* ext = sel_hi + pairs;
  for (int l = 0; l < nlines; ++l) {
    const int i = l * in_stride;
    const float* lo = lo_a + i;
    if (lo_b != nullptr) {
      select_half_scalar(lo, lo_b + i, mlo_a + i, mlo_b + i, pairs, sel_lo);
      lo = sel_lo;
    }
    const float* hi = hi_a + i;
    if (hi_b != nullptr) {
      select_half_scalar(hi, hi_b + i, mhi_a + i, mhi_b + i, pairs, sel_hi);
      hi = sel_hi;
    }
    fill_synthesis_ext(lo, hi, pairs, taps, synth_offset, ext);
    dual_corr_decimate2_ileave_scalar(ext, pairs, ca, cb, taps, out + l * out_stride);
  }
}

// --- plane kernels: build each extended line, then the single-line kernel -------
// (row synthesis builds it from the phase lines it reads in place)

void analyze_rows_scalar(const float* src, int src_stride, int src_rows,
                         int rows, const int* ext_cols, int out_len,
                         const float* lp, const float* hp, int taps, float* lo,
                         float* hi, int out_stride) {
  const int ext_len = 2 * out_len + taps;
  float* ext = line_scratch(ext_len);
  for (int r = 0; r < rows; ++r) {
    const float* x = src + static_cast<std::size_t>(std::min(r, src_rows - 1)) * src_stride;
    for (int k = 0; k < ext_len; ++k) ext[k] = x[ext_cols[k]];
    const std::size_t o = static_cast<std::size_t>(r) * out_stride;
    dual_corr_decimate2_scalar(ext, out_len, lp, hp, taps, lo + o, hi + o);
  }
}

void synthesize_rows_scalar(float* lo, float* hi, int in_stride, int rows,
                            int pairs, const float* ca, const float* cb, int taps,
                            int synth_offset, float* out, int out_stride) {
  if (pairs <= 0) return;
  const int len = 2 * pairs + taps;
  float* ext = line_scratch(len);
  for (int r = 0; r < rows; ++r) {
    const std::size_t i = static_cast<std::size_t>(r) * in_stride;
    const SynthesisPhases ph = synthesis_phases(lo + i, hi + i, pairs, taps, synth_offset);
    for (int k = 0; k < len; ++k) ext[k] = (k & 1) ? ph.odd[k >> 1] : ph.even[k >> 1];
    dual_corr_decimate2_ileave_scalar(ext, pairs, ca, cb, taps,
                                      out + static_cast<std::size_t>(r) * out_stride);
  }
}

void analyze_mag_cols_scalar(const float* x_re, const float* x_im, int x_stride,
                             int cols, const int* ext_re, const int* ext_im,
                             int out_rows, const float* lp_re, const float* hp_re,
                             const float* lp_im, const float* hp_im, int taps,
                             float* lo_re, float* hi_re, float* lo_im,
                             float* hi_im, float* mag_lo, float* mag_hi,
                             int out_stride) {
  const int ext_len = 2 * out_rows + taps - 2;
  const int n = out_rows;
  float* e_re = line_scratch(2 * ext_len + 6 * n);
  float* e_im = e_re + ext_len;
  float* l_re = e_im + ext_len;  // lo_re, hi_re, lo_im, hi_im, mag_lo, mag_hi
  float* h_re = l_re + n;
  float* l_im = h_re + n;
  float* h_im = l_im + n;
  float* m_lo = h_im + n;
  float* m_hi = m_lo + n;
  for (int j = 0; j < cols; ++j) {
    for (int k = 0; k < ext_len; ++k) {
      e_re[k] = x_re[static_cast<std::size_t>(ext_re[k]) * x_stride + j];
      e_im[k] = x_im[static_cast<std::size_t>(ext_im[k]) * x_stride + j];
    }
    dual_corr_decimate2_scalar(e_re, n, lp_re, hp_re, taps, l_re, h_re);
    dual_corr_decimate2_scalar(e_im, n, lp_im, hp_im, taps, l_im, h_im);
    complex_magnitude_scalar(l_re, l_im, n, m_lo);
    complex_magnitude_scalar(h_re, h_im, n, m_hi);
    for (int i = 0; i < n; ++i) {
      const std::size_t o = static_cast<std::size_t>(i) * out_stride + j;
      lo_re[o] = l_re[i];
      hi_re[o] = h_re[i];
      lo_im[o] = l_im[i];
      hi_im[o] = h_im[i];
      if (mag_lo != nullptr) mag_lo[o] = m_lo[i];
      if (mag_hi != nullptr) mag_hi[o] = m_hi[i];
    }
  }
}

void synthesize_cols_scalar(const float* lo, int lo_stride, const float* hi,
                            int hi_stride, int cols, const int* ext, int pairs,
                            const float* ca, const float* cb, int taps,
                            float* out, int out_stride) {
  const int ext_len = 2 * pairs + taps - 2;
  float* e = line_scratch(ext_len + 2 * pairs);
  float* y = e + ext_len;
  for (int j = 0; j < cols; ++j) {
    for (int k = 0; k < ext_len; ++k) {
      const int s = ext[k];
      e[k] = (s & 1) ? hi[static_cast<std::size_t>(s >> 1) * hi_stride + j]
                     : lo[static_cast<std::size_t>(s >> 1) * lo_stride + j];
    }
    dual_corr_decimate2_ileave_scalar(e, pairs, ca, cb, taps, y);
    for (int r = 0; r < 2 * pairs; ++r) {
      out[static_cast<std::size_t>(r) * out_stride + j] = y[r];
    }
  }
}

}  // namespace vf::simd
