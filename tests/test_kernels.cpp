// Flavour-parity contract for all five kernel families (analyze, synthesize,
// magnitude, select, average):
//
//   *_simd     bit-identical to *_scalar (0 ulp, signed zeros included) —
//              the dispatch default relies on this;
//   *_autovec  within 1 ulp of *_scalar (the compiler may contract mul+add
//              into FMA, which changes rounding at most 1 ulp here).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/simd/dispatch.h"

namespace {

using namespace vf;

std::vector<float> randv(int n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(static_cast<std::size_t>(n));
  for (float& x : v) x = rng.next_float(-1.0f, 1.0f);
  return v;
}

std::uint32_t float_bits(float f) {
  std::uint32_t u;
  std::memcpy(&u, &f, sizeof(u));
  return u;
}

// Monotone map of float ordering onto integers (+0.0 and -0.0 coincide).
long long float_ordered(float f) {
  const std::uint32_t u = float_bits(f);
  return (u & 0x80000000u) ? -static_cast<long long>(u & 0x7fffffffu)
                           : static_cast<long long>(u);
}

long long ulp_distance(float a, float b) {
  if (std::isnan(a) || std::isnan(b)) return std::isnan(a) == std::isnan(b) ? 0 : 1u << 30;
  const long long d = float_ordered(a) - float_ordered(b);
  return d < 0 ? -d : d;
}

void expect_bit_identical(const std::vector<float>& ref, const std::vector<float>& got,
                          const char* what) {
  ASSERT_EQ(ref.size(), got.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(float_bits(ref[i]), float_bits(got[i]))
        << what << " i=" << i << " ref=" << ref[i] << " got=" << got[i];
  }
}

void expect_within_1_ulp(const std::vector<float>& ref, const std::vector<float>& got,
                         const char* what) {
  ASSERT_EQ(ref.size(), got.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_LE(ulp_distance(ref[i], got[i]), 1)
        << what << " i=" << i << " ref=" << ref[i] << " got=" << got[i];
  }
}

class KernelEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(KernelEquivalence, DualCorrDecimate2) {
  const int out_len = GetParam();
  for (int taps : {5, 9, 14, 16}) {
    const auto x = randv(2 * out_len + taps, 1);
    const auto lp = randv(taps, 2);
    const auto hp = randv(taps, 3);
    std::vector<float> lo_s(out_len), hi_s(out_len), lo_v(out_len), hi_v(out_len);
    std::vector<float> lo_a(out_len), hi_a(out_len);
    simd::dual_corr_decimate2_scalar(x.data(), out_len, lp.data(), hp.data(), taps,
                                     lo_s.data(), hi_s.data());
    simd::dual_corr_decimate2_simd(x.data(), out_len, lp.data(), hp.data(), taps,
                                   lo_v.data(), hi_v.data());
    simd::dual_corr_decimate2_autovec(x.data(), out_len, lp.data(), hp.data(), taps,
                                      lo_a.data(), hi_a.data());
    expect_bit_identical(lo_s, lo_v, "analyze lo simd");
    expect_bit_identical(hi_s, hi_v, "analyze hi simd");
    expect_within_1_ulp(lo_s, lo_a, "analyze lo autovec");
    expect_within_1_ulp(hi_s, hi_a, "analyze hi autovec");
  }
}

TEST_P(KernelEquivalence, DualCorrDecimate2Ileave) {
  const int pairs = GetParam();
  for (int taps : {7, 16, 28}) {
    const auto x = randv(2 * pairs + taps, 4);
    const auto ca = randv(taps, 5);
    const auto cb = randv(taps, 6);
    std::vector<float> out_s(2 * pairs), out_v(2 * pairs), out_a(2 * pairs);
    simd::dual_corr_decimate2_ileave_scalar(x.data(), pairs, ca.data(), cb.data(),
                                            taps, out_s.data());
    simd::dual_corr_decimate2_ileave_simd(x.data(), pairs, ca.data(), cb.data(), taps,
                                          out_v.data());
    simd::dual_corr_decimate2_ileave_autovec(x.data(), pairs, ca.data(), cb.data(),
                                             taps, out_a.data());
    expect_bit_identical(out_s, out_v, "synthesize simd");
    expect_within_1_ulp(out_s, out_a, "synthesize autovec");
  }
}

TEST_P(KernelEquivalence, ComplexMagnitude) {
  const int n = GetParam();
  const auto re = randv(n, 7);
  const auto im = randv(n, 8);
  std::vector<float> mag_s(n), mag_v(n), mag_a(n);
  simd::complex_magnitude_scalar(re.data(), im.data(), n, mag_s.data());
  simd::complex_magnitude_simd(re.data(), im.data(), n, mag_v.data());
  simd::complex_magnitude_autovec(re.data(), im.data(), n, mag_a.data());
  expect_bit_identical(mag_s, mag_v, "magnitude simd");
  expect_within_1_ulp(mag_s, mag_a, "magnitude autovec");
  for (int i = 0; i < n; ++i) EXPECT_GE(mag_s[i], 0.0f);
}

TEST_P(KernelEquivalence, SelectByMagnitude) {
  const int n = GetParam();
  const auto a_re = randv(n, 9), a_im = randv(n, 10);
  const auto b_re = randv(n, 11), b_im = randv(n, 12);
  std::vector<float> mag_a(n), mag_b(n);
  simd::complex_magnitude_scalar(a_re.data(), a_im.data(), n, mag_a.data());
  simd::complex_magnitude_scalar(b_re.data(), b_im.data(), n, mag_b.data());
  std::vector<float> re_s(n), im_s(n), re_v(n), im_v(n), re_a(n), im_a(n);
  simd::select_by_magnitude_scalar(a_re.data(), a_im.data(), b_re.data(), b_im.data(),
                                   mag_a.data(), mag_b.data(), n, re_s.data(),
                                   im_s.data());
  simd::select_by_magnitude_simd(a_re.data(), a_im.data(), b_re.data(), b_im.data(),
                                 mag_a.data(), mag_b.data(), n, re_v.data(),
                                 im_v.data());
  simd::select_by_magnitude_autovec(a_re.data(), a_im.data(), b_re.data(),
                                    b_im.data(), mag_a.data(), mag_b.data(), n,
                                    re_a.data(), im_a.data());
  expect_bit_identical(re_s, re_v, "select re simd");
  expect_bit_identical(im_s, im_v, "select im simd");
  // Selection copies an input verbatim, so even autovec must be bit-exact.
  expect_bit_identical(re_s, re_a, "select re autovec");
  expect_bit_identical(im_s, im_a, "select im autovec");
  for (int i = 0; i < n; ++i) {
    EXPECT_TRUE(re_s[i] == a_re[i] || re_s[i] == b_re[i]) << i;
  }
}

TEST_P(KernelEquivalence, Average) {
  const int n = GetParam();
  const auto a = randv(n, 13);
  const auto b = randv(n, 14);
  std::vector<float> out_s(n), out_v(n), out_a(n);
  simd::average_scalar(a.data(), b.data(), n, out_s.data());
  simd::average_simd(a.data(), b.data(), n, out_v.data());
  simd::average_autovec(a.data(), b.data(), n, out_a.data());
  expect_bit_identical(out_s, out_v, "average simd");
  // 0.5f * (a + b) has no mul+add to contract: exact in every flavour.
  expect_bit_identical(out_s, out_a, "average autovec");
  for (int i = 0; i < n; ++i) {
    EXPECT_FLOAT_EQ(out_s[i], 0.5f * (a[i] + b[i])) << i;
  }
}

// --- multi-line kernels ------------------------------------------------------
//
// The _ml contract (kernels.h): each line of a multi-line call produces the
// same bits as one single-line call of the same flavour on that line. That
// pins the per-line arithmetic order, so the flavour guarantees above carry
// over unchanged: _ml_simd is 0 ulp from _ml_scalar, _ml_autovec within 1 ulp
// (select stays bit-exact — it only copies inputs).

class MultiLineEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(MultiLineEquivalence, AnalyzeMl) {
  const int out_len = GetParam();
  for (int nlines : {1, 3, simd::kMaxLinesPerCall}) {
    for (int taps : {5, 14}) {
      const int x_stride = 2 * out_len + taps + 3;  // over-stride: gaps allowed
      const auto x = randv(nlines * x_stride, 21);
      const auto lp = randv(taps, 22);
      const auto hp = randv(taps, 23);
      const int out_stride = out_len + 2;
      const int out_total = nlines * out_stride;
      std::vector<float> lo_ref(out_total, 0.0f), hi_ref(out_total, 0.0f);
      for (int l = 0; l < nlines; ++l) {
        simd::dual_corr_decimate2_scalar(x.data() + l * x_stride, out_len,
                                         lp.data(), hp.data(), taps,
                                         lo_ref.data() + l * out_stride,
                                         hi_ref.data() + l * out_stride);
      }
      std::vector<float> lo_s(out_total, 0.0f), hi_s(out_total, 0.0f);
      std::vector<float> lo_v(out_total, 0.0f), hi_v(out_total, 0.0f);
      std::vector<float> lo_a(out_total, 0.0f), hi_a(out_total, 0.0f);
      simd::dual_corr_decimate2_ml_scalar(x.data(), x_stride, nlines, out_len,
                                          lp.data(), hp.data(), taps, lo_s.data(),
                                          hi_s.data(), out_stride);
      simd::dual_corr_decimate2_ml_simd(x.data(), x_stride, nlines, out_len,
                                        lp.data(), hp.data(), taps, lo_v.data(),
                                        hi_v.data(), out_stride);
      simd::dual_corr_decimate2_ml_autovec(x.data(), x_stride, nlines, out_len,
                                           lp.data(), hp.data(), taps, lo_a.data(),
                                           hi_a.data(), out_stride);
      expect_bit_identical(lo_ref, lo_s, "analyze_ml lo scalar vs per-line");
      expect_bit_identical(hi_ref, hi_s, "analyze_ml hi scalar vs per-line");
      expect_bit_identical(lo_ref, lo_v, "analyze_ml lo simd");
      expect_bit_identical(hi_ref, hi_v, "analyze_ml hi simd");
      expect_within_1_ulp(lo_ref, lo_a, "analyze_ml lo autovec");
      expect_within_1_ulp(hi_ref, hi_a, "analyze_ml hi autovec");
    }
  }
}

TEST_P(MultiLineEquivalence, SynthesizeMl) {
  const int pairs = GetParam();
  for (int nlines : {1, 3, simd::kMaxLinesPerCall}) {
    const int taps = 16;
    const int x_stride = 2 * pairs + taps + 1;
    const auto x = randv(nlines * x_stride, 24);
    const auto ca = randv(taps, 25);
    const auto cb = randv(taps, 26);
    const int out_stride = 2 * pairs + 4;
    const int out_total = nlines * out_stride;
    std::vector<float> ref(out_total, 0.0f);
    for (int l = 0; l < nlines; ++l) {
      simd::dual_corr_decimate2_ileave_scalar(x.data() + l * x_stride, pairs,
                                              ca.data(), cb.data(), taps,
                                              ref.data() + l * out_stride);
    }
    std::vector<float> out_s(out_total, 0.0f), out_v(out_total, 0.0f),
        out_a(out_total, 0.0f);
    simd::dual_corr_decimate2_ileave_ml_scalar(x.data(), x_stride, nlines, pairs,
                                               ca.data(), cb.data(), taps,
                                               out_s.data(), out_stride);
    simd::dual_corr_decimate2_ileave_ml_simd(x.data(), x_stride, nlines, pairs,
                                             ca.data(), cb.data(), taps,
                                             out_v.data(), out_stride);
    simd::dual_corr_decimate2_ileave_ml_autovec(x.data(), x_stride, nlines, pairs,
                                                ca.data(), cb.data(), taps,
                                                out_a.data(), out_stride);
    expect_bit_identical(ref, out_s, "synthesize_ml scalar vs per-line");
    expect_bit_identical(ref, out_v, "synthesize_ml simd");
    expect_within_1_ulp(ref, out_a, "synthesize_ml autovec");
  }
}

TEST_P(MultiLineEquivalence, MagnitudeMl) {
  const int len = GetParam();
  for (int nlines : {1, 3, simd::kMaxLinesPerCall}) {
    const int in_stride = len + 5;
    const auto re = randv(nlines * in_stride, 27);
    const auto im = randv(nlines * in_stride, 28);
    const int out_stride = len + 1;
    const int out_total = nlines * out_stride;
    std::vector<float> ref(out_total, 0.0f);
    for (int l = 0; l < nlines; ++l) {
      simd::complex_magnitude_scalar(re.data() + l * in_stride,
                                     im.data() + l * in_stride, len,
                                     ref.data() + l * out_stride);
    }
    std::vector<float> mag_s(out_total, 0.0f), mag_v(out_total, 0.0f),
        mag_a(out_total, 0.0f);
    simd::complex_magnitude_ml_scalar(re.data(), im.data(), nlines, len, in_stride,
                                      mag_s.data(), out_stride);
    simd::complex_magnitude_ml_simd(re.data(), im.data(), nlines, len, in_stride,
                                    mag_v.data(), out_stride);
    simd::complex_magnitude_ml_autovec(re.data(), im.data(), nlines, len, in_stride,
                                       mag_a.data(), out_stride);
    expect_bit_identical(ref, mag_s, "magnitude_ml scalar vs per-line");
    expect_bit_identical(ref, mag_v, "magnitude_ml simd");
    expect_within_1_ulp(ref, mag_a, "magnitude_ml autovec");
  }
}

TEST_P(MultiLineEquivalence, SelectMl) {
  const int len = GetParam();
  for (int nlines : {1, 3, simd::kMaxLinesPerCall}) {
    const int in_stride = len + 2;
    const int total = nlines * in_stride;
    const auto a_re = randv(total, 29), a_im = randv(total, 30);
    const auto b_re = randv(total, 31), b_im = randv(total, 32);
    std::vector<float> mag_a(total, 0.0f), mag_b(total, 0.0f);
    simd::complex_magnitude_scalar(a_re.data(), a_im.data(), total, mag_a.data());
    simd::complex_magnitude_scalar(b_re.data(), b_im.data(), total, mag_b.data());
    const int out_stride = len + 3;
    const int out_total = nlines * out_stride;
    std::vector<float> re_ref(out_total, 0.0f), im_ref(out_total, 0.0f);
    for (int l = 0; l < nlines; ++l) {
      simd::select_by_magnitude_scalar(
          a_re.data() + l * in_stride, a_im.data() + l * in_stride,
          b_re.data() + l * in_stride, b_im.data() + l * in_stride,
          mag_a.data() + l * in_stride, mag_b.data() + l * in_stride, len,
          re_ref.data() + l * out_stride, im_ref.data() + l * out_stride);
    }
    for (const auto* flavour : {"scalar", "simd", "autovec"}) {
      std::vector<float> re(out_total, 0.0f), im(out_total, 0.0f);
      auto fn = std::string(flavour) == "scalar" ? simd::select_by_magnitude_ml_scalar
                : std::string(flavour) == "simd" ? simd::select_by_magnitude_ml_simd
                                                 : simd::select_by_magnitude_ml_autovec;
      fn(a_re.data(), a_im.data(), b_re.data(), b_im.data(), mag_a.data(),
         mag_b.data(), nlines, len, in_stride, re.data(), im.data(), out_stride);
      // Selection copies inputs verbatim: bit-exact in every flavour.
      expect_bit_identical(re_ref, re, (std::string("select_ml re ") + flavour).c_str());
      expect_bit_identical(im_ref, im, (std::string("select_ml im ") + flavour).c_str());
    }
  }
}

TEST_P(MultiLineEquivalence, SelectHalf) {
  const int n = GetParam();
  const auto a = randv(n, 33), b = randv(n, 34);
  const auto mag_a = randv(n, 35), mag_b = randv(n, 36);
  std::vector<float> out_s(n), out_v(n), out_a(n);
  simd::select_half_scalar(a.data(), b.data(), mag_a.data(), mag_b.data(), n,
                           out_s.data());
  simd::select_half_simd(a.data(), b.data(), mag_a.data(), mag_b.data(), n,
                         out_v.data());
  simd::select_half_autovec(a.data(), b.data(), mag_a.data(), mag_b.data(), n,
                            out_a.data());
  // Selection copies an input verbatim: bit-exact in every flavour, and each
  // element must agree with the two-plane select on the same comparison.
  expect_bit_identical(out_s, out_v, "select_half simd");
  expect_bit_identical(out_s, out_a, "select_half autovec");
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(float_bits(out_s[i]),
              float_bits(mag_a[i] >= mag_b[i] ? a[i] : b[i]))
        << i;
  }
}

// --- fused cross-stage kernels -----------------------------------------------
//
// Same delegation contract as the plain _ml forms: per line, the fused
// analyze+magnitude and select+synthesize walks must produce the exact bits
// of the single-line scalar composition (simd 0 ulp, autovec within 1 ulp on
// the filtering parts, bit-exact on the selection parts).

TEST_P(MultiLineEquivalence, AnalyzeMagMl) {
  const int out_len = GetParam();
  for (int nlines : {1, 3, simd::kMaxLinesPerCall}) {
    const int taps = 14;
    const int x_stride = 2 * out_len + taps + 2;
    const auto x_re = randv(nlines * x_stride, 40);
    const auto x_im = randv(nlines * x_stride, 41);
    const auto lp_re = randv(taps, 42), hp_re = randv(taps, 43);
    const auto lp_im = randv(taps, 44), hp_im = randv(taps, 45);
    const int out_stride = out_len + 1;
    const int out_total = nlines * out_stride;
    std::vector<float> lo_re_ref(out_total, 0.0f), hi_re_ref(out_total, 0.0f);
    std::vector<float> lo_im_ref(out_total, 0.0f), hi_im_ref(out_total, 0.0f);
    std::vector<float> mag_lo_ref(out_total, 0.0f), mag_hi_ref(out_total, 0.0f);
    for (int l = 0; l < nlines; ++l) {
      simd::dual_corr_decimate2_scalar(x_re.data() + l * x_stride, out_len,
                                       lp_re.data(), hp_re.data(), taps,
                                       lo_re_ref.data() + l * out_stride,
                                       hi_re_ref.data() + l * out_stride);
      simd::dual_corr_decimate2_scalar(x_im.data() + l * x_stride, out_len,
                                       lp_im.data(), hp_im.data(), taps,
                                       lo_im_ref.data() + l * out_stride,
                                       hi_im_ref.data() + l * out_stride);
      simd::complex_magnitude_scalar(lo_re_ref.data() + l * out_stride,
                                     lo_im_ref.data() + l * out_stride, out_len,
                                     mag_lo_ref.data() + l * out_stride);
      simd::complex_magnitude_scalar(hi_re_ref.data() + l * out_stride,
                                     hi_im_ref.data() + l * out_stride, out_len,
                                     mag_hi_ref.data() + l * out_stride);
    }
    struct Flavour {
      const char* name;
      decltype(&simd::analyze_mag_ml_scalar) fn;
      bool exact;
    };
    const Flavour flavours[] = {
        {"scalar", simd::analyze_mag_ml_scalar, true},
        {"simd", simd::analyze_mag_ml_simd, true},
        {"autovec", simd::analyze_mag_ml_autovec, false},
    };
    for (const Flavour& fl : flavours) {
      std::vector<float> lo_re(out_total, 0.0f), hi_re(out_total, 0.0f);
      std::vector<float> lo_im(out_total, 0.0f), hi_im(out_total, 0.0f);
      std::vector<float> mag_lo(out_total, 0.0f), mag_hi(out_total, 0.0f);
      fl.fn(x_re.data(), x_im.data(), x_stride, nlines, out_len, lp_re.data(),
            hp_re.data(), lp_im.data(), hp_im.data(), taps, lo_re.data(),
            hi_re.data(), lo_im.data(), hi_im.data(), mag_lo.data(),
            mag_hi.data(), out_stride);
      auto check = [&](const std::vector<float>& ref, const std::vector<float>& got,
                       const char* what) {
        const std::string label = std::string("analyze_mag_ml ") + what + " " + fl.name;
        if (fl.exact) {
          expect_bit_identical(ref, got, label.c_str());
        } else {
          expect_within_1_ulp(ref, got, label.c_str());
        }
      };
      check(lo_re_ref, lo_re, "lo_re");
      check(hi_re_ref, hi_re, "hi_re");
      check(lo_im_ref, lo_im, "lo_im");
      check(hi_im_ref, hi_im, "hi_im");
      check(mag_lo_ref, mag_lo, "mag_lo");
      check(mag_hi_ref, mag_hi, "mag_hi");
      // Null magnitude outputs: the band outputs must be unaffected.
      std::vector<float> lo_re2(out_total, 0.0f), hi_re2(out_total, 0.0f);
      std::vector<float> lo_im2(out_total, 0.0f), hi_im2(out_total, 0.0f);
      fl.fn(x_re.data(), x_im.data(), x_stride, nlines, out_len, lp_re.data(),
            hp_re.data(), lp_im.data(), hp_im.data(), taps, lo_re2.data(),
            hi_re2.data(), lo_im2.data(), hi_im2.data(), nullptr, nullptr,
            out_stride);
      expect_bit_identical(lo_re, lo_re2, "analyze_mag_ml lo_re null-mag");
      expect_bit_identical(hi_im, hi_im2, "analyze_mag_ml hi_im null-mag");
    }
  }
}

// Scalar reference for one select+synthesize line: composed from the
// single-line scalar primitives plus the documented synthesis extension
// (ext[k] = interleaved lo/hi stream at (k - synth_offset) mod 2*pairs).
void ref_select_synth_line(const float* lo_a, const float* lo_b,
                           const float* mlo_a, const float* mlo_b,
                           const float* hi_a, const float* hi_b,
                           const float* mhi_a, const float* mhi_b, int pairs,
                           const float* ca, const float* cb, int taps,
                           int synth_offset, float* out) {
  std::vector<float> sel_lo(static_cast<std::size_t>(pairs));
  std::vector<float> sel_hi(static_cast<std::size_t>(pairs));
  if (lo_b != nullptr) {
    simd::select_half_scalar(lo_a, lo_b, mlo_a, mlo_b, pairs, sel_lo.data());
  } else {
    std::copy(lo_a, lo_a + pairs, sel_lo.begin());
  }
  if (hi_b != nullptr) {
    simd::select_half_scalar(hi_a, hi_b, mhi_a, mhi_b, pairs, sel_hi.data());
  } else {
    std::copy(hi_a, hi_a + pairs, sel_hi.begin());
  }
  const int n = 2 * pairs;
  std::vector<float> ext(static_cast<std::size_t>(n + taps));
  int src = ((-synth_offset) % n + n) % n;
  for (int k = 0; k < n + taps; ++k) {
    ext[static_cast<std::size_t>(k)] =
        (src & 1) ? sel_hi[static_cast<std::size_t>(src >> 1)]
                  : sel_lo[static_cast<std::size_t>(src >> 1)];
    if (++src == n) src = 0;
  }
  simd::dual_corr_decimate2_ileave_scalar(ext.data(), pairs, ca, cb, taps, out);
}

TEST_P(MultiLineEquivalence, SelectSynthMl) {
  const int pairs = GetParam();
  for (int nlines : {1, 3, simd::kMaxLinesPerCall}) {
    for (const bool fuse_select : {true, false}) {
      const int taps = 16;
      const int synth_offset = 7;
      const int in_stride = pairs + 2;
      const int total = nlines * in_stride;
      const auto lo_a = randv(total, 50), hi_a = randv(total, 51);
      const auto lo_b = randv(total, 52), hi_b = randv(total, 53);
      const auto mlo_a = randv(total, 54), mlo_b = randv(total, 55);
      const auto mhi_a = randv(total, 56), mhi_b = randv(total, 57);
      const auto ca = randv(taps, 58), cb = randv(taps, 59);
      const int out_stride = 2 * pairs + 3;
      const int out_total = nlines * out_stride;
      std::vector<float> ref(out_total, 0.0f);
      for (int l = 0; l < nlines; ++l) {
        const int o = l * in_stride;
        ref_select_synth_line(
            lo_a.data() + o, fuse_select ? lo_b.data() + o : nullptr,
            mlo_a.data() + o, mlo_b.data() + o, hi_a.data() + o,
            fuse_select ? hi_b.data() + o : nullptr, mhi_a.data() + o,
            mhi_b.data() + o, pairs, ca.data(), cb.data(), taps, synth_offset,
            ref.data() + l * out_stride);
      }
      struct Flavour {
        const char* name;
        decltype(&simd::select_synth_ml_scalar) fn;
        bool exact;
      };
      const Flavour flavours[] = {
          {"scalar", simd::select_synth_ml_scalar, true},
          {"simd", simd::select_synth_ml_simd, true},
          {"autovec", simd::select_synth_ml_autovec, false},
      };
      for (const Flavour& fl : flavours) {
        std::vector<float> out(out_total, 0.0f);
        fl.fn(lo_a.data(), fuse_select ? lo_b.data() : nullptr, mlo_a.data(),
              mlo_b.data(), hi_a.data(), fuse_select ? hi_b.data() : nullptr,
              mhi_a.data(), mhi_b.data(), in_stride, nlines, pairs, ca.data(),
              cb.data(), taps, synth_offset, out.data(), out_stride);
        const std::string label = std::string("select_synth_ml ") + fl.name +
                                  (fuse_select ? " fused" : " verbatim");
        if (fl.exact) {
          expect_bit_identical(ref, out, label.c_str());
        } else {
          expect_within_1_ulp(ref, out, label.c_str());
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, MultiLineEquivalence,
                         ::testing::Values(1, 7, 44, 198));

// --- blocked transpose -------------------------------------------------------
//
// transpose_f32 copies bits, so every shape — including ones that are all
// tail (1xN, Nx1) or straddle the 8x8 tile edge — must match the naive
// element-by-element transpose exactly.
TEST(TransposeF32, MatchesNaiveAtAwkwardShapes) {
  struct Shape { int rows, cols; };
  for (Shape s : {Shape{1, 1}, Shape{1, 17}, Shape{17, 1}, Shape{7, 9},
                  Shape{8, 8}, Shape{9, 7}, Shape{16, 16}, Shape{33, 25},
                  Shape{25, 33}, Shape{88, 72}}) {
    const int src_stride = s.cols + 3;  // strides larger than the row length
    const int dst_stride = s.rows + 2;
    const auto src = randv(s.rows * src_stride, 100 + s.rows);
    std::vector<float> dst(static_cast<std::size_t>(s.cols) * dst_stride, -7.0f);
    simd::transpose_f32(src.data(), s.rows, s.cols, src_stride, dst.data(),
                        dst_stride);
    for (int r = 0; r < s.rows; ++r) {
      for (int c = 0; c < s.cols; ++c) {
        ASSERT_EQ(float_bits(src[r * src_stride + c]),
                  float_bits(dst[c * dst_stride + r]))
            << s.rows << "x" << s.cols << " r=" << r << " c=" << c;
      }
    }
    // Padding between destination rows must be untouched.
    for (int c = 0; c < s.cols; ++c) {
      for (int p = s.rows; p < dst_stride; ++p) {
        ASSERT_EQ(dst[c * dst_stride + p], -7.0f);
      }
    }
  }
}

// Round trip: transposing twice restores the source bit-for-bit.
TEST(TransposeF32, RoundTrip) {
  const int rows = 29, cols = 43;
  const auto src = randv(rows * cols, 55);
  std::vector<float> t(static_cast<std::size_t>(cols) * rows);
  std::vector<float> back(static_cast<std::size_t>(rows) * cols);
  simd::transpose_f32(src.data(), rows, cols, cols, t.data(), rows);
  simd::transpose_f32(t.data(), cols, rows, rows, back.data(), cols);
  expect_bit_identical(src, back, "transpose round trip");
}

// Signed zeros: the old arithmetic blend (a*t + b*(1-t)) lost -0.0; exact
// selection must preserve it bit-for-bit in every flavour.
TEST(SelectByMagnitudeEdge, PreservesSignedZeros) {
  const int n = 8;
  std::vector<float> a_re(n, -0.0f), a_im(n, 0.0f);
  std::vector<float> b_re(n, 1.0f), b_im(n, -1.0f);
  std::vector<float> mag_a(n, 2.0f), mag_b(n, 1.0f);  // always take a
  std::vector<float> re(n), im(n);
  simd::select_by_magnitude_simd(a_re.data(), a_im.data(), b_re.data(), b_im.data(),
                                 mag_a.data(), mag_b.data(), n, re.data(), im.data());
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(float_bits(re[i]), float_bits(-0.0f)) << i;
    EXPECT_EQ(float_bits(im[i]), float_bits(0.0f)) << i;
  }
}

// The dispatch table exposes exactly the three named flavours, and every
// backend runs the bit-identical "simd" set.
TEST(KernelDispatch, NamedSetsAndDefault) {
  EXPECT_STREQ(simd::scalar_kernels().name, "scalar");
  EXPECT_STREQ(simd::simd_kernels().name, "simd");
  EXPECT_STREQ(simd::autovec_kernels().name, "autovec");
  EXPECT_EQ(&simd::active_kernels(), &simd::simd_kernels());
}

// Odd lengths exercise the SIMD tail path; 44 and 1024 are the bench sizes.
INSTANTIATE_TEST_SUITE_P(Sizes, KernelEquivalence,
                         ::testing::Values(1, 3, 7, 44, 101, 1024));

}  // namespace
