// Flavour-parity contract for every kernel family (analyze, synthesize,
// magnitude, select, average, their multi-line and fused forms, and the
// plane kernels of the band-streaming plan): every simd set the host runs —
// AVX-512F, AVX2 and the 4-lane baseline, whichever the CPU has — is
// bit-identical to the scalar reference (0 ulp, signed zeros and NaN
// selection included).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/fusion/dwt_fusion.h"
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

void expect_bit_identical(const std::vector<float>& ref, const std::vector<float>& got,
                          const std::string& what) {
  ASSERT_EQ(ref.size(), got.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(float_bits(ref[i]), float_bits(got[i]))
        << what << " i=" << i << " ref=" << ref[i] << " got=" << got[i];
  }
}

const std::vector<const simd::KernelSet*>& wide_sets() {
  return simd::simd_kernel_sets();
}

class KernelEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(KernelEquivalence, DualCorrDecimate2) {
  const int out_len = GetParam();
  for (int taps : {5, 9, 14, 16}) {
    const auto x = randv(2 * out_len + taps, 1);
    const auto lp = randv(taps, 2);
    const auto hp = randv(taps, 3);
    std::vector<float> lo_s(out_len), hi_s(out_len);
    simd::dual_corr_decimate2_scalar(x.data(), out_len, lp.data(), hp.data(), taps,
                                     lo_s.data(), hi_s.data());
    for (const simd::KernelSet* k : wide_sets()) {
      std::vector<float> lo_v(out_len), hi_v(out_len);
      k->analyze(x.data(), out_len, lp.data(), hp.data(), taps, lo_v.data(),
                 hi_v.data());
      expect_bit_identical(lo_s, lo_v, std::string("analyze lo ") + k->isa);
      expect_bit_identical(hi_s, hi_v, std::string("analyze hi ") + k->isa);
    }
  }
}

TEST_P(KernelEquivalence, DualCorrDecimate2Ileave) {
  const int pairs = GetParam();
  for (int taps : {7, 16, 28}) {
    const auto x = randv(2 * pairs + taps, 4);
    const auto ca = randv(taps, 5);
    const auto cb = randv(taps, 6);
    std::vector<float> out_s(2 * pairs);
    simd::dual_corr_decimate2_ileave_scalar(x.data(), pairs, ca.data(), cb.data(),
                                            taps, out_s.data());
    for (const simd::KernelSet* k : wide_sets()) {
      std::vector<float> out_v(2 * pairs);
      k->synthesize(x.data(), pairs, ca.data(), cb.data(), taps, out_v.data());
      expect_bit_identical(out_s, out_v, std::string("synthesize ") + k->isa);
    }
  }
}

TEST_P(KernelEquivalence, ComplexMagnitude) {
  const int n = GetParam();
  const auto re = randv(n, 7);
  const auto im = randv(n, 8);
  std::vector<float> mag_s(n);
  simd::complex_magnitude_scalar(re.data(), im.data(), n, mag_s.data());
  for (const simd::KernelSet* k : wide_sets()) {
    std::vector<float> mag_v(n);
    k->magnitude(re.data(), im.data(), n, mag_v.data());
    expect_bit_identical(mag_s, mag_v, std::string("magnitude ") + k->isa);
  }
  for (int i = 0; i < n; ++i) EXPECT_GE(mag_s[i], 0.0f);
}

TEST_P(KernelEquivalence, SelectByMagnitude) {
  const int n = GetParam();
  const auto a_re = randv(n, 9), a_im = randv(n, 10);
  const auto b_re = randv(n, 11), b_im = randv(n, 12);
  std::vector<float> mag_a(n), mag_b(n);
  simd::complex_magnitude_scalar(a_re.data(), a_im.data(), n, mag_a.data());
  simd::complex_magnitude_scalar(b_re.data(), b_im.data(), n, mag_b.data());
  std::vector<float> re_s(n), im_s(n);
  simd::select_by_magnitude_scalar(a_re.data(), a_im.data(), b_re.data(), b_im.data(),
                                   mag_a.data(), mag_b.data(), n, re_s.data(),
                                   im_s.data());
  for (const simd::KernelSet* k : wide_sets()) {
    std::vector<float> re_v(n), im_v(n);
    k->select(a_re.data(), a_im.data(), b_re.data(), b_im.data(), mag_a.data(),
              mag_b.data(), n, re_v.data(), im_v.data());
    expect_bit_identical(re_s, re_v, std::string("select re ") + k->isa);
    expect_bit_identical(im_s, im_v, std::string("select im ") + k->isa);
    // In place, the way the fused plan runs it (output = frame A's planes).
    std::vector<float> re_i = a_re, im_i = a_im;
    k->select(re_i.data(), im_i.data(), b_re.data(), b_im.data(), mag_a.data(),
              mag_b.data(), n, re_i.data(), im_i.data());
    expect_bit_identical(re_s, re_i, std::string("select re in place ") + k->isa);
    expect_bit_identical(im_s, im_i, std::string("select im in place ") + k->isa);
  }
  for (int i = 0; i < n; ++i) {
    EXPECT_TRUE(re_s[i] == a_re[i] || re_s[i] == b_re[i]) << i;
  }
}

TEST_P(KernelEquivalence, Average) {
  const int n = GetParam();
  const auto a = randv(n, 13);
  const auto b = randv(n, 14);
  std::vector<float> out_s(n);
  simd::average_scalar(a.data(), b.data(), n, out_s.data());
  for (const simd::KernelSet* k : wide_sets()) {
    std::vector<float> out_v(n);
    k->average(a.data(), b.data(), n, out_v.data());
    expect_bit_identical(out_s, out_v, std::string("average ") + k->isa);
  }
  for (int i = 0; i < n; ++i) {
    EXPECT_FLOAT_EQ(out_s[i], 0.5f * (a[i] + b[i])) << i;
  }
}

// --- multi-line kernels ------------------------------------------------------
//
// The _ml contract (kernels.h): each line of a multi-line call produces the
// same bits as one single-line scalar call on that line, in every set.

class MultiLineEquivalence : public ::testing::TestWithParam<int> {};

std::vector<const simd::KernelSet*> all_sets() {
  std::vector<const simd::KernelSet*> sets = {&simd::scalar_kernels()};
  sets.insert(sets.end(), wide_sets().begin(), wide_sets().end());
  return sets;
}

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
      for (const simd::KernelSet* k : all_sets()) {
        std::vector<float> lo(out_total, 0.0f), hi(out_total, 0.0f);
        k->analyze_ml(x.data(), x_stride, nlines, out_len, lp.data(), hp.data(),
                      taps, lo.data(), hi.data(), out_stride);
        expect_bit_identical(lo_ref, lo, std::string("analyze_ml lo ") + k->isa);
        expect_bit_identical(hi_ref, hi, std::string("analyze_ml hi ") + k->isa);
      }
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
    for (const simd::KernelSet* k : all_sets()) {
      std::vector<float> out(out_total, 0.0f);
      k->synthesize_ml(x.data(), x_stride, nlines, pairs, ca.data(), cb.data(),
                       taps, out.data(), out_stride);
      expect_bit_identical(ref, out, std::string("synthesize_ml ") + k->isa);
    }
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
    for (const simd::KernelSet* k : all_sets()) {
      std::vector<float> mag(out_total, 0.0f);
      k->magnitude_ml(re.data(), im.data(), nlines, len, in_stride, mag.data(),
                      out_stride);
      expect_bit_identical(ref, mag, std::string("magnitude_ml ") + k->isa);
    }
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
    for (const simd::KernelSet* k : all_sets()) {
      std::vector<float> re(out_total, 0.0f), im(out_total, 0.0f);
      k->select_ml(a_re.data(), a_im.data(), b_re.data(), b_im.data(), mag_a.data(),
                   mag_b.data(), nlines, len, in_stride, re.data(), im.data(),
                   out_stride);
      expect_bit_identical(re_ref, re, std::string("select_ml re ") + k->isa);
      expect_bit_identical(im_ref, im, std::string("select_ml im ") + k->isa);
    }
  }
}

// The half-plane select agrees with each set's two-plane select on the same
// comparison, and with the plain ternary.
TEST_P(MultiLineEquivalence, SelectHalf) {
  const int n = GetParam();
  const auto a = randv(n, 33), b = randv(n, 34);
  const auto mag_a = randv(n, 35), mag_b = randv(n, 36);
  std::vector<float> out_s(n);
  simd::select_half_scalar(a.data(), b.data(), mag_a.data(), mag_b.data(), n,
                           out_s.data());
  for (const simd::KernelSet* k : wide_sets()) {
    std::vector<float> re(n), im(n);
    k->select(a.data(), b.data(), b.data(), a.data(), mag_a.data(), mag_b.data(), n,
              re.data(), im.data());
    expect_bit_identical(out_s, re, std::string("select_half vs select ") + k->isa);
  }
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(float_bits(out_s[i]), float_bits(mag_a[i] >= mag_b[i] ? a[i] : b[i]))
        << i;
  }
}

// --- fused per-line kernels ----------------------------------------------------
//
// Per line, the fused analyze+magnitude and select+synthesize walks must
// produce the exact bits of the single-line scalar composition.

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
    for (const simd::KernelSet* k : all_sets()) {
      std::vector<float> lo_re(out_total, 0.0f), hi_re(out_total, 0.0f);
      std::vector<float> lo_im(out_total, 0.0f), hi_im(out_total, 0.0f);
      std::vector<float> mag_lo(out_total, 0.0f), mag_hi(out_total, 0.0f);
      k->analyze_mag_ml(x_re.data(), x_im.data(), x_stride, nlines, out_len,
                        lp_re.data(), hp_re.data(), lp_im.data(), hp_im.data(),
                        taps, lo_re.data(), hi_re.data(), lo_im.data(),
                        hi_im.data(), mag_lo.data(), mag_hi.data(), out_stride);
      const std::string label = std::string("analyze_mag_ml ") + k->isa + " ";
      expect_bit_identical(lo_re_ref, lo_re, label + "lo_re");
      expect_bit_identical(hi_re_ref, hi_re, label + "hi_re");
      expect_bit_identical(lo_im_ref, lo_im, label + "lo_im");
      expect_bit_identical(hi_im_ref, hi_im, label + "hi_im");
      expect_bit_identical(mag_lo_ref, mag_lo, label + "mag_lo");
      expect_bit_identical(mag_hi_ref, mag_hi, label + "mag_hi");
      // Null magnitude outputs: the band outputs must be unaffected.
      std::vector<float> lo_re2(out_total, 0.0f), hi_re2(out_total, 0.0f);
      std::vector<float> lo_im2(out_total, 0.0f), hi_im2(out_total, 0.0f);
      k->analyze_mag_ml(x_re.data(), x_im.data(), x_stride, nlines, out_len,
                        lp_re.data(), hp_re.data(), lp_im.data(), hp_im.data(),
                        taps, lo_re2.data(), hi_re2.data(), lo_im2.data(),
                        hi_im2.data(), nullptr, nullptr, out_stride);
      expect_bit_identical(lo_re, lo_re2, label + "lo_re null-mag");
      expect_bit_identical(hi_im, hi_im2, label + "hi_im null-mag");
    }
  }
}

// ext[k] = interleaved lo/hi stream at (k - synth_offset) mod 2*pairs: the
// documented synthesis extension, built the slow way.
std::vector<float> synthesis_ext(const float* lo, const float* hi, int pairs,
                                 int taps, int synth_offset) {
  const int n = 2 * pairs;
  std::vector<float> ext(static_cast<std::size_t>(n + taps));
  int src = ((-synth_offset) % n + n) % n;
  for (int k = 0; k < n + taps; ++k) {
    ext[static_cast<std::size_t>(k)] = (src & 1) ? hi[src >> 1] : lo[src >> 1];
    if (++src == n) src = 0;
  }
  return ext;
}

// Scalar reference for one select+synthesize line.
void ref_select_synth_line(const float* lo_a, const float* lo_b,
                           const float* mlo_a, const float* mlo_b,
                           const float* hi_a, const float* hi_b,
                           const float* mhi_a, const float* mhi_b, int pairs,
                           const float* ca, const float* cb, int taps,
                           int synth_offset, float* out) {
  std::vector<float> sel_lo(lo_a, lo_a + pairs);
  std::vector<float> sel_hi(hi_a, hi_a + pairs);
  if (lo_b != nullptr) {
    simd::select_half_scalar(lo_a, lo_b, mlo_a, mlo_b, pairs, sel_lo.data());
  }
  if (hi_b != nullptr) {
    simd::select_half_scalar(hi_a, hi_b, mhi_a, mhi_b, pairs, sel_hi.data());
  }
  const std::vector<float> ext =
      synthesis_ext(sel_lo.data(), sel_hi.data(), pairs, taps, synth_offset);
  simd::dual_corr_decimate2_ileave_scalar(ext.data(), pairs, ca, cb, taps, out);
}

TEST_P(MultiLineEquivalence, SelectSynthMl) {
  const int pairs = GetParam();
  for (int nlines : {1, 3, simd::kMaxLinesPerCall}) {
    for (const bool fuse_select : {true, false}) {
      // Both offset parities: they swap which stream lands on the even phase.
      for (const int synth_offset : {7, 8}) {
        const int taps = 16;
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
        for (const simd::KernelSet* k : all_sets()) {
          std::vector<float> out(out_total, 0.0f);
          k->select_synth_ml(lo_a.data(), fuse_select ? lo_b.data() : nullptr,
                             mlo_a.data(), mlo_b.data(), hi_a.data(),
                             fuse_select ? hi_b.data() : nullptr, mhi_a.data(),
                             mhi_b.data(), in_stride, nlines, pairs, ca.data(),
                             cb.data(), taps, synth_offset, out.data(), out_stride);
          expect_bit_identical(ref, out,
                               std::string("select_synth_ml ") + k->isa +
                                   (fuse_select ? " fused" : " verbatim") +
                                   " offset=" + std::to_string(synth_offset));
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, MultiLineEquivalence,
                         ::testing::Values(1, 7, 44, 198));

// --- plane kernels ---------------------------------------------------------------
//
// The column kernels run one column per lane straight on row-major planes,
// with the extension given by a table; the row kernels gather or rotate
// their phase lines directly. Each must match, per line, the single-line
// scalar kernel fed the explicitly extended line — for the scalar set (the
// reference) and every wide set. The grid covers every lane width's full,
// shifted-last and stepped-down blocks (hc 1..44 around 4, 8 and 16), plane
// heights from 2 up (with the 14-tap bank the extension wraps a 2-row plane
// seven times), and both the 5-tap and the 14-tap bank.

int wrap_index(int k, int n) { return ((k % n) + n) % n; }

const int kPlaneCols[] = {1, 3, 4, 7, 8, 9, 15, 16, 17, 44};
const int kPlaneRows[] = {2, 6, 18, 72};

// The plan's (tree A, tree B) banks at level 0 (5-tap LeGall 5/3, tree B
// delayed by one sample) and at level 1 (14-tap q-shift, tree B reversed).
std::vector<std::pair<dwt::FilterBank, dwt::FilterBank>> plane_bank_pairs() {
  const dwt::TransformConfig config;
  std::vector<std::pair<dwt::FilterBank, dwt::FilterBank>> pairs;
  for (int level = 0; level < 2; ++level) {
    pairs.emplace_back(dwt::detail::bank_for_level(config, level, 0),
                       dwt::detail::bank_for_level(config, level, 1));
  }
  return pairs;
}

std::vector<dwt::FilterBank> plane_banks() {
  std::vector<dwt::FilterBank> banks;
  for (const auto& [a, b] : plane_bank_pairs()) {
    banks.push_back(a);
    banks.push_back(b);
  }
  return banks;
}

TEST(PlaneKernels, AnalyzeMagColsMatchesPerColumnReference) {
  for (const auto& [bank, other] : plane_bank_pairs()) {  // re side, im side
    ASSERT_EQ(bank.taps(), other.taps());
    for (const int rp : kPlaneRows) {
      for (const int cols : kPlaneCols) {
        const int taps = bank.taps();
        const int stride = cols + 3;
        const int hr = rp / 2;
        std::vector<int> ext_re(rp + taps), ext_im(rp + taps);
        for (int k = 0; k < rp + taps; ++k) {
          ext_re[k] = wrap_index(k - bank.analysis_offset, rp);
          ext_im[k] = wrap_index(k - other.analysis_offset, rp);
        }
        const auto x_re = randv(rp * stride, 60 + rp + cols);
        const auto x_im = randv(rp * stride, 61 + rp + cols);
        const int os = cols + 1;
        const int total = hr * os;
        // Reference: gather each column's extended line, run the single-line
        // scalar kernels.
        std::vector<float> ref[6];
        for (auto& v : ref) v.assign(total, 0.0f);
        std::vector<float> e_re(2 * hr + taps), e_im(2 * hr + taps);
        std::vector<float> l(4 * hr), m(2 * hr);
        for (int j = 0; j < cols; ++j) {
          for (int k = 0; k < 2 * hr + taps - 2; ++k) {
            e_re[k] = x_re[ext_re[k] * stride + j];
            e_im[k] = x_im[ext_im[k] * stride + j];
          }
          simd::dual_corr_decimate2_scalar(e_re.data(), hr, bank.lp.data(),
                                           bank.hp.data(), taps, &l[0], &l[hr]);
          simd::dual_corr_decimate2_scalar(e_im.data(), hr, other.lp.data(),
                                           other.hp.data(), taps, &l[2 * hr],
                                           &l[3 * hr]);
          simd::complex_magnitude_scalar(&l[0], &l[2 * hr], hr, &m[0]);
          simd::complex_magnitude_scalar(&l[hr], &l[3 * hr], hr, &m[hr]);
          for (int i = 0; i < hr; ++i) {
            ref[0][i * os + j] = l[i];
            ref[1][i * os + j] = l[hr + i];
            ref[2][i * os + j] = l[2 * hr + i];
            ref[3][i * os + j] = l[3 * hr + i];
            ref[4][i * os + j] = m[i];
            ref[5][i * os + j] = m[hr + i];
          }
        }
        for (const simd::KernelSet* k : all_sets()) {
          std::vector<float> got[6];
          for (auto& v : got) v.assign(total, 0.0f);
          k->analyze_mag_cols(x_re.data(), x_im.data(), stride, cols,
                              ext_re.data(), ext_im.data(), hr, bank.lp.data(),
                              bank.hp.data(), other.lp.data(), other.hp.data(),
                              taps, got[0].data(), got[1].data(), got[2].data(),
                              got[3].data(), got[4].data(), got[5].data(), os);
          const std::string label = std::string("analyze_mag_cols ") + k->isa +
                                    " taps=" + std::to_string(taps) +
                                    " rp=" + std::to_string(rp) +
                                    " cols=" + std::to_string(cols) + " out";
          for (int o = 0; o < 6; ++o) {
            expect_bit_identical(ref[o], got[o], label + std::to_string(o));
          }
        }
      }
    }
  }
}

TEST(PlaneKernels, SynthesizeColsMatchesPerColumnReference) {
  for (const dwt::FilterBank& bank : plane_banks()) {
    for (const int rp : kPlaneRows) {
      for (const int cols : kPlaneCols) {
        const int taps = bank.synth_taps();
        const int pairs = rp / 2;
        // The lowpass stream is read by a wider stride than the highpass
        // one, as the plan reads the level below's padded output plane.
        const int lo_stride = cols + 1;
        const int hi_stride = cols;
        std::vector<int> ext(rp + taps);
        for (int k = 0; k < rp + taps; ++k) {
          ext[k] = wrap_index(k - bank.synthesis_offset, rp);
        }
        const auto lo = randv(pairs * lo_stride, 70 + rp + cols);
        const auto hi = randv(pairs * hi_stride, 71 + rp + cols);
        const int os = cols + 2;
        std::vector<float> ref(static_cast<std::size_t>(rp) * os, 0.0f);
        std::vector<float> lo_col(pairs), hi_col(pairs), y(rp);
        for (int j = 0; j < cols; ++j) {
          for (int i = 0; i < pairs; ++i) {
            lo_col[i] = lo[i * lo_stride + j];
            hi_col[i] = hi[i * hi_stride + j];
          }
          const std::vector<float> e = synthesis_ext(
              lo_col.data(), hi_col.data(), pairs, taps, bank.synthesis_offset);
          simd::dual_corr_decimate2_ileave_scalar(e.data(), pairs, bank.ca.data(),
                                                  bank.cb.data(), taps, y.data());
          for (int r = 0; r < rp; ++r) ref[r * os + j] = y[r];
        }
        for (const simd::KernelSet* k : all_sets()) {
          std::vector<float> got(ref.size(), 0.0f);
          k->synthesize_cols(lo.data(), lo_stride, hi.data(), hi_stride, cols,
                             ext.data(), pairs, bank.ca.data(), bank.cb.data(),
                             taps, got.data(), os);
          expect_bit_identical(ref, got,
                               std::string("synthesize_cols ") + k->isa +
                                   " taps=" + std::to_string(taps) +
                                   " rp=" + std::to_string(rp) +
                                   " cols=" + std::to_string(cols));
        }
      }
    }
  }
}

TEST(PlaneKernels, RowKernelsMatchPerRowReference) {
  for (const dwt::FilterBank& bank : plane_banks()) {
    for (const int cp : kPlaneRows) {  // the same lengths, along rows
      for (const int c : {cp - 1, cp}) {  // odd source widths are edge-padded
        if (c < 1) continue;
        const int taps = bank.taps();
        const int hc = cp / 2;
        const int src_rows = 3, rows = 4;  // the last row replicates row 2
        const int stride = c + 2;
        std::vector<int> ext_cols(cp + taps);
        for (int k = 0; k < cp + taps; ++k) {
          ext_cols[k] = std::min(wrap_index(k - bank.analysis_offset, cp), c - 1);
        }
        const auto src = randv(src_rows * stride, 80 + cp + c);
        const int os = hc + 1;
        std::vector<float> lo_ref(rows * os, 0.0f), hi_ref(rows * os, 0.0f);
        std::vector<float> e(cp + taps);
        for (int r = 0; r < rows; ++r) {
          const float* x = src.data() + std::min(r, src_rows - 1) * stride;
          for (int k = 0; k < cp + taps; ++k) e[k] = x[ext_cols[k]];
          simd::dual_corr_decimate2_scalar(e.data(), hc, bank.lp.data(),
                                           bank.hp.data(), taps, &lo_ref[r * os],
                                           &hi_ref[r * os]);
        }
        // Synthesis of the same rows, at both offset parities.
        for (const int offset : {bank.synthesis_offset, bank.synthesis_offset + 1}) {
          const int staps = bank.synth_taps();
          const int yos = cp + 3;
          std::vector<float> y_ref(rows * yos, 0.0f);
          for (int r = 0; r < rows; ++r) {
            const std::vector<float> se = synthesis_ext(&lo_ref[r * os],
                                                        &hi_ref[r * os], hc, staps,
                                                        offset);
            simd::dual_corr_decimate2_ileave_scalar(se.data(), hc, bank.ca.data(),
                                                    bank.cb.data(), staps,
                                                    &y_ref[r * yos]);
          }
          for (const simd::KernelSet* k : all_sets()) {
            const std::string label = std::string(k->isa) +
                                      " taps=" + std::to_string(taps) +
                                      " cp=" + std::to_string(cp) +
                                      " c=" + std::to_string(c);
            std::vector<float> lo(rows * os, 0.0f), hi(rows * os, 0.0f);
            k->analyze_rows(src.data(), stride, src_rows, rows, ext_cols.data(), hc,
                            bank.lp.data(), bank.hp.data(), taps, lo.data(),
                            hi.data(), os);
            expect_bit_identical(lo_ref, lo, "analyze_rows lo " + label);
            expect_bit_identical(hi_ref, hi, "analyze_rows hi " + label);
            std::vector<float> y(rows * yos, 0.0f);
            k->synthesize_rows(lo_ref.data(), hi_ref.data(), os, rows, hc,
                               bank.ca.data(), bank.cb.data(), staps, offset,
                               y.data(), yos);
            expect_bit_identical(y_ref, y,
                                 "synthesize_rows " + label +
                                     " offset=" + std::to_string(offset));
          }
        }
      }
    }
  }
}

// The plan's select runs over whole band planes: NaN magnitudes must pick
// frame B exactly as the scalar `>=` does, and ±0.0 bands and magnitudes
// must come through bit-exact, at every length around the lane widths.
TEST(PlaneKernels, SelectCarriesNanMagnitudesAndSignedZeros) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (const int n : kPlaneCols) {
    for (const int scale : {1, 36}) {
      const int len = n * scale;
      auto a_re = randv(len, 90), a_im = randv(len, 91);
      auto b_re = randv(len, 92), b_im = randv(len, 93);
      auto mag_a = randv(len, 94), mag_b = randv(len, 95);
      for (int i = 0; i < len; ++i) {
        switch (i % 6) {
          case 0: mag_a[i] = nan; break;
          case 1: mag_b[i] = nan; break;
          case 2: mag_a[i] = 0.0f; mag_b[i] = -0.0f; break;
          case 3: a_re[i] = -0.0f; b_im[i] = -0.0f; mag_a[i] = mag_b[i]; break;
          case 4: a_im[i] = 0.0f; b_re[i] = -0.0f; break;
          default: break;
        }
      }
      std::vector<float> re_s(len), im_s(len);
      simd::select_by_magnitude_scalar(a_re.data(), a_im.data(), b_re.data(),
                                       b_im.data(), mag_a.data(), mag_b.data(), len,
                                       re_s.data(), im_s.data());
      for (const simd::KernelSet* k : wide_sets()) {
        std::vector<float> re(len), im(len);
        k->select(a_re.data(), a_im.data(), b_re.data(), b_im.data(), mag_a.data(),
                  mag_b.data(), len, re.data(), im.data());
        const std::string label = std::string(k->isa) + " n=" + std::to_string(len);
        expect_bit_identical(re_s, re, "select re " + label);
        expect_bit_identical(im_s, im, "select im " + label);
      }
    }
  }
}

// Signed zeros: an arithmetic blend (a*t + b*(1-t)) would lose -0.0; exact
// selection must preserve it bit-for-bit in every set.
TEST(SelectByMagnitudeEdge, PreservesSignedZeros) {
  const int n = 8;
  std::vector<float> a_re(n, -0.0f), a_im(n, 0.0f);
  std::vector<float> b_re(n, 1.0f), b_im(n, -1.0f);
  std::vector<float> mag_a(n, 2.0f), mag_b(n, 1.0f);  // always take a
  for (const simd::KernelSet* k : all_sets()) {
    std::vector<float> re(n), im(n);
    k->select(a_re.data(), a_im.data(), b_re.data(), b_im.data(), mag_a.data(),
              mag_b.data(), n, re.data(), im.data());
    for (int i = 0; i < n; ++i) {
      EXPECT_EQ(float_bits(re[i]), float_bits(-0.0f)) << k->isa << " " << i;
      EXPECT_EQ(float_bits(im[i]), float_bits(0.0f)) << k->isa << " " << i;
    }
  }
}

// Two named flavours; every backend runs the widest simd set the host has,
// and simd_isa_name() reports the instruction set actually resolved.
TEST(KernelDispatch, NamedSetsAndDefault) {
  EXPECT_STREQ(simd::scalar_kernels().name, "scalar");
  EXPECT_STREQ(simd::scalar_kernels().isa, "scalar");
  EXPECT_STREQ(simd::simd_kernels().name, "simd");
  EXPECT_EQ(&simd::active_kernels(), &simd::simd_kernels());
  ASSERT_FALSE(wide_sets().empty());
  EXPECT_EQ(wide_sets().front(), &simd::simd_kernels());
  EXPECT_STREQ(simd::simd_isa_name(), simd::simd_kernels().isa);
  const std::vector<std::string> known = {"avx512", "avx2", "sse2", "neon", "blocked"};
  std::size_t last = 0;
  for (const simd::KernelSet* k : wide_sets()) {
    EXPECT_STREQ(k->name, "simd");
    const auto it = std::find(known.begin(), known.end(), std::string(k->isa));
    ASSERT_NE(it, known.end()) << k->isa;
    const std::size_t rank = static_cast<std::size_t>(it - known.begin());
    EXPECT_GE(rank, last) << "sets must be listed widest first";
    last = rank;
  }
  // The 4-lane baseline runs everywhere, so it is always the last set.
  const std::string base = wide_sets().back()->isa;
  EXPECT_TRUE(base == "sse2" || base == "neon" || base == "blocked") << base;
}

// Odd lengths exercise every lane width's tail; 44 and 1024 are the bench
// sizes.
INSTANTIATE_TEST_SUITE_P(Sizes, KernelEquivalence,
                         ::testing::Values(1, 3, 7, 44, 101, 1024));

}  // namespace
