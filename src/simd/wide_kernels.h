// The wide kernel flavour, written once over a vector-traits type and
// compiled once per instruction set.
//
// Include this header from exactly one translation unit per instruction set
// (kernels_base.cpp, kernels_avx2.cpp, kernels_avx512.cpp), after defining
//
//   VF_ISA_NS    namespace of this instantiation (base, avx2, avx512)
//   VF_TARGET    the function attribute enabling the instruction set, e.g.
//                __attribute__((target("avx2"))); empty for the baseline
//   VF_WIDTH     the widest lane count the unit may use: 16, 8 or 4
//   VF_ISA_NAME  what KernelSet::isa reports for it
//
// Every function here carries VF_TARGET — the lane helpers too, so they
// inline into the kernels — and everything but kernel_set() has internal
// linkage, so no out-of-line copy built for one instruction set can stand in
// for another's at link time. The library builds without any -m flag; which
// unit runs is decided once, at run time, in dispatch.cpp.
//
// Lane types: Lane1 (scalar), Lane4 (SSE2 / NEON / portable blocked), Lane8
// (AVX2), Lane16 (AVX-512F). A kernel template runs whole blocks of its lane
// width and hands the rest to the next narrower lane type, down to Lane1, so
// a 4-column plane on an AVX-512 host runs as one 4-lane block. Kernels that
// write a separate output (the line and plane filters) instead cover the end
// of a long enough line or plane with one last block shifted back to end
// exactly at it; it recomputes a few outputs with identical bits.
//
// Bit-identity with the scalar reference (kernels.h) holds by construction:
// each output accumulates its taps in ascending order from a zero register
// with a separate multiply and add per tap (vf_core builds with
// -ffp-contract=off, so the compiler never contracts them into an FMA); the
// magnitude is sqrt(re*re + im*im) with IEEE-exact sqrt; select is a bitwise
// blend on the same ordered `>=` compare as the scalar ternary (false on
// NaN), so signed zeros and NaN payloads pass through untouched.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <vector>

#include "src/simd/dispatch.h"

#if defined(__SSE2__)
#include <immintrin.h>
#define VF_LANE4_SSE2 1
#elif defined(__ARM_NEON) || defined(__ARM_NEON__)
#include <arm_neon.h>
#define VF_LANE4_NEON 1
#endif

namespace vf::simd::VF_ISA_NS {
namespace {

// --- lane types ---------------------------------------------------------------

struct Lane1 {
  using reg = float;
  static constexpr int kLanes = 1;
  VF_TARGET static reg load(const float* p) { return *p; }
  VF_TARGET static void store(float* p, reg v) { *p = v; }
  VF_TARGET static reg set1(float x) { return x; }
  VF_TARGET static reg zero() { return 0.0f; }
  VF_TARGET static reg add(reg a, reg b) { return a + b; }
  VF_TARGET static reg mul(reg a, reg b) { return a * b; }
  VF_TARGET static reg sqrt(reg a) { return std::sqrt(a); }
  // a where ma >= mb, else b.
  VF_TARGET static reg select_ge(reg ma, reg mb, reg a, reg b) {
    return ma >= mb ? a : b;
  }
  // p[2i] = a[i], p[2i+1] = b[i].
  VF_TARGET static void store_interleaved(float* p, reg a, reg b) {
    p[0] = a;
    p[1] = b;
  }
  // even[i] = p[2i], odd[i] = p[2i+1] (the inverse of store_interleaved).
  VF_TARGET static void load_deinterleaved(const float* p, reg& even, reg& odd) {
    even = p[0];
    odd = p[1];
  }
};

#if defined(VF_LANE4_SSE2)
struct Lane4 {
  using reg = __m128;
  static constexpr int kLanes = 4;
  VF_TARGET static reg load(const float* p) { return _mm_loadu_ps(p); }
  VF_TARGET static void store(float* p, reg v) { _mm_storeu_ps(p, v); }
  VF_TARGET static reg set1(float x) { return _mm_set1_ps(x); }
  VF_TARGET static reg zero() { return _mm_setzero_ps(); }
  VF_TARGET static reg add(reg a, reg b) { return _mm_add_ps(a, b); }
  VF_TARGET static reg mul(reg a, reg b) { return _mm_mul_ps(a, b); }
  VF_TARGET static reg sqrt(reg a) { return _mm_sqrt_ps(a); }
  VF_TARGET static reg select_ge(reg ma, reg mb, reg a, reg b) {
    const reg take_a = _mm_cmpge_ps(ma, mb);
    return _mm_or_ps(_mm_and_ps(take_a, a), _mm_andnot_ps(take_a, b));
  }
  VF_TARGET static void store_interleaved(float* p, reg a, reg b) {
    _mm_storeu_ps(p, _mm_unpacklo_ps(a, b));
    _mm_storeu_ps(p + 4, _mm_unpackhi_ps(a, b));
  }
  VF_TARGET static void load_deinterleaved(const float* p, reg& even, reg& odd) {
    const reg a = _mm_loadu_ps(p);
    const reg b = _mm_loadu_ps(p + 4);
    even = _mm_shuffle_ps(a, b, 0x88);  // a0 a2 b0 b2
    odd = _mm_shuffle_ps(a, b, 0xDD);   // a1 a3 b1 b3
  }
};
#elif defined(VF_LANE4_NEON)
struct Lane4 {
  using reg = float32x4_t;
  static constexpr int kLanes = 4;
  VF_TARGET static reg load(const float* p) { return vld1q_f32(p); }
  VF_TARGET static void store(float* p, reg v) { vst1q_f32(p, v); }
  VF_TARGET static reg set1(float x) { return vdupq_n_f32(x); }
  VF_TARGET static reg zero() { return vdupq_n_f32(0.0f); }
  VF_TARGET static reg add(reg a, reg b) { return vaddq_f32(a, b); }
  VF_TARGET static reg mul(reg a, reg b) { return vmulq_f32(a, b); }
  VF_TARGET static reg sqrt(reg a) {
#if defined(__aarch64__)
    return vsqrtq_f32(a);
#else
    // ARMv7 NEON only has the (inexact) rsqrt estimate.
    float v[4];
    vst1q_f32(v, a);
    for (float& x : v) x = std::sqrt(x);
    return vld1q_f32(v);
#endif
  }
  VF_TARGET static reg select_ge(reg ma, reg mb, reg a, reg b) {
    return vbslq_f32(vcgeq_f32(ma, mb), a, b);
  }
  VF_TARGET static void store_interleaved(float* p, reg a, reg b) {
    const float32x4x2_t ab = {{a, b}};
    vst2q_f32(p, ab);
  }
  VF_TARGET static void load_deinterleaved(const float* p, reg& even, reg& odd) {
    const float32x4x2_t v = vld2q_f32(p);
    even = v.val[0];
    odd = v.val[1];
  }
};
#else
// Portable 4-lane blocks, mirroring the paper's NEON port.
struct Lane4 {
  struct reg {
    float v[4];
  };
  static constexpr int kLanes = 4;
  static reg load(const float* p) { return {{p[0], p[1], p[2], p[3]}}; }
  static void store(float* p, reg v) { std::memcpy(p, v.v, sizeof(v.v)); }
  static reg set1(float x) { return {{x, x, x, x}}; }
  static reg zero() { return set1(0.0f); }
  static reg add(reg a, reg b) {
    for (int l = 0; l < 4; ++l) a.v[l] = a.v[l] + b.v[l];
    return a;
  }
  static reg mul(reg a, reg b) {
    for (int l = 0; l < 4; ++l) a.v[l] = a.v[l] * b.v[l];
    return a;
  }
  static reg sqrt(reg a) {
    for (float& x : a.v) x = std::sqrt(x);
    return a;
  }
  static reg select_ge(reg ma, reg mb, reg a, reg b) {
    for (int l = 0; l < 4; ++l) a.v[l] = ma.v[l] >= mb.v[l] ? a.v[l] : b.v[l];
    return a;
  }
  static void store_interleaved(float* p, reg a, reg b) {
    for (int l = 0; l < 4; ++l) {
      p[2 * l] = a.v[l];
      p[2 * l + 1] = b.v[l];
    }
  }
  static void load_deinterleaved(const float* p, reg& even, reg& odd) {
    for (int l = 0; l < 4; ++l) {
      even.v[l] = p[2 * l];
      odd.v[l] = p[2 * l + 1];
    }
  }
};
#endif

#if VF_WIDTH >= 8
struct Lane8 {
  using reg = __m256;
  static constexpr int kLanes = 8;
  VF_TARGET static reg load(const float* p) { return _mm256_loadu_ps(p); }
  VF_TARGET static void store(float* p, reg v) { _mm256_storeu_ps(p, v); }
  VF_TARGET static reg set1(float x) { return _mm256_set1_ps(x); }
  VF_TARGET static reg zero() { return _mm256_setzero_ps(); }
  VF_TARGET static reg add(reg a, reg b) { return _mm256_add_ps(a, b); }
  VF_TARGET static reg mul(reg a, reg b) { return _mm256_mul_ps(a, b); }
  VF_TARGET static reg sqrt(reg a) { return _mm256_sqrt_ps(a); }
  VF_TARGET static reg select_ge(reg ma, reg mb, reg a, reg b) {
    return _mm256_blendv_ps(b, a, _mm256_cmp_ps(ma, mb, _CMP_GE_OQ));
  }
  VF_TARGET static void store_interleaved(float* p, reg a, reg b) {
    // unpack interleaves within 128-bit halves; the permutes put the halves
    // back in order.
    const reg lo = _mm256_unpacklo_ps(a, b);  // a0 b0 a1 b1 | a4 b4 a5 b5
    const reg hi = _mm256_unpackhi_ps(a, b);  // a2 b2 a3 b3 | a6 b6 a7 b7
    _mm256_storeu_ps(p, _mm256_permute2f128_ps(lo, hi, 0x20));
    _mm256_storeu_ps(p + 8, _mm256_permute2f128_ps(lo, hi, 0x31));
  }
  VF_TARGET static void load_deinterleaved(const float* p, reg& even, reg& odd) {
    // shuffle picks within 128-bit halves (a0 a2 b0 b2 | a4 a6 b4 b6); the
    // 64-bit permute 0xD8 (order 0 2 1 3) puts the pairs back in order.
    const reg a = _mm256_loadu_ps(p);
    const reg b = _mm256_loadu_ps(p + 8);
    even = _mm256_castpd_ps(_mm256_permute4x64_pd(
        _mm256_castps_pd(_mm256_shuffle_ps(a, b, 0x88)), 0xD8));
    odd = _mm256_castpd_ps(_mm256_permute4x64_pd(
        _mm256_castps_pd(_mm256_shuffle_ps(a, b, 0xDD)), 0xD8));
  }
};
#endif

#if VF_WIDTH >= 16
struct Lane16 {
  using reg = __m512;
  static constexpr int kLanes = 16;
  VF_TARGET static reg load(const float* p) { return _mm512_loadu_ps(p); }
  VF_TARGET static void store(float* p, reg v) { _mm512_storeu_ps(p, v); }
  VF_TARGET static reg set1(float x) { return _mm512_set1_ps(x); }
  VF_TARGET static reg zero() { return _mm512_setzero_ps(); }
  VF_TARGET static reg add(reg a, reg b) { return _mm512_add_ps(a, b); }
  VF_TARGET static reg mul(reg a, reg b) { return _mm512_mul_ps(a, b); }
  // The zero-masked form with every lane enabled is _mm512_sqrt_ps; it
  // avoids GCC 12's -Wmaybe-uninitialized on _mm512_undefined_ps.
  VF_TARGET static reg sqrt(reg a) {
    return _mm512_maskz_sqrt_ps(static_cast<__mmask16>(0xFFFF), a);
  }
  VF_TARGET static reg select_ge(reg ma, reg mb, reg a, reg b) {
    return _mm512_mask_blend_ps(_mm512_cmp_ps_mask(ma, mb, _CMP_GE_OQ), b, a);
  }
  VF_TARGET static void store_interleaved(float* p, reg a, reg b) {
    const __m512i lo = _mm512_setr_epi32(0, 16, 1, 17, 2, 18, 3, 19, 4, 20, 5,
                                         21, 6, 22, 7, 23);
    const __m512i hi = _mm512_setr_epi32(8, 24, 9, 25, 10, 26, 11, 27, 12, 28,
                                         13, 29, 14, 30, 15, 31);
    _mm512_storeu_ps(p, _mm512_permutex2var_ps(a, lo, b));
    _mm512_storeu_ps(p + 16, _mm512_permutex2var_ps(a, hi, b));
  }
  VF_TARGET static void load_deinterleaved(const float* p, reg& even, reg& odd) {
    const __m512i ev = _mm512_setr_epi32(0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20,
                                         22, 24, 26, 28, 30);
    const __m512i od = _mm512_setr_epi32(1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21,
                                         23, 25, 27, 29, 31);
    const reg a = _mm512_loadu_ps(p);
    const reg b = _mm512_loadu_ps(p + 16);
    even = _mm512_permutex2var_ps(a, ev, b);
    odd = _mm512_permutex2var_ps(a, od, b);
  }
};
#endif

template <class V>
struct NarrowerOf;
template <>
struct NarrowerOf<Lane4> {
  using type = Lane1;
};
#if VF_WIDTH >= 8
template <>
struct NarrowerOf<Lane8> {
  using type = Lane4;
};
#endif
#if VF_WIDTH >= 16
template <>
struct NarrowerOf<Lane16> {
  using type = Lane8;
};
using Widest = Lane16;
#elif VF_WIDTH >= 8
using Widest = Lane8;
#else
using Widest = Lane4;
#endif
template <class V>
using Narrower = typename NarrowerOf<V>::type;

// --- scratch ------------------------------------------------------------------

// Even/odd phase lines of the decimating kernels (the vld2 split of the
// paper's NEON code): a stride-2 correlation becomes two unit-stride ones,
//   lo[i] = sum_s lp[2s]*xe[i+s] + lp[2s+1]*xo[i+s],
// still summed in ascending tap order t = 2s, 2s+1. Analysis splits into
// this scratch; row synthesis reads its phases in place (kernels.h).
thread_local std::vector<float> g_phase_scratch;
// The selected lo/hi halves of one select_synth_ml line.
thread_local std::vector<float> g_select_scratch;

float* grow(std::vector<float>& v, int n) {
  if (static_cast<int>(v.size()) < n) v.resize(static_cast<std::size_t>(n));
  return v.data();
}

// dst[k] = src[(start + k) mod period] for k < len, as memcpy runs.
void rotate_fill(float* dst, int len, const float* src, int period, int start) {
  int k = 0;
  while (k < len) {
    const int run = std::min(period - start, len - k);
    std::memcpy(dst + k, src + start, static_cast<std::size_t>(run) * sizeof(float));
    k += run;
    start = 0;
  }
}

int wrap(int k, int n) {
  k %= n;
  return k < 0 ? k + n : k;
}

// --- elementwise kernels: whole blocks, the tail through narrower lanes ---------
// (Safe in place: a block loads its inputs before it stores.)

template <class V>
VF_TARGET void magnitude_lanes(const float* re, const float* im, int i, int n,
                               float* mag) {
  for (; i + V::kLanes <= n; i += V::kLanes) {
    const auto r = V::load(re + i);
    const auto m = V::load(im + i);
    V::store(mag + i, V::sqrt(V::add(V::mul(r, r), V::mul(m, m))));
  }
  if constexpr (V::kLanes > 1) magnitude_lanes<Narrower<V>>(re, im, i, n, mag);
}

template <class V>
VF_TARGET void select_half_lanes(const float* a, const float* b,
                                 const float* mag_a, const float* mag_b, int i,
                                 int n, float* out) {
  for (; i + V::kLanes <= n; i += V::kLanes) {
    V::store(out + i, V::select_ge(V::load(mag_a + i), V::load(mag_b + i),
                                   V::load(a + i), V::load(b + i)));
  }
  if constexpr (V::kLanes > 1) {
    select_half_lanes<Narrower<V>>(a, b, mag_a, mag_b, i, n, out);
  }
}

template <class V>
VF_TARGET void average_lanes(const float* a, const float* b, int i, int n,
                             float* out) {
  const auto half = V::set1(0.5f);
  for (; i + V::kLanes <= n; i += V::kLanes) {
    V::store(out + i, V::mul(half, V::add(V::load(a + i), V::load(b + i))));
  }
  if constexpr (V::kLanes > 1) average_lanes<Narrower<V>>(a, b, i, n, out);
}

// --- along-the-line filters over even/odd phase lines ---------------------------

template <class V>
VF_TARGET void analyze_phases(const float* xe, const float* xo, int out_len,
                              const float* lp, const float* hp, int taps,
                              float* lo, float* hi) {
  if (out_len < V::kLanes) {
    if constexpr (V::kLanes > 1) {
      analyze_phases<Narrower<V>>(xe, xo, out_len, lp, hp, taps, lo, hi);
    }
    return;
  }
  const int pairs = taps / 2;
  for (int i = 0; i < out_len; i += V::kLanes) {
    i = std::min(i, out_len - V::kLanes);  // last block ends at out_len
    auto acc_lo = V::zero();
    auto acc_hi = V::zero();
    for (int s = 0; s < pairs; ++s) {
      const auto e = V::load(xe + i + s);
      const auto o = V::load(xo + i + s);
      acc_lo = V::add(acc_lo, V::mul(V::set1(lp[2 * s]), e));
      acc_lo = V::add(acc_lo, V::mul(V::set1(lp[2 * s + 1]), o));
      acc_hi = V::add(acc_hi, V::mul(V::set1(hp[2 * s]), e));
      acc_hi = V::add(acc_hi, V::mul(V::set1(hp[2 * s + 1]), o));
    }
    if (taps & 1) {
      const auto e = V::load(xe + i + pairs);
      acc_lo = V::add(acc_lo, V::mul(V::set1(lp[taps - 1]), e));
      acc_hi = V::add(acc_hi, V::mul(V::set1(hp[taps - 1]), e));
    }
    V::store(lo + i, acc_lo);
    V::store(hi + i, acc_hi);
  }
}

template <class V>
VF_TARGET void synthesize_phases(const float* xe, const float* xo, int pairs,
                                 const float* ca, const float* cb, int taps,
                                 float* out) {
  if (pairs < V::kLanes) {
    if constexpr (V::kLanes > 1) {
      synthesize_phases<Narrower<V>>(xe, xo, pairs, ca, cb, taps, out);
    }
    return;
  }
  const int tap_pairs = taps / 2;
  for (int k = 0; k < pairs; k += V::kLanes) {
    k = std::min(k, pairs - V::kLanes);
    auto acc_a = V::zero();
    auto acc_b = V::zero();
    for (int s = 0; s < tap_pairs; ++s) {
      const auto e = V::load(xe + k + s);
      const auto o = V::load(xo + k + s);
      acc_a = V::add(acc_a, V::mul(V::set1(ca[2 * s]), e));
      acc_a = V::add(acc_a, V::mul(V::set1(ca[2 * s + 1]), o));
      acc_b = V::add(acc_b, V::mul(V::set1(cb[2 * s]), e));
      acc_b = V::add(acc_b, V::mul(V::set1(cb[2 * s + 1]), o));
    }
    if (taps & 1) {
      const auto e = V::load(xe + k + tap_pairs);
      acc_a = V::add(acc_a, V::mul(V::set1(ca[taps - 1]), e));
      acc_b = V::add(acc_b, V::mul(V::set1(cb[taps - 1]), e));
    }
    V::store_interleaved(out + 2 * k, acc_a, acc_b);
  }
}

// One synthesis line from read-only lo/hi streams (select_synth_ml): the
// even and odd phases of the periodic interleaved extension ext[k] =
// stream[(k - synth_offset) mod n] are plain rotations of lo and hi (which
// one lands on the even phase depends on the offset's parity), so they are
// copied straight in. synthesize_rows reads the same phases in place instead.
VF_TARGET void synthesize_streams(const float* lo, const float* hi, int pairs,
                                  const float* ca, const float* cb, int taps,
                                  int synth_offset, float* out) {
  const int ne = pairs + (taps + 1) / 2;
  const int no = pairs + taps / 2;
  float* xe = grow(g_phase_scratch, ne + no);
  float* xo = xe + ne;
  const int a = wrap(-synth_offset, 2 * pairs);  // stream index of ext[0]
  if (a & 1) {
    rotate_fill(xe, ne, hi, pairs, a / 2);
    rotate_fill(xo, no, lo, pairs, (a / 2 + 1) % pairs);
  } else {
    rotate_fill(xe, ne, lo, pairs, a / 2);
    rotate_fill(xo, no, hi, pairs, a / 2);
  }
  synthesize_phases<Widest>(xe, xo, pairs, ca, cb, taps, out);
}

// --- even/odd phase split ---------------------------------------------------------

// xe[k] = x[2k], xo[k] = x[2k+1] for k in [i, n): whole blocks of packed
// de-interleaving loads, the rest through narrower lanes.
template <class V>
VF_TARGET void split_run(const float* x, int i, int n, float* xe, float* xo) {
  for (; i + V::kLanes <= n; i += V::kLanes) {
    auto e = V::zero();
    auto o = V::zero();
    V::load_deinterleaved(x + 2 * i, e, o);
    V::store(xe + i, e);
    V::store(xo + i, o);
  }
  if constexpr (V::kLanes > 1) split_run<Narrower<V>>(x, i, n, xe, xo);
}

// --- single-line kernels (pre-extended input) -----------------------------------

// The even phase line of x (its odd one follows at + n + (taps + 1) / 2),
// for n outputs of a taps-wide window.
VF_TARGET float* split_phases(const float* x, int n, int taps) {
  const int ne = n + (taps + 1) / 2;
  const int no = n + taps / 2;
  float* xe = grow(g_phase_scratch, ne + no);
  split_run<Widest>(x, 0, no, xe, xe + ne);
  if (ne > no) xe[no] = x[2 * no];
  return xe;
}

VF_TARGET void analyze(const float* x, int out_len, const float* lp,
                       const float* hp, int taps, float* lo, float* hi) {
  const float* xe = split_phases(x, out_len, taps);
  analyze_phases<Widest>(xe, xe + out_len + (taps + 1) / 2, out_len, lp, hp, taps,
                         lo, hi);
}

VF_TARGET void synthesize(const float* x, int pairs, const float* ca,
                          const float* cb, int taps, float* out) {
  const float* xe = split_phases(x, pairs, taps);
  synthesize_phases<Widest>(xe, xe + pairs + (taps + 1) / 2, pairs, ca, cb, taps,
                            out);
}

VF_TARGET void magnitude(const float* re, const float* im, int n, float* mag) {
  magnitude_lanes<Widest>(re, im, 0, n, mag);
}

VF_TARGET void select(const float* a_re, const float* a_im, const float* b_re,
                      const float* b_im, const float* mag_a, const float* mag_b,
                      int n, float* out_re, float* out_im) {
  select_half_lanes<Widest>(a_re, b_re, mag_a, mag_b, 0, n, out_re);
  select_half_lanes<Widest>(a_im, b_im, mag_a, mag_b, 0, n, out_im);
}

VF_TARGET void average(const float* a, const float* b, int n, float* out) {
  average_lanes<Widest>(a, b, 0, n, out);
}

// --- multi-line and fused per-line forms ----------------------------------------

VF_TARGET void analyze_ml(const float* x, int x_stride, int nlines, int out_len,
                          const float* lp, const float* hp, int taps, float* lo,
                          float* hi, int out_stride) {
  for (int l = 0; l < nlines; ++l) {
    analyze(x + l * x_stride, out_len, lp, hp, taps, lo + l * out_stride,
            hi + l * out_stride);
  }
}

VF_TARGET void synthesize_ml(const float* x, int x_stride, int nlines, int pairs,
                             const float* ca, const float* cb, int taps,
                             float* out, int out_stride) {
  for (int l = 0; l < nlines; ++l) {
    synthesize(x + l * x_stride, pairs, ca, cb, taps, out + l * out_stride);
  }
}

VF_TARGET void analyze_mag_ml(const float* x_re, const float* x_im, int x_stride,
                              int nlines, int out_len, const float* lp_re,
                              const float* hp_re, const float* lp_im,
                              const float* hp_im, int taps, float* lo_re,
                              float* hi_re, float* lo_im, float* hi_im,
                              float* mag_lo, float* mag_hi, int out_stride) {
  for (int l = 0; l < nlines; ++l) {
    const int o = l * out_stride;
    analyze(x_re + l * x_stride, out_len, lp_re, hp_re, taps, lo_re + o, hi_re + o);
    analyze(x_im + l * x_stride, out_len, lp_im, hp_im, taps, lo_im + o, hi_im + o);
    if (mag_lo != nullptr) magnitude(lo_re + o, lo_im + o, out_len, mag_lo + o);
    if (mag_hi != nullptr) magnitude(hi_re + o, hi_im + o, out_len, mag_hi + o);
  }
}

VF_TARGET void select_synth_ml(const float* lo_a, const float* lo_b,
                               const float* mlo_a, const float* mlo_b,
                               const float* hi_a, const float* hi_b,
                               const float* mhi_a, const float* mhi_b,
                               int in_stride, int nlines, int pairs,
                               const float* ca, const float* cb, int taps,
                               int synth_offset, float* out, int out_stride) {
  if (pairs <= 0) return;
  float* sel_lo = grow(g_select_scratch, 2 * pairs);
  float* sel_hi = sel_lo + pairs;
  for (int l = 0; l < nlines; ++l) {
    const int i = l * in_stride;
    const float* lo = lo_a + i;
    if (lo_b != nullptr) {
      select_half_lanes<Widest>(lo, lo_b + i, mlo_a + i, mlo_b + i, 0, pairs, sel_lo);
      lo = sel_lo;
    }
    const float* hi = hi_a + i;
    if (hi_b != nullptr) {
      select_half_lanes<Widest>(hi, hi_b + i, mhi_a + i, mhi_b + i, 0, pairs, sel_hi);
      hi = sel_hi;
    }
    synthesize_streams(lo, hi, pairs, ca, cb, taps, synth_offset,
                       out + l * out_stride);
  }
}

// --- plane kernels ---------------------------------------------------------------

// Row pass: each row's phase lines are split straight from the source row
// (no extended line is built first). Inside the table's run of consecutive
// source columns that is split_run's packed de-interleave; only the wrapped
// ends go through the table.
VF_TARGET void analyze_rows(const float* src, int src_stride, int src_rows,
                            int rows, const int* ext_cols, int out_len,
                            const float* lp, const float* hp, int taps, float* lo,
                            float* hi, int out_stride) {
  const int ne = out_len + (taps + 1) / 2;
  const int no = out_len + taps / 2;
  float* xe = grow(g_phase_scratch, ne + no);
  float* xo = xe + ne;
  // The longest run of consecutive source columns in the table (the
  // unwrapped middle of the extended row), found once per call.
  const int len = 2 * out_len + taps;
  int run_begin = 0, run_end = 0;
  for (int b = 0, k = 1; k <= len; ++k) {
    if (k == len || ext_cols[k] != ext_cols[k - 1] + 1) {
      if (k - b > run_end - run_begin) {
        run_begin = b;
        run_end = k;
      }
      b = k;
    }
  }
  // Phase pairs k whose samples 2k and 2k+1 both lie in the run.
  const int k0 = std::min((run_begin + 1) / 2, no);
  const int k1 = std::max(k0, run_end / 2);
  for (int r = 0; r < rows; ++r) {
    const float* x = src + static_cast<std::size_t>(std::min(r, src_rows - 1)) * src_stride;
    for (int k = 0; k < k0; ++k) {
      xe[k] = x[ext_cols[2 * k]];
      xo[k] = x[ext_cols[2 * k + 1]];
    }
    if (k1 > k0) split_run<Widest>(x + ext_cols[2 * k0], 0, k1 - k0, xe + k0, xo + k0);
    for (int k = k1; k < no; ++k) {
      xe[k] = x[ext_cols[2 * k]];
      xo[k] = x[ext_cols[2 * k + 1]];
    }
    if (ne > no) xe[no] = x[ext_cols[2 * no]];
    const std::size_t o = static_cast<std::size_t>(r) * out_stride;
    analyze_phases<Widest>(xe, xo, out_len, lp, hp, taps, lo + o, hi + o);
  }
}

// Row synthesis filters each row's phase lines in place: synthesis_phases
// fills the few wrapped halo samples they read and points into lo and hi.
VF_TARGET void synthesize_rows(float* lo, float* hi, int in_stride, int rows,
                               int pairs, const float* ca, const float* cb,
                               int taps, int synth_offset, float* out,
                               int out_stride) {
  if (pairs <= 0) return;
  for (int r = 0; r < rows; ++r) {
    const std::size_t i = static_cast<std::size_t>(r) * in_stride;
    const SynthesisPhases ph = synthesis_phases(lo + i, hi + i, pairs, taps, synth_offset);
    synthesize_phases<Widest>(ph.even, ph.odd, pairs, ca, cb, taps,
                              out + static_cast<std::size_t>(r) * out_stride);
  }
}

// Column pass, one column per lane: in a row-major plane the V::kLanes
// floats of one row are sample k of V::kLanes adjacent columns, so a
// vertical tap is one packed load at the table's source row.
template <class V>
VF_TARGET void analyze_mag_cols_lanes(const float* x_re, const float* x_im,
                                      int x_stride, int cols, const int* ext_re,
                                      const int* ext_im, int out_rows,
                                      const float* lp_re, const float* hp_re,
                                      const float* lp_im, const float* hp_im,
                                      int taps, float* lo_re, float* hi_re,
                                      float* lo_im, float* hi_im, float* mag_lo,
                                      float* mag_hi, int out_stride) {
  if (cols < V::kLanes) {
    if constexpr (V::kLanes > 1) {
      analyze_mag_cols_lanes<Narrower<V>>(
          x_re, x_im, x_stride, cols, ext_re, ext_im, out_rows, lp_re, hp_re,
          lp_im, hp_im, taps, lo_re, hi_re, lo_im, hi_im, mag_lo, mag_hi,
          out_stride);
    }
    return;
  }
  const float* row_re[kMaxTaps];
  const float* row_im[kMaxTaps];
  for (int i = 0; i < out_rows; ++i) {
    for (int t = 0; t < taps; ++t) {
      row_re[t] = x_re + static_cast<std::size_t>(ext_re[2 * i + t]) * x_stride;
      row_im[t] = x_im + static_cast<std::size_t>(ext_im[2 * i + t]) * x_stride;
    }
    const std::size_t o = static_cast<std::size_t>(i) * out_stride;
    for (int j = 0; j < cols; j += V::kLanes) {
      j = std::min(j, cols - V::kLanes);  // last block ends at cols
      auto lr = V::zero();
      auto hr = V::zero();
      auto li = V::zero();
      auto hi = V::zero();
      for (int t = 0; t < taps; ++t) {
        const auto r = V::load(row_re[t] + j);
        lr = V::add(lr, V::mul(V::set1(lp_re[t]), r));
        hr = V::add(hr, V::mul(V::set1(hp_re[t]), r));
        const auto m = V::load(row_im[t] + j);
        li = V::add(li, V::mul(V::set1(lp_im[t]), m));
        hi = V::add(hi, V::mul(V::set1(hp_im[t]), m));
      }
      V::store(lo_re + o + j, lr);
      V::store(hi_re + o + j, hr);
      V::store(lo_im + o + j, li);
      V::store(hi_im + o + j, hi);
      if (mag_lo != nullptr) {
        V::store(mag_lo + o + j, V::sqrt(V::add(V::mul(lr, lr), V::mul(li, li))));
      }
      if (mag_hi != nullptr) {
        V::store(mag_hi + o + j, V::sqrt(V::add(V::mul(hr, hr), V::mul(hi, hi))));
      }
    }
  }
}

template <class V>
VF_TARGET void synthesize_cols_lanes(const float* lo, int lo_stride,
                                     const float* hi, int hi_stride, int cols,
                                     const int* ext, int pairs, const float* ca,
                                     const float* cb, int taps, float* out,
                                     int out_stride) {
  if (cols < V::kLanes) {
    if constexpr (V::kLanes > 1) {
      synthesize_cols_lanes<Narrower<V>>(lo, lo_stride, hi, hi_stride, cols, ext,
                                         pairs, ca, cb, taps, out, out_stride);
    }
    return;
  }
  const float* row[kMaxTaps];
  for (int m = 0; m < pairs; ++m) {
    for (int t = 0; t < taps; ++t) {
      const int e = ext[2 * m + t];
      row[t] = (e & 1) ? hi + static_cast<std::size_t>(e >> 1) * hi_stride
                       : lo + static_cast<std::size_t>(e >> 1) * lo_stride;
    }
    float* out_a = out + static_cast<std::size_t>(2 * m) * out_stride;
    float* out_b = out_a + out_stride;
    for (int j = 0; j < cols; j += V::kLanes) {
      j = std::min(j, cols - V::kLanes);
      auto acc_a = V::zero();
      auto acc_b = V::zero();
      for (int t = 0; t < taps; ++t) {
        const auto v = V::load(row[t] + j);
        acc_a = V::add(acc_a, V::mul(V::set1(ca[t]), v));
        acc_b = V::add(acc_b, V::mul(V::set1(cb[t]), v));
      }
      V::store(out_a + j, acc_a);
      V::store(out_b + j, acc_b);
    }
  }
}

}  // namespace

const KernelSet& kernel_set() {
  static const KernelSet set = {
      "simd",
      VF_ISA_NAME,
      analyze,
      synthesize,
      magnitude,
      select,
      average,
      analyze_ml,
      synthesize_ml,
      analyze_mag_ml,
      select_synth_ml,
      analyze_rows,
      synthesize_rows,
      analyze_mag_cols_lanes<Widest>,
      synthesize_cols_lanes<Widest>,
  };
  return set;
}

}  // namespace vf::simd::VF_ISA_NS
