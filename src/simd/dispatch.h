// Kernel dispatch: one resolved implementation per kernel family, in three
// named flavours (scalar / simd / autovec).
//
// "simd" is the set every backend runs (active_kernels()). It is
// bit-identical to scalar (kernels.cpp keeps the scalar accumulation order
// in every ISA path), and scalar is the reference the tests and
// bench_kernels compare it against. "autovec" is within 1 ulp of scalar but
// not guaranteed bit-identical on every compiler, so it is only called by
// name (test_kernels, bench_kernels), never run underneath the determinism
// tests. The flavour is fixed at build time: nothing selects it at run time.
//
// LineFilter::kernels() (dwt_fusion.h) returns one of these sets; everything
// the transform executes — including from thread-pool workers — goes through
// the set's function pointers.
#pragma once

#include "src/simd/kernels.h"

namespace vf::simd {

struct KernelSet {
  const char* name;  // "scalar" | "simd" | "autovec"
  void (*analyze)(const float* x, int out_len, const float* lp, const float* hp,
                  int taps, float* lo, float* hi);
  void (*synthesize)(const float* x, int pairs, const float* ca, const float* cb,
                     int taps, float* out);
  void (*magnitude)(const float* re, const float* im, int n, float* mag);
  void (*select)(const float* a_re, const float* a_im, const float* b_re,
                 const float* b_im, const float* mag_a, const float* mag_b, int n,
                 float* out_re, float* out_im);
  void (*average)(const float* a, const float* b, int n, float* out);
  // Multi-line forms (kernels.h): per line they run the exact single-line
  // flavour above, so they inherit its bit-identity/1-ulp contract; the
  // band-streaming plan (src/fusion/fused_plan.cpp) feeds them blocks of up
  // to kMaxLinesPerCall lines.
  void (*analyze_ml)(const float* x, int x_stride, int nlines, int out_len,
                     const float* lp, const float* hp, int taps, float* lo,
                     float* hi, int out_stride);
  void (*synthesize_ml)(const float* x, int x_stride, int nlines, int pairs,
                        const float* ca, const float* cb, int taps, float* out,
                        int out_stride);
  void (*magnitude_ml)(const float* re, const float* im, int nlines, int len,
                       int in_stride, float* mag, int out_stride);
  void (*select_ml)(const float* a_re, const float* a_im, const float* b_re,
                    const float* b_im, const float* mag_a, const float* mag_b,
                    int nlines, int len, int in_stride, float* out_re,
                    float* out_im, int out_stride);
  // Fused cross-stage forms (kernels.h): forward column analysis + complex
  // magnitude in one walk, and magnitude select + inverse synthesis in one
  // walk. Per line they delegate to the single-line flavours above, so the
  // band-streaming plan (src/fusion/fused_plan.cpp) inherits the same
  // bit-identity/1-ulp contract as the staged path.
  void (*analyze_mag_ml)(const float* x_re, const float* x_im, int x_stride,
                         int nlines, int out_len, const float* lp_re,
                         const float* hp_re, const float* lp_im,
                         const float* hp_im, int taps, float* lo_re,
                         float* hi_re, float* lo_im, float* hi_im,
                         float* mag_lo, float* mag_hi, int out_stride);
  void (*select_synth_ml)(const float* lo_a, const float* lo_b,
                          const float* mlo_a, const float* mlo_b,
                          const float* hi_a, const float* hi_b,
                          const float* mhi_a, const float* mhi_b,
                          int in_stride, int nlines, int pairs, const float* ca,
                          const float* cb, int taps, int synth_offset,
                          float* out, int out_stride);
};

const KernelSet& scalar_kernels();
const KernelSet& simd_kernels();
const KernelSet& autovec_kernels();

// The set every backend runs: simd_kernels().
const KernelSet& active_kernels();

}  // namespace vf::simd
