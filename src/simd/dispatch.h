// Kernel dispatch: one resolved implementation per kernel family, bundled
// in a KernelSet.
//
// Two flavours exist. "scalar" is the reference (kernels.h). "simd" is the
// wide flavour (src/simd/wide_kernels.h), compiled once per instruction set
// — AVX-512F, AVX2 and the 4-lane baseline (SSE2 / NEON / portable blocked)
// — and bit-identical to scalar in every one of them. simd_kernels() is the
// widest set the host runs, picked once on first use from the CPU's feature
// bits (no flag, environment variable or -march option selects it);
// simd_kernel_sets() lists every set the host runs so the tests can hold
// each of them to the scalar bits.
//
// LineFilter::kernels() (dwt_fusion.h) returns one of these sets; everything
// the transform executes — including from thread-pool workers — goes through
// the set's function pointers.
#pragma once

#include <vector>

#include "src/simd/kernels.h"

namespace vf::simd {

struct KernelSet {
  const char* name;  // "scalar" | "simd"
  const char* isa;   // "scalar" | "avx512" | "avx2" | "sse2" | "neon" | "blocked"
  // Single-line kernels (kernels.h); the staged per-line transform runs these.
  void (*analyze)(const float* x, int out_len, const float* lp, const float* hp,
                  int taps, float* lo, float* hi);
  void (*synthesize)(const float* x, int pairs, const float* ca, const float* cb,
                     int taps, float* out);
  void (*magnitude)(const float* re, const float* im, int n, float* mag);
  void (*select)(const float* a_re, const float* a_im, const float* b_re,
                 const float* b_im, const float* mag_a, const float* mag_b, int n,
                 float* out_re, float* out_im);
  void (*average)(const float* a, const float* b, int n, float* out);
  // Multi-line and fused per-line forms (kernels.h): per line they run the
  // single-line kernels above, so they inherit their bits.
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
  // Plane kernels (kernels.h): what the band-streaming plan
  // (src/fusion/fused_plan.cpp) runs — row passes along the line, column
  // passes one column per lane straight on the row-major planes.
  void (*analyze_rows)(const float* src, int src_stride, int src_rows, int rows,
                       const int* ext_cols, int out_len, const float* lp,
                       const float* hp, int taps, float* lo, float* hi,
                       int out_stride);
  void (*synthesize_rows)(const float* lo, const float* hi, int in_stride,
                          int rows, int pairs, const float* ca, const float* cb,
                          int taps, int synth_offset, float* out, int out_stride);
  void (*analyze_mag_cols)(const float* x_re, const float* x_im, int x_stride,
                           int cols, const int* ext_re, const int* ext_im,
                           int out_rows, const float* lp_re, const float* hp_re,
                           const float* lp_im, const float* hp_im, int taps,
                           float* lo_re, float* hi_re, float* lo_im,
                           float* hi_im, float* mag_lo, float* mag_hi,
                           int out_stride);
  void (*synthesize_cols)(const float* lo, int lo_stride, const float* hi,
                          int hi_stride, int cols, const int* ext, int pairs,
                          const float* ca, const float* cb, int taps, float* out,
                          int out_stride);
};

const KernelSet& scalar_kernels();
// The widest simd set the host runs (simd_kernel_sets().front()).
const KernelSet& simd_kernels();
// Every simd set the host runs, widest first.
const std::vector<const KernelSet*>& simd_kernel_sets();

// The set every backend runs: simd_kernels().
const KernelSet& active_kernels();

}  // namespace vf::simd
