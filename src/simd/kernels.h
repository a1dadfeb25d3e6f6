// Compute kernels of the fusion pipeline: the scalar reference flavour.
//
//   *_scalar  — reference implementation, one output at a time. This file
//               declares them all; scalar_kernels() (dispatch.h) bundles them.
//
// The wide flavour is written once, as templates over a small vector-traits
// type (src/simd/wide_kernels.h), and compiled once per instruction set —
// AVX-512F (16 lanes), AVX2 (8), and SSE2 / NEON / portable blocked code (4),
// each with a 1-lane instantiation for blocks narrower than 4. dispatch.h
// picks the widest set the host runs, once. Every wide kernel keeps the
// scalar accumulation order (taps ascending, a separate multiply and add per
// tap; vf_core builds with -ffp-contract=off so the compiler never fuses
// them into an FMA), so every instruction set is bit-identical to *_scalar.
//
// All kernels are pure: extension/padding policy (periodic, symmetric) is the
// caller's job — `x` must already hold the extended line, or, for the plane
// kernels below, a table names the source sample of every extended one. This
// is exactly the contract of the paper's FPGA wavelet engine, which also
// receives a line buffer of `2*out_len + taps` samples per request. Purity is
// also what lets the host thread pool (src/common/thread_pool.h) call any
// flavour from worker threads.
//
//   dual_corr_decimate2:        lo[i] = sum_t lp[t] * x[2i + t]
//                               hi[i] = sum_t hp[t] * x[2i + t]
//   dual_corr_decimate2_ileave: out[2k]   = sum_t ca[t] * x[2k + t]
//                               out[2k+1] = sum_t cb[t] * x[2k + t]
//     (synthesis form: x is the interleaved lo/hi stream, ca/cb are the even/
//      odd polyphase filters, so one pass reconstructs two output samples)
//   complex_magnitude:          mag[i] = sqrt(re[i]^2 + im[i]^2)
//   select_by_magnitude:        out[i] = mag_a[i] >= mag_b[i] ? a[i] : b[i]
//   average:                    out[i] = 0.5 * (a[i] + b[i])
#pragma once

namespace vf::simd {

// Instruction set of simd_kernels(), resolved once at run time: "avx512",
// "avx2", "sse2", "neon", or "blocked" (portable 4-lane fallback).
const char* simd_isa_name();

// --- analysis: dual correlation + decimate by 2 -----------------------------
void dual_corr_decimate2_scalar(const float* x, int out_len, const float* lp,
                                const float* hp, int taps, float* lo, float* hi);

// --- synthesis: dual correlation over the interleaved subband stream --------
void dual_corr_decimate2_ileave_scalar(const float* x, int pairs, const float* ca,
                                       const float* cb, int taps, float* out);

// --- fusion rule helpers ----------------------------------------------------
void complex_magnitude_scalar(const float* re, const float* im, int n, float* mag);

void select_by_magnitude_scalar(const float* a_re, const float* a_im, const float* b_re,
                                const float* b_im, const float* mag_a,
                                const float* mag_b, int n, float* out_re,
                                float* out_im);

// One component of select_by_magnitude: out[i] = mag_a[i] >= mag_b[i] ? a[i]
// : b[i] (pure data movement; the fused synthesis kernel selects a line's lo
// and hi streams independently).
void select_half_scalar(const float* a, const float* b, const float* mag_a,
                        const float* mag_b, int n, float* out);

// --- lowpass residual averaging ---------------------------------------------
void average_scalar(const float* a, const float* b, int n, float* out);

// --- multi-line variants -----------------------------------------------------
//
// Process `nlines` independent lines per call: line l reads its (extended)
// inputs at base + l*stride and writes outputs at base + l*out_stride. Per
// line the arithmetic order is EXACTLY the single-line kernel's (every
// flavour calls its own single-line kernel per line), so batching lines
// never moves an output bit. kMaxLinesPerCall is the batch the callers
// (bench_kernels, the benchmark's kernel probes) feed them.
inline constexpr int kMaxLinesPerCall = 8;

void dual_corr_decimate2_ml_scalar(const float* x, int x_stride, int nlines,
                                   int out_len, const float* lp, const float* hp,
                                   int taps, float* lo, float* hi, int out_stride);

void dual_corr_decimate2_ileave_ml_scalar(const float* x, int x_stride, int nlines,
                                          int pairs, const float* ca, const float* cb,
                                          int taps, float* out, int out_stride);

void complex_magnitude_ml_scalar(const float* re, const float* im, int nlines,
                                 int len, int in_stride, float* mag, int out_stride);

void select_by_magnitude_ml_scalar(const float* a_re, const float* a_im,
                                   const float* b_re, const float* b_im,
                                   const float* mag_a, const float* mag_b,
                                   int nlines, int len, int in_stride,
                                   float* out_re, float* out_im, int out_stride);

// --- fused per-line cross-stage kernels ---------------------------------------
//
//   analyze_mag_ml:  per line l: analyze the re-tree line with (lp_re, hp_re)
//     and the im-tree line with (lp_im, hp_im) — both lines pre-extended, same
//     stride — then, when mag_lo/mag_hi are non-null, complex_magnitude over
//     the freshly produced (lo_re, lo_im) / (hi_re, hi_im) pairs.
//   select_synth_ml: per line l: when the *_b inputs are non-null, half-select
//     the lo (and independently the hi) stream by magnitude; build the
//     periodic interleaved extension (ext[k] = stream[(k - synth_offset) mod
//     2*pairs]); then one dual_corr ileave pass. Null *_b means the stream is
//     already fused — taken verbatim.

void analyze_mag_ml_scalar(const float* x_re, const float* x_im, int x_stride,
                           int nlines, int out_len, const float* lp_re,
                           const float* hp_re, const float* lp_im,
                           const float* hp_im, int taps, float* lo_re,
                           float* hi_re, float* lo_im, float* hi_im,
                           float* mag_lo, float* mag_hi, int out_stride);

void select_synth_ml_scalar(const float* lo_a, const float* lo_b,
                            const float* mlo_a, const float* mlo_b,
                            const float* hi_a, const float* hi_b,
                            const float* mhi_a, const float* mhi_b,
                            int in_stride, int nlines, int pairs,
                            const float* ca, const float* cb, int taps,
                            int synth_offset, float* out, int out_stride);

// --- plane kernels (the band-streaming plan, src/fusion/fused_plan.cpp) -------
//
// Whole row-major planes per call. Extension is given by tables the caller
// builds once per shape, so no kernel ever materializes an extended line.
//
//   analyze_rows: output row r filters source row min(r, src_rows - 1) (the
//     edge-replicating pad of an odd row count); extended sample k of a row
//     is x[ext_cols[k]]. The table holds 2*out_len + taps entries (the even/
//     odd phase split reads one past the last tap window). lo/hi rows get
//     out_len samples each.
//   synthesize_rows: row r of (lo, hi) is one synthesis line: its periodic
//     interleaved extension (ext[k] = stream[(k - synth_offset) mod
//     2*pairs]) through one dual_corr ileave pass, 2*pairs outputs.
//   analyze_mag_cols: the column pass, one column per SIMD lane. Extended
//     row k of column j is x[ext_re[k]][j] (re plane) / x[ext_im[k]][j] (im
//     plane), k < 2*out_rows + taps - 2; out_rows rows of lo/hi per plane,
//     and, when mag_lo/mag_hi are non-null, complex_magnitude over the fresh
//     (lo_re, lo_im) / (hi_re, hi_im) pairs.
//   synthesize_cols: the inverse column pass. Extended row k of the
//     interleaved lo/hi stream is stream row ext[k] (even = lo row ext[k]/2,
//     odd = hi row ext[k]/2), k < 2*pairs + taps - 2; output rows 2m and
//     2m+1 are the ca and cb correlations at extended row 2m.
//
// Per column (rows) or per row (columns) each output is bit-identical to the
// single-line kernel fed the same extended samples. The column kernels hold
// one row pointer per tap, so taps <= kMaxTaps (every FilterBank is well
// inside it).
inline constexpr int kMaxTaps = 32;

void analyze_rows_scalar(const float* src, int src_stride, int src_rows,
                         int rows, const int* ext_cols, int out_len,
                         const float* lp, const float* hp, int taps, float* lo,
                         float* hi, int out_stride);

void synthesize_rows_scalar(const float* lo, const float* hi, int in_stride,
                            int rows, int pairs, const float* ca, const float* cb,
                            int taps, int synth_offset, float* out,
                            int out_stride);

void analyze_mag_cols_scalar(const float* x_re, const float* x_im, int x_stride,
                             int cols, const int* ext_re, const int* ext_im,
                             int out_rows, const float* lp_re, const float* hp_re,
                             const float* lp_im, const float* hp_im, int taps,
                             float* lo_re, float* hi_re, float* lo_im,
                             float* hi_im, float* mag_lo, float* mag_hi,
                             int out_stride);

void synthesize_cols_scalar(const float* lo, int lo_stride, const float* hi,
                            int hi_stride, int cols, const int* ext, int pairs,
                            const float* ca, const float* cb, int taps,
                            float* out, int out_stride);

}  // namespace vf::simd
