// The wide kernels at 8 lanes (AVX2), stepping down to SSE2 and scalar
// lanes for narrow blocks. Compiled through a target attribute, not a -m
// flag: dispatch.cpp only runs it when the CPU reports AVX2.
#if defined(__x86_64__)
#define VF_ISA_NS avx2
#define VF_TARGET __attribute__((target("avx2")))
#define VF_WIDTH 8
#define VF_ISA_NAME "avx2"
#include "src/simd/wide_kernels.h"
#endif
