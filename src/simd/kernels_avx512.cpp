// The wide kernels at 16 lanes (AVX-512F), stepping down to AVX2, SSE2 and
// scalar lanes for narrow blocks. Compiled through a target attribute, not a
// -m flag: dispatch.cpp only runs it when the CPU reports AVX-512F and AVX2.
#if defined(__x86_64__)
#define VF_ISA_NS avx512
#define VF_TARGET __attribute__((target("avx512f")))
#define VF_WIDTH 16
#define VF_ISA_NAME "avx512"
#include "src/simd/wide_kernels.h"
#endif
