// The wide kernels at the baseline width every build target has: 4-lane
// SSE2 on x86-64, NEON on ARM, portable blocked code elsewhere.
#define VF_ISA_NS base
#define VF_TARGET
#define VF_WIDTH 4
#if defined(__SSE2__)
#define VF_ISA_NAME "sse2"
#elif defined(__ARM_NEON) || defined(__ARM_NEON__)
#define VF_ISA_NAME "neon"
#else
#define VF_ISA_NAME "blocked"
#endif
#include "src/simd/wide_kernels.h"
