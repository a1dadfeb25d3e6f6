#include "src/simd/dispatch.h"

namespace vf::simd {

// One KernelSet per instruction-set unit (wide_kernels.h).
namespace base {
const KernelSet& kernel_set();
}
#if defined(__x86_64__)
namespace avx2 {
const KernelSet& kernel_set();
}
namespace avx512 {
const KernelSet& kernel_set();
}
#endif

const KernelSet& scalar_kernels() {
  static const KernelSet set = {
      "scalar",
      "scalar",
      dual_corr_decimate2_scalar,
      dual_corr_decimate2_ileave_scalar,
      complex_magnitude_scalar,
      select_by_magnitude_scalar,
      average_scalar,
      dual_corr_decimate2_ml_scalar,
      dual_corr_decimate2_ileave_ml_scalar,
      analyze_mag_ml_scalar,
      select_synth_ml_scalar,
      analyze_rows_scalar,
      synthesize_rows_scalar,
      analyze_mag_cols_scalar,
      synthesize_cols_scalar,
  };
  return set;
}

const std::vector<const KernelSet*>& simd_kernel_sets() {
  // Resolved once, from the CPU's feature bits (which also reflect whether
  // the OS saves the wide registers).
  static const std::vector<const KernelSet*> sets = [] {
    std::vector<const KernelSet*> s;
#if defined(__x86_64__)
    __builtin_cpu_init();
    const bool avx2 = __builtin_cpu_supports("avx2");
    if (avx2 && __builtin_cpu_supports("avx512f")) s.push_back(&avx512::kernel_set());
    if (avx2) s.push_back(&avx2::kernel_set());
#endif
    s.push_back(&base::kernel_set());
    return s;
  }();
  return sets;
}

const KernelSet& simd_kernels() { return *simd_kernel_sets().front(); }

const KernelSet& active_kernels() { return simd_kernels(); }

const char* simd_isa_name() { return simd_kernels().isa; }

}  // namespace vf::simd
