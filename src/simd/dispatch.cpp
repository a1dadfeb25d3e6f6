#include "src/simd/dispatch.h"

namespace vf::simd {

const KernelSet& scalar_kernels() {
  static const KernelSet set = {
      "scalar",
      dual_corr_decimate2_scalar,
      dual_corr_decimate2_ileave_scalar,
      complex_magnitude_scalar,
      select_by_magnitude_scalar,
      average_scalar,
      dual_corr_decimate2_ml_scalar,
      dual_corr_decimate2_ileave_ml_scalar,
      complex_magnitude_ml_scalar,
      select_by_magnitude_ml_scalar,
      analyze_mag_ml_scalar,
      select_synth_ml_scalar,
  };
  return set;
}

const KernelSet& simd_kernels() {
  static const KernelSet set = {
      "simd",
      dual_corr_decimate2_simd,
      dual_corr_decimate2_ileave_simd,
      complex_magnitude_simd,
      select_by_magnitude_simd,
      average_simd,
      dual_corr_decimate2_ml_simd,
      dual_corr_decimate2_ileave_ml_simd,
      complex_magnitude_ml_simd,
      select_by_magnitude_ml_simd,
      analyze_mag_ml_simd,
      select_synth_ml_simd,
  };
  return set;
}

const KernelSet& autovec_kernels() {
  static const KernelSet set = {
      "autovec",
      dual_corr_decimate2_autovec,
      dual_corr_decimate2_ileave_autovec,
      complex_magnitude_autovec,
      select_by_magnitude_autovec,
      average_autovec,
      dual_corr_decimate2_ml_autovec,
      dual_corr_decimate2_ileave_ml_autovec,
      complex_magnitude_ml_autovec,
      select_by_magnitude_ml_autovec,
      analyze_mag_ml_autovec,
      select_synth_ml_autovec,
  };
  return set;
}

const KernelSet& active_kernels() { return simd_kernels(); }

}  // namespace vf::simd
