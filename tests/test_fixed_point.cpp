// Fixed-point format and datapath error bounds (ablation A7 machinery).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "src/common/rng.h"
#include "src/hw/fixed_point.h"
#include "src/fusion/fuse.h"
#include "src/image/metrics.h"
#include "src/sched/adaptive.h"

namespace {

using namespace vf;

TEST(FixedPointFormat, NamesAndRange) {
  const hw::FixedPointFormat fmt{18, 15};
  EXPECT_EQ(fmt.name(), "Q3.15");
  EXPECT_EQ(fmt.integer_bits(), 3);
  EXPECT_DOUBLE_EQ(fmt.step(), std::ldexp(1.0, -15));
  EXPECT_DOUBLE_EQ(fmt.min_value(), -4.0);
  EXPECT_NEAR(fmt.max_value(), 4.0, 2 * fmt.step());
}

TEST(FixedPointFormat, QuantizeRoundsAndSaturates) {
  const hw::FixedPointFormat fmt{12, 10};
  // Round to nearest step (step = 2^-10; 0.50049 sits above the midpoint).
  EXPECT_NEAR(fmt.quantize(0.50049), 513.0 * fmt.step(), 1e-12);
  EXPECT_NEAR(fmt.quantize(0.5002), 512.0 * fmt.step(), 1e-12);
  // Quantization error is at most half a step inside the range.
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.next_float(-1.9f, 1.9f);
    EXPECT_LE(std::fabs(fmt.quantize(v) - v), fmt.step() / 2 + 1e-12);
  }
  // Saturation at the rails.
  EXPECT_DOUBLE_EQ(fmt.quantize(100.0), fmt.max_value());
  EXPECT_DOUBLE_EQ(fmt.quantize(-100.0), fmt.min_value());
}

TEST(FixedPointFilter, RoundTripErrorBoundedByFormat) {
  // Full transform round trip through the fixed-point datapath: error should
  // be within a small multiple of the quantization step, per format.
  const auto pairs = sched::make_sweep_frames({40, 40}, 1);
  const image::ImageF& img = pairs[0].visible;
  dwt::TransformConfig config;
  for (const hw::FixedPointFormat fmt : {hw::FixedPointFormat{24, 18},
                                         hw::FixedPointFormat{18, 15},
                                         hw::FixedPointFormat{16, 12}}) {
    hw::FixedPointLineFilter filter(fmt);
    const auto pyr = dwt::forward_dtcwt(img, config, filter);
    const image::ImageF rec = dwt::inverse_dtcwt(pyr, config, filter);
    double max_err = 0.0;
    for (std::size_t i = 0; i < img.size(); ++i) {
      max_err = std::max(max_err,
                         std::fabs(static_cast<double>(img.data()[i]) - rec.data()[i]));
    }
    // Error accumulates over 2 * levels cascaded quantized filterings.
    EXPECT_LT(max_err, 60.0 * fmt.step()) << fmt.name();
    EXPECT_GT(max_err, 0.0) << fmt.name();  // quantization is real
  }
}

TEST(FixedPointFilter, FidelityImprovesWithWordWidth) {
  const auto pairs = sched::make_sweep_frames({40, 40}, 1);
  dwt::ScalarLineFilter float_filter;
  const fusion::FuseConfig config;
  const image::ImageF reference =
      fuse_frames(pairs[0].visible, pairs[0].thermal, config, float_filter);
  double last_psnr = 0.0;
  for (const hw::FixedPointFormat fmt :
       {hw::FixedPointFormat{12, 10}, hw::FixedPointFormat{18, 15},
        hw::FixedPointFormat{24, 18}}) {
    hw::FixedPointLineFilter filter(fmt);
    const image::ImageF fused =
        fuse_frames(pairs[0].visible, pairs[0].thermal, config, filter);
    const double p = image::psnr(reference, fused);
    EXPECT_GT(p, last_psnr) << fmt.name();
    last_psnr = p;
  }
  // 24-bit is effectively transparent.
  EXPECT_GT(last_psnr, 60.0);
}

// The fixed-point filter is not splittable, so fuse_frames takes the staged
// path: quantized per-line transforms, the fusion rule from kernels(). No
// float reference pins those bits, so an FNV-1a hash of the fused image's
// bytes, recorded from the library, does.
TEST(FixedPointFilter, FusedBitsMatchTheRecordedHash) {
  const auto pairs = sched::make_sweep_frames({40, 40}, 1);
  hw::FixedPointLineFilter filter(hw::FixedPointFormat{18, 15});
  const image::ImageF fused =
      fuse_frames(pairs[0].visible, pairs[0].thermal, fusion::FuseConfig{}, filter);
  ASSERT_EQ(fused.rows(), 40);
  ASSERT_EQ(fused.cols(), 40);
  std::uint64_t h = 1469598103934665603ull;
  const auto* bytes = reinterpret_cast<const unsigned char*>(fused.data());
  for (std::size_t i = 0; i < fused.size() * sizeof(float); ++i) {
    h ^= bytes[i];
    h *= 1099511628211ull;
  }
  EXPECT_EQ(h, 0xa833793f9a2a70a5ull);
}

}  // namespace
