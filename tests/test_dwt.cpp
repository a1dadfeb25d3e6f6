// Perfect-reconstruction and structural tests for the DT-CWT core.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "src/common/rng.h"
#include "src/fusion/dwt_fusion.h"

namespace {

using namespace vf;
using image::ImageF;

ImageF random_image(int rows, int cols, std::uint64_t seed) {
  Rng rng(seed);
  ImageF img(rows, cols);
  for (std::size_t i = 0; i < img.size(); ++i) {
    img.data()[i] = rng.next_float(0.0f, 1.0f);
  }
  return img;
}

double max_abs_diff(const ImageF& a, const ImageF& b) {
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    m = std::max(m, std::fabs(static_cast<double>(a.data()[i]) - b.data()[i]));
  }
  return m;
}

// Single-level 1-D analysis+synthesis must be the identity for every bank
// and both trees.
TEST(FilterBank, SingleLevelPerfectReconstruction1D) {
  const dwt::Wavelet wavelets[] = {dwt::Wavelet::kLeGall53, dwt::Wavelet::kCdf97,
                                   dwt::Wavelet::kQshift14A, dwt::Wavelet::kQshift14B};
  for (dwt::Wavelet w : wavelets) {
    for (int delay : {0, 1}) {
      const dwt::FilterBank bank = dwt::make_filter_bank(w, delay);
      dwt::ScalarLineFilter filter;
      const int n = 64;
      Rng rng(42);
      std::vector<float> x(n), lo(n / 2), hi(n / 2), y(n);
      for (float& v : x) v = rng.next_float(-1.0f, 1.0f);
      std::vector<float> scratch;
      dwt::analyze_line(filter, bank, x.data(), n, lo.data(), hi.data(), scratch);
      dwt::synthesize_line(filter, bank, lo.data(), hi.data(), n, y.data(), scratch);
      for (int i = 0; i < n; ++i) {
        EXPECT_NEAR(x[i], y[i], 2e-5f)
            << dwt::wavelet_name(w) << " delay=" << delay << " i=" << i;
      }
    }
  }
}

TEST(FilterBank, RequiredSlotsMatchesFilterLengths) {
  EXPECT_EQ(dwt::required_slots(dwt::make_filter_bank(dwt::Wavelet::kLeGall53)), 5);
  EXPECT_EQ(dwt::required_slots(dwt::make_filter_bank(dwt::Wavelet::kCdf97)), 9);
  EXPECT_EQ(dwt::required_slots(dwt::make_filter_bank(dwt::Wavelet::kQshift14A)), 14);
  EXPECT_EQ(dwt::required_slots(dwt::make_filter_bank(dwt::Wavelet::kQshift14B)), 14);
}

TEST(Dtcwt, MultiLevelRoundTripUnderTolerance) {
  // The acceptance bound from the issue: max abs error < 1e-4 over random
  // frames through the full multi-level dual-tree transform.
  dwt::TransformConfig config;
  config.levels = 3;
  dwt::ScalarLineFilter filter;
  const ImageF img = random_image(72, 88, 7);
  const dwt::DtcwtPyramid pyr = dwt::forward_dtcwt(img, config, filter);
  const ImageF rec = dwt::inverse_dtcwt(pyr, config, filter);
  ASSERT_EQ(rec.rows(), img.rows());
  ASSERT_EQ(rec.cols(), img.cols());
  EXPECT_LT(max_abs_diff(img, rec), 1e-4);
}

TEST(Dtcwt, RoundTripOddSizesAndDeepLevels) {
  for (int levels : {1, 2, 3, 4}) {
    for (auto [rows, cols] : {std::pair{35, 35}, {24, 32}, {33, 47}}) {
      dwt::TransformConfig config;
      config.levels = levels;
      dwt::ScalarLineFilter filter;
      const ImageF img = random_image(rows, cols, 100 + levels);
      const dwt::DtcwtPyramid pyr = dwt::forward_dtcwt(img, config, filter);
      const ImageF rec = dwt::inverse_dtcwt(pyr, config, filter);
      EXPECT_LT(max_abs_diff(img, rec), 1e-4)
          << rows << "x" << cols << " levels=" << levels;
    }
  }
}

TEST(Dtcwt, Cdf97Level1RoundTrip) {
  dwt::TransformConfig config;
  config.level1 = dwt::Wavelet::kCdf97;
  dwt::ScalarLineFilter filter;
  const ImageF img = random_image(48, 64, 9);
  const ImageF rec =
      dwt::inverse_dtcwt(dwt::forward_dtcwt(img, config, filter), config, filter);
  EXPECT_LT(max_abs_diff(img, rec), 1e-4);
}

TEST(Dtcwt, SingleTreeRoundTrip) {
  dwt::TransformConfig config;
  dwt::ScalarLineFilter filter;
  const ImageF img = random_image(40, 40, 11);
  const dwt::TreePyramid pyr = dwt::forward_tree(img, config, 0, 0, filter);
  const ImageF rec = dwt::inverse_tree(pyr, config, 0, 0, filter);
  EXPECT_LT(max_abs_diff(img, rec), 1e-4);
}

TEST(Dtcwt, DualTreeCostsFourTimesTheDwt) {
  dwt::TransformConfig config;
  const ImageF img = random_image(40, 40, 13);
  dwt::ScalarLineFilter f1, f4;
  dwt::forward_tree(img, config, 0, 0, f1);
  dwt::forward_dtcwt(img, config, f4);
  EXPECT_EQ(4 * f1.stats().total_macs(), f4.stats().total_macs());
  EXPECT_EQ(4 * f1.stats().analysis_lines, f4.stats().analysis_lines);
}

TEST(Dtcwt, SimdFilterMatchesScalarBitExactly) {
  dwt::TransformConfig config;
  const ImageF img = random_image(35, 35, 17);
  dwt::ScalarLineFilter fs;
  dwt::SimdLineFilter fv;
  const dwt::DtcwtPyramid ps = dwt::forward_dtcwt(img, config, fs);
  const dwt::DtcwtPyramid pv = dwt::forward_dtcwt(img, config, fv);
  for (int t = 0; t < 4; ++t) {
    EXPECT_EQ(0.0, max_abs_diff(ps.tree[t].ll, pv.tree[t].ll)) << "tree " << t;
    for (std::size_t lv = 0; lv < ps.tree[t].levels.size(); ++lv) {
      EXPECT_EQ(0.0, max_abs_diff(ps.tree[t].levels[lv].hh,
                                  pv.tree[t].levels[lv].hh))
          << "tree " << t << " level " << lv;
    }
  }
}

}  // namespace
