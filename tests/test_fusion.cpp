// Behavior of the fusion rules (DT-CWT, plain DWT, Laplacian).
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "src/fusion/fuse.h"
#include "src/fusion/fused_plan.h"
#include "src/fusion/laplacian.h"
#include "src/hw/fixed_point.h"
#include "src/sched/adaptive.h"
#include "src/sched/pipeline.h"

namespace {

using namespace vf;
using image::ImageF;

double max_abs_diff(const ImageF& a, const ImageF& b) {
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    m = std::max(m, std::fabs(static_cast<double>(a.data()[i]) - b.data()[i]));
  }
  return m;
}

TEST(Fusion, FusingAFrameWithItselfReturnsTheFrame) {
  const auto pairs = sched::make_sweep_frames({40, 40}, 1);
  const ImageF& img = pairs[0].visible;
  dwt::ScalarLineFilter filter;
  const ImageF fused = fuse_frames(img, img, fusion::FuseConfig{}, filter);
  // Identical inputs -> selection is a no-op -> transform round trip.
  EXPECT_LT(max_abs_diff(img, fused), 1e-4);
}

TEST(Fusion, FusedFrameCarriesTargetAndSceneContent) {
  const auto pairs = sched::make_sweep_frames({88, 72}, 1);
  const ImageF& vis = pairs[0].visible;
  const ImageF& ir = pairs[0].thermal;
  dwt::ScalarLineFilter filter;
  const fusion::FusionOutcome outcome =
      fuse_frames_with_quality(vis, ir, fusion::FuseConfig{}, filter);
  // The fused frame must be more informative about BOTH inputs than either
  // input is about the other.
  const double cross = image::mutual_information(vis, ir);
  EXPECT_GT(image::mutual_information(outcome.fused, vis), cross);
  EXPECT_GT(image::mutual_information(outcome.fused, ir), cross);
  EXPECT_GT(outcome.quality.qabf, 0.3);
  EXPECT_GT(outcome.quality.entropy_fused, 3.0);
}

TEST(Fusion, DwtBaselineRunsAndPreservesSelfFusion) {
  const auto pairs = sched::make_sweep_frames({35, 35}, 1);
  const ImageF& img = pairs[0].visible;
  dwt::ScalarLineFilter filter;
  const ImageF fused = fuse_frames_dwt(img, img, fusion::FuseConfig{}, filter);
  EXPECT_LT(max_abs_diff(img, fused), 1e-4);
}

TEST(Fusion, DtcwtUsesFourTimesTheDwtTransformWork) {
  const auto pairs = sched::make_sweep_frames({64, 48}, 1);
  dwt::ScalarLineFilter f_dwt, f_dtcwt;
  fuse_frames_dwt(pairs[0].visible, pairs[0].thermal, fusion::FuseConfig{}, f_dwt);
  fuse_frames(pairs[0].visible, pairs[0].thermal, fusion::FuseConfig{}, f_dtcwt);
  EXPECT_EQ(4 * f_dwt.stats().total_macs(), f_dtcwt.stats().total_macs());
}

TEST(Fusion, LaplacianSelfFusionIsNearIdentity) {
  const auto pairs = sched::make_sweep_frames({40, 40}, 1);
  const ImageF& img = pairs[0].visible;
  const ImageF fused =
      fusion::fuse_frames_laplacian(img, img, fusion::LaplacianFuseConfig{});
  // The Laplacian pyramid is exactly invertible when built/collapsed with the
  // same kernels; max-abs of identical inputs keeps the detail intact.
  EXPECT_LT(max_abs_diff(img, fused), 1e-4);
}

TEST(Fusion, BackendsProduceIdenticalFusedOutput) {
  const auto pairs = sched::make_sweep_frames({35, 35}, 1);
  ImageF reference;
  for (const sched::BackendKind kind :
       {sched::BackendKind::kArm, sched::BackendKind::kNeon,
        sched::BackendKind::kFpga, sched::BackendKind::kFpgaBatched,
        sched::BackendKind::kAdaptive}) {
    const auto backend = sched::make_backend(kind, sched::RunConfig{});
    sched::TimedFusionRunner runner(*backend);
    const auto r = runner.run_frame_pair(pairs[0].visible, pairs[0].thermal);
    if (kind == sched::BackendKind::kArm) reference = r.fused;
    EXPECT_EQ(0.0, max_abs_diff(reference, r.fused)) << backend->name();
  }
}

// Fusing frames of different shapes is a caller error, not undefined
// behaviour: every entry point throws std::invalid_argument — the plan
// (fuse_frames, the pipelined runner at any pool width) and the staged pass
// the non-splittable fixed-point filter takes.
TEST(Fusion, MismatchedFrameShapesAreRejected) {
  const ImageF big = sched::make_sweep_frames({88, 72}, 1)[0].visible;
  const ImageF small = sched::make_sweep_frames({64, 48}, 1)[0].thermal;
  const fusion::FuseConfig config;
  dwt::SimdLineFilter filter;
  EXPECT_THROW(fusion::fuse_frames(big, small, config, filter), std::invalid_argument);
  EXPECT_THROW(fusion::fuse_frames(small, big, config, filter), std::invalid_argument);
  hw::FixedPointLineFilter fixed({18, 15});
  EXPECT_THROW(fusion::fuse_frames(big, small, config, fixed), std::invalid_argument);

  std::vector<sched::FramePair> stream = sched::make_sweep_frames({88, 72}, 3);
  stream[1].thermal = small;
  for (int width : {1, 2}) {
    sched::RunConfig run;
    run.host.threads = width;
    sched::BatchedFpgaBackend backend(run);
    EXPECT_THROW(sched::run_pipelined(backend, stream), std::invalid_argument)
        << "threads=" << width;
  }

  dwt::TransformConfig flat;
  flat.levels = 0;
  EXPECT_THROW(dwt::FusionPlan(72, 88, flat), std::invalid_argument);
}

}  // namespace
