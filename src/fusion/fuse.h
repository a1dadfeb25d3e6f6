// Coefficient-domain fusion of two frames (visible + thermal).
//
// The rule is the paper's maximum-magnitude selection: for every complex
// DT-CWT coefficient pair, keep the coefficient from whichever input frame
// has the larger magnitude (salient features win), and average the coarse
// lowpass residuals. The plain-DWT variant applies the same rule to real
// coefficients and exists for the algorithms ablation.
#pragma once

#include "src/fusion/dwt_fusion.h"
#include "src/image/metrics.h"

namespace vf::fusion {

struct FuseConfig {
  dwt::TransformConfig transform;
};

struct FusionOutcome {
  image::ImageF fused;
  image::FusionQuality quality;
};

// DT-CWT max-magnitude fusion (the paper's pipeline). All transform lines and
// fusion-rule kernels execute through `filter`, so backends can account
// modeled time and MACs. Runs the band-streaming dwt::FusionPlan when
// FusionPlan::applicable, else the staged forward_dtcwt -> fuse_pyramids ->
// inverse_dtcwt pass. Throws std::invalid_argument when a and b differ in
// shape.
image::ImageF fuse_frames(const image::ImageF& a, const image::ImageF& b,
                          const FuseConfig& config, dwt::LineFilter& filter);

FusionOutcome fuse_frames_with_quality(const image::ImageF& a, const image::ImageF& b,
                                       const FuseConfig& config,
                                       dwt::LineFilter& filter);

// Critically sampled single-tree DWT baseline.
image::ImageF fuse_frames_dwt(const image::ImageF& a, const image::ImageF& b,
                              const FuseConfig& config, dwt::LineFilter& filter);

// Fuses an already-computed pyramid pair into `out`: the fusion stage of the
// staged pass. Throws std::invalid_argument when the pyramids differ in
// shape (level count or any level's dims).
void fuse_pyramids(const dwt::DtcwtPyramid& a, const dwt::DtcwtPyramid& b,
                   dwt::DtcwtPyramid* out, dwt::LineFilter& filter);

}  // namespace vf::fusion
