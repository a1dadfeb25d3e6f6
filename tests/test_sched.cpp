// Scheduler behavior: the paper's crossovers and the adaptive router.
#include <gtest/gtest.h>

#include <iterator>
#include <stdexcept>
#include <string>

#include "src/sched/adaptive.h"
#include "src/sched/calibrate.h"

namespace {

using namespace vf;

TEST(FrameSweep, PaperSizesAndLabels) {
  const auto sizes = sched::paper_frame_sizes();
  ASSERT_EQ(sizes.size(), 5u);
  EXPECT_EQ(sizes.front().label(), "32x24");
  EXPECT_EQ(sizes.back().label(), "88x72");
}

TEST(FrameSweep, FramesAreDeterministicAndInRange) {
  const auto a = sched::make_sweep_frames({40, 40}, 2);
  const auto b = sched::make_sweep_frames({40, 40}, 2);
  ASSERT_EQ(a.size(), 2u);
  for (std::size_t f = 0; f < a.size(); ++f) {
    for (std::size_t i = 0; i < a[f].visible.size(); ++i) {
      EXPECT_EQ(a[f].visible.data()[i], b[f].visible.data()[i]);
      EXPECT_GE(a[f].visible.data()[i], 0.0f);
      EXPECT_LE(a[f].visible.data()[i], 1.0f);
    }
  }
  // Consecutive frames differ (the thermal target drifts).
  double diff = 0.0;
  for (std::size_t i = 0; i < a[0].thermal.size(); ++i) {
    diff += std::abs(a[0].thermal.data()[i] - a[1].thermal.data()[i]);
  }
  EXPECT_GT(diff, 1.0);
}

TEST(Probe, DeterministicModeledTimes) {
  sched::SerialBackend b1(sched::BackendKind::kNeon), b2(sched::BackendKind::kNeon);
  const auto r1 = sched::probe_backend(b1, {35, 35}, 2);
  const auto r2 = sched::probe_backend(b2, {35, 35}, 2);
  EXPECT_DOUBLE_EQ(r1.total.sec(), r2.total.sec());
  EXPECT_DOUBLE_EQ(r1.energy_mj, r2.energy_mj);
  EXPECT_GT(r1.forward.sec(), 0.0);
  EXPECT_GT(r1.inverse.sec(), 0.0);
}

TEST(Crossover, NeonWinsBelowFpgaWinsAbove) {
  // The paper's Fig. 9 break point sits between 35x35 and 40x40.
  sched::SerialBackend neon_s(sched::BackendKind::kNeon);
  sched::SerialBackend neon_l(sched::BackendKind::kNeon);
  sched::SerialBackend fpga_s(sched::BackendKind::kFpga);
  sched::SerialBackend fpga_l(sched::BackendKind::kFpga);
  const auto ns = sched::probe_backend(neon_s, {35, 35}, 4);
  const auto fs = sched::probe_backend(fpga_s, {35, 35}, 4);
  EXPECT_LT(ns.total.sec(), fs.total.sec()) << "NEON must win below the break point";
  const auto nl = sched::probe_backend(neon_l, {88, 72}, 4);
  const auto fl = sched::probe_backend(fpga_l, {88, 72}, 4);
  EXPECT_LT(fl.total.sec(), nl.total.sec()) << "FPGA must win above the break point";
}

TEST(Crossover, EnergyBreakPointIsLaterThanTimeBreakPoint) {
  // At 40x40 the FPGA already wins on time but its +19.2 mW static draw
  // keeps NEON ahead on energy (paper: energy break between 40x40 and 64x48).
  sched::SerialBackend neon40(sched::BackendKind::kNeon);
  sched::SerialBackend neon64(sched::BackendKind::kNeon);
  sched::SerialBackend fpga40(sched::BackendKind::kFpga);
  sched::SerialBackend fpga64(sched::BackendKind::kFpga);
  const auto n40 = sched::probe_backend(neon40, {40, 40}, 4);
  const auto f40 = sched::probe_backend(fpga40, {40, 40}, 4);
  EXPECT_LT(f40.total.sec(), n40.total.sec());
  EXPECT_LT(n40.energy_mj, f40.energy_mj);
  const auto n64 = sched::probe_backend(neon64, {64, 48}, 4);
  const auto f64 = sched::probe_backend(fpga64, {64, 48}, 4);
  EXPECT_LT(f64.energy_mj, n64.energy_mj);
}

TEST(Crossover, FpgaAndAdaptiveEnergyBeatArmAtFullFrame) {
  sched::SerialBackend arm(sched::BackendKind::kArm);
  sched::SerialBackend fpga(sched::BackendKind::kFpga);
  sched::SerialBackend adaptive(sched::BackendKind::kAdaptive);
  const auto ra = sched::probe_backend(arm, {88, 72}, 4);
  const auto rf = sched::probe_backend(fpga, {88, 72}, 4);
  const auto rx = sched::probe_backend(adaptive, {88, 72}, 4);
  EXPECT_LT(rf.energy_mj, ra.energy_mj);
  EXPECT_LT(rx.energy_mj, ra.energy_mj);
}

TEST(Adaptive, RoutesAllLinesToNeonBelowTheCrossover) {
  sched::SerialBackend backend(sched::BackendKind::kAdaptive);
  sched::probe_backend(backend, {32, 24}, 2);
  EXPECT_EQ(backend.router().lines_on_fpga(), 0);
  EXPECT_GT(backend.router().lines_on_simd(), 0);
}

TEST(Adaptive, RoutesLongLinesToFpgaAboveTheCrossover) {
  sched::SerialBackend backend(sched::BackendKind::kAdaptive);
  sched::probe_backend(backend, {88, 72}, 2);
  EXPECT_GT(backend.router().lines_on_fpga(), 0);
  // Deep-level short lines stay on NEON.
  EXPECT_GT(backend.router().lines_on_simd(), 0);
}

// One buffer-fit rule for every static engine model: a line request longer
// than the 2048-word kernel buffer is refused (4100 samples plus the filter
// halo), however the line reaches the engine; lines that fit still run.
// Adaptive routes such lines to NEON instead (next test).
TEST(Adaptive, OverLongLinesAreRefusedOnEveryEngineModel) {
  for (const sched::BackendKind kind :
       {sched::BackendKind::kFpga, sched::BackendKind::kFpgaBatched}) {
    const auto wide = sched::make_backend(kind, {});
    EXPECT_THROW(sched::probe_backend(*wide, {4100, 8}, 1), std::invalid_argument)
        << sched::backend_name(kind);
    const auto fits = sched::make_backend(kind, {});
    EXPECT_GT(sched::probe_backend(*fits, {2040, 8}, 1).total.sec(), 0.0)
        << sched::backend_name(kind);
  }
}

// Adaptive accepts every shape ARM accepts: a 2050-wide frame's level-0
// row lines (2050 samples plus the filter window) exceed the kernel buffer
// and run on NEON, while its deeper lines still reach the engine.
TEST(Adaptive, OverLongLinesDegradeToNeon) {
  sched::RunConfig all_fpga;
  all_fpga.adaptive_threshold_samples = 0;
  for (const sched::FrameSize size : {sched::FrameSize{2050, 8},
                                      sched::FrameSize{4100, 8}}) {
    sched::SerialBackend arm(sched::BackendKind::kArm);
    EXPECT_GT(sched::probe_backend(arm, size, 1).total.sec(), 0.0) << size.label();
    for (const sched::RunConfig& config : {sched::RunConfig{}, all_fpga}) {
      sched::SerialBackend adaptive(sched::BackendKind::kAdaptive, config);
      EXPECT_GT(sched::probe_backend(adaptive, size, 1).total.sec(), 0.0)
          << size.label();
      EXPECT_GT(adaptive.router().lines_on_simd(), 0) << size.label();
      EXPECT_GT(adaptive.router().lines_on_fpga(), 0) << size.label();
    }
  }
}

TEST(Adaptive, NeverWorseThanBestStaticAcrossTheSweep) {
  for (const sched::FrameSize& size : sched::paper_frame_sizes()) {
    sched::SerialBackend neon(sched::BackendKind::kNeon);
    sched::SerialBackend fpga(sched::BackendKind::kFpga);
    sched::SerialBackend adaptive(sched::BackendKind::kAdaptive);
    const auto rn = sched::probe_backend(neon, size, 2);
    const auto rf = sched::probe_backend(fpga, size, 2);
    const auto rx = sched::probe_backend(adaptive, size, 2);
    const double best = std::min(rn.total.sec(), rf.total.sec());
    EXPECT_LE(rx.total.sec(), best * 1.005) << size.label();
  }
}

TEST(Adaptive, BeatsStaticFpgaAtFullFrame) {
  sched::SerialBackend fpga(sched::BackendKind::kFpga);
  sched::SerialBackend adaptive(sched::BackendKind::kAdaptive);
  const auto rf = sched::probe_backend(fpga, {88, 72}, 2);
  const auto rx = sched::probe_backend(adaptive, {88, 72}, 2);
  EXPECT_LT(rx.total.sec(), rf.total.sec());
}

TEST(Adaptive, ThresholdExtremesMatchStaticEngines) {
  sched::RunConfig all_fpga;
  all_fpga.adaptive_threshold_samples = 0;
  sched::SerialBackend bx(sched::BackendKind::kAdaptive, all_fpga);
  sched::SerialBackend bf(sched::BackendKind::kFpga);
  const auto rx = sched::probe_backend(bx, {64, 48}, 2);
  const auto rf = sched::probe_backend(bf, {64, 48}, 2);
  EXPECT_NEAR(rx.forward.sec(), rf.forward.sec(), 1e-12);
  EXPECT_NEAR(rx.inverse.sec(), rf.inverse.sec(), 1e-12);

  sched::RunConfig all_neon;
  all_neon.adaptive_threshold_samples = 1 << 20;
  sched::SerialBackend bn(sched::BackendKind::kAdaptive, all_neon);
  sched::SerialBackend neon(sched::BackendKind::kNeon);
  const auto rn1 = sched::probe_backend(bn, {64, 48}, 2);
  const auto rn2 = sched::probe_backend(neon, {64, 48}, 2);
  EXPECT_NEAR(rn1.forward.sec(), rn2.forward.sec(), 1e-12);
}

TEST(Calibrate, PicksAMidRangeThreshold) {
  const auto cal =
      sched::calibrate_adaptive_threshold(sched::CrossoverMetric::kTotalTime, {}, 1);
  // All-FPGA and all-NEON must both lose to a mixed routing.
  EXPECT_GT(cal.best_threshold, 0);
  EXPECT_LT(cal.best_threshold, 1 << 20);
  ASSERT_EQ(cal.candidates.size(), cal.costs.size());
}

// --- paper sweep lock -------------------------------------------------------

// The serial Fig. 9/10 numbers (bench_paper's sweep) at 2 frames per cell,
// recorded with %.17g from the library while the adaptive configuration was
// still a backend class of its own. Compared bitwise: any change to the
// serial engine models, the router or the probe shows here first.
TEST(PaperSweep, ProbesMatchTheRecordedValuesBitwise) {
  const struct {
    int width, height;
    const char* backend;
    double prep, forward, fusion, inverse, total, energy_mj;
  } expected[] = {
      {32, 24, "ARM", 0.0017290806754221388, 0.03048465290806731, 0.0014467542213883675, 0.015363362101313447, 0.049023849906191262, 26.144419154971796},
      {32, 24, "NEON", 0.0017290806754221388, 0.027553861163226789, 0.0014467542213883675, 0.012999363001876192, 0.043729059061913489, 23.320707197718463},
      {32, 24, "FPGA", 0.0017290806754221388, 0.038523681500938302, 0.0014467542213883675, 0.019269680750469084, 0.060969197148217885, 33.685481424390382},
      {32, 24, "Adaptive", 0.0017290806754221388, 0.027553861163226789, 0.0014467542213883675, 0.012999363001876192, 0.043729059061913489, 24.160305131707204},
      {35, 35, "ARM", 0.0027579737335834899, 0.0515621463414642, 0.0024686679174484062, 0.025987602251407328, 0.082776390243903417, 44.144648917073688},
      {35, 35, "NEON", 0.0027579737335834899, 0.046559627767354707, 0.0024686679174484062, 0.021952542739211947, 0.073738812157598546, 39.324908523647302},
      {35, 35, "FPGA", 0.0027579737335834899, 0.050482522776735178, 0.0024686679174484062, 0.025257261388367525, 0.080966425816134599, 44.733950263414364},
      {35, 35, "Adaptive", 0.0027579737335834899, 0.046559627767354707, 0.0024686679174484062, 0.021952542739211947, 0.073738812157598546, 40.740693717073199},
      {40, 40, "ARM", 0.0036022514071294559, 0.062739212007504111, 0.0030140712945590999, 0.031621763602251413, 0.10097729831144409, 53.851193189493124},
      {40, 40, "NEON", 0.0036022514071294559, 0.056633395872420902, 0.0030140712945590999, 0.026696765478424065, 0.089946484052533526, 47.968459945216125},
      {40, 40, "FPGA", 0.0036022514071294559, 0.055298059287054321, 0.0030140712945590999, 0.027660229643527399, 0.089574611632270276, 49.489972926829324},
      {40, 40, "Adaptive", 0.0036022514071294559, 0.045894436022513731, 0.0030140712945590999, 0.022555569230769287, 0.075066327954971576, 41.474146195121797},
      {64, 48, "ARM", 0.0069163227016885553, 0.11958514071294701, 0.0057870168855534698, 0.060276712945590977, 0.19256519324578, 102.69501755797447},
      {64, 48, "NEON", 0.0069163227016885553, 0.10786197373358376, 0.0057870168855534698, 0.05082071654784269, 0.17138602986866847, 91.40016972896089},
      {64, 48, "FPGA", 0.0069163227016885553, 0.077782083001876154, 0.0057870168855534698, 0.03890672150093831, 0.1293921440900565, 71.489159609756214},
      {64, 48, "Adaptive", 0.0069163227016885553, 0.070401769906190736, 0.0057870168855534698, 0.034753212757973752, 0.11785832225140652, 65.116723043902098},
      {88, 72, "ARM", 0.014264915572232646, 0.24515242026266071, 0.011935722326454025, 0.12357475422138975, 0.39492781238273711, 210.61500234371368},
      {88, 72, "NEON", 0.014264915572232646, 0.22097338836773578, 0.011935722326454025, 0.1040717616510311, 0.35124578791745353, 187.31937869637795},
      {88, 72, "FPGA", 0.014264915572232646, 0.11216475857410459, 0.011935722326454025, 0.056095499287054311, 0.19446089575984557, 107.43964490731467},
      {88, 72, "Adaptive", 0.014264915572232646, 0.10756468232645043, 0.011935722326454025, 0.05347348652908053, 0.18723880675421761, 103.44944073170524},
  };
  const sched::BackendKind kinds[] = {sched::BackendKind::kArm,
                                      sched::BackendKind::kNeon,
                                      sched::BackendKind::kFpga,
                                      sched::BackendKind::kAdaptive};
  std::size_t i = 0;
  for (const sched::FrameSize& size : sched::paper_frame_sizes()) {
    for (const sched::BackendKind kind : kinds) {
      ASSERT_LT(i, std::size(expected));
      const auto& e = expected[i++];
      ASSERT_EQ(size.width, e.width);
      ASSERT_EQ(size.height, e.height);
      const auto backend = sched::make_backend(kind, sched::RunConfig{});
      ASSERT_STREQ(backend->name(), e.backend);
      const sched::ProbeResult r = sched::probe_backend(*backend, size, 2);
      const std::string cell = size.label() + " " + e.backend;
      EXPECT_EQ(r.prep.sec(), e.prep) << cell;
      EXPECT_EQ(r.forward.sec(), e.forward) << cell;
      EXPECT_EQ(r.fusion.sec(), e.fusion) << cell;
      EXPECT_EQ(r.inverse.sec(), e.inverse) << cell;
      EXPECT_EQ(r.total.sec(), e.total) << cell;
      EXPECT_EQ(r.energy_mj, e.energy_mj) << cell;
    }
  }
  EXPECT_EQ(i, std::size(expected));
}

// Fig. 2: on the ARM at the paper's full frame the forward and inverse
// DT-CWT dominate the fusion profile, the forward (two frames) most.
TEST(PaperSweep, TransformsDominateTheArmProfileAtFullFrame) {
  sched::SerialBackend arm(sched::BackendKind::kArm);
  const sched::ProbeResult r = sched::probe_backend(arm, {88, 72}, 2);
  EXPECT_GT((r.forward + r.inverse).sec(), 0.9 * r.total.sec());
  EXPECT_GT(r.forward, r.inverse);
}

TEST(PaperSweep, AdaptiveRouterCountsMatchTheRecordedValues) {
  const struct {
    int width, height;
    long long lines_on_fpga, lines_on_simd;
  } expected[] = {
      {32, 24, 0, 2352},
      {35, 35, 0, 3072},
      {40, 40, 1920, 1440},
      {64, 48, 3264, 1440},
      {88, 72, 5760, 960},
  };
  for (const auto& e : expected) {
    sched::SerialBackend adaptive(sched::BackendKind::kAdaptive);
    sched::probe_backend(adaptive, {e.width, e.height}, 2);
    EXPECT_EQ(adaptive.router().lines_on_fpga(), e.lines_on_fpga) << e.width;
    EXPECT_EQ(adaptive.router().lines_on_simd(), e.lines_on_simd) << e.width;
  }
}

}  // namespace
