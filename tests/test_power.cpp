// Power model + sampled recorder methodology checks.
#include <gtest/gtest.h>

#include <cmath>

#include "src/common/timeline.h"
#include "src/power/recorder.h"

namespace {

using namespace vf;

TEST(PowerModel, OperatingPointsMatchThePaper) {
  const double arm = power::system_power_mw(power::ComputeMode::kArmOnly);
  const double neon = power::system_power_mw(power::ComputeMode::kArmNeon);
  const double fpga = power::system_power_mw(power::ComputeMode::kArmFpga);
  EXPECT_DOUBLE_EQ(arm, neon);  // NEON adds no measurable draw
  EXPECT_NEAR(fpga - arm, 19.2, 1e-9);
  // +19.2 mW is the paper's +3.6%.
  EXPECT_NEAR(100.0 * (fpga - arm) / arm, 3.6, 0.05);
}

TEST(PowerModel, EnergyIsPowerTimesTime) {
  const double mj =
      power::energy_mj(power::ComputeMode::kArmOnly, SimDuration::seconds(2));
  EXPECT_DOUBLE_EQ(mj, 2.0 * power::system_power_mw(power::ComputeMode::kArmOnly));
}

TEST(PowerRecorder, SampledIntegralTracksExactWithinOnePeriod) {
  power::PowerRecorder rec(SimDuration::milliseconds(1));
  rec.run_segment(power::ComputeMode::kArmFpga, SimDuration::seconds(1.0405));
  const double exact = rec.exact_energy_mj();
  const double sampled = rec.sampled_energy_mj();
  EXPECT_GT(exact, 0.0);
  // Error bounded by the tail (< one sampling period's worth of energy).
  EXPECT_LE(std::fabs(exact - sampled),
            power::system_power_mw(power::ComputeMode::kArmFpga) * 1e-3 + 1e-9);
  EXPECT_NEAR(sampled / exact, 1.0, 1e-3);
}

TEST(PowerRecorder, MixedSegmentsAccumulateBothIntegrals) {
  power::PowerRecorder rec(SimDuration::milliseconds(10));
  rec.run_segment(power::ComputeMode::kArmOnly, SimDuration::milliseconds(25));
  rec.run_segment(power::ComputeMode::kArmFpga, SimDuration::milliseconds(35));
  const double expected_exact =
      power::system_power_mw(power::ComputeMode::kArmOnly) * 0.025 +
      power::system_power_mw(power::ComputeMode::kArmFpga) * 0.035;
  EXPECT_NEAR(rec.exact_energy_mj(), expected_exact, 1e-9);
  // 6 full periods sampled: 2 idle + 4 active (sample at each boundary).
  EXPECT_GT(rec.sampled_energy_mj(), 0.0);
  EXPECT_NEAR(rec.sampled_energy_mj(), expected_exact,
              power::system_power_mw(power::ComputeMode::kArmFpga) * 0.010);
}

TEST(PowerRecorder, ConcurrentPsAndPlChargeTheEngineDrawOnce) {
  // PS and PL fully overlapped for 10 ms: the system must draw
  // system + 19.2 mW once — not 2x the system draw (naive per-resource
  // integration) and not +2x19.2 (naive per-event mode charging).
  Timeline tl;
  const ResourceId ps = tl.add_resource("PS core");
  const ResourceId pl = tl.add_resource("PL engine");
  tl.schedule(ps, "fusion", SimDuration::zero(), SimDuration::milliseconds(10));
  tl.schedule(pl, "fwd", SimDuration::zero(), SimDuration::milliseconds(10));

  power::PowerRecorder rec(SimDuration::milliseconds(1));
  rec.run_timeline(tl, {ps, pl});
  const double expected =
      power::system_power_mw(power::ComputeMode::kArmFpga) * 0.010;
  EXPECT_NEAR(rec.exact_energy_mj(), expected, 1e-9);
}

TEST(PowerRecorder, TimelineIntegrationChargesIdleGapsAtIdleDraw) {
  // PS busy [0,20) ms, PL busy only [5,15) ms: the engine's net draw is
  // charged for the 10 ms the PL is active, the base system draw for all 20.
  Timeline tl;
  const ResourceId ps = tl.add_resource("PS core");
  const ResourceId pl = tl.add_resource("PL engine");
  tl.schedule(ps, "cpu", SimDuration::zero(), SimDuration::milliseconds(20));
  tl.schedule(pl, "fwd", SimDuration::milliseconds(5), SimDuration::milliseconds(10));

  power::PowerRecorder rec(SimDuration::milliseconds(1));
  rec.run_timeline(tl, {pl});
  const double expected = power::system_power_mw(power::ComputeMode::kArmOnly) * 0.020 +
                          hw::cost::kPlEngineNetMw * 0.010;
  EXPECT_NEAR(rec.exact_energy_mj(), expected, 1e-9);
  // The sampled integral tracks within one sampling period's energy (FP
  // accumulation in the sample-and-hold loop can defer the last boundary).
  EXPECT_NEAR(rec.sampled_energy_mj(), expected,
              power::system_power_mw(power::ComputeMode::kArmFpga) * 1e-3 + 1e-9);
}

TEST(PowerRecorder, TimelineIntegrationIsDeterministic) {
  // ctest runs suites with -j; the integration is a pure function of the
  // timeline, so two identical replays must agree bit-for-bit.
  auto integrate = [] {
    Timeline tl;
    const ResourceId pl = tl.add_resource("PL");
    for (int i = 0; i < 50; ++i) {
      tl.schedule(pl, "e", SimDuration::microseconds(i * 37),
                  SimDuration::microseconds(11 + i % 7));
    }
    power::PowerRecorder rec(SimDuration::milliseconds(1));
    rec.run_timeline(tl, {pl});
    return rec.exact_energy_mj();
  };
  EXPECT_EQ(integrate(), integrate());
}

}  // namespace
