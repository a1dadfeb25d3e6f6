// Clock, AXI transfer, and driver/accelerator model checks.
#include <gtest/gtest.h>

#include "src/hw/axi.h"
#include "src/hw/clock.h"
#include "src/hw/driver.h"

namespace {

using namespace vf;

TEST(Clock, Zc702Domains) {
  EXPECT_DOUBLE_EQ(hw::kPsHz, 533e6);
  EXPECT_DOUBLE_EQ(hw::kPlHz, 100e6);
  EXPECT_NEAR(hw::ps_cycles(533).us(), 1.0, 1e-9);
  EXPECT_NEAR(hw::pl_cycles(100).us(), 1.0, 1e-9);
}

TEST(Axi, GpPortCostsTwentyFiveCyclesPerWord) {
  EXPECT_DOUBLE_EQ(hw::gp_port_cycles(1), 25.0);
  EXPECT_DOUBLE_EQ(hw::gp_port_cycles(100), 2500.0);
}

TEST(Axi, AcpDmaBeatsGpPortForLinePayloads) {
  const auto gp_us = [](int words) {
    return hw::ps_cycles(hw::gp_port_cycles(words)).us();
  };
  const auto acp_us = [](int words) {
    return hw::pl_cycles(hw::acp_dma_cycles(words)).us();
  };
  // Despite the 5.3x slower clock, the DMA wins on every wavelet-line-sized
  // payload the pipeline ships.
  for (int words : {36, 102, 190, 2062, 6336}) {
    EXPECT_LT(acp_us(words), gp_us(words)) << words;
  }
  // And the advantage grows with payload size.
  const double r_small = gp_us(36) / acp_us(36);
  const double r_large = gp_us(6336) / acp_us(6336);
  EXPECT_GT(r_large, r_small);
  EXPECT_GT(r_large, 8.0);
}

TEST(Driver, DoubleBufferingHidesComputeBehindTransfers) {
  const hw::WaveletEngineConfig engine;
  driver::DriverCosts single;
  single.double_buffering = false;
  driver::DriverCosts dual;
  dual.double_buffering = true;
  driver::WaveletAccelerator a_single(engine, single);
  driver::WaveletAccelerator a_dual(engine, dual);
  const SimDuration t_single = a_single.line_time(102, 88, 2 * 44 + 14);
  const SimDuration t_dual = a_dual.line_time(102, 88, 2 * 44 + 14);
  EXPECT_LT(t_dual.sec(), t_single.sec());
  EXPECT_LT(a_dual.stall_time().sec(), a_single.stall_time().sec());
}

TEST(Driver, InterruptCompletionCostsMoreThanPollingForShortLines) {
  const hw::WaveletEngineConfig engine;
  driver::DriverCosts poll;
  driver::DriverCosts irq;
  irq.completion = driver::CompletionMode::kInterrupt;
  driver::WaveletAccelerator a_poll(engine, poll);
  driver::WaveletAccelerator a_irq(engine, irq);
  EXPECT_LT(a_poll.line_time(50, 36, 50).sec(), a_irq.line_time(50, 36, 50).sec());
}

TEST(Driver, GpPortTransferSlowsTheLineDown) {
  const hw::WaveletEngineConfig acp;
  hw::WaveletEngineConfig gp;
  gp.dma_enabled = false;
  const driver::DriverCosts costs;
  driver::WaveletAccelerator a_acp(acp, costs);
  driver::WaveletAccelerator a_gp(gp, costs);
  EXPECT_LT(a_acp.line_time(190, 176, 190).sec(), a_gp.line_time(190, 176, 190).sec());
}

TEST(Driver, LineCostDecompositionSumsToLineTime) {
  const hw::WaveletEngineConfig engine;
  const driver::DriverCosts costs;
  const driver::LineCost cost = driver::line_cost(engine, costs, 102, 88, 190.0);
  EXPECT_GT(cost.driver.sec(), 0.0);
  EXPECT_GT(cost.input.sec(), 0.0);
  EXPECT_GT(cost.compute.sec(), 0.0);
  EXPECT_GT(cost.output.sec(), 0.0);

  driver::WaveletAccelerator accel(engine, costs);
  const SimDuration total = accel.line_time(102, 88, 190.0);
  const SimDuration stall = cost.compute > cost.input
                                ? cost.compute - cost.input
                                : SimDuration::zero();
  EXPECT_DOUBLE_EQ(total.sec(),
                   (cost.driver + cost.input + stall + cost.output).sec());
  // The PS/PL split partitions the total exactly.
  EXPECT_DOUBLE_EQ(accel.last_line_ps_time().sec() + accel.last_line_pl_time().sec(),
                   total.sec());
  // ACP DMA path: only the driver entry is PS-resident.
  EXPECT_DOUBLE_EQ(accel.last_line_ps_time().sec(), cost.driver.sec());
}

TEST(Driver, GpPortTransfersArePsResident) {
  hw::WaveletEngineConfig engine;
  engine.dma_enabled = false;
  const driver::DriverCosts costs;
  driver::WaveletAccelerator accel(engine, costs);
  accel.line_time(102, 88, 190.0);
  const driver::LineCost cost = driver::line_cost(engine, costs, 102, 88, 190.0);
  EXPECT_DOUBLE_EQ(accel.last_line_ps_time().sec(),
                   (cost.driver + cost.input + cost.output).sec());
}

TEST(Driver, DefaultCostsMatchTheNamedConstants) {
  // Every driver charge is a named constant converted at its clock.
  driver::DriverCosts costs;  // polling completion
  EXPECT_EQ(driver::driver_call_time(costs),
            hw::ps_cycles(hw::cost::kDriverCallPsCycles) +
                hw::ps_cycles(hw::cost::kStatusPollPsCycles *
                              hw::cost::kExpectedPollsPerCall));
  costs.completion = driver::CompletionMode::kInterrupt;
  EXPECT_EQ(driver::driver_call_time(costs),
            hw::ps_cycles(hw::cost::kDriverCallPsCycles) +
                hw::ps_cycles(hw::cost::kIrqLatencyPsCycles));
  EXPECT_EQ(driver::sg_desc_build_time(),
            hw::ps_cycles(hw::cost::kSgDescBuildPsCycles));
  EXPECT_EQ(driver::sg_desc_fetch_time(),
            hw::pl_cycles(hw::cost::kSgDescFetchPlCycles));
  // II=2 engine schedule: pipeline fill of `slots`, then one pair per 2.
  EXPECT_DOUBLE_EQ(hw::cost::engine_compute_cycles(44, 14), 2.0 * 44 + 14);
}

TEST(Driver, AccumulatorsTrackLines) {
  driver::WaveletAccelerator accel({}, {});
  EXPECT_EQ(accel.lines(), 0);
  accel.line_time(102, 88, 100);
  accel.line_time(58, 44, 58);
  EXPECT_EQ(accel.lines(), 2);
}

}  // namespace
