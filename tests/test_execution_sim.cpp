// Execution simulator tests: kernels replayed on the modeled package
// under RAPL caps.
#include <gtest/gtest.h>

#include "core/execution_sim.h"

namespace pviz::core {
namespace {

vis::KernelProfile computeBound() {
  vis::KernelProfile k;
  k.kernel = "compute";
  k.elements = 1000000;
  vis::WorkProfile& p = k.addPhase("hot");
  p.flops = 4e10;
  p.intOps = 1.5e10;
  p.memOps = 1e10;
  p.bytesReused = 5e8;
  p.workingSetBytes = 1e6;
  p.parallelFraction = 0.99;
  p.overlap = 0.7;
  return k;
}

vis::KernelProfile memoryBound() {
  vis::KernelProfile k;
  k.kernel = "memory";
  k.elements = 1000000;
  vis::WorkProfile& p = k.addPhase("stream");
  p.flops = 5e8;
  p.intOps = 2e9;
  p.memOps = 2e9;
  p.bytesStreamed = 3e10;
  p.parallelFraction = 0.99;
  p.overlap = 0.9;
  return k;
}

TEST(ExecutionSim, UncappedRunMatchesCostModelAtTurbo) {
  ExecutionSimulator sim;
  const auto kernel = computeBound();
  const Measurement m = sim.run(kernel, 120.0);
  const arch::KernelCost reference =
      sim.costModel().kernelCost(kernel, sim.machine().turboAllCoreGhz);
  EXPECT_NEAR(m.seconds, reference.seconds, reference.seconds * 0.02);
  EXPECT_NEAR(m.effectiveGhz, sim.machine().turboAllCoreGhz, 0.01);
}

TEST(ExecutionSim, EnergyEqualsPowerTimesTime) {
  ExecutionSimulator sim;
  const Measurement m = sim.run(memoryBound(), 100.0);
  EXPECT_NEAR(m.energyJoules, m.averageWatts * m.seconds,
              m.energyJoules * 1e-9);
  EXPECT_GT(m.energyJoules, 0.0);
}

TEST(ExecutionSim, SampledPowerAgreesWithAccountedPower) {
  ExecutionSimulator sim;
  // A long kernel gets plenty of 100 ms samples.
  const Measurement m = sim.run(repeatKernel(memoryBound(), 20), 120.0);
  ASSERT_GT(m.timeline.size(), 5u);
  // Mean of the full-interval samples (the trailing flush may be short).
  double sum = 0.0;
  int full = 0;
  double previous = 0.0;
  for (const auto& sample : m.timeline) {
    if (sample.timeSeconds - previous >= 0.1 - 1e-9) {
      sum += sample.watts;
      ++full;
    }
    previous = sample.timeSeconds;
  }
  ASSERT_GT(full, 5);
  EXPECT_NEAR(sum / full, m.averageWatts, m.averageWatts * 0.05);
}

TEST(ExecutionSim, CapThrottlesComputeKernels) {
  ExecutionSimulator sim;
  const auto kernel = computeBound();
  const Measurement free = sim.run(kernel, 120.0);
  const Measurement capped = sim.run(kernel, 50.0);
  EXPECT_LT(capped.effectiveGhz, free.effectiveGhz - 0.3);
  EXPECT_GT(capped.seconds, free.seconds * 1.2);
  // The cap is honored (within the stepwise controller's settle band).
  EXPECT_LE(capped.averageWatts, 53.0);
}

TEST(ExecutionSim, MemoryKernelsShrugOffModerateCaps) {
  ExecutionSimulator sim;
  const auto kernel = memoryBound();
  const Measurement free = sim.run(kernel, 120.0);
  const Measurement capped = sim.run(kernel, 70.0);
  EXPECT_LT(capped.seconds / free.seconds, 1.05);
}

TEST(ExecutionSim, TratioNeverExceedsPratioForTheStudyKernels) {
  ExecutionSimulator sim;
  for (const auto& kernel : {computeBound(), memoryBound()}) {
    const Measurement base = sim.run(kernel, 120.0);
    for (double cap : {90.0, 70.0, 50.0, 40.0}) {
      const Measurement capped = sim.run(kernel, cap);
      const double tRatio = capped.seconds / base.seconds;
      const double pRatio = 120.0 / cap;
      ASSERT_LE(tRatio, pRatio * 1.05)
          << kernel.kernel << " at " << cap << "W";
    }
  }
}

TEST(ExecutionSim, CapsAreClampedToTheRaplRange) {
  ExecutionSimulator sim;
  const auto kernel = memoryBound();
  const Measurement low = sim.run(kernel, 5.0);     // clamps to 40 W
  const Measurement floor = sim.run(kernel, 40.0);
  EXPECT_NEAR(low.seconds, floor.seconds, floor.seconds * 1e-6);
}

TEST(ExecutionSim, IdealAndStepwiseGovernorsAgreeOnLongRuns) {
  SimulatorOptions ideal;
  ideal.idealGovernor = true;
  ExecutionSimulator simIdeal(arch::MachineDescription::broadwellE52695v4(),
                              ideal);
  ExecutionSimulator simStep;
  const auto kernel = repeatKernel(computeBound(), 4);
  const Measurement a = simIdeal.run(kernel, 60.0);
  const Measurement b = simStep.run(kernel, 60.0);
  EXPECT_NEAR(a.seconds, b.seconds, a.seconds * 0.05);
  EXPECT_NEAR(a.effectiveGhz, b.effectiveGhz, 0.1);
}

TEST(ExecutionSim, PhaseMeasurementsSumToTotal) {
  ExecutionSimulator sim;
  vis::KernelProfile kernel = computeBound();
  kernel.phases.push_back(memoryBound().phases.front());
  const Measurement m = sim.run(kernel, 80.0);
  ASSERT_EQ(m.phases.size(), 2u);
  EXPECT_NEAR(m.phases[0].seconds + m.phases[1].seconds, m.seconds, 1e-9);
  EXPECT_EQ(m.phases[0].name, "hot");
  EXPECT_EQ(m.phases[1].name, "stream");
  for (const auto& phase : m.phases) {
    ASSERT_GT(phase.instructions, 0.0);
    ASSERT_GT(phase.averageWatts, 0.0);
    ASSERT_GT(phase.averageGhz, 0.0);
  }
}

TEST(ExecutionSim, IpcAndMissRateAreDerivedConsistently) {
  ExecutionSimulator sim;
  const Measurement m = sim.run(memoryBound(), 120.0);
  double instructions = 0.0;
  for (const auto& phase : m.phases) instructions += phase.instructions;
  EXPECT_NEAR(m.ipc, sim.costModel().referenceIpc(instructions, m.seconds),
              1e-9);
  EXPECT_GT(m.llcMissRate, 0.0);
  EXPECT_LE(m.llcMissRate, 1.0);
  EXPECT_GT(m.elementsPerSecond, 0.0);
}

TEST(RepeatKernel, MultipliesPhasesAndElements) {
  const auto once = computeBound();
  const auto thrice = repeatKernel(once, 3);
  EXPECT_EQ(thrice.phases.size(), 3u);
  EXPECT_EQ(thrice.elements, once.elements * 3);
  EXPECT_EQ(thrice.kernel, once.kernel);
  EXPECT_THROW(repeatKernel(once, 0), Error);

  ExecutionSimulator sim;
  const Measurement one = sim.run(once, 120.0);
  const Measurement three = sim.run(thrice, 120.0);
  EXPECT_NEAR(three.seconds, 3.0 * one.seconds, one.seconds * 0.05);
}

// Property: time under a cap is monotone — lower caps never speed
// kernels up.
class CapMonotonicity : public ::testing::TestWithParam<int> {};

TEST_P(CapMonotonicity, TimeIsNonDecreasingAsCapsDrop) {
  ExecutionSimulator sim;
  const auto kernel =
      GetParam() == 0 ? computeBound() : memoryBound();
  double lastSeconds = 0.0;
  for (double cap = 120.0; cap >= 40.0; cap -= 10.0) {
    const Measurement m = sim.run(kernel, cap);
    ASSERT_GE(m.seconds, lastSeconds * 0.995) << "cap " << cap;
    lastSeconds = std::max(lastSeconds, m.seconds);
  }
}

INSTANTIATE_TEST_SUITE_P(Kernels, CapMonotonicity, ::testing::Values(0, 1));

}  // namespace
}  // namespace pviz::core
