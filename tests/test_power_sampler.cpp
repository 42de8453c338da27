// PowerSampler tests: interval emission, interpolation, the trailing
// partial flush, and the timeline the execution simulator attaches to
// every Measurement (the paper-style power-over-time trajectory).
#include <gtest/gtest.h>

#include <cmath>

#include "core/execution_sim.h"
#include "telemetry/power_sampler.h"
#include "util/error.h"

namespace {

using namespace pviz;
using telemetry::PowerSample;
using telemetry::PowerSampler;

TEST(PowerSampler, RejectsNonPositiveInterval) {
  EXPECT_THROW(PowerSampler(0.0), pviz::Error);
  EXPECT_THROW(PowerSampler(-0.1), pviz::Error);
}

TEST(PowerSampler, EmitsOneSamplePerBoundaryCrossed) {
  PowerSampler sampler(0.1);
  sampler.beginPhase("hot");
  // One big step at constant 50 W crossing 10 boundaries exactly.
  sampler.advanceTo(1.0, 50.0);
  const auto timeline = sampler.finish();
  ASSERT_EQ(timeline.size(), 10u);
  for (std::size_t i = 0; i < timeline.size(); ++i) {
    const PowerSample& s = timeline[i];
    EXPECT_NEAR(s.timeSeconds, 0.1 * static_cast<double>(i + 1), 1e-12);
    EXPECT_NEAR(s.watts, 50.0, 1e-9);
    EXPECT_NEAR(s.joules, 5.0 * static_cast<double>(i + 1), 1e-9);
    EXPECT_EQ(s.phase, "hot");
  }
}

// The simulator's use: one advanceTo per 5 ms governor quantum.
TEST(PowerSampler, ConstantLoadReadsConstantPower) {
  PowerSampler sampler(0.1);
  const double watts = 73.0;
  const double dt = 0.005;
  for (int quantum = 0; quantum < 200; ++quantum) {
    sampler.advanceTo(static_cast<double>(quantum + 1) * dt,
                      watts * dt * static_cast<double>(quantum + 1));
  }
  const auto timeline = sampler.finish();
  ASSERT_EQ(timeline.size(), 10u);  // 1 s at 100 ms cadence
  for (const PowerSample& s : timeline) {
    EXPECT_NEAR(s.watts, watts, 1e-6) << "at t=" << s.timeSeconds;
  }
  EXPECT_NEAR(timeline.back().joules, watts, 1e-9);
}

TEST(PowerSampler, DetectsAStepInPower) {
  PowerSampler sampler(0.1);
  double joules = 0.0;
  for (int quantum = 0; quantum < 100; ++quantum) {
    joules += (quantum < 50 ? 40.0 : 90.0) * 0.01;
    sampler.advanceTo(static_cast<double>(quantum + 1) * 0.01, joules);
  }
  const auto timeline = sampler.finish();
  ASSERT_EQ(timeline.size(), 10u);
  for (std::size_t i = 0; i < timeline.size(); ++i) {
    EXPECT_NEAR(timeline[i].watts, i < 5 ? 40.0 : 90.0, 1e-6)
        << "sample " << i;
  }
}

TEST(PowerSampler, InterpolatesInsideASimulationStep) {
  PowerSampler sampler(0.1);
  // 80 W for 0.05 s, then 40 W for 0.10 s: the first boundary (0.1 s)
  // falls inside the second step, so its energy is interpolated.
  sampler.advanceTo(0.05, 4.0);
  sampler.advanceTo(0.15, 8.0);
  const auto timeline = sampler.finish();
  ASSERT_EQ(timeline.size(), 2u);
  // At 0.1 s: 4 J from the first step + half of the second step's 4 J.
  EXPECT_NEAR(timeline[0].joules, 6.0, 1e-9);
  EXPECT_NEAR(timeline[0].watts, 60.0, 1e-9);
  // finish() flushes the 0.05 s tail: total must be the full 8 J.
  EXPECT_NEAR(timeline[1].timeSeconds, 0.15, 1e-12);
  EXPECT_NEAR(timeline[1].joules, 8.0, 1e-9);
  EXPECT_NEAR(timeline[1].watts, 40.0, 1e-9);
}

TEST(PowerSampler, PhaseTagsFollowBeginPhase) {
  PowerSampler sampler(0.1);
  sampler.beginPhase("a");
  sampler.advanceTo(0.2, 2.0);
  sampler.beginPhase("b");
  sampler.advanceTo(0.4, 4.0);
  const auto timeline = sampler.finish();
  ASSERT_EQ(timeline.size(), 4u);
  EXPECT_EQ(timeline[0].phase, "a");
  EXPECT_EQ(timeline[1].phase, "a");
  EXPECT_EQ(timeline[2].phase, "b");
  EXPECT_EQ(timeline[3].phase, "b");
}

TEST(PowerSampler, FinishFlushesTrailingPartialInterval) {
  PowerSampler sampler(0.1);
  sampler.advanceTo(0.25, 10.0);
  const auto timeline = sampler.finish();
  ASSERT_EQ(timeline.size(), 3u);  // 0.1, 0.2, and the 0.25 tail
  EXPECT_NEAR(timeline.back().timeSeconds, 0.25, 1e-12);
  EXPECT_NEAR(timeline.back().joules, 10.0, 1e-9);
}

TEST(PowerSampler, ShortRunStillProducesAFinalSample) {
  PowerSampler sampler(0.1);
  sampler.advanceTo(0.03, 1.5);
  const auto timeline = sampler.finish();
  ASSERT_EQ(timeline.size(), 1u);
  EXPECT_NEAR(timeline[0].timeSeconds, 0.03, 1e-12);
  EXPECT_NEAR(timeline[0].joules, 1.5, 1e-9);
  EXPECT_NEAR(timeline[0].watts, 50.0, 1e-9);
}

// --- integration with the execution simulator -----------------------

core::ExecutionSimulator makeSim() { return core::ExecutionSimulator(); }

vis::KernelProfile longKernel() {
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

TEST(MeasurementTimeline, SampleCountMatchesRuntimeOverCadence) {
  auto sim = makeSim();
  const core::Measurement m =
      sim.run(core::repeatKernel(longKernel(), 10), 120.0);
  ASSERT_FALSE(m.timeline.empty());
  // One sample per 100 ms plus at most one trailing partial.
  const auto expected =
      static_cast<std::size_t>(std::floor(m.seconds / 0.1));
  EXPECT_GE(m.timeline.size(), expected);
  EXPECT_LE(m.timeline.size(), expected + 1);
  // Timestamps are strictly increasing and end at the total runtime.
  for (std::size_t i = 1; i < m.timeline.size(); ++i) {
    EXPECT_GT(m.timeline[i].timeSeconds, m.timeline[i - 1].timeSeconds);
  }
  EXPECT_NEAR(m.timeline.back().timeSeconds, m.seconds, 1e-9);
}

TEST(MeasurementTimeline, EnergyIntegralMatchesTotal) {
  auto sim = makeSim();
  const core::Measurement m = sim.run(longKernel(), 80.0);
  ASSERT_FALSE(m.timeline.empty());
  // Cumulative joules are non-decreasing and the last sample equals the
  // run's total energy exactly (the finish() flush guarantee).
  double last = 0.0;
  double integrated = 0.0;
  double lastTime = 0.0;
  for (const PowerSample& s : m.timeline) {
    EXPECT_GE(s.joules, last);
    integrated += s.watts * (s.timeSeconds - lastTime);
    last = s.joules;
    lastTime = s.timeSeconds;
  }
  EXPECT_DOUBLE_EQ(m.timeline.back().joules, m.energyJoules);
  // Integrating mean watts over the intervals reproduces the total.
  EXPECT_NEAR(integrated, m.energyJoules,
              std::max(1e-9, m.energyJoules * 1e-6));
}

TEST(MeasurementTimeline, PhaseTagsCoverEveryKernelPhase) {
  auto sim = makeSim();
  vis::KernelProfile kernel = longKernel();
  vis::WorkProfile& second = kernel.addPhase("hot");
  second.flops = 4e10;
  second.intOps = 1.5e10;
  second.memOps = 1e10;
  second.bytesReused = 5e8;
  second.workingSetBytes = 1e6;
  second.parallelFraction = 0.99;
  second.overlap = 0.7;
  const core::Measurement m = sim.run(kernel, 120.0);
  bool sawStream = false;
  bool sawHot = false;
  for (const PowerSample& s : m.timeline) {
    if (s.phase == "stream") sawStream = true;
    if (s.phase == "hot") sawHot = true;
  }
  EXPECT_TRUE(sawStream);
  EXPECT_TRUE(sawHot);
}

TEST(MeasurementTimeline, DeterministicAcrossRuns) {
  auto sim = makeSim();
  const auto kernel = longKernel();
  const core::Measurement a = sim.run(kernel, 70.0);
  const core::Measurement b = sim.run(kernel, 70.0);
  ASSERT_EQ(a.timeline.size(), b.timeline.size());
  for (std::size_t i = 0; i < a.timeline.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.timeline[i].timeSeconds, b.timeline[i].timeSeconds);
    EXPECT_DOUBLE_EQ(a.timeline[i].watts, b.timeline[i].watts);
    EXPECT_DOUBLE_EQ(a.timeline[i].joules, b.timeline[i].joules);
    EXPECT_EQ(a.timeline[i].phase, b.timeline[i].phase);
  }
}

}  // namespace
