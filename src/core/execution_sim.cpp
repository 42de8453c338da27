#include "core/execution_sim.h"

#include <algorithm>

#include "util/exec_context.h"

namespace pviz::core {

namespace {
/// The study's power sampling cadence: the paper reads RAPL every 100 ms.
constexpr double kSampleIntervalSeconds = 0.1;
}  // namespace

ExecutionSimulator::ExecutionSimulator(arch::MachineDescription machine,
                                       SimulatorOptions options)
    : model_(std::move(machine)), options_(options) {
  PVIZ_REQUIRE(options_.governorQuantumSeconds > 0.0,
               "governor quantum must be positive");
}

Measurement ExecutionSimulator::run(const vis::KernelProfile& kernel,
                                    double capWatts,
                                    util::CancelToken* cancel) {
  const arch::MachineDescription& m = machine();
  capWatts = std::clamp(capWatts, m.minCapWatts, m.tdpWatts);

  power::MsrFile msr;
  power::RaplDomain rapl(msr);
  rapl.setPowerCapWatts(capWatts);
  const double cap = rapl.powerCapWatts();  // as programmed (unit-rounded)

  power::DvfsGovernor governor(m);
  const auto freq0 = rapl.readFrequencyCounters();

  Measurement out;
  double simTime = 0.0;
  double weightedGhz = 0.0;
  double totalJoules = 0.0;
  telemetry::PowerSampler sampler(kSampleIntervalSeconds);

  // Quanta between cancellation polls inside a phase: a long phase at a
  // 5 ms quantum polls every ~5 simulated seconds, cheap and responsive.
  constexpr int kCancelPollQuanta = 1024;
  int quantaSincePoll = 0;

  for (const vis::WorkProfile& phase : kernel.phases) {
    if (cancel != nullptr) cancel->throwIfCancelled();
    sampler.beginPhase(phase.name);
    const power::PowerCurve curve = [&](double fGhz) {
      return model_.phasePower(phase, fGhz);
    };

    PhaseMeasurement pm;
    pm.name = phase.name;
    double phaseEnergy = 0.0;
    double phaseGhzWeighted = 0.0;
    double remaining = 1.0;  // fraction of the phase left

    while (remaining > 1e-12) {
      if (cancel != nullptr && ++quantaSincePoll >= kCancelPollQuanta) {
        quantaSincePoll = 0;
        cancel->throwIfCancelled();
      }
      const double fGhz = options_.idealGovernor
                              ? governor.solveFrequency(curve, cap)
                              : governor.stepToward(curve, cap);
      const arch::PhaseCost cost = model_.phaseCost(phase, fGhz);
      const double timeToFinish = remaining * cost.seconds;
      const double dt =
          std::min(options_.governorQuantumSeconds, timeToFinish);
      const double fractionDone = dt / cost.seconds;

      rapl.depositEnergy(cost.powerWatts * dt);
      rapl.tickFrequencyCounters(dt, fGhz, m.baseGhz);
      simTime += dt;
      totalJoules += cost.powerWatts * dt;
      sampler.advanceTo(simTime, totalJoules);

      pm.seconds += dt;
      phaseEnergy += cost.powerWatts * dt;
      phaseGhzWeighted += fGhz * dt;
      pm.instructions += cost.instructions * fractionDone;
      pm.llcMisses += cost.llcMisses * fractionDone;
      pm.llcReferences += cost.llcReferences * fractionDone;
      remaining -= fractionDone;
    }

    pm.averageWatts = pm.seconds > 0.0 ? phaseEnergy / pm.seconds : 0.0;
    pm.averageGhz = pm.seconds > 0.0 ? phaseGhzWeighted / pm.seconds : 0.0;
    weightedGhz += phaseGhzWeighted;

    out.seconds += pm.seconds;
    out.energyJoules += phaseEnergy;
    out.phases.push_back(std::move(pm));
  }

  const auto freq1 = rapl.readFrequencyCounters();
  out.effectiveGhz = power::RaplDomain::effectiveGhz(freq0, freq1, m.baseGhz);
  out.averageWatts = out.seconds > 0.0 ? out.energyJoules / out.seconds : 0.0;
  out.timeline = sampler.finish();

  double instructions = 0.0;
  double misses = 0.0;
  double refs = 0.0;
  for (const auto& pm : out.phases) {
    instructions += pm.instructions;
    misses += pm.llcMisses;
    refs += pm.llcReferences;
  }
  out.ipc = model_.referenceIpc(instructions, out.seconds);
  out.llcMissRate = refs > 0.0 ? misses / refs : 0.0;
  out.elementsPerSecond =
      out.seconds > 0.0
          ? static_cast<double>(kernel.elements) / out.seconds
          : 0.0;
  return out;
}

vis::KernelProfile scaleKernelWork(const vis::KernelProfile& kernel,
                                   double scale) {
  PVIZ_REQUIRE(scale > 0.0, "work scale must be positive");
  vis::KernelProfile out = kernel;
  for (auto& phase : out.phases) phase.scaleWork(scale);
  return out;
}

vis::KernelProfile repeatKernel(const vis::KernelProfile& kernel,
                                int cycles) {
  PVIZ_REQUIRE(cycles >= 1, "cycle count must be >= 1");
  vis::KernelProfile out;
  out.kernel = kernel.kernel;
  out.elements = kernel.elements * cycles;
  out.phases.reserve(kernel.phases.size() * static_cast<std::size_t>(cycles));
  for (int c = 0; c < cycles; ++c) {
    out.phases.insert(out.phases.end(), kernel.phases.begin(),
                      kernel.phases.end());
  }
  return out;
}

}  // namespace pviz::core
