// The study driver: the paper's three experimental phases over the
// (power cap × algorithm × dataset size) matrix — 288 configurations at
// full scope.
//
// For each (algorithm, size) the real kernel executes once on the host
// to characterize its work (the expensive part); the nine power caps
// are then evaluated on the package model.  Characterizations are
// memoized in-process and optionally on disk so the per-table bench
// binaries share them.
#pragma once

#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "core/algorithms.h"
#include "core/execution_sim.h"
#include "core/metrics.h"

namespace pviz::util {
class ExecutionContext;
}  // namespace pviz::util

namespace pviz::core {

/// Most visualization cycles one configuration may run.  repeatKernel
/// copies every phase once per cycle, so this bounds the memory and time
/// of one run; it is 100x the default.
inline constexpr int kMaxCycles = 1000;

struct StudyConfig {
  /// Processor power caps, default cap first (paper: 120 W → 40 W).
  std::vector<double> capsWatts = {120, 110, 100, 90, 80, 70, 60, 50, 40};
  /// Dataset sizes (cells per axis; paper: 32, 64, 128, 256).
  std::vector<vis::Id> sizes = {32, 64, 128, 256};
  AlgorithmParams params;
  /// Visualization cycles per configuration (the paper couples the
  /// filter to a running simulation and reports time over all cycles).
  int cycles = 10;
  /// Host-to-VTK-m work calibration (see scaleKernelWork): multiplies
  /// every characterized operation count so modeled runtimes land on
  /// the paper's scale (seconds, not milliseconds).  Leaves IPC, power
  /// draw and all ratios untouched.
  double workScale = 100.0;
  SimulatorOptions simulator;
  arch::MachineDescription machine =
      arch::MachineDescription::broadwellE52695v4();
  /// Optional on-disk characterization cache (empty = in-memory only).
  std::string cachePath;
};

/// One (algorithm, size, cap) study record.
struct ConfigRecord {
  Algorithm algorithm{};
  vis::Id size = 0;
  double capWatts = 0.0;
  Measurement measurement;
  Ratios ratios;  ///< against the default (first) cap of the same pair
};

/// Version of the characterization profile format and of the kernels
/// behind it.  Part of every work key: bump it when a kernel's profile
/// changes, and profiles cached by older code stop matching.
inline constexpr int kProfileSchemaVersion = 1;

/// The one key of a characterization: the schema version, the algorithm,
/// the size and every AlgorithmParams field except the advection
/// schedule (schedules are bit-identical by contract, so every schedule
/// maps to the same profile).  Whitespace-free, as the profile cache
/// format is token-separated.  It keys the Study memo, the on-disk
/// profile cache and the kernel part of the service result-cache key.
std::string workKey(Algorithm algorithm, vis::Id size,
                    const AlgorithmParams& params);

/// The study driver.  Safe to share across threads: the memoization maps
/// are lock-protected and a characterization in flight is joined by
/// concurrent requests for the same work key rather than rerun (the
/// service layer issues these from several request workers at once).
class Study {
 public:
  explicit Study(StudyConfig config = {});

  /// Characterize (run for real) `algorithm` on the `size`^3 dataset
  /// under `params`; memoized in-process and on disk under workKey.
  /// The returned profile covers a single visualization cycle.  If the
  /// context's token cancels mid-kernel the characterization throws
  /// util::CancelledError and leaves the memo and disk caches untouched
  /// (a later uncancelled call re-runs from scratch).
  const vis::KernelProfile& characterize(util::ExecutionContext& ctx,
                                         Algorithm algorithm, vis::Id size,
                                         const AlgorithmParams& params);
  /// Same, under the configured params.
  const vis::KernelProfile& characterize(util::ExecutionContext& ctx,
                                         Algorithm algorithm, vis::Id size) {
    return characterize(ctx, algorithm, size, config_.params);
  }

  /// One configuration under the configured params and cycle count.
  Measurement measure(util::ExecutionContext& ctx, Algorithm algorithm,
                      vis::Id size, double capWatts);

  /// All caps for one (algorithm, size); ratios are against caps[0].
  /// The kernel characterizes once under `params`, then every cap is
  /// evaluated on the package model, repeated for `cycles`.
  std::vector<ConfigRecord> capSweep(util::ExecutionContext& ctx,
                                     Algorithm algorithm, vis::Id size,
                                     const std::vector<double>& capsWatts,
                                     int cycles,
                                     const AlgorithmParams& params);
  /// Same, under the configured caps, cycle count and params.
  std::vector<ConfigRecord> capSweep(util::ExecutionContext& ctx,
                                     Algorithm algorithm, vis::Id size) {
    return capSweep(ctx, algorithm, size, config_.capsWatts, config_.cycles,
                    config_.params);
  }

  /// The dataset used for characterization at `size` (memoized).
  const vis::UniformGrid& dataset(vis::Id size);

  const StudyConfig& config() const { return config_; }

 private:
  StudyConfig config_;
  ExecutionSimulator simulator_;
  std::mutex datasetMutex_;  ///< guards datasets_ (incl. generation)
  std::map<vis::Id, std::unique_ptr<vis::UniformGrid>> datasets_;
  std::mutex profileMutex_;  ///< guards profiles_ and inFlight_
  std::condition_variable profileReady_;
  std::map<std::string, vis::KernelProfile> profiles_;  ///< by workKey
  std::set<std::string> inFlight_;  ///< keys being characterized right now
  std::mutex diskCacheMutex_;  ///< serializes the cache read-modify-write
};

/// Serialize/load characterization profiles (the on-disk cache format).
/// Saving is atomic: the cache is written to a temporary file in the same
/// directory and renamed into place, so a concurrent reader (another
/// bench binary or server worker sharing --cache) never sees a torn file.
void saveProfileCache(
    const std::string& path,
    const std::map<std::string, vis::KernelProfile>& entries);
std::map<std::string, vis::KernelProfile> loadProfileCache(
    const std::string& path);

}  // namespace pviz::core
