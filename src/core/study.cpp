#include "core/study.h"

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "sim/cloverleaf.h"
#include "util/exec_context.h"
#include "util/log.h"

namespace pviz::core {

namespace {

std::string cacheKey(Algorithm algorithm, vis::Id size,
                     const AlgorithmParams& p) {
  std::ostringstream os;
  // Whitespace-free (the cache format is token-separated).
  os << "alg" << static_cast<int>(algorithm) << '|' << size << '|' << p.isovalueCount
     << '|' << p.seedCount << '|' << p.maxSteps << '|' << p.cameraCount
     << '|' << p.imageWidth << 'x' << p.imageHeight << '|' << p.advectionMode;
  // Decomposition changes the profile (ghost-exchange / block-stitch
  // phases), so it is part of the key; the execution backend is not
  // (outputs and profiles are backend-invariant).
  os << "|b" << p.blockCount << "g" << p.ghostLayers;
  return os.str();
}

}  // namespace

Study::Study(StudyConfig config)
    : config_(std::move(config)),
      simulator_(config_.machine, config_.simulator) {
  PVIZ_REQUIRE(!config_.capsWatts.empty(), "study needs at least one cap");
  PVIZ_REQUIRE(!config_.sizes.empty(), "study needs at least one size");
  PVIZ_REQUIRE(config_.cycles >= 1, "study needs at least one cycle");
}

const vis::UniformGrid& Study::dataset(vis::Id size) {
  // One lock spans lookup and generation: concurrent requests for the
  // same size wait for the single generation instead of racing it.
  std::lock_guard lock(datasetMutex_);
  auto it = datasets_.find(size);
  if (it == datasets_.end()) {
    PVIZ_LOG_INFO("generating " << size << "^3 clover dataset");
    it = datasets_
             .emplace(size, std::make_unique<vis::UniformGrid>(
                                sim::makeCloverField(size)))
             .first;
  }
  return *it->second;
}

const vis::KernelProfile& Study::characterize(util::ExecutionContext& ctx,
                                              Algorithm algorithm,
                                              vis::Id size) {
  const ProfileKey key{static_cast<int>(algorithm), size};

  // Claim the key or join a characterization already in flight.
  // profiles_ is a node-based map, so returned references stay valid
  // while other threads insert.
  {
    std::unique_lock lock(profileMutex_);
    for (;;) {
      auto it = profiles_.find(key);
      if (it != profiles_.end()) return it->second;
      if (inFlight_.insert(key).second) break;  // this thread runs it
      profileReady_.wait(lock);
    }
  }

  vis::KernelProfile profile;
  try {
    // On-disk cache lookup.
    const std::string diskKey = cacheKey(algorithm, size, config_.params);
    bool fromDisk = false;
    if (!config_.cachePath.empty()) {
      std::lock_guard diskLock(diskCacheMutex_);
      auto disk = loadProfileCache(config_.cachePath);
      auto hit = disk.find(diskKey);
      if (hit != disk.end()) {
        PVIZ_LOG_INFO("profile cache hit: " << diskKey);
        profile = std::move(hit->second);
        fromDisk = true;
      }
    }

    if (!fromDisk) {
      PVIZ_LOG_INFO("characterizing " << algorithmName(algorithm) << " at "
                                      << size << "^3");
      profile = runAlgorithm(ctx, algorithm, dataset(size), config_.params);
      if (!config_.cachePath.empty()) {
        std::lock_guard diskLock(diskCacheMutex_);
        auto disk = loadProfileCache(config_.cachePath);
        disk[diskKey] = profile;
        saveProfileCache(config_.cachePath, disk);
      }
    }
  } catch (...) {
    std::lock_guard lock(profileMutex_);
    inFlight_.erase(key);
    profileReady_.notify_all();
    throw;
  }

  std::lock_guard lock(profileMutex_);
  auto inserted = profiles_.emplace(key, std::move(profile)).first;
  inFlight_.erase(key);
  profileReady_.notify_all();
  return inserted->second;
}

vis::KernelProfile Study::characterizeWith(util::ExecutionContext& ctx,
                                           Algorithm algorithm, vis::Id size,
                                           const AlgorithmParams& params) {
  // No in-memory memo (it is keyed on the configured params), but the
  // disk cache applies: its key covers every overridable parameter, so
  // an override never collides with a configured-params entry.  The
  // advection schedule is deliberately absent from the key — schedules
  // are bit-identical, so every schedule maps to the same entry.
  const std::string diskKey = cacheKey(algorithm, size, params);
  if (!config_.cachePath.empty()) {
    std::lock_guard diskLock(diskCacheMutex_);
    auto disk = loadProfileCache(config_.cachePath);
    auto hit = disk.find(diskKey);
    if (hit != disk.end()) {
      PVIZ_LOG_INFO("profile cache hit: " << diskKey);
      return hit->second;
    }
  }
  PVIZ_LOG_INFO("characterizing " << algorithmName(algorithm) << " at "
                                  << size << "^3 (request overrides)");
  vis::KernelProfile profile =
      runAlgorithm(ctx, algorithm, dataset(size), params);
  if (!config_.cachePath.empty()) {
    std::lock_guard diskLock(diskCacheMutex_);
    auto disk = loadProfileCache(config_.cachePath);
    disk[diskKey] = profile;
    saveProfileCache(config_.cachePath, disk);
  }
  return profile;
}

Measurement Study::measure(util::ExecutionContext& ctx, Algorithm algorithm,
                           vis::Id size, double capWatts) {
  return measure(ctx, algorithm, size, capWatts, config_.cycles);
}

Measurement Study::measure(util::ExecutionContext& ctx, Algorithm algorithm,
                           vis::Id size, double capWatts, int cycles) {
  PVIZ_REQUIRE(cycles >= 1, "measure needs at least one cycle");
  const vis::KernelProfile& once = characterize(ctx, algorithm, size);
  return modelProfile(ctx, algorithm, once, capWatts, cycles);
}

Measurement Study::modelProfile(util::ExecutionContext& ctx,
                                Algorithm algorithm,
                                const vis::KernelProfile& once,
                                double capWatts, int cycles) {
  vis::KernelProfile scaled = scaleKernelWork(once, config_.workScale);
  if (cycles > 1) scaled = repeatKernel(scaled, cycles);
  auto scope = ctx.phase("simulate/" + algorithmName(algorithm));
  return simulator_.run(scaled, capWatts, &ctx.cancel());
}

std::vector<ConfigRecord> Study::capSweep(util::ExecutionContext& ctx,
                                          Algorithm algorithm, vis::Id size) {
  return capSweep(ctx, algorithm, size, config_.capsWatts, config_.cycles);
}

std::vector<ConfigRecord> Study::capSweep(util::ExecutionContext& ctx,
                                          Algorithm algorithm, vis::Id size,
                                          const std::vector<double>& capsWatts,
                                          int cycles) {
  PVIZ_REQUIRE(!capsWatts.empty(), "cap sweep needs at least one cap");
  std::vector<ConfigRecord> records;
  records.reserve(capsWatts.size());
  Measurement baseline;
  for (std::size_t i = 0; i < capsWatts.size(); ++i) {
    const double cap = capsWatts[i];
    ConfigRecord record;
    record.algorithm = algorithm;
    record.size = size;
    record.capWatts = cap;
    record.measurement = measure(ctx, algorithm, size, cap, cycles);
    if (i == 0) baseline = record.measurement;
    record.ratios =
        computeRatios(baseline, capsWatts.front(), record.measurement, cap);
    records.push_back(std::move(record));
  }
  return records;
}

std::vector<ConfigRecord> Study::capSweepWith(
    util::ExecutionContext& ctx, Algorithm algorithm, vis::Id size,
    const std::vector<double>& capsWatts, int cycles,
    const AlgorithmParams& params) {
  PVIZ_REQUIRE(!capsWatts.empty(), "cap sweep needs at least one cap");
  PVIZ_REQUIRE(cycles >= 1, "measure needs at least one cycle");
  // Characterize once; the per-cap loop only touches the package model
  // (characterizeWith has no in-memory memo, so characterizing per
  // cap would re-run the kernel for every cap).
  const vis::KernelProfile once =
      characterizeWith(ctx, algorithm, size, params);
  std::vector<ConfigRecord> records;
  records.reserve(capsWatts.size());
  Measurement baseline;
  for (std::size_t i = 0; i < capsWatts.size(); ++i) {
    const double cap = capsWatts[i];
    ConfigRecord record;
    record.algorithm = algorithm;
    record.size = size;
    record.capWatts = cap;
    record.measurement = modelProfile(ctx, algorithm, once, cap, cycles);
    if (i == 0) baseline = record.measurement;
    record.ratios =
        computeRatios(baseline, capsWatts.front(), record.measurement, cap);
    records.push_back(std::move(record));
  }
  return records;
}

// --- On-disk characterization cache -------------------------------------
// Line format:
//   entry <quoted-ish key> <kernel> <elements> <phaseCount>
//   phase <name> f i m bs br irr ws par ov          (x phaseCount)

void saveProfileCache(
    const std::string& path,
    const std::map<std::string, vis::KernelProfile>& entries) {
  // Write-then-rename: the temporary lives in the same directory as the
  // final path so the rename is atomic, and a concurrent loadProfileCache
  // (another bench binary or server worker sharing --cache) sees either
  // the old complete file or the new complete file, never a torn one.
  static std::atomic<unsigned> tmpSerial{0};
  std::ostringstream tmpName;
  tmpName << path << ".tmp." << ::getpid() << '.'
          << tmpSerial.fetch_add(1, std::memory_order_relaxed);
  const std::string tmpPath = tmpName.str();
  {
    std::ofstream out(tmpPath, std::ios::trunc);
    PVIZ_REQUIRE(out.good(),
                 "cannot write profile cache at '" + tmpPath + "'");
    out.precision(17);
    for (const auto& [key, profile] : entries) {
      out << "entry " << key << ' ' << profile.kernel << ' '
          << profile.elements << ' ' << profile.phases.size() << '\n';
      for (const auto& ph : profile.phases) {
        out << "phase " << (ph.name.empty() ? "?" : ph.name) << ' ' << ph.flops
            << ' ' << ph.intOps << ' ' << ph.memOps << ' ' << ph.bytesStreamed
            << ' ' << ph.bytesReused << ' ' << ph.irregularAccesses << ' '
            << ph.workingSetBytes << ' ' << ph.parallelFraction << ' '
            << ph.overlap << '\n';
      }
    }
    out.flush();
    PVIZ_REQUIRE(out.good(),
                 "short write to profile cache at '" + tmpPath + "'");
  }
  if (std::rename(tmpPath.c_str(), path.c_str()) != 0) {
    std::remove(tmpPath.c_str());
    PVIZ_REQUIRE(false,
                 "cannot move profile cache into place at '" + path + "'");
  }
}

std::map<std::string, vis::KernelProfile> loadProfileCache(
    const std::string& path) {
  std::map<std::string, vis::KernelProfile> entries;
  std::ifstream in(path);
  if (!in.good()) return entries;  // absent cache = empty cache
  std::string tag;
  while (in >> tag) {
    PVIZ_REQUIRE(tag == "entry", "corrupt profile cache: expected 'entry'");
    std::string key, kernel;
    std::size_t phaseCount = 0;
    vis::KernelProfile profile;
    in >> key >> kernel >> profile.elements >> phaseCount;
    PVIZ_REQUIRE(!in.fail(), "corrupt profile cache: truncated entry");
    profile.kernel = kernel;
    // The stream is checked after every phase line: a phase count larger
    // than the lines that follow must fail at the first missing line,
    // not append default phases until allocation fails.
    for (std::size_t p = 0; p < phaseCount; ++p) {
      in >> tag;
      PVIZ_REQUIRE(!in.fail() && tag == "phase",
                   "corrupt profile cache: expected 'phase'");
      vis::WorkProfile ph;
      in >> ph.name >> ph.flops >> ph.intOps >> ph.memOps >>
          ph.bytesStreamed >> ph.bytesReused >> ph.irregularAccesses >>
          ph.workingSetBytes >> ph.parallelFraction >> ph.overlap;
      PVIZ_REQUIRE(!in.fail(), "corrupt profile cache: truncated phase");
      profile.phases.push_back(std::move(ph));
    }
    entries.emplace(std::move(key), std::move(profile));
  }
  return entries;
}

}  // namespace pviz::core
