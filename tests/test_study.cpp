// Study driver and profile-cache tests.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <utility>
#include <vector>

#include "core/study.h"
#include "util/exec_context.h"

namespace pviz::core {
namespace {

StudyConfig smallConfig() {
  StudyConfig config;
  config.sizes = {8, 12};
  config.capsWatts = {120, 80, 40};
  config.cycles = 2;
  config.params = AlgorithmParams::lightRendering();
  config.params.seedCount = 50;
  config.params.maxSteps = 50;
  return config;
}

TEST(Study, ValidatesConfiguration) {
  StudyConfig bad = smallConfig();
  bad.capsWatts.clear();
  EXPECT_THROW(Study{bad}, Error);
  bad = smallConfig();
  bad.sizes.clear();
  EXPECT_THROW(Study{bad}, Error);
  bad = smallConfig();
  bad.cycles = 0;
  EXPECT_THROW(Study{bad}, Error);
}

TEST(Study, DatasetIsMemoized) {
  Study study(smallConfig());
  const vis::UniformGrid& a = study.dataset(8);
  const vis::UniformGrid& b = study.dataset(8);
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(a.numCells(), 8 * 8 * 8);
}

TEST(Study, CharacterizationIsMemoized) {
  util::ThreadPool pool;
  util::ExecutionContext ctx(pool);
  Study study(smallConfig());
  const vis::KernelProfile& a =
      study.characterize(ctx, Algorithm::Threshold, 8);
  const vis::KernelProfile& b =
      study.characterize(ctx, Algorithm::Threshold, 8);
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(a.kernel, "threshold");
}

TEST(Study, OverrideCharacterizationsShareTheMemo) {
  util::ThreadPool pool;
  util::ExecutionContext ctx(pool);
  Study study(smallConfig());
  // The configured-params form and an explicit copy of the same params
  // are one work key, so one memo entry.
  const vis::KernelProfile& configured =
      study.characterize(ctx, Algorithm::ParticleAdvection, 8);
  EXPECT_EQ(&study.characterize(ctx, Algorithm::ParticleAdvection, 8,
                                study.config().params),
            &configured);
  AlgorithmParams more = study.config().params;
  more.seedCount = 80;
  const vis::KernelProfile& a =
      study.characterize(ctx, Algorithm::ParticleAdvection, 8, more);
  EXPECT_NE(&a, &configured);
  EXPECT_EQ(&study.characterize(ctx, Algorithm::ParticleAdvection, 8, more),
            &a);
}

TEST(Study, CapSweepRatiosAreBaselinedAtTheDefaultCap) {
  util::ThreadPool pool;
  util::ExecutionContext ctx(pool);
  Study study(smallConfig());
  const auto sweep = study.capSweep(ctx, Algorithm::Threshold, 8);
  ASSERT_EQ(sweep.size(), 3u);
  EXPECT_DOUBLE_EQ(sweep[0].ratios.pRatio, 1.0);
  EXPECT_DOUBLE_EQ(sweep[0].ratios.tRatio, 1.0);
  EXPECT_DOUBLE_EQ(sweep[0].ratios.fRatio, 1.0);
  EXPECT_DOUBLE_EQ(sweep[1].ratios.pRatio, 1.5);
  EXPECT_DOUBLE_EQ(sweep[2].ratios.pRatio, 3.0);
  for (const auto& record : sweep) {
    EXPECT_EQ(record.algorithm, Algorithm::Threshold);
    EXPECT_EQ(record.size, 8);
    EXPECT_GT(record.measurement.seconds, 0.0);
  }
}

TEST(Study, CyclesMultiplyMeasuredTime) {
  util::ThreadPool pool;
  util::ExecutionContext ctx(pool);
  StudyConfig one = smallConfig();
  one.cycles = 1;
  StudyConfig four = smallConfig();
  four.cycles = 4;
  Study a(one), b(four);
  const double ta = a.measure(ctx, Algorithm::Contour, 8, 120.0).seconds;
  const double tb = b.measure(ctx, Algorithm::Contour, 8, 120.0).seconds;
  EXPECT_NEAR(tb / ta, 4.0, 0.2);
}

TEST(Study, Phase1IsTheContourSweep) {
  util::ThreadPool pool;
  util::ExecutionContext ctx(pool);
  StudyConfig config = smallConfig();
  config.sizes = {128};  // phase 1 runs at 128^3 by definition
  // Keep this test fast: shrink to an 8^3-sized "128" stand-in is not
  // possible (the phase is defined at 128^3), so just check the record
  // structure via capSweep on a small size instead.
  Study study(smallConfig());
  const auto sweep = study.capSweep(ctx, Algorithm::Contour, 12);
  EXPECT_EQ(sweep.size(), study.config().capsWatts.size());
}

TEST(Study, MetricsHelpersBehave) {
  Measurement base;
  base.seconds = 10.0;
  base.effectiveGhz = 2.6;
  Measurement capped;
  capped.seconds = 13.0;
  capped.effectiveGhz = 2.0;
  const Ratios r = computeRatios(base, 120.0, capped, 60.0);
  EXPECT_DOUBLE_EQ(r.pRatio, 2.0);
  EXPECT_DOUBLE_EQ(r.tRatio, 1.3);
  EXPECT_DOUBLE_EQ(r.fRatio, 1.3);
  EXPECT_EQ(firstSlowdownIndex({1.0, 1.05, 1.12, 1.3}), 2);
  EXPECT_EQ(firstSlowdownIndex({1.0, 1.01}), -1);
  EXPECT_EQ(firstSlowdownIndex({}), -1);
  EXPECT_EQ(firstSlowdownIndex({1.2}), 0);
}

TEST(ProfileCache, SaveLoadRoundTrip) {
  std::map<std::string, vis::KernelProfile> entries;
  vis::KernelProfile p;
  p.kernel = "contour";
  p.elements = 12345;
  vis::WorkProfile& phase = p.addPhase("mc-classify");
  phase.flops = 1.5e9;
  phase.intOps = 2.5e9;
  phase.memOps = 0.5e9;
  phase.bytesStreamed = 3e9;
  phase.bytesReused = 1e9;
  phase.irregularAccesses = 4e6;
  phase.workingSetBytes = 16777216.0;
  phase.parallelFraction = 0.97;
  phase.overlap = 0.83;
  p.addPhase("mc-generate").flops = 7.0;
  entries["alg0|16|10"] = p;

  const std::string path = "test_profile_cache.txt";
  saveProfileCache(path, entries);
  const auto loaded = loadProfileCache(path);
  std::remove(path.c_str());

  ASSERT_EQ(loaded.size(), 1u);
  const vis::KernelProfile& q = loaded.at("alg0|16|10");
  EXPECT_EQ(q.kernel, "contour");
  EXPECT_EQ(q.elements, 12345);
  ASSERT_EQ(q.phases.size(), 2u);
  EXPECT_EQ(q.phases[0].name, "mc-classify");
  EXPECT_DOUBLE_EQ(q.phases[0].flops, 1.5e9);
  EXPECT_DOUBLE_EQ(q.phases[0].workingSetBytes, 16777216.0);
  EXPECT_DOUBLE_EQ(q.phases[0].overlap, 0.83);
  EXPECT_DOUBLE_EQ(q.phases[1].flops, 7.0);
}

TEST(ProfileCache, MissingFileIsEmpty) {
  EXPECT_TRUE(loadProfileCache("definitely_not_here_12345.txt").empty());
}

TEST(ProfileCache, OverstatedPhaseCountIsAnError) {
  // The entry promises 1e11 phases but only one line follows: the loader
  // must reject the file at the first missing phase line instead of
  // appending default phases until allocation fails.
  const std::string path = "test_profile_cache_overstated.txt";
  {
    std::ofstream out(path, std::ios::trunc);
    out << "entry k contour 10 100000000000\n"
        << "phase p 1 1 1 1 1 1 1 0.5 0.5\n";
  }
  EXPECT_THROW(loadProfileCache(path), Error);
  std::remove(path.c_str());
}

TEST(ProfileCache, StudyUsesTheCacheAcrossInstances) {
  util::ThreadPool pool;
  util::ExecutionContext ctx(pool);
  const std::string path = "test_study_cache.txt";
  std::remove(path.c_str());
  StudyConfig config = smallConfig();
  config.cachePath = path;
  {
    Study study(config);
    study.characterize(ctx, Algorithm::Threshold, 8);
  }
  // Doctor the entry on disk: a fresh study can only return the marker
  // phase by reading the file under the same work key.
  const std::string key = workKey(Algorithm::Threshold, 8, config.params);
  auto disk = loadProfileCache(path);
  ASSERT_EQ(disk.count(key), 1u);
  disk.at(key).addPhase("doctored").flops = 42.0;
  saveProfileCache(path, disk);

  Study study2(config);
  const vis::KernelProfile& p =
      study2.characterize(ctx, Algorithm::Threshold, 8);
  EXPECT_EQ(p.kernel, "threshold");
  EXPECT_EQ(p.elements, 8 * 8 * 8);
  ASSERT_FALSE(p.phases.empty());
  EXPECT_EQ(p.phases.back().name, "doctored");
  EXPECT_DOUBLE_EQ(p.phases.back().flops, 42.0);
  std::remove(path.c_str());
}

TEST(ProfileCache, KeyForksOnEveryProfileField) {
  const AlgorithmParams base;
  const std::string key = workKey(Algorithm::Contour, 64, base);
  EXPECT_NE(workKey(Algorithm::Threshold, 64, base), key);
  EXPECT_NE(workKey(Algorithm::Contour, 65, base), key);
  EXPECT_EQ(key.find_first_of(" \t\n"), std::string::npos)
      << "the cache format is token-separated";

  std::vector<std::pair<const char*, void (*)(AlgorithmParams&)>> mutations = {
      {"isovalueCount", [](AlgorithmParams& p) { ++p.isovalueCount; }},
      {"thresholdLoFraction",
       [](AlgorithmParams& p) { p.thresholdLoFraction += 0.01; }},
      {"thresholdHiFraction",
       [](AlgorithmParams& p) { p.thresholdHiFraction += 0.01; }},
      {"clipRadiusFraction",
       [](AlgorithmParams& p) { p.clipRadiusFraction += 0.01; }},
      {"isovolumeLoFraction",
       [](AlgorithmParams& p) { p.isovolumeLoFraction += 0.01; }},
      {"isovolumeHiFraction",
       [](AlgorithmParams& p) { p.isovolumeHiFraction += 0.01; }},
      {"seedCount", [](AlgorithmParams& p) { ++p.seedCount; }},
      {"maxSteps", [](AlgorithmParams& p) { ++p.maxSteps; }},
      {"stepLength", [](AlgorithmParams& p) { p.stepLength *= 2.0; }},
      {"advectionMode",
       [](AlgorithmParams& p) { p.advectionMode = "pathline"; }},
      {"cameraCount", [](AlgorithmParams& p) { ++p.cameraCount; }},
      {"imageWidth", [](AlgorithmParams& p) { ++p.imageWidth; }},
      {"imageHeight", [](AlgorithmParams& p) { ++p.imageHeight; }},
      {"sampledCameraCount", [](AlgorithmParams& p) { ++p.sampledCameraCount; }},
      {"blockCount", [](AlgorithmParams& p) { ++p.blockCount; }},
      {"ghostLayers", [](AlgorithmParams& p) { ++p.ghostLayers; }},
  };
  std::set<std::string> keys = {key};
  for (const auto& [field, mutate] : mutations) {
    AlgorithmParams changed = base;
    mutate(changed);
    const std::string forked = workKey(Algorithm::Contour, 64, changed);
    EXPECT_NE(forked, key) << field;
    EXPECT_TRUE(keys.insert(forked).second) << field << " collides";
  }
}

TEST(ProfileCache, ThresholdBandIsNotServedAStaleProfile) {
  // Two studies share one disk cache but differ only in the threshold
  // band.  The second must get its own characterization, not the first
  // one's profile read back under a key that ignores the band.
  util::ThreadPool pool;
  util::ExecutionContext ctx(pool);
  const std::string path = "test_study_cache_band.txt";
  std::remove(path.c_str());
  StudyConfig wide = smallConfig();
  wide.cachePath = path;
  StudyConfig narrow = wide;
  narrow.params.thresholdLoFraction = 0.1;
  narrow.params.thresholdHiFraction = 0.2;
  StudyConfig fresh = narrow;
  fresh.cachePath.clear();

  const double wideOps = Study(wide)
                             .characterize(ctx, Algorithm::Threshold, 16)
                             .totalInstructions();
  const double narrowOps = Study(narrow)
                               .characterize(ctx, Algorithm::Threshold, 16)
                               .totalInstructions();
  const double freshOps = Study(fresh)
                              .characterize(ctx, Algorithm::Threshold, 16)
                              .totalInstructions();
  EXPECT_NE(wideOps, freshOps) << "the bands must do different work";
  EXPECT_DOUBLE_EQ(narrowOps, freshOps);
  EXPECT_EQ(loadProfileCache(path).size(), 2u);
  std::remove(path.c_str());
}

TEST(ProfileCache, CorruptCacheIsQuarantined) {
  util::ThreadPool pool;
  util::ExecutionContext ctx(pool);
  const std::string path = "test_study_cache_corrupt.txt";
  const std::string aside = path + ".corrupt";
  std::remove(aside.c_str());
  {
    std::ofstream out(path, std::ios::trunc);
    out << "this is not a profile cache\n";
  }
  StudyConfig config = smallConfig();
  config.cachePath = path;
  Study study(config);
  const vis::KernelProfile& p =
      study.characterize(ctx, Algorithm::Threshold, 8);
  EXPECT_EQ(p.kernel, "threshold");
  // A fresh cache holds the new profile; the bad file is kept aside.
  const auto disk = loadProfileCache(path);
  ASSERT_EQ(disk.size(), 1u);
  EXPECT_EQ(disk.count(workKey(Algorithm::Threshold, 8, config.params)), 1u);
  std::ifstream quarantined(aside);
  ASSERT_TRUE(quarantined.good());
  std::string firstLine;
  std::getline(quarantined, firstLine);
  EXPECT_EQ(firstLine, "this is not a profile cache");
  std::remove(path.c_str());
  std::remove(aside.c_str());
}

}  // namespace
}  // namespace pviz::core
