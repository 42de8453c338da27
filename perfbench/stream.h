// Seeded inputs of the benchmark: sweep scopes and the service request
// stream.  Everything a run feeds the program is drawn here from
// --seed before timing starts, so any run replays exactly from its seed.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/algorithms.h"
#include "service/protocol.h"

namespace perfbench {

/// A study scope: what `core::Study` in-process and the fleet's
/// `study` units both run.  Parameters stay at the program defaults
/// because the fleet's protocol cannot carry AlgorithmParams.  The
/// algorithms run in the paper's order: a drawn order moved the peak
/// memory of a sweep by up to 15% between seeds (heap reuse depends on
/// which kernel follows which), which would hide changes of the code.
struct SweepScope {
  std::vector<pviz::core::Algorithm> algorithms;
  std::vector<pviz::vis::Id> sizes;
  std::vector<double> capsWatts;
  int cycles = 10;
};
SweepScope drawSweepScope(std::uint64_t seed);

/// The large-grid scope: the five data-bound filters, in the paper's
/// order, at one size under one cap, with AlgorithmParams drawn in
/// narrow bands around the paper's configuration (wide bands would make
/// the cost depend on the seed more than on the code).
struct GridScope {
  std::vector<pviz::core::Algorithm> algorithms;
  pviz::vis::Id size = 0;
  double capWatts = 120.0;
  int cycles = 10;
  pviz::core::AlgorithmParams params;
};
GridScope drawGridScope(std::uint64_t seed, pviz::vis::Id size);

/// Request kinds of the service mix.
enum class Kind {
  HitStudy,         ///< large study slice warmed during set-up
  HitCharacterize,  ///< characterize warmed during set-up
  MissClassify,     ///< model-only miss
  MissStudy,        ///< model-only miss
  MissBudget,       ///< model-only miss (hydro memoized per size/steps)
  ColdAdvect,       ///< advection characterize under drawn advect_* knobs
};
const char* kindName(Kind kind);

struct StreamRequest {
  Kind kind = Kind::HitStudy;
  pviz::service::Request request;
  std::string cacheKey;  ///< canonical result-cache key
};

struct RequestStream {
  std::vector<double> capsWatts;  ///< server default sweep (--caps)
  int cycles = 10;                ///< server default cycles (--cycles)
  /// Set-up requests: every hot key of the mix plus the budget warm-up,
  /// sent once before timing so the hits below are hits.
  std::vector<pviz::service::Request> warm;
  std::vector<StreamRequest> requests;
  std::map<Kind, std::size_t> counts;
};

/// Requests of one pass by kind.  No recorded traffic of powerviz_serve
/// exists, so the shares are an assumption: 45% re-read the paper's
/// tables (cached study slices), 25% fetch cached kernel profiles, 26%
/// ask the advisor or the model something new (classify, study, budget)
/// and 4% characterize advection under new seed and step counts.
inline const std::vector<std::pair<Kind, std::size_t>>& passMix() {
  static const std::vector<std::pair<Kind, std::size_t>> mix = {
      {Kind::HitStudy, 180},   {Kind::HitCharacterize, 100},
      {Kind::MissClassify, 40}, {Kind::MissStudy, 32},
      {Kind::MissBudget, 32},  {Kind::ColdAdvect, 16}};
  return mix;
}

/// Passes of the service mix a run generates: several times what the
/// current program serves in a run, so a faster one still has input.
constexpr std::size_t kStreamPasses = 120;

/// `passes` passes of the service mix.  Miss keys are distinct across the
/// whole stream, so a miss stays a miss however many passes run.
RequestStream drawRequestStream(std::uint64_t seed, std::size_t passes);

}  // namespace perfbench
