#include "stream.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "util/error.h"

namespace perfbench {

using pviz::core::Algorithm;
using pviz::service::Op;
using pviz::service::Request;

namespace {

/// SplitMix64: small, fast and fixed forever, so a seed names the same
/// inputs across commits of the program (the library's own Rng may
/// change).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, n); n > 0.
  std::uint64_t below(std::uint64_t n);
  /// Uniform in [lo, hi).
  double uniform(double lo, double hi);

 private:
  std::uint64_t state_;
};

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t Rng::below(std::uint64_t n) {
  PVIZ_REQUIRE(n > 0, "Rng::below needs a positive bound");
  // Rejection keeps the draw unbiased for every n.
  const std::uint64_t limit = UINT64_MAX - UINT64_MAX % n;
  for (;;) {
    const std::uint64_t x = next();
    if (x < limit) return x % n;
  }
}

double Rng::uniform(double lo, double hi) {
  const double unit = static_cast<double>(next() >> 11) * 0x1.0p-53;
  return lo + (hi - lo) * unit;
}

template <typename T>
void shuffle(std::vector<T>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.below(i)]);
  }
}

/// Caps below the default one, in 5 W steps.
std::vector<double> lowerCaps() {
  std::vector<double> caps;
  for (int w = 115; w >= 40; w -= 5) caps.push_back(w);
  return caps;
}

/// The default cap, then `count` distinct lower caps in seeded order.
std::vector<double> drawCaps(Rng& rng, std::size_t count) {
  std::vector<double> pool = lowerCaps();
  shuffle(pool, rng);
  std::vector<double> caps = {120.0};
  caps.insert(caps.end(), pool.begin(),
              pool.begin() + static_cast<std::ptrdiff_t>(count));
  return caps;
}

/// All eight algorithms in seeded order.
std::vector<Algorithm> drawAlgorithmOrder(Rng& rng) {
  std::vector<Algorithm> order = pviz::core::allAlgorithms();
  shuffle(order, rng);
  return order;
}

/// One decimal place, so a drawn value prints the same on the wire and
/// in the cache key.
double tenth(double x) { return std::round(x * 10.0) / 10.0; }

/// The default cap first, then eight distinct caps from 40..115 W in
/// seeded order (the paper sweeps nine caps, 120 W first).
std::vector<double> drawCapList(Rng& rng) { return drawCaps(rng, 8); }

/// Sizes the service mix runs on (profiles characterized in set-up).
const std::vector<pviz::vis::Id>& serviceSizes() {
  static const std::vector<pviz::vis::Id> sizes = {32, 64};
  return sizes;
}

}  // namespace

SweepScope drawSweepScope(std::uint64_t seed) {
  Rng rng(seed);
  SweepScope scope;
  scope.capsWatts = drawCapList(rng);
  scope.algorithms = pviz::core::allAlgorithms();
  scope.sizes = {64, 128};
  return scope;
}

GridScope drawGridScope(std::uint64_t seed, pviz::vis::Id size) {
  Rng rng(seed ^ 0x6c617267652d6772ULL);
  GridScope scope;
  scope.size = size;
  scope.algorithms = {Algorithm::Contour, Algorithm::Threshold,
                      Algorithm::SphericalClip, Algorithm::Isovolume,
                      Algorithm::Slice};
  pviz::core::AlgorithmParams& p = scope.params;
  p.isovalueCount = 10;
  p.thresholdLoFraction = rng.uniform(0.54, 0.56);
  p.thresholdHiFraction = rng.uniform(0.94, 0.96);
  p.clipRadiusFraction = rng.uniform(0.297, 0.303);
  p.isovolumeLoFraction = rng.uniform(0.39, 0.41);
  p.isovolumeHiFraction = rng.uniform(0.79, 0.81);
  return scope;
}

const char* kindName(Kind kind) {
  switch (kind) {
    case Kind::HitStudy: return "hit_study";
    case Kind::HitCharacterize: return "hit_characterize";
    case Kind::MissClassify: return "miss_classify";
    case Kind::MissStudy: return "miss_study";
    case Kind::MissBudget: return "miss_budget";
    case Kind::ColdAdvect: return "cold_advect";
  }
  return "?";
}

RequestStream drawRequestStream(std::uint64_t seed, std::size_t passes) {
  Rng rng(seed ^ 0x736572766963652dULL);
  RequestStream stream;
  stream.capsWatts = drawCapList(rng);
  const std::vector<Algorithm> algorithms = drawAlgorithmOrder(rng);
  const std::vector<pviz::vis::Id>& sizes = serviceSizes();
  const std::vector<int> simSteps = {8, 10, 12};

  // Hot keys: every (algorithm, size) characterize, and the paper's
  // Tables II and III at the service sizes (all algorithms, both sizes,
  // the seeded caps) in four orders, each its own cache key.
  std::vector<Request> hotCharacterize;
  for (pviz::vis::Id size : sizes) {
    for (Algorithm a : algorithms) {
      Request r;
      r.op = Op::Characterize;
      r.algorithm = a;
      r.size = size;
      hotCharacterize.push_back(r);
    }
  }
  std::vector<Request> hotStudy;
  const std::vector<Algorithm> reversed(algorithms.rbegin(), algorithms.rend());
  for (const std::vector<Algorithm>* order : {&algorithms, &reversed}) {
    for (const std::vector<pviz::vis::Id>& slice :
         std::vector<std::vector<pviz::vis::Id>>{{32, 64}, {64, 32}}) {
      Request r;
      r.op = Op::Study;
      r.algorithms = *order;
      r.sizes = slice;
      r.capsWatts = stream.capsWatts;
      r.cycles = stream.cycles;
      hotStudy.push_back(r);
    }
  }
  stream.warm = hotCharacterize;
  stream.warm.insert(stream.warm.end(), hotStudy.begin(), hotStudy.end());
  // Hydro runs behind `budget` are memoized per (size, steps): run every
  // pair the stream uses here, so budget misses are model-only.
  for (pviz::vis::Id size : sizes) {
    for (int steps : simSteps) {
      Request r;
      r.op = Op::Budget;
      r.algorithm = algorithms.front();
      r.size = size;
      r.budgetWatts = 240.0;
      r.simSteps = steps;
      stream.warm.push_back(r);
    }
  }

  std::set<std::string> seen;
  for (const Request& r : stream.warm) {
    seen.insert(pviz::service::canonicalCacheKey(r));
  }
  auto pick = [&](const std::vector<Algorithm>& from) {
    return from[rng.below(from.size())];
  };
  auto pickSize = [&] { return sizes[rng.below(sizes.size())]; };

  // Every pass holds exactly this mix, in a seeded order, so passes cost
  // the same whatever the seed.
  std::vector<Kind> mix;
  for (const auto& [kind, count] : passMix()) mix.insert(mix.end(), count, kind);
  stream.requests.reserve(passes * mix.size());
  for (std::size_t pass = 0; pass < passes; ++pass) {
    shuffle(mix, rng);
    for (Kind kind : mix) {
      StreamRequest s;
      s.kind = kind;
      Request& r = s.request;
      int draws = 0;
      do {
        PVIZ_REQUIRE(++draws <= 1000, std::string("no fresh ") +
                                          kindName(kind) + " key left to draw");
        switch (kind) {
          case Kind::HitStudy:
            r = hotStudy[rng.below(hotStudy.size())];
            break;
          case Kind::HitCharacterize:
            r = hotCharacterize[rng.below(hotCharacterize.size())];
            break;
          case Kind::MissClassify:
            r.op = Op::Classify;
            r.algorithm = pick(algorithms);
            r.size = pickSize();
            r.capsWatts = drawCaps(rng, 6 + rng.below(3));
            break;
          case Kind::MissStudy:
            r.op = Op::Study;
            r.algorithms = {pick(algorithms), pick(algorithms)};
            r.sizes = {pickSize()};
            r.capsWatts = drawCaps(rng, 2 + rng.below(2));
            r.cycles = 8 + static_cast<int>(rng.below(5));
            break;
          case Kind::MissBudget:
            // Any budget the advisor honours unclamped: the package's
            // cap range.
            r.op = Op::Budget;
            r.algorithm = pick(algorithms);
            r.size = pickSize();
            r.budgetWatts = tenth(rng.uniform(40.0, 120.0));
            r.simSteps = simSteps[rng.below(simSteps.size())];
            break;
          case Kind::ColdAdvect:
            // From a tenth of the program's default seeds and steps
            // (1000 each) up to the default.
            r.op = Op::Characterize;
            r.algorithm = Algorithm::ParticleAdvection;
            r.size = pickSize();
            r.advectSeeds = 100 + static_cast<pviz::vis::Id>(rng.below(901));
            r.advectSteps = 100 + static_cast<pviz::vis::Id>(rng.below(901));
            break;
        }
        s.cacheKey = pviz::service::canonicalCacheKey(r);
        // A miss must stay a miss: redraw a key seen before.
      } while (kind != Kind::HitStudy && kind != Kind::HitCharacterize &&
               !seen.insert(s.cacheKey).second);
      r.id = std::to_string(stream.requests.size());
      ++stream.counts[s.kind];
      stream.requests.push_back(std::move(s));
    }
  }
  return stream;
}

}  // namespace perfbench
