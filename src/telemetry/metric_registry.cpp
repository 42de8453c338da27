#include "telemetry/metric_registry.h"

#include <bit>
#include <cmath>
#include <sstream>

#include "util/error.h"

namespace pviz::telemetry {

namespace {

bool validMetricName(const std::string& name) {
  if (name.empty()) return false;
  auto head = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
           c == ':';
  };
  if (!head(name[0])) return false;
  for (char c : name) {
    if (!head(c) && !(c >= '0' && c <= '9')) return false;
  }
  return true;
}

bool validLabelName(const std::string& name) {
  // Like a metric name but without ':'; "__" prefixes are reserved, and
  // "le" is the histogram bucket label the renderer appends itself.
  if (!validMetricName(name) || name.find(':') != std::string::npos) {
    return false;
  }
  return name != "le" && name.rfind("__", 0) != 0;
}

std::string serializeLabels(const Labels& labels) {
  std::ostringstream os;
  for (const auto& [key, value] : labels) os << key << '\x1f' << value << '\x1e';
  return os.str();
}

}  // namespace

// ---- Histogram ----------------------------------------------------------

double Histogram::bucketUpperBound(int i) noexcept {
  return kFirstUpperBound * static_cast<double>(std::uint64_t{1} << i);
}

int Histogram::bucketIndex(double value) noexcept {
  if (!(value > kFirstUpperBound)) return 0;  // also NaN and negatives
  // value = kFirstUpperBound * r with r > 1; the bucket is ceil(log2 r).
  int exponent = 0;
  const double mantissa = std::frexp(value / kFirstUpperBound, &exponent);
  // frexp: r = mantissa * 2^exponent, mantissa in [0.5, 1).  r is a power
  // of two exactly when mantissa == 0.5, in which case it sits on the
  // bucket boundary and belongs to the lower bucket (bounds are upper-
  // inclusive, Prometheus `le` semantics).
  const int index = mantissa == 0.5 ? exponent - 1 : exponent;
  return index >= kBucketCount ? kBucketCount : index;
}

std::uint64_t Histogram::toMicroUnits(double value) noexcept {
  if (!(value > 0.0)) return 0;
  return static_cast<std::uint64_t>(std::llround(value * 1e6));
}

std::uint64_t Histogram::toOrderedBits(double value) noexcept {
  if (!(value > 0.0)) return 0;
  return std::bit_cast<std::uint64_t>(value);
}

double Histogram::fromOrderedBits(std::uint64_t bits) noexcept {
  return bits == 0 ? 0.0 : std::bit_cast<double>(bits);
}

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot snap;
  std::uint64_t sumMicro = 0;
  std::uint64_t maxBits = 0;
  for (const Shard& s : shards_) {
    for (std::size_t b = 0; b < snap.buckets.size(); ++b) {
      snap.buckets[b] += s.buckets[b].load(std::memory_order_relaxed);
    }
    sumMicro += s.sumMicro.load(std::memory_order_relaxed);
    maxBits = std::max(maxBits, s.maxBits.load(std::memory_order_relaxed));
  }
  for (std::uint64_t b : snap.buckets) snap.count += b;
  snap.sum = static_cast<double>(sumMicro) * 1e-6;
  snap.maxValue = fromOrderedBits(maxBits);
  return snap;
}

double Histogram::Snapshot::percentile(double q) const {
  if (count == 0) return 0.0;
  q = std::min(std::max(q, 0.0), 1.0);
  // The sample of rank r (0-based, ascending), placed inside its bucket
  // at the midpoint of its share of the bucket's width.
  const auto rankValue = [this](std::uint64_t rank) {
    std::uint64_t before = 0;
    for (std::size_t b = 0; b < buckets.size(); ++b) {
      if (rank >= before + buckets[b]) {
        before += buckets[b];
        continue;
      }
      if (b == kBucketCount) return maxValue;  // overflow bucket
      const double lo =
          b == 0 ? 0.0 : bucketUpperBound(static_cast<int>(b) - 1);
      const double hi = bucketUpperBound(static_cast<int>(b));
      const double frac = (static_cast<double>(rank - before) + 0.5) /
                          static_cast<double>(buckets[b]);
      return std::min(lo + (hi - lo) * frac, maxValue);
    }
    return maxValue;
  };
  // Same rank convention as util::percentile over the sorted multiset:
  // interpolate between the two ranks that bracket q * (count - 1).
  const double target = q * static_cast<double>(count - 1);
  const auto lower = static_cast<std::uint64_t>(target);
  const std::uint64_t upper = std::min(lower + 1, count - 1);
  const double frac = target - static_cast<double>(lower);
  return std::min(
      rankValue(lower) * (1.0 - frac) + rankValue(upper) * frac, maxValue);
}

// ---- MetricRegistry -----------------------------------------------------

MetricRegistry& MetricRegistry::global() {
  static MetricRegistry registry;
  return registry;
}

MetricRegistry::Entry& MetricRegistry::entry(const std::string& name,
                                             const Labels& labels,
                                             const std::string& help,
                                             Kind kind) {
  PVIZ_REQUIRE(validMetricName(name),
               "invalid metric name '" + name + "'");
  for (const auto& [key, value] : labels) {
    PVIZ_REQUIRE(validLabelName(key),
                 "invalid label name '" + key + "' on metric '" + name + "'");
  }
  std::lock_guard lock(mutex_);
  auto [it, inserted] =
      metrics_.try_emplace({name, serializeLabels(labels)});
  Entry& e = it->second;
  if (inserted) {
    e.kind = kind;
    e.help = help;
    e.labels = labels;
    switch (kind) {
      case Kind::Counter:
        e.counter = std::unique_ptr<Counter>(new Counter());
        break;
      case Kind::Gauge:
        e.gauge = std::unique_ptr<Gauge>(new Gauge());
        break;
      case Kind::Histogram:
        e.histogram = std::unique_ptr<Histogram>(new Histogram());
        break;
    }
  } else {
    PVIZ_REQUIRE(e.kind == kind, "metric '" + name +
                                     "' already registered as a different "
                                     "kind");
  }
  return e;
}

Counter& MetricRegistry::counter(const std::string& name, const Labels& labels,
                                 const std::string& help) {
  return *entry(name, labels, help, Kind::Counter).counter;
}

Gauge& MetricRegistry::gauge(const std::string& name, const Labels& labels,
                             const std::string& help) {
  return *entry(name, labels, help, Kind::Gauge).gauge;
}

Histogram& MetricRegistry::histogram(const std::string& name,
                                     const Labels& labels,
                                     const std::string& help) {
  return *entry(name, labels, help, Kind::Histogram).histogram;
}

std::vector<MetricRegistry::Series> MetricRegistry::snapshot() const {
  std::lock_guard lock(mutex_);
  std::vector<Series> out;
  out.reserve(metrics_.size());
  for (const auto& [key, e] : metrics_) {
    Series s;
    s.name = key.first;
    s.labels = e.labels;
    s.help = e.help;
    s.kind = e.kind;
    switch (e.kind) {
      case Kind::Counter:
        s.value = static_cast<double>(e.counter->value());
        break;
      case Kind::Gauge:
        s.value = e.gauge->value();
        break;
      case Kind::Histogram:
        s.hist = e.histogram->snapshot();
        break;
    }
    out.push_back(std::move(s));
  }
  return out;
}

}  // namespace pviz::telemetry
