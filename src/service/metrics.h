// Per-request observability for the service layer.
//
// Built on telemetry::MetricRegistry: per-operation counters (requests,
// errors, cache hits) and a log-scale latency histogram per op, plus
// server-wide counters and gauges (queue depth, admission rejections,
// connections).  The hot path — recordRequest and friends — is now
// lock-free sharded atomics instead of the old mutex-guarded
// RunningStats accumulators; merging happens when the registry is read
// (the in-band `stats` reply or a `metrics` scrape in Prometheus text
// format).  The registry is the only copy of every count: `stats` reads
// the instruments directly, and each server-wide counter or gauge is one
// row of a table that registers it and names its `stats` key.
//
// Each ServiceMetrics owns its own registry so concurrent servers in a
// test process never share counters; the process-wide
// telemetry::MetricRegistry::global() stays free for tools.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>

#include "service/json.h"
#include "service/protocol.h"
#include "service/result_cache.h"
#include "telemetry/energy_attribution.h"
#include "telemetry/event_ring.h"
#include "telemetry/metric_registry.h"
#include "telemetry/slo_tracker.h"

namespace pviz::service {

class ServiceMetrics {
 public:
  /// Number of wire operations (indexed by Op).
  static constexpr std::size_t kOpCount = 12;

  ServiceMetrics();

  /// One completed request (any status but "overloaded").  Feeds the op
  /// instruments and, when the op has an SLO objective, the burn-rate
  /// buckets; a violating request is logged to the event ring.
  void recordRequest(Op op, double latencyMs, bool cached, bool error);
  /// One admission-control rejection.
  void recordOverloaded();
  /// One frame that did not parse to a request.
  void recordBadRequest();
  /// One deadline violation: connection idle too long, a started frame
  /// that stalled, or a request whose wall-clock budget expired.
  void recordTimeout();
  /// One request whose kernel was stopped mid-run by its cancellation
  /// token (deadline expiry after dispatch, not while queued).
  void recordCancelled();
  /// One frame dropped for exceeding the size bound.
  void recordRejectedFrame();
  /// One connection shed at accept time (over the connection bound).
  void recordShedConnection();
  /// One fleet work-unit claim, granted or declined.
  void recordClaim(bool granted);

  void connectionOpened();
  void connectionClosed();

  /// Queue depth after a push/pop (tracks the high-water mark).
  void recordQueueDepth(std::size_t depth);

  /// Completed requests over every op.
  std::uint64_t totalRequests() const;
  /// Wall time since the metrics were created.
  double uptimeMs() const;

  /// The `stats` payload: uptime, the server-wide counters and gauges,
  /// the per-op instruments, `cache`, and the energy-attribution and SLO
  /// sections this instance tracks.
  Json statsJson(const ResultCache::Stats& cache) const;

  /// The `metrics` op payload: the full registry in Prometheus text
  /// exposition format, with the result-cache, uptime and SLO burn-rate
  /// gauges refreshed from `cache` at scrape time.
  std::string prometheusText(const ResultCache::Stats& cache);

  telemetry::MetricRegistry& registry() { return registry_; }

  /// Latency objectives; declare via slo().setObjective() before the
  /// server starts serving.
  telemetry::SloTracker& slo() { return slo_; }
  const telemetry::SloTracker& slo() const { return slo_; }

  /// Structured event log (`events` op).
  telemetry::EventRing& events() { return events_; }
  const telemetry::EventRing& events() const { return events_; }

  /// Per-request energy attribution (`stats` energy section).
  telemetry::EnergyAttributor& energy() { return energy_; }

 private:
  struct OpInstruments {
    telemetry::Counter* requests = nullptr;
    telemetry::Counter* errors = nullptr;
    telemetry::Counter* cacheHits = nullptr;
    telemetry::Histogram* latencyMs = nullptr;
  };

  /// One server-wide counter or gauge: the series it is registered as
  /// and its key in the `stats` reply.  kServerSeries holds one row per
  /// instrument, in `stats` key order.
  struct ServerSeries {
    const char* statsKey;
    const char* name;
    const char* help;
    telemetry::Counter* ServiceMetrics::*counter = nullptr;
    telemetry::Gauge* ServiceMetrics::*gauge = nullptr;
  };
  static const ServerSeries kServerSeries[];

  telemetry::MetricRegistry registry_;
  std::array<OpInstruments, kOpCount> perOp_;
  telemetry::Counter* overloaded_ = nullptr;
  telemetry::Counter* badRequests_ = nullptr;
  telemetry::Counter* timeouts_ = nullptr;
  telemetry::Counter* cancelled_ = nullptr;
  telemetry::Counter* rejectedFrames_ = nullptr;
  telemetry::Counter* shedConnections_ = nullptr;
  telemetry::Counter* claimsGranted_ = nullptr;
  telemetry::Counter* claimsDeclined_ = nullptr;
  telemetry::Gauge* queueDepth_ = nullptr;
  telemetry::Gauge* maxQueueDepth_ = nullptr;
  telemetry::Counter* connectionsAccepted_ = nullptr;
  telemetry::Gauge* connectionsActive_ = nullptr;
  std::chrono::steady_clock::time_point start_;
  telemetry::SloTracker slo_;
  telemetry::EventRing events_;
  telemetry::EnergyAttributor energy_{registry_};
};

}  // namespace pviz::service
