#include "service/metrics.h"

#include <algorithm>
#include <array>
#include <cstdio>

#include "telemetry/prometheus.h"

namespace pviz::service {

namespace {

/// One result-cache counter: its key in the `stats` cache section, the
/// help of the pviz_result_cache_<key> gauge it is copied into at scrape
/// time, and its value.
struct CacheSeries {
  const char* key;
  const char* help;
  double value;
};

/// The result cache's counters, in `stats` key order.
std::array<CacheSeries, 6> cacheSeries(const ResultCache::Stats& s) {
  return {{{"hits", "Result cache hits", static_cast<double>(s.hits)},
           {"misses", "Result cache misses", static_cast<double>(s.misses)},
           {"insertions", "Result cache insertions",
            static_cast<double>(s.insertions)},
           {"evictions", "Result cache evictions",
            static_cast<double>(s.evictions)},
           {"entries", "Result cache live entries",
            static_cast<double>(s.entries)},
           {"bytes", "Result cache resident bytes",
            static_cast<double>(s.bytes)}}};
}

}  // namespace

const ServiceMetrics::ServerSeries ServiceMetrics::kServerSeries[] = {
    {"overloaded", "pviz_overloaded_total", "Admission-control rejections",
     &ServiceMetrics::overloaded_},
    {"bad_requests", "pviz_bad_requests_total",
     "Frames that did not parse to a request", &ServiceMetrics::badRequests_},
    {"timeouts", "pviz_timeouts_total",
     "Connection/request deadline violations", &ServiceMetrics::timeouts_},
    {"cancelled", "pviz_cancelled_total",
     "Kernels stopped mid-run by cancellation", &ServiceMetrics::cancelled_},
    {"rejected_frames", "pviz_rejected_frames_total",
     "Frames over the size bound", &ServiceMetrics::rejectedFrames_},
    {"shed_connections", "pviz_shed_connections_total",
     "Connections shed at accept time", &ServiceMetrics::shedConnections_},
    {"claims_granted", "pviz_claims_granted_total",
     "Fleet work-unit claims granted", &ServiceMetrics::claimsGranted_},
    {"claims_declined", "pviz_claims_declined_total",
     "Fleet work-unit claims declined under load",
     &ServiceMetrics::claimsDeclined_},
    {"queue_depth", "pviz_queue_depth", "Request queue depth", nullptr,
     &ServiceMetrics::queueDepth_},
    {"max_queue_depth", "pviz_queue_depth_max",
     "Request queue depth high-water mark", nullptr,
     &ServiceMetrics::maxQueueDepth_},
    {"connections_accepted", "pviz_connections_accepted_total",
     "Connections accepted", &ServiceMetrics::connectionsAccepted_},
    {"connections_active", "pviz_connections_active",
     "Currently open connections", nullptr,
     &ServiceMetrics::connectionsActive_},
};

ServiceMetrics::ServiceMetrics() : start_(std::chrono::steady_clock::now()) {
  for (std::size_t i = 0; i < kOpCount; ++i) {
    const telemetry::Labels labels = {{"op", opToken(static_cast<Op>(i))}};
    OpInstruments& inst = perOp_[i];
    inst.requests = &registry_.counter("pviz_requests_total", labels,
                                       "Completed requests per operation");
    inst.errors = &registry_.counter("pviz_request_errors_total", labels,
                                     "Requests answered with status=error");
    inst.cacheHits =
        &registry_.counter("pviz_request_cache_hits_total", labels,
                           "Requests served from the result cache");
    inst.latencyMs = &registry_.histogram(
        "pviz_request_latency_ms", labels,
        "Request service latency in milliseconds");
  }
  for (const ServerSeries& row : kServerSeries) {
    if (row.counter != nullptr) {
      this->*row.counter = &registry_.counter(row.name, {}, row.help);
    } else {
      this->*row.gauge = &registry_.gauge(row.name, {}, row.help);
    }
  }
}

void ServiceMetrics::recordRequest(Op op, double latencyMs, bool cached,
                                   bool error) {
  OpInstruments& inst = perOp_[static_cast<std::size_t>(op)];
  inst.requests->inc();
  if (error) inst.errors->inc();
  if (cached) inst.cacheHits->inc();
  inst.latencyMs->record(latencyMs);
  if (slo_.hasObjectives() &&
      slo_.record(opToken(op), latencyMs, error) && !error) {
    // Errors already show up as violations in the burn rate; the event
    // ring's slow_request entries are for latency breaches specifically.
    events_.emit(telemetry::EventKind::SlowRequest, opToken(op),
                 "latency above p99 objective", latencyMs);
  }
}

void ServiceMetrics::recordOverloaded() {
  overloaded_->inc();
  events_.emit(telemetry::EventKind::Overloaded, "",
               "admission control rejected a request");
}

void ServiceMetrics::recordBadRequest() { badRequests_->inc(); }

void ServiceMetrics::recordTimeout() {
  timeouts_->inc();
  events_.emit(telemetry::EventKind::Timeout, "",
               "connection or request deadline expired");
}

void ServiceMetrics::recordCancelled() {
  cancelled_->inc();
  events_.emit(telemetry::EventKind::Cancelled, "",
               "kernel stopped mid-run by cancellation");
}

void ServiceMetrics::recordRejectedFrame() { rejectedFrames_->inc(); }

void ServiceMetrics::recordShedConnection() {
  shedConnections_->inc();
  events_.emit(telemetry::EventKind::ConnectionShed, "",
               "connection shed at the accept limit");
}

void ServiceMetrics::recordClaim(bool granted) {
  (granted ? claimsGranted_ : claimsDeclined_)->inc();
}

void ServiceMetrics::connectionOpened() {
  connectionsAccepted_->inc();
  connectionsActive_->add(1.0);
}

void ServiceMetrics::connectionClosed() { connectionsActive_->add(-1.0); }

void ServiceMetrics::recordQueueDepth(std::size_t depth) {
  queueDepth_->set(static_cast<double>(depth));
  maxQueueDepth_->ratchetMax(static_cast<double>(depth));
}

std::uint64_t ServiceMetrics::totalRequests() const {
  std::uint64_t total = 0;
  for (const OpInstruments& inst : perOp_) total += inst.requests->value();
  return total;
}

double ServiceMetrics::uptimeMs() const {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start_)
      .count();
}

Json ServiceMetrics::statsJson(const ResultCache::Stats& cache) const {
  std::uint64_t total = 0;  // summed here so it matches the per-op rows
  Json ops = Json::object();
  for (std::size_t i = 0; i < kOpCount; ++i) {
    const OpInstruments& inst = perOp_[i];
    const std::uint64_t requests = inst.requests->value();
    total += requests;
    if (requests == 0) continue;
    const telemetry::Histogram::Snapshot latency = inst.latencyMs->snapshot();
    Json op = Json::object();
    op.set("requests", static_cast<double>(requests));
    op.set("errors", static_cast<double>(inst.errors->value()));
    op.set("cache_hits", static_cast<double>(inst.cacheHits->value()));
    op.set("mean_latency_ms", latency.mean());
    op.set("max_latency_ms", latency.maxValue);
    op.set("p50_latency_ms", latency.percentile(0.50));
    op.set("p95_latency_ms", latency.percentile(0.95));
    op.set("p99_latency_ms", latency.percentile(0.99));
    ops.set(opToken(static_cast<Op>(i)), std::move(op));
  }

  Json out = Json::object();
  out.set("uptime_ms", uptimeMs());
  out.set("total_requests", static_cast<double>(total));
  for (const ServerSeries& row : kServerSeries) {
    out.set(row.statsKey,
            row.counter != nullptr
                ? static_cast<double>((this->*row.counter)->value())
                : std::max((this->*row.gauge)->value(), 0.0));
  }
  out.set("ops", std::move(ops));
  Json cacheJson = Json::object();
  for (const CacheSeries& row : cacheSeries(cache)) {
    cacheJson.set(row.key, row.value);
  }
  out.set("cache", std::move(cacheJson));

  const telemetry::EnergyAttributor::Summary energy = energy_.summary();
  Json energyJson = Json::object();
  energyJson.set("total_joules", energy.totalJoules);
  energyJson.set("overlap_joules", energy.overlapJoules);
  energyJson.set("requests", static_cast<double>(energy.requests));
  energyJson.set("joules_per_request", energy.joulesPerRequest());
  Json byAlgorithm = Json::object();
  for (const auto& [algorithm, alg] : energy.byAlgorithm) {
    Json a = Json::object();
    a.set("joules", alg.joules);
    a.set("runs", static_cast<double>(alg.runs));
    a.set("requests", static_cast<double>(alg.requests));
    a.set("joules_per_request", alg.joulesPerRequest());
    byAlgorithm.set(algorithm, std::move(a));
  }
  energyJson.set("by_algorithm", std::move(byAlgorithm));
  Json byCap = Json::object();
  for (const auto& [capWatts, cap] : energy.byCap) {
    Json c = Json::object();
    c.set("joules", cap.joules);
    c.set("runs", static_cast<double>(cap.runs));
    char capKey[32];
    std::snprintf(capKey, sizeof(capKey), "%g", capWatts);
    byCap.set(capKey, std::move(c));
  }
  energyJson.set("by_cap", std::move(byCap));
  out.set("energy", std::move(energyJson));

  if (slo_.hasObjectives()) {
    Json sloJson = Json::object();
    for (const std::string& op : slo_.objectiveOps()) {
      const telemetry::SloTracker::Window window = slo_.burn(op);
      Json s = Json::object();
      s.set("p99_objective_ms", slo_.objectiveMs(op));
      s.set("burn_rate_5m", window.shortWindow.burnRate);
      s.set("burn_rate_1h", window.longWindow.burnRate);
      s.set("requests_5m",
            static_cast<double>(window.shortWindow.requests));
      s.set("violations_5m",
            static_cast<double>(window.shortWindow.violations));
      s.set("requests_1h", static_cast<double>(window.longWindow.requests));
      s.set("violations_1h",
            static_cast<double>(window.longWindow.violations));
      sloJson.set(op, std::move(s));
    }
    out.set("slo", std::move(sloJson));
  }

  out.set("events_emitted", static_cast<double>(events_.totalEmitted()));
  return out;
}

std::string ServiceMetrics::prometheusText(const ResultCache::Stats& cache) {
  // Uptime and the cache counters live outside the registry; they are
  // copied into gauges at scrape time.
  registry_.gauge("pviz_uptime_ms", {}, "Milliseconds since server start")
      .set(uptimeMs());
  for (const CacheSeries& row : cacheSeries(cache)) {
    registry_.gauge(std::string("pviz_result_cache_") + row.key, {}, row.help)
        .set(row.value);
  }
  // SLO burn rates are derived at scrape time from the bucket ring —
  // the gauges only exist for ops with declared objectives.
  for (const std::string& op : slo_.objectiveOps()) {
    const telemetry::SloTracker::Window window = slo_.burn(op);
    registry_
        .gauge("pviz_slo_objective_ms", {{"op", op}},
               "Declared p99 latency objective in milliseconds")
        .set(slo_.objectiveMs(op));
    registry_
        .gauge("pviz_slo_burn_rate", {{"op", op}, {"window", "5m"}},
               "Error-budget burn rate (1.0 = spending the 1% budget "
               "exactly at the sustainable rate)")
        .set(window.shortWindow.burnRate);
    registry_
        .gauge("pviz_slo_burn_rate", {{"op", op}, {"window", "1h"}},
               "Error-budget burn rate (1.0 = spending the 1% budget "
               "exactly at the sustainable rate)")
        .set(window.longWindow.burnRate);
  }
  return telemetry::renderPrometheus(registry_);
}

}  // namespace pviz::service
