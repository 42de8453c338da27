#include "workloads.h"

#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <iostream>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <thread>

#include "core/execution_sim.h"
#include "core/power_advisor.h"
#include "core/study.h"
#include "check.h"
#include "fleet/coordinator.h"
#include "fleet/spawn.h"
#include "host.h"
#include "service/client.h"
#include "service/engine.h"
#include "sim/cloverleaf.h"
#include "stream.h"
#include "trace.h"
#include "util/error.h"
#include "util/exec_context.h"
#include "util/stats.h"
#include "util/thread_pool.h"

extern char** environ;

namespace perfbench {

namespace {

using namespace pviz;
using service::Json;

// Why these sizes and counts: see perfbench/README.md.
constexpr vis::Id kLargeGridSize = 160;
constexpr int kServiceClients = 4;
constexpr int kFleetWorkers = 2;
constexpr int kServiceSetupRepeats = 3;
constexpr std::size_t kMissSamplesPerKind = 6;
/// A run stops starting passes once one more would end past this.
constexpr double kRunCeilingS = 140.0;

const std::vector<core::Algorithm>& dataBound() {
  static const std::vector<core::Algorithm> algs = {
      core::Algorithm::Contour, core::Algorithm::Threshold,
      core::Algorithm::SphericalClip, core::Algorithm::Isovolume,
      core::Algorithm::Slice};
  return algs;
}

bool isDataBound(const std::string& token) {
  for (core::Algorithm a : dataBound()) {
    if (core::algorithmToken(a) == token) return true;
  }
  return false;
}

/// Kernel phases the filters record; any other phase reads as "other".
const std::vector<std::string>& phaseNames() {
  static const std::vector<std::string> names = {
      "mc-classify", "mc-scan", "mc-generate", "select", "scan", "compact",
      "classify", "subdivide", "distance-field", "range-fields",
      "signed-distance", "color", "seed-particles", "rk4-advect",
      "assemble-lines", "face-classify", "face-scan", "face-generate",
      "gather-external-faces", "bvh-build", "trace", "ray-march", "other"};
  return names;
}

double median(std::vector<double> values) {
  return util::percentile(std::move(values), 0.5);
}

bool startsWith(const std::string& s, const std::string& prefix) {
  return s.compare(0, prefix.size(), prefix) == 0;
}

std::string phaseMetric(const std::string& phase) {
  const auto& names = phaseNames();
  const bool known = std::find(names.begin(), names.end(), phase) != names.end();
  return "viz.phase_s." + (known ? phase : std::string("other"));
}

/// The per-layer metric a span's self time belongs to.
std::string layerOf(const Span& s) {
  if (s.name == "bench.pass") return "bench.untraced_s";
  if (s.name == "sim.field") return "sim.field_s";
  if (s.name == "core.characterize") {
    return "viz.untraced_s." + s.id.substr(0, s.id.find('@'));
  }
  if (s.name == "core.model" || startsWith(s.name, "phase:simulate/")) {
    return "core.model_s";
  }
  if (startsWith(s.name, "phase:")) return phaseMetric(s.name.substr(6));
  if (s.name == "client.request") return "service.client_s";
  if (startsWith(s.name, "request/")) {
    return s.arg == "hit" ? "service.server_hit_s" : "service.server_miss_s";
  }
  if (s.name == "fleet.run_sweep") return "fleet.coordinator_s";
  if (startsWith(s.name, "dispatch/")) return "fleet.dispatch_s";
  return "bench.other_s";
}

std::string idOf(core::Algorithm a, vis::Id size) {
  return core::algorithmToken(a) + "@" + std::to_string(size);
}

/// Attach a context's recorded phases as children of `parent`.
void attachPhases(SpanLog& log, const util::PhaseTracer& tracer, int parent,
                  std::uint32_t lane, const std::string& id) {
  if (!log.enabled()) return;
  for (const util::PhaseTracer::Phase& p : tracer.phases()) {
    Span s;
    s.name = "phase:" + p.name;
    s.id = id;
    s.lane = lane;
    s.parent = parent;
    s.startUs = static_cast<std::int64_t>(p.startUs);
    s.endUs = s.startUs + static_cast<std::int64_t>(p.millis * 1000.0 + 0.5);
    log.add(std::move(s));
  }
}

/// Attach Chrome "X" events (a server's `trace: true` dump or a merged
/// fleet trace) under `parent` on `lane`: kernel phases become
/// "phase:<name>", everything else keeps its name.
void attachChromeEvents(SpanLog& log, const Json& trace, int parent,
                        std::uint32_t lane, const std::string& id) {
  const Json* events = trace.find("traceEvents");
  if (events == nullptr || !events->isArray()) return;
  for (const Json& e : events->asArray()) {
    const Json* ph = e.find("ph");
    if (ph == nullptr || ph->asString() != "X") continue;
    Span s;
    const std::string cat = e.find("cat")->asString();
    const std::string name = e.find("name")->asString();
    s.name = cat == "kernel" ? "phase:" + name : name;
    s.id = id;
    s.lane = lane;
    s.parent = parent;
    s.startUs = e.find("ts")->asInt();
    s.endUs = s.startUs + e.find("dur")->asInt();
    if (const Json* args = e.find("args")) {
      if (const Json* hit = args->find("cache_hit")) {
        s.arg = hit->asString() == "true" ? "hit" : "miss";
      }
    }
    log.add(std::move(s));
  }
}

using Layers = std::map<std::string, double>;

struct PassResult {
  double wallS = 0.0;
  double cpuS = 0.0;
  double peakRssMb = 0.0;
  std::vector<double> latenciesMs;  ///< one per request of the pass
  std::uint64_t digest = 0;         ///< of the pass's records or replies
  std::size_t attempted = 0;
  std::size_t failed = 0;
  int root = -1;                    ///< bench.pass span (traced passes)
  bool exhausted = false;           ///< the input ran out; not a pass
  std::int64_t readyUs = 0;         ///< when a pass process was set up
  /// Traced passes: self time by layer, and the other per-layer values.
  Layers selfTimes;
  Layers layers;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Everything before timing that is not part of a pass.
  virtual void setUp() {}
  /// One timed pass; a workload that sets up per pass appends the set-up
  /// time to setupSamples.
  virtual PassResult runPass(SpanLog& log) = 0;
  /// After timing: output checks (adds to attempted/failed) and, when
  /// traced, the run-wide per-layer values.
  virtual void finish(Outcome&, Layers&, bool /*traced*/,
                      std::size_t /*tracedPasses*/) {}
  virtual void tearDown() {}
  /// Requests the run is guaranteed to time (the tail percentile is
  /// chosen from this count, so it does not move with the host's speed).
  virtual std::size_t guaranteedSamples() const = 0;
  virtual std::size_t minPasses() const { return 2; }
  virtual bool coldCaches() const { return true; }

  std::vector<double> setupSamples;
};

// --- In-process sweeps: sweep-cold and large-grid --------------------------

struct AlgTotals {
  double characterizeS = 0.0;
  double cells = 0.0;
  double minorFaults = 0.0;
  double sysS = 0.0;
  double arenaPeakMb = 0.0;
};

Json passToJson(const PassResult& r) {
  auto layers = [](const Layers& l) {
    Json out = Json::object();
    for (const auto& [name, value] : l) out.set(name, value);
    return out;
  };
  Json latencies = Json::array();
  for (double ms : r.latenciesMs) latencies.push(ms);
  Json out = Json::object();
  out.set("wall_s", r.wallS);
  out.set("cpu_s", r.cpuS);
  out.set("peak_rss_mb", r.peakRssMb);
  out.set("latencies_ms", std::move(latencies));
  out.set("digest", std::to_string(r.digest));
  out.set("attempted", static_cast<double>(r.attempted));
  out.set("failed", static_cast<double>(r.failed));
  out.set("ready_us", static_cast<std::int64_t>(r.readyUs));
  out.set("self_times", layers(r.selfTimes));
  out.set("layers", layers(r.layers));
  return out;
}

PassResult passFromJson(const Json& j) {
  auto layers = [](const Json& l) {
    Layers out;
    for (const auto& [name, value] : l.asObject()) out[name] = value.asNumber();
    return out;
  };
  PassResult r;
  r.wallS = j.find("wall_s")->asNumber();
  r.cpuS = j.find("cpu_s")->asNumber();
  r.peakRssMb = j.find("peak_rss_mb")->asNumber();
  for (const Json& ms : j.find("latencies_ms")->asArray()) {
    r.latenciesMs.push_back(ms.asNumber());
  }
  r.digest = std::stoull(j.find("digest")->asString());
  r.attempted = static_cast<std::size_t>(j.find("attempted")->asInt());
  r.failed = static_cast<std::size_t>(j.find("failed")->asInt());
  r.readyUs = j.find("ready_us")->asInt();
  r.selfTimes = layers(*j.find("self_times"));
  r.layers = layers(*j.find("layers"));
  return r;
}

/// Run this binary as `perfbench ... --pass N` and collect its result.
PassResult spawnPass(const Options& o, bool traced, std::size_t index,
                     std::int64_t& spawnedUs) {
  int fds[2];
  PVIZ_REQUIRE(::pipe(fds) == 0, "pipe failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  std::vector<std::string> args = {
      o.selfPath, "--workload", o.workload, "--seed", std::to_string(o.seed),
      "--trace", traced ? "1" : "0", "--out-dir", o.outDir, "--pass",
      std::to_string(index)};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  spawnedUs = nowUs();
  pid_t pid = -1;
  const int rc = ::posix_spawn(&pid, o.selfPath.c_str(), &actions, nullptr,
                               argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(fds[1]);
  if (rc != 0) {
    ::close(fds[0]);
    throw Error("cannot spawn a pass of " + o.workload);
  }
  std::string output;
  char buf[1 << 14];
  ssize_t n = 0;
  while ((n = ::read(fds[0], buf, sizeof buf)) > 0 ||
         (n < 0 && errno == EINTR)) {
    if (n > 0) output.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fds[0]);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  PVIZ_REQUIRE(WIFEXITED(status) && WEXITSTATUS(status) == 0,
               "a pass of " + o.workload + " failed");
  const std::size_t last = output.find_last_of('\n', output.size() - 2);
  return passFromJson(
      Json::parse(output.substr(last == std::string::npos ? 0 : last + 1)));
}

/// Attribute a traced pass's root span and add the self times by layer.
void addSelfTimes(const SpanLog& log, int root, Layers& selfTimes) {
  const std::vector<Span> spans = log.spans();
  const std::vector<double> self = attributeSelfTime(spans, root);
  for (std::size_t s = 0; s < spans.size(); ++s) {
    if (self[s] > 0.0) selfTimes[layerOf(spans[s])] += self[s];
  }
}

/// A cold study, as a researcher regenerating the paper's tables runs
/// it: every pass is a fresh process (no warm heap, arena or page cache
/// of an earlier pass) with a fresh Study and no disk cache, and every
/// kernel call gets a fresh ExecutionContext.  Set-up is the time from
/// spawning that process until it is ready to run the first kernel.
class StudySweep : public Workload {
 public:
  StudySweep(const Options& o, std::vector<core::Algorithm> algorithms,
             std::vector<vis::Id> sizes, std::vector<double> caps, int cycles,
             core::AlgorithmParams params)
      : options_(o) {
    config_.capsWatts = std::move(caps);
    config_.sizes = std::move(sizes);
    config_.cycles = cycles;
    config_.params = std::move(params);
    config_.cachePath.clear();
    algorithms_ = std::move(algorithms);
  }

  PassResult runPass(SpanLog& log) override {
    std::int64_t spawnedUs = 0;
    PassResult r = spawnPass(options_, log.enabled(), passes_++, spawnedUs);
    setupSamples.push_back(static_cast<double>(r.readyUs - spawnedUs) * 1e-6);
    return r;
  }

  std::size_t guaranteedSamples() const override {
    return minPasses() * config_.sizes.size() * algorithms_.size() *
           config_.capsWatts.size();
  }

  /// The child's side of runPass: set up, run one pass here, attribute.
  PassResult runHere(bool traced) {
    pool_ = std::make_unique<util::ThreadPool>();
    const std::int64_t readyUs = nowUs();
    SpanLog log(traced);
    PassResult r = runInProcess(log);
    r.readyUs = readyUs;
    if (traced) {
      addSelfTimes(log, r.root, r.selfTimes);
      std::ofstream(options_.outDir + "/trace-" + options_.workload + "-" +
                    std::to_string(options_.seed) + "-pass" +
                    std::to_string(options_.pass) + ".json")
          << log.toChromeJson();
    }
    return r;
  }

  /// The report the fleet must reproduce: one cold in-process study.
  std::uint64_t referenceDigest() {
    pool_ = std::make_unique<util::ThreadPool>();
    SpanLog off(false);
    return runInProcess(off).digest;
  }

 private:
  PassResult runInProcess(SpanLog& log) {
    PassResult r;
    const bool traced = log.enabled();
    std::map<std::string, AlgTotals> totals;
    double modelConfigs = 0.0;
    const int root = log.open("bench.pass", "", 0, -1);
    const Usage before = selfUsage();
    const std::int64_t t0 = nowUs();
    core::Study study(config_);
    Json records = Json::array();
    std::size_t count = 0;
    for (vis::Id size : config_.sizes) {
      {
        ScopedSpan field(log, "sim.field", std::to_string(size), 0, root);
        study.dataset(size);
      }
      for (core::Algorithm a : algorithms_) {
        const std::string id = idOf(a, size);
        util::ExecutionContext ctx(*pool_);
        const Usage u0 = selfUsage();
        const int cs = log.open("core.characterize", id, 0, root);
        const std::int64_t c0 = nowUs();
        study.characterize(ctx, a, size);
        const std::int64_t c1 = nowUs();
        log.close(cs);
        const Usage u1 = selfUsage();
        attachPhases(log, ctx.tracer(), cs, 0, id);
        const double arenaPeakMb =
            static_cast<double>(ctx.arena().stats().peakBytesInUse) / 1048576.0;
        ctx.tracer().clear();

        const int ms = log.open("core.model", id, 0, root);
        std::vector<core::ConfigRecord> recs = study.capSweep(ctx, a, size);
        log.close(ms);
        attachPhases(log, ctx.tracer(), ms, 0, id);
        ctx.tracer().clear();
        // A record's latency is the time from the start of the sweep
        // until the record is available.
        const double readyMs = static_cast<double>(nowUs() - t0) * 1e-3;
        r.latenciesMs.insert(r.latenciesMs.end(), recs.size(), readyMs);
        ++r.attempted;

        for (const core::ConfigRecord& rec : recs) {
          records.push(service::recordToJson(rec));
          ++count;
        }
        if (traced) {
          AlgTotals& t = totals[core::algorithmToken(a)];
          t.characterizeS += static_cast<double>(c1 - c0) * 1e-6;
          t.cells += static_cast<double>(size) * static_cast<double>(size) *
                     static_cast<double>(size);
          t.minorFaults += static_cast<double>(u1.minorFaults - u0.minorFaults);
          t.sysS += u1.sysS - u0.sysS;
          t.arenaPeakMb = std::max(t.arenaPeakMb, arenaPeakMb);
          modelConfigs += static_cast<double>(recs.size());
        }
      }
    }
    r.wallS = static_cast<double>(nowUs() - t0) * 1e-6;
    log.close(root);
    r.root = root;
    const Usage after = selfUsage();
    r.cpuS = after.cpuS() - before.cpuS();
    r.peakRssMb = after.peakRssMb;
    Json report = Json::object();
    report.set("count", static_cast<double>(count));
    report.set("records", std::move(records));
    r.digest = digestOf(report.dump());
    if (count != config_.sizes.size() * algorithms_.size() *
                     config_.capsWatts.size()) {
      r.failed = r.attempted;
    }
    for (const auto& [alg, t] : totals) {
      r.layers["core.characterize_s." + alg] = t.characterizeS;
      r.layers["viz.elements_per_s." + alg] = t.cells / t.characterizeS;
      if (!isDataBound(alg)) continue;
      r.layers["util.minflt." + alg] = t.minorFaults;
      r.layers["util.sys_s." + alg] = t.sysS;
      r.layers["util.arena_peak_mb." + alg] = t.arenaPeakMb;
    }
    if (traced) r.layers["core.model_configs"] = modelConfigs;
    return r;
  }

  Options options_;
  core::StudyConfig config_;
  std::vector<core::Algorithm> algorithms_;
  std::size_t passes_ = 0;
  std::unique_ptr<util::ThreadPool> pool_;
};

std::unique_ptr<StudySweep> makeSweepCold(const Options& o) {
  const SweepScope scope = drawSweepScope(o.seed);
  return std::make_unique<StudySweep>(o, scope.algorithms, scope.sizes,
                                      scope.capsWatts, scope.cycles,
                                      core::AlgorithmParams{});
}

std::unique_ptr<StudySweep> makeLargeGrid(const Options& o) {
  const GridScope scope = drawGridScope(o.seed, kLargeGridSize);
  return std::make_unique<StudySweep>(
      o, scope.algorithms, std::vector<vis::Id>{scope.size},
      std::vector<double>{scope.capWatts}, scope.cycles, scope.params);
}

// --- service-mixed ---------------------------------------------------------

/// Spawned powerviz_serve processes, drained and reaped (SIGTERM) when
/// this goes out of scope, on exception paths too.
struct ServeProcesses {
  ServeProcesses() = default;
  ServeProcesses(const ServeProcesses&) = delete;
  ServeProcesses& operator=(const ServeProcesses&) = delete;
  ~ServeProcesses() { stop(); }

  void stop() {
    for (fleet::SpawnedWorker& w : list) fleet::terminateWorker(w);
    list.clear();
  }

  std::vector<fleet::SpawnedWorker> list;
};

std::string capsCsv(const std::vector<double>& caps) {
  std::string out;
  for (double c : caps) {
    if (!out.empty()) out += ',';
    out += std::to_string(static_cast<int>(c));
  }
  return out;
}

std::size_t requestsPerPass() {
  std::size_t n = 0;
  for (const auto& [kind, count] : passMix()) n += count;
  return n;
}

class ServiceMixed : public Workload {
 public:
  explicit ServiceMixed(std::uint64_t seed)
      : stream_(drawRequestStream(seed, kStreamPasses)) {
    engine_.study.params = core::AlgorithmParams::lightRendering();
    engine_.study.capsWatts = stream_.capsWatts;
    engine_.study.cycles = stream_.cycles;
    engine_.study.cachePath.clear();
    engine_.cacheEntries = 256;
  }

  void setUp() override {
    for (int i = 0; i < kServiceSetupRepeats; ++i) {
      server_.stop();
      const std::int64_t t0 = nowUs();
      fleet::SpawnOptions spawn;
      spawn.serveBin = PERFBENCH_SERVE_BIN;
      spawn.args = {"--workers", "4", "--queue", "64", "--result-cache",
                    std::to_string(engine_.cacheEntries), "--cache", "none",
                    "--caps", capsCsv(stream_.capsWatts), "--cycles",
                    std::to_string(stream_.cycles), "--light", "--quiet"};
      server_.list.push_back(fleet::spawnServeWorker(spawn));
      warmUp();
      setupSamples.push_back(static_cast<double>(nowUs() - t0) * 1e-6);
    }
    for (int c = 0; c < kServiceClients; ++c) {
      clients_.push_back(
          std::make_unique<service::ServiceClient>("127.0.0.1", port()));
    }
  }

  PassResult runPass(SpanLog& log) override {
    PassResult r;
    const std::size_t offset = passes_ * requestsPerPass();
    if (offset + requestsPerPass() > stream_.requests.size()) {
      r.exhausted = true;
      return r;
    }
    ++passes_;
    const bool traced = log.enabled();
    r.latenciesMs.assign(requestsPerPass(), 0.0);
    std::vector<char> ok(requestsPerPass(), 0);
    std::vector<double> outsideMs(requestsPerPass(), 0.0);
    std::atomic<std::size_t> next{0};
    const int root = log.open("bench.pass", "", 0, -1);
    const ProcUsage before = procUsage(pid());
    const std::int64_t t0 = nowUs();
    auto client = [&](int c) {
      for (;;) {
        const std::size_t i = next.fetch_add(1);
        if (i >= requestsPerPass()) return;
        const std::size_t k = offset + i;
        service::Request req = stream_.requests[k].request;
        req.trace = traced;
        const std::int64_t s0 = nowUs();
        const int span = log.open("client.request", req.id,
                                  static_cast<std::uint32_t>(1 + c), root);
        try {
          const service::Response resp = clients_[static_cast<std::size_t>(c)]
                                             ->request(req);
          log.close(span);
          const double ms = static_cast<double>(nowUs() - s0) * 1e-3;
          r.latenciesMs[i] = ms;
          ok[i] = ledger_.record(stream_.requests[k].cacheKey, req.id, resp);
          outsideMs[i] = ms - resp.elapsedMs;
          if (traced) {
            attachChromeEvents(log, resp.trace, span,
                               static_cast<std::uint32_t>(1 + c), req.id);
          }
        } catch (const std::exception&) {
          log.close(span);
          r.latenciesMs[i] = static_cast<double>(nowUs() - s0) * 1e-3;
        }
      }
    };
    std::vector<std::thread> threads;
    for (int c = 0; c < kServiceClients; ++c) threads.emplace_back(client, c);
    for (std::thread& t : threads) t.join();
    r.wallS = static_cast<double>(nowUs() - t0) * 1e-6;
    log.close(root);
    r.root = root;
    const ProcUsage after = procUsage(pid());
    r.cpuS = after.cpuS - before.cpuS;
    r.peakRssMb = after.peakRssMb;
    r.attempted = requestsPerPass();
    for (std::size_t i = 0; i < requestsPerPass(); ++i) {
      if (!ok[i]) ++r.failed;
      if (traced) {
        outsideSumMs_ += outsideMs[i];
      } else {
        kindMs_[stream_.requests[offset + i].kind].push_back(r.latenciesMs[i]);
      }
    }
    if (traced) outsideCount_ += requestsPerPass();
    // Replies are checked against the in-process reference in finish();
    // the pass digest only has to be the same for every pass.
    return r;
  }

  void finish(Outcome& out, Layers& layers, bool traced,
              std::size_t) override {
    // Server-side counters.
    service::Request statsReq;
    statsReq.op = service::Op::Stats;
    const service::Response stats = clients_.front()->request(statsReq);
    if (traced && stats.ok()) {
      const Json* cache = stats.result.find("cache");
      const double hits = cache->find("hits")->asNumber();
      const double misses = cache->find("misses")->asNumber();
      layers["service.cache_hit_ratio"] = hits / std::max(1.0, hits + misses);
      layers["service.evictions"] = cache->find("evictions")->asNumber();
      layers["service.max_queue_depth"] =
          stats.result.find("max_queue_depth")->asNumber();
      layers["service.outside_engine_ms"] =
          outsideSumMs_ / std::max<double>(1.0, static_cast<double>(outsideCount_));
    }

    // Reference: the same requests through an in-process ServiceEngine.
    // Every hot key is checked; misses are sampled per kind.
    std::set<std::string> seen;
    std::map<Kind, std::size_t> sampled;
    std::vector<std::size_t> order;
    for (std::size_t k = 0; k < passes_ * requestsPerPass(); ++k) {
      const StreamRequest& s = stream_.requests[k];
      if (!ledger_.replied(s.cacheKey) || !seen.insert(s.cacheKey).second) {
        continue;
      }
      const bool hot = s.kind == Kind::HitStudy || s.kind == Kind::HitCharacterize;
      if (hot || sampled[s.kind]++ < kMissSamplesPerKind) order.push_back(k);
    }
    service::ServiceEngine reference(engine_);
    util::ThreadPool pool;
    double parseS = 0, hitS = 0, missS = 0, serializeS = 0, responseKb = 0;
    std::size_t checked = 0;
    std::size_t mismatched = 0;
    for (std::size_t k : order) {
      const StreamRequest& s = stream_.requests[k];
      util::ExecutionContext ctx(pool);
      const std::int64_t p0 = nowUs();
      const service::Request req =
          service::requestFromJson(Json::parse(service::toJson(s.request).dump()));
      const std::int64_t p1 = nowUs();
      service::ServiceEngine::Outcome miss = reference.handle(ctx, req);
      const std::int64_t p2 = nowUs();
      service::ServiceEngine::Outcome hit = reference.handle(ctx, req);
      const std::int64_t p3 = nowUs();
      service::Response resp;
      resp.id = req.id;
      resp.op = req.op;
      resp.cached = hit.cached;
      resp.result = std::move(hit.result);
      const std::string wire = service::toJson(resp).dump();
      const std::int64_t p4 = nowUs();
      parseS += static_cast<double>(p1 - p0) * 1e-6;
      missS += static_cast<double>(p2 - p1) * 1e-6;
      hitS += static_cast<double>(p3 - p2) * 1e-6;
      serializeS += static_cast<double>(p4 - p3) * 1e-6;
      responseKb += static_cast<double>(wire.size()) / 1024.0;
      ++checked;
      mismatched += ledger_.settle(s.cacheKey, miss.result);
      if (traced) checkAdvisor(s, miss.result, reference, ctx, out, mismatched);
    }
    out.failed += mismatched;
    out.info.set("replies_checked_keys", static_cast<double>(checked));
    out.info.set("replies_mismatched", static_cast<double>(mismatched));
    if (traced && checked > 0) {
      const double n = static_cast<double>(checked);
      layers["service.parse_s"] = parseS / n;
      layers["service.engine_miss_s"] = missS / n;
      layers["service.engine_hit_s"] = hitS / n;
      layers["service.serialize_s"] = serializeS / n;
      layers["service.response_kb"] = responseKb / n;
      if (advisorCalls_ > 0) {
        layers["core.advisor_s"] = advisorS_ / advisorCalls_;
      }
      if (hydroRuns_ > 0) layers["sim.hydro_s"] = hydroS_ / hydroRuns_;
    }
    Json counts = Json::object();
    for (const auto& [kind, n] : stream_.counts) {
      counts.set(kindName(kind), static_cast<double>(n));
    }
    out.info.set("stream_generated", std::move(counts));
    // Where the percentiles fall: latency by request kind (untraced).
    Json byKind = Json::object();
    for (const auto& [kind, ms] : kindMs_) {
      Json k = Json::object();
      k.set("p50", util::percentile(ms, 0.5));
      k.set("max", *std::max_element(ms.begin(), ms.end()));
      byKind.set(kindName(kind), std::move(k));
    }
    out.info.set("req_ms_by_kind", std::move(byKind));
    out.info.set("stream_sent", static_cast<double>(passes_ * requestsPerPass()));
  }

  void tearDown() override {
    clients_.clear();
    server_.stop();
  }

  std::size_t guaranteedSamples() const override {
    return minPasses() * requestsPerPass();
  }
  std::size_t minPasses() const override { return 3; }
  bool coldCaches() const override { return false; }

 private:
  /// Send every warm-up request, one at a time: concurrent kernels would
  /// make the server's peak memory depend on how they happen to overlap.
  void warmUp() {
    service::ServiceClient warm("127.0.0.1", port());
    for (const service::Request& r : stream_.warm) {
      const service::Response resp = warm.request(r);
      PVIZ_REQUIRE(resp.ok(), "service warm-up failed: " + resp.error);
    }
  }

  int port() const { return server_.list.back().port; }
  long pid() const { return server_.list.back().pid; }

  /// Classify and budget again from the Study-level public functions
  /// (PowerAdvisor over the characterized profile, CloverLeaf steps for
  /// the sim side) and compare with the engine's result field by field.
  void checkAdvisor(const StreamRequest& s, const Json& engineResult,
                    service::ServiceEngine& reference,
                    util::ExecutionContext& ctx, Outcome& out,
                    std::size_t& mismatched) {
    if (s.kind != Kind::MissClassify && s.kind != Kind::MissBudget) return;
    service::Request characterize;
    characterize.op = service::Op::Characterize;
    characterize.algorithm = s.request.algorithm;
    characterize.size = s.request.size;
    const vis::KernelProfile kernel = core::scaleKernelWork(
        service::profileFromJson(reference.handle(ctx, characterize).result),
        engine_.study.workScale);
    core::PowerAdvisor advisor(engine_.study.machine);
    Json expected;
    if (s.kind == Kind::MissClassify) {
      const std::int64_t a0 = nowUs();
      const core::Classification cls =
          advisor.classify(kernel, s.request.capsWatts);
      advisorS_ += static_cast<double>(nowUs() - a0) * 1e-6;
      expected = service::classificationToJson(cls);
    } else {
      const std::int64_t h0 = nowUs();
      sim::CloverLeaf clover(s.request.size);
      clover.run(s.request.simSteps);
      const vis::KernelProfile simKernel = core::scaleKernelWork(
          clover.takeProfile(), engine_.study.workScale);
      hydroS_ += static_cast<double>(nowUs() - h0) * 1e-6;
      ++hydroRuns_;
      const std::int64_t a0 = nowUs();
      const core::BudgetPlan plan =
          advisor.planBudget(simKernel, kernel, s.request.budgetWatts);
      advisorS_ += static_cast<double>(nowUs() - a0) * 1e-6;
      expected = service::budgetPlanToJson(plan);
    }
    ++advisorCalls_;
    for (const auto& [key, value] : expected.asObject()) {
      const Json* got = engineResult.find(key);
      if (got == nullptr || got->dump() != value.dump()) {
        ++mismatched;
        out.info.set("advisor_mismatch", s.cacheKey + " field " + key);
        return;
      }
    }
  }

  RequestStream stream_;
  service::EngineConfig engine_;
  ServeProcesses server_;
  std::vector<std::unique_ptr<service::ServiceClient>> clients_;
  std::size_t passes_ = 0;
  ReplyLedger ledger_;
  double outsideSumMs_ = 0.0;
  std::size_t outsideCount_ = 0;
  std::map<Kind, std::vector<double>> kindMs_;
  double advisorS_ = 0.0;
  double advisorCalls_ = 0.0;
  double hydroS_ = 0.0;
  double hydroRuns_ = 0.0;
};

// --- fleet-sweep -----------------------------------------------------------

class FleetSweep : public Workload {
 public:
  explicit FleetSweep(const Options& o)
      : scope_(drawSweepScope(o.seed)), reference_(makeSweepCold(o)) {}

  PassResult runPass(SpanLog& log) override {
    PassResult r;
    const bool traced = log.enabled();
    const std::int64_t b0 = nowUs();
    ServeProcesses spawned;
    std::vector<fleet::SpawnedWorker>& workers = spawned.list;
    fleet::CoordinatorConfig config;
    for (int w = 0; w < kFleetWorkers; ++w) {
      fleet::SpawnOptions spawn;
      spawn.serveBin = PERFBENCH_SERVE_BIN;
      spawn.args = {"--cache", "none", "--caps", capsCsv(scope_.capsWatts),
                    "--cycles", std::to_string(scope_.cycles), "--quiet"};
      const std::int64_t w0 = nowUs();
      workers.push_back(fleet::spawnServeWorker(spawn));
      bootS_ += static_cast<double>(nowUs() - w0) * 1e-6;
      ++boots_;
      fleet::FleetEndpoint endpoint;
      endpoint.name = "w" + std::to_string(w);
      endpoint.port = workers.back().port;
      endpoint.pid = workers.back().pid;
      config.endpoints.push_back(endpoint);
    }
    fleet::Coordinator coordinator(config);
    coordinator.start();
    setupSamples.push_back(static_cast<double>(nowUs() - b0) * 1e-6);

    const int root = log.open("bench.pass", "", 0, -1);
    const Usage before = selfUsage();
    std::vector<ProcUsage> workerBefore;
    for (const fleet::SpawnedWorker& w : workers) {
      workerBefore.push_back(procUsage(w.pid));
    }
    const std::int64_t t0 = nowUs();
    Json report;
    int sweepSpan = -1;
    {
      ScopedSpan sweep(log, "fleet.run_sweep", "", 0, root);
      sweepSpan = sweep.index();
      report = coordinator.runSweep(scope_.algorithms, scope_.sizes,
                                    scope_.capsWatts, scope_.cycles);
    }
    r.wallS = static_cast<double>(nowUs() - t0) * 1e-6;
    log.close(root);
    r.root = root;
    r.cpuS = selfUsage().cpuS() - before.cpuS();
    for (std::size_t w = 0; w < workers.size(); ++w) {
      const ProcUsage u = procUsage(workers[w].pid);
      r.cpuS += u.cpuS - workerBefore[w].cpuS;
      r.peakRssMb += u.peakRssMb;
    }
    r.digest = digestOf(report.dump());

    const fleet::FleetSweepStats stats = coordinator.lastSweepStats();
    r.attempted = stats.units;
    // Each dispatched unit is one request to a worker.
    const fleet::MergedTrace merged = coordinator.collectTrace();
    for (const telemetry::TraceSpan& s : merged.spans) {
      if (s.category != "fleet") continue;
      r.latenciesMs.push_back(static_cast<double>(s.durationUs) * 1e-3);
    }
    if (traced) {
      attachMerged(log, merged, sweepSpan);
      reroutes_ += static_cast<double>(stats.reroutes);
      claimsDeclined_ += static_cast<double>(stats.claimsDeclined);
      std::size_t most = 0;
      for (const auto& [worker, n] : stats.unitsByWorker) most = std::max(most, n);
      maxShare_ = std::max(maxShare_, static_cast<double>(most) /
                                          std::max<double>(1.0, stats.units));
      unitMs_.insert(unitMs_.end(), r.latenciesMs.begin(), r.latenciesMs.end());
    }
    coordinator.stop();
    spawned.stop();
    digests_.push_back(r.digest);
    return r;
  }

  void finish(Outcome& out, Layers& layers, bool traced,
              std::size_t tracedPasses) override {
    // The merged report must equal the in-process cold study of the same
    // scope, record for record.
    const std::uint64_t want = reference_->referenceDigest();
    for (std::uint64_t d : digests_) {
      if (d != want) out.failed += scope_.algorithms.size() * scope_.sizes.size();
    }
    out.info.set("fleet_matches_in_process",
                 std::all_of(digests_.begin(), digests_.end(),
                             [&](std::uint64_t d) { return d == want; }));
    if (!traced || tracedPasses == 0) return;
    const double n = static_cast<double>(tracedPasses);
    layers["fleet.worker_boot_s"] = bootS_ / std::max(1.0, boots_);
    layers["fleet.reroutes"] = reroutes_ / n;
    layers["fleet.claims_declined"] = claimsDeclined_ / n;
    layers["fleet.max_worker_share"] = maxShare_;
    if (!unitMs_.empty()) {
      layers["fleet.unit_p50_ms"] = util::percentile(unitMs_, 0.5);
      layers["fleet.unit_tail_ms"] =
          util::percentile(
              unitMs_, std::max(50.0, tailPercentileFor(unitMs_.size())) / 100.0);
    }
  }

  std::size_t guaranteedSamples() const override {
    return minPasses() * scope_.algorithms.size() * scope_.sizes.size() *
           scope_.capsWatts.size();
  }
  /// Fleet passes vary most from one to the next (two kernel pools share
  /// the cores), so a run takes the median of five.
  std::size_t minPasses() const override { return 5; }

 private:
  /// Dispatches become children of the runSweep span.  Lanes: 0 is the
  /// bench thread; worker w's dispatches and its server spans share lane
  /// 1 + w (one dispatcher per worker sends one unit at a time, so they
  /// nest).
  static void attachMerged(SpanLog& log, const fleet::MergedTrace& merged,
                           int sweep) {
    std::map<std::uint64_t, int> dispatchByTrace;
    for (const telemetry::TraceSpan& s : merged.spans) {
      if (s.category != "fleet") continue;
      std::string worker;
      for (const auto& [k, v] : s.args) {
        if (k == "worker") worker = v;
      }
      Span span;
      span.name = s.name;
      span.id = worker;
      span.lane = 1 + static_cast<std::uint32_t>(std::stoul(worker.substr(1)));
      span.parent = sweep;
      span.startUs = static_cast<std::int64_t>(s.startUs);
      span.endUs = span.startUs + static_cast<std::int64_t>(s.durationUs);
      dispatchByTrace[s.traceId] = log.add(std::move(span));
    }
    for (const telemetry::TraceSpan& s : merged.spans) {
      if (s.category == "fleet") continue;
      Span span;
      span.name = s.category == "kernel" ? "phase:" + s.name : s.name;
      span.lane = s.pid >= 2 ? 1 + (s.pid - 2) : 0;
      auto parent = dispatchByTrace.find(s.traceId);
      span.parent = parent == dispatchByTrace.end() ? sweep : parent->second;
      span.startUs = static_cast<std::int64_t>(s.startUs);
      span.endUs = span.startUs + static_cast<std::int64_t>(s.durationUs);
      for (const auto& [k, v] : s.args) {
        if (k == "cache_hit") span.arg = v == "true" ? "hit" : "miss";
      }
      log.add(std::move(span));
    }
  }

  SweepScope scope_;
  std::unique_ptr<StudySweep> reference_;
  std::vector<std::uint64_t> digests_;
  double bootS_ = 0.0;
  double boots_ = 0.0;
  double reroutes_ = 0.0;
  double claimsDeclined_ = 0.0;
  double maxShare_ = 0.0;
  std::vector<double> unitMs_;
};

std::unique_ptr<Workload> makeWorkload(const Options& o) {
  if (o.workload == "sweep-cold") return makeSweepCold(o);
  if (o.workload == "large-grid") return makeLargeGrid(o);
  if (o.workload == "service-mixed") return std::make_unique<ServiceMixed>(o.seed);
  if (o.workload == "fleet-sweep") return std::make_unique<FleetSweep>(o);
  throw Error("unknown workload '" + o.workload + "'");
}

}  // namespace

const std::vector<std::string>& workloadNames() {
  static const std::vector<std::string> names = {
      "sweep-cold", "large-grid", "service-mixed", "fleet-sweep"};
  return names;
}

const std::vector<std::pair<std::string, std::string>>& endToEndMetrics() {
  static const std::vector<std::pair<std::string, std::string>> metrics = {
      {"setup_s", "s"},       {"wall_s", "s"},         {"cpu_s", "s"},
      {"peak_rss_mb", "MB"},  {"req_per_s", "1/s"},    {"req_p50_ms", "ms"},
      {"req_tail_ms", "ms"}};
  return metrics;
}

const std::vector<std::pair<std::string, std::string>>& perLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> metrics = [] {
    std::vector<std::pair<std::string, std::string>> m = {
        {"bench.wall_s", "s"},
        {"bench.untraced_s", "s"},
        {"bench.other_s", "s"},
        {"bench.untraced_wall_s", "s"},
        {"bench.trace_overhead_ratio", "ratio"},
        {"sim.field_s", "s"},
        {"sim.hydro_s", "s"},
        {"core.model_s", "s"},
        {"core.model_configs", "count"},
        {"core.advisor_s", "s"}};
    for (core::Algorithm a : core::allAlgorithms()) {
      const std::string t = core::algorithmToken(a);
      m.push_back({"core.characterize_s." + t, "s"});
      m.push_back({"viz.elements_per_s." + t, "1/s"});
      m.push_back({"viz.untraced_s." + t, "s"});
    }
    for (const std::string& p : phaseNames()) m.push_back({"viz.phase_s." + p, "s"});
    for (core::Algorithm a : dataBound()) {
      const std::string t = core::algorithmToken(a);
      m.push_back({"util.minflt." + t, "count"});
      m.push_back({"util.sys_s." + t, "s"});
      m.push_back({"util.arena_peak_mb." + t, "MB"});
    }
    const std::vector<std::pair<std::string, std::string>> rest = {
        {"service.client_s", "s"},
        {"service.server_hit_s", "s"},
        {"service.server_miss_s", "s"},
        {"service.parse_s", "s"},
        {"service.engine_hit_s", "s"},
        {"service.engine_miss_s", "s"},
        {"service.serialize_s", "s"},
        {"service.response_kb", "KiB"},
        {"service.cache_hit_ratio", "ratio"},
        {"service.evictions", "count"},
        {"service.max_queue_depth", "count"},
        {"service.outside_engine_ms", "ms"},
        {"fleet.worker_boot_s", "s"},
        {"fleet.coordinator_s", "s"},
        {"fleet.dispatch_s", "s"},
        {"fleet.unit_p50_ms", "ms"},
        {"fleet.unit_tail_ms", "ms"},
        {"fleet.reroutes", "count"},
        {"fleet.claims_declined", "count"},
        {"fleet.max_worker_share", "ratio"}};
    m.insert(m.end(), rest.begin(), rest.end());
    return m;
  }();
  return metrics;
}

PassResult runPassHere(const Options& o) {
  std::unique_ptr<StudySweep> w;
  if (o.workload == "sweep-cold") w = makeSweepCold(o);
  if (o.workload == "large-grid") w = makeLargeGrid(o);
  PVIZ_REQUIRE(w != nullptr, o.workload + " does not run in pass processes");
  return w->runHere(o.trace);
}

int runChildPass(const Options& o) {
  std::cout << passToJson(runPassHere(o)).dump() << std::endl;
  return 0;
}

Outcome runWorkload(const Options& o) {
  std::unique_ptr<Workload> w = makeWorkload(o);
  Outcome out;
  Json problems = Json::array();
  SpanLog log(o.trace);
  SpanLog off(false);
  w->setUp();

  std::vector<PassResult> plain;
  std::vector<PassResult> traced;
  Layers selfTimes;   // summed over traced passes
  Layers passLayers;  // other per-pass values, summed over traced passes
  Layers layers;      // what the traced run reports
  const std::int64_t start = nowUs();
  double longestPassS = 0.0;
  for (std::size_t i = 0;; ++i) {
    const double elapsed = static_cast<double>(nowUs() - start) * 1e-6;
    const std::size_t done = plain.size() + traced.size();
    const bool enough = o.trace ? (!plain.empty() && !traced.empty())
                                : done >= w->minPasses();
    if (enough && (elapsed >= o.seconds ||
                   elapsed + longestPassS > kRunCeilingS)) {
      break;
    }
    const bool tracedPass = o.trace && i % 2 == 1;
    PassResult r = w->runPass(tracedPass ? log : off);
    if (r.exhausted) break;
    longestPassS = std::max(longestPassS, r.wallS);
    if (tracedPass) {
      if (r.root >= 0) addSelfTimes(log, r.root, r.selfTimes);
      for (const auto& [name, value] : r.selfTimes) selfTimes[name] += value;
      for (const auto& [name, value] : r.layers) passLayers[name] += value;
      traced.push_back(std::move(r));
    } else {
      plain.push_back(std::move(r));
    }
  }

  // Every pass must produce the same records (traced ones included).
  const std::uint64_t want = plain.empty() ? 0 : plain.front().digest;
  for (const std::vector<PassResult>* set : {&plain, &traced}) {
    for (const PassResult& r : *set) {
      out.attempted += r.attempted;
      out.failed += r.failed;
      if (r.digest != want) out.failed += r.attempted - r.failed;
    }
  }
  w->finish(out, layers, o.trace, traced.size());
  w->tearDown();

  auto column = [](const std::vector<PassResult>& passes, auto field) {
    std::vector<double> v;
    for (const PassResult& r : passes) v.push_back(field(r));
    return v;
  };
  if (!o.trace) {
    std::vector<double> latencies;
    for (const PassResult& r : plain) {
      latencies.insert(latencies.end(), r.latenciesMs.begin(), r.latenciesMs.end());
    }
    // Too few requests for a tail with ten samples beyond it: report the
    // maximum, stated as the 100th percentile.
    double tailP = tailPercentileFor(w->guaranteedSamples());
    if (tailP == 0.0) tailP = 100.0;
    const std::map<std::string, double> values = {
        {"setup_s", median(w->setupSamples)},
        {"wall_s", median(column(plain, [](const PassResult& r) { return r.wallS; }))},
        {"cpu_s", median(column(plain, [](const PassResult& r) { return r.cpuS; }))},
        {"peak_rss_mb",
         median(column(plain, [](const PassResult& r) { return r.peakRssMb; }))},
        {"req_per_s", median(column(plain, [](const PassResult& r) {
           return static_cast<double>(r.latenciesMs.size()) / r.wallS;
         }))},
        {"req_p50_ms", util::percentile(latencies, 0.5)},
        {"req_tail_ms", util::percentile(latencies, tailP / 100.0)}};
    for (const auto& [name, unit] : endToEndMetrics()) {
      out.metrics.push_back({name, values.at(name), unit});
    }
    Json tail = Json::object();
    tail.set("percentile", tailP);
    tail.set("samples", static_cast<double>(latencies.size()));
    tail.set("beyond", static_cast<double>(samplesBeyond(latencies.size(), tailP)));
    out.info.set("req_tail", std::move(tail));
    Json walls = Json::array();
    for (const PassResult& r : plain) walls.push(r.wallS);
    out.info.set("pass_wall_s", std::move(walls));
  } else {
    const double n = static_cast<double>(traced.size());
    double tracedWall = 0.0;
    for (const PassResult& r : traced) tracedWall += r.wallS;
    for (const auto& [name, total] : passLayers) layers[name] = total / n;
    // Self times partition each traced pass: they must add up to it.
    double layerSum = 0.0;
    for (const auto& [name, total] : selfTimes) {
      layers[name] = total / n;
      layerSum += total / n;
    }
    layers["bench.wall_s"] = tracedWall / n;
    const double untracedWall =
        median(column(plain, [](const PassResult& r) { return r.wallS; }));
    layers["bench.untraced_wall_s"] = untracedWall;
    layers["bench.trace_overhead_ratio"] = (tracedWall / n) / untracedWall;
    // The root span brackets the timed region within a few microseconds.
    const double gap = std::abs(layerSum - tracedWall / n);
    if (gap > 1e-3 + 1e-4 * tracedWall / n) {
      problems.push("self times do not add up to the traced wall");
    }
    for (const auto& [name, unit] : perLayerMetrics()) {
      auto it = layers.find(name);
      out.metrics.push_back({name, it == layers.end() ? 0.0 : it->second, unit});
    }
    for (const auto& [name, value] : layers) {
      const auto& declared = perLayerMetrics();
      if (std::none_of(declared.begin(), declared.end(),
                       [&](const auto& m) { return m.first == name; })) {
        problems.push("undeclared layer " + name);
      }
    }
    out.info.set("passes_traced", n);
    out.info.set("passes_untraced", static_cast<double>(plain.size()));
    if (!log.spans().empty()) {
      std::ofstream(o.outDir + "/trace-" + o.workload + "-" +
                    std::to_string(o.seed) + ".json")
          << log.toChromeJson();
    }
  }
  out.info.set("host", hostFingerprint(o.commit, w->coldCaches()));
  if (!problems.asArray().empty()) {
    out.correct = false;
    out.info.set("problems", std::move(problems));
  }
  if (out.failed > 0) out.correct = false;
  return out;
}

}  // namespace perfbench
