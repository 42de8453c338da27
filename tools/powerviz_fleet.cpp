// powerviz_fleet — run the paper sweep sharded across a worker fleet.
//
//   powerviz_fleet --workers 4 --serve-bin ./powerviz_serve --light
//   powerviz_fleet --attach 127.0.0.1:7077,127.0.0.1:7078
//   powerviz_fleet --workers 4 --serve-bin ./powerviz_serve --light
//       --kill-one --lint --summary-json
//
// Two modes:
//   spawn (default)  fork --workers N powerviz_serve processes on
//                    ephemeral ports, run the sweep, terminate them
//   attach           drive already-running servers (--attach list);
//                    they are left running afterwards
//
// The merged report is bit-identical to what one server would return
// for the same scope (see src/fleet/coordinator.h).  --kill-one
// SIGKILLs a spawned worker mid-sweep to demonstrate failover: the
// sweep still completes, every unit exactly once.
#include <signal.h>

#include <cstdlib>
#include <iostream>
#include <thread>

#include "fleet/coordinator.h"
#include "fleet/spawn.h"
#include "telemetry/prometheus.h"
#include "util/error.h"
#include "util/fileio.h"
#include "util/log.h"
#include "util/options.h"

namespace {

using namespace pviz;

[[noreturn]] void usage(int exitCode) {
  std::cout <<
      R"(powerviz_fleet — shard a study sweep across powerviz_serve workers

usage: powerviz_fleet [options]

fleet:
  --workers N          workers to spawn, 1..256 (default 4)
  --serve-bin PATH     powerviz_serve binary to spawn (default: the
                       POWERVIZ_SERVE env var, else ./powerviz_serve)
  --attach LIST        attach to running servers instead of spawning:
                       comma-separated host:port endpoints
  --light              spawn workers with --light rendering (fast
                       characterizations; spawn mode only)
  --grain cap|pair     work-unit grain: one unit per (algorithm, size,
                       cap) cell or per (algorithm, size) row
                       (default cap)
  --hedge-ms N         duplicate a unit in flight longer than N ms onto
                       a second worker, first completion wins (0 = off)
  --retries N          dispatch reconnect attempts per request
                       (default 2)
  --timeout-ms N       per-read deadline on dispatch connections
                       (default 0 = none)

sweep scope (defaults = the paper's full 8×9×4 matrix):
  --algorithms a,b,...
  --sizes n,n,...
  --caps w,w,...
  --blocks n,n,...     multi-block k-slab counts, 1..4096 each: the
                       sweep gains an outermost block dimension (one
                       full study per count, concatenated).  Default:
                       worker-configured decomposition (no dimension).
  --cycles N           visualization cycles (default 10, at most 1000)

failure injection:
  --kill-one           SIGKILL one spawned worker mid-sweep
  --kill-after-ms N    delay before the kill (default 500)

output:
  --report PATH        write the merged study report JSON to PATH
  --metrics-out PATH   write the merged fleet Prometheus exposition
  --trace-out PATH     write the merged fleet Chrome trace (coordinator
                       dispatch spans + every worker's trace_dump
                       fragment, clock-corrected onto one timeline;
                       loads in Perfetto / chrome://tracing)
  --lint               lint the merged exposition; exit non-zero if it
                       is malformed
  --summary-json       print the fleet stats JSON (registry + sweep
                       counters) to stdout
  --quiet              suppress progress logging
)";
  std::exit(exitCode);
}

}  // namespace

int main(int argc, char** argv) {
  int workers = 4;
  std::string serveBin;
  bool light = false;
  bool killOne = false;
  int killAfterMs = 500;
  bool lint = false;
  bool summaryJson = false;
  std::string reportPath;
  std::string metricsOutPath;
  std::string traceOutPath;

  fleet::CoordinatorConfig config;
  std::vector<core::Algorithm> algorithms = core::allAlgorithms();
  core::StudyConfig defaults;
  std::vector<vis::Id> sizes = defaults.sizes;
  std::vector<double> caps = defaults.capsWatts;
  std::vector<vis::Id> blockCounts = {0};  // 0 = worker default
  int cycles = defaults.cycles;

  util::setDefaultLogLevel(util::LogLevel::Info);

  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto next = [&]() -> std::string {
        if (i + 1 >= argc) {
          std::cerr << arg << " needs a value\n";
          std::exit(2);
        }
        return argv[++i];
      };
      if (arg == "-h" || arg == "--help") usage(0);
      else if (arg == "--workers") workers = static_cast<int>(util::parseBounded(next(), "--workers", 1, 256));
      else if (arg == "--serve-bin") serveBin = next();
      else if (arg == "--attach") {
        config.endpoints.clear();
        for (const std::string& entry : util::splitList(next())) {
          const std::size_t colon = entry.rfind(':');
          if (colon == std::string::npos) {
            throw Error("--attach entries are host:port, got '" + entry + "'");
          }
          fleet::FleetEndpoint endpoint;
          endpoint.name = "w" + std::to_string(config.endpoints.size());
          endpoint.host = entry.substr(0, colon);
          endpoint.port = static_cast<int>(util::parseBounded(
              entry.substr(colon + 1), "--attach port", 0, util::kMaxPort));
          config.endpoints.push_back(endpoint);
        }
        if (config.endpoints.empty()) throw Error("--attach list is empty");
      }
      else if (arg == "--light") light = true;
      else if (arg == "--grain") config.grain = core::parseSweepGrainToken(next());
      else if (arg == "--hedge-ms") config.hedgeAfterMs = static_cast<int>(util::parseBounded(next(), "--hedge-ms", 0, util::kMaxIntFlag));
      else if (arg == "--retries") config.clientRetries = static_cast<int>(util::parseBounded(next(), "--retries", 0, 1000));
      else if (arg == "--timeout-ms") config.recvTimeoutMs = static_cast<int>(util::parseBounded(next(), "--timeout-ms", 0, util::kMaxIntFlag));
      else if (arg == "--algorithms") algorithms = core::parseAlgorithmList(next());
      else if (arg == "--sizes") {
        sizes.clear();
        for (std::int64_t s : util::parseSizeList(next())) sizes.push_back(s);
      }
      else if (arg == "--caps") caps = util::parseCapList(next());
      else if (arg == "--blocks") {
        blockCounts.clear();
        for (std::int64_t b : util::parseSizeList(next())) {
          if (b < 1 || b > 4096) {
            std::cerr << "--blocks entries must be in [1, 4096], got " << b
                      << '\n';
            std::exit(2);
          }
          blockCounts.push_back(b);
        }
      }
      else if (arg == "--cycles") cycles = static_cast<int>(util::parseBounded(next(), "--cycles", 1, core::kMaxCycles));
      else if (arg == "--kill-one") killOne = true;
      else if (arg == "--kill-after-ms") killAfterMs = static_cast<int>(util::parseBounded(next(), "--kill-after-ms", 0, util::kMaxIntFlag));
      else if (arg == "--report") reportPath = next();
      else if (arg == "--metrics-out") metricsOutPath = next();
      else if (arg == "--trace-out") traceOutPath = next();
      else if (arg == "--lint") lint = true;
      else if (arg == "--summary-json") summaryJson = true;
      else if (arg == "--quiet") util::setLogLevel(util::LogLevel::Warn);
      else {
        std::cerr << "unknown option '" << arg << "'\n";
        usage(2);
      }
    }
    if (killOne && !config.endpoints.empty()) {
      throw Error("--kill-one needs spawn mode (we only kill workers this "
                  "process owns)");
    }
  } catch (const pviz::Error& e) {
    std::cerr << "powerviz_fleet: " << e.what()
              << "\nusage: powerviz_fleet [options] (--help lists them)\n";
    return 2;
  }

  try {
    std::vector<fleet::SpawnedWorker> spawned;
    if (config.endpoints.empty()) {
      // Spawn mode.
      if (serveBin.empty()) {
        const char* env = std::getenv("POWERVIZ_SERVE");
        serveBin = env != nullptr ? env : "./powerviz_serve";
      }
      fleet::SpawnOptions spawnOptions;
      spawnOptions.serveBin = serveBin;
      spawnOptions.args = {"--quiet", "--cache", "none"};
      if (light) spawnOptions.args.push_back("--light");
      for (int w = 0; w < workers; ++w) {
        fleet::SpawnedWorker worker = fleet::spawnServeWorker(spawnOptions);
        PVIZ_LOG_INFO("spawned worker w" << w << " pid=" << worker.pid
                                         << " port=" << worker.port);
        fleet::FleetEndpoint endpoint;
        endpoint.name = "w" + std::to_string(w);
        endpoint.port = worker.port;
        endpoint.pid = worker.pid;
        config.endpoints.push_back(endpoint);
        spawned.push_back(worker);
      }
    }

    int exitCode = 0;
    std::thread killer;
    auto cleanup = [&] {
      if (killer.joinable()) killer.join();
      for (fleet::SpawnedWorker& worker : spawned) {
        fleet::terminateWorker(worker);
      }
    };
    try {
      fleet::Coordinator coordinator(config);
      coordinator.start();

      if (killOne && !spawned.empty()) {
        killer = std::thread([&] {
          std::this_thread::sleep_for(
              std::chrono::milliseconds(killAfterMs));
          PVIZ_LOG_WARN("killing worker w0 pid=" << spawned[0].pid
                                                 << " (--kill-one)");
          fleet::killWorkerHard(spawned[0]);
        });
      }

      const service::Json report =
          coordinator.runSweep(algorithms, sizes, caps, blockCounts, cycles);
      if (killer.joinable()) killer.join();

      const fleet::FleetSweepStats stats = coordinator.lastSweepStats();
      PVIZ_LOG_INFO("sweep complete: "
                    << stats.records << " records from " << stats.units
                    << " units (" << stats.dispatches << " dispatches, "
                    << stats.cachedReplies << " cached, " << stats.reroutes
                    << " reroutes, " << stats.hedges << " hedges, "
                    << stats.duplicates << " duplicates, "
                    << stats.workersDead << " worker deaths)");

      if (!reportPath.empty()) {
        util::atomicWriteFile(reportPath, report.dump() + "\n");
        PVIZ_LOG_INFO("wrote " << reportPath);
      }
      if (lint || !metricsOutPath.empty()) {
        const std::string merged = coordinator.mergedMetrics();
        if (!metricsOutPath.empty()) {
          util::atomicWriteFile(metricsOutPath, merged);
          PVIZ_LOG_INFO("wrote " << metricsOutPath);
        }
        if (lint) {
          std::string error;
          if (!telemetry::lintPrometheus(merged, &error)) {
            std::cerr << "fleet metrics lint failed: " << error << '\n';
            exitCode = 1;
          } else {
            std::cerr << "fleet metrics lint: ok ("
                      << config.endpoints.size() << " workers merged)\n";
          }
        }
      }
      if (!traceOutPath.empty()) {
        const fleet::MergedTrace trace = coordinator.collectTrace();
        util::atomicWriteFile(traceOutPath,
                              fleet::mergedTraceToChromeJson(trace) + "\n");
        PVIZ_LOG_INFO("wrote " << traceOutPath << " (" << trace.spans.size()
                               << " spans from "
                               << trace.processNames.size()
                               << " processes)");
      }
      if (summaryJson) {
        std::cout << coordinator.statsJson().dump() << '\n';
      }
      coordinator.stop();
    } catch (...) {
      cleanup();
      throw;
    }
    cleanup();
    return exitCode;
  } catch (const pviz::Error& e) {
    std::cerr << "powerviz_fleet: " << e.what() << '\n';
    return 1;
  }
}
