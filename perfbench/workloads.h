// The benchmark's workloads and the metrics they report.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "service/json.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string outDir = ".bench_out";  ///< trace files
  std::string commit = "unknown";     ///< source fingerprint for the host block
  std::string selfPath;               ///< this binary, to spawn passes
  /// >= 0: run only this pass of an in-process workload, here, and print
  /// its result (the parent process times passes this way).
  int pass = -1;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  bool correct = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<Metric> metrics;
  /// Host fingerprint, stream counts, tail percentile, problems found.
  pviz::service::Json info = pviz::service::Json::object();
};

const std::vector<std::string>& workloadNames();

/// End-to-end metrics (name, unit), printed with tracing off.
const std::vector<std::pair<std::string, std::string>>& endToEndMetrics();
/// Per-layer metrics (name, unit), printed by the traced run.  A layer a
/// workload does not exercise reads 0.
const std::vector<std::pair<std::string, std::string>>& perLayerMetrics();

/// Run one workload; throws pviz::Error on an unknown name.
Outcome runWorkload(const Options& options);

/// Run pass `options.pass` of sweep-cold or large-grid in this process
/// and print its result as one JSON line.
int runChildPass(const Options& options);

}  // namespace perfbench
