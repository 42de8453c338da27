// perfbench — the PowerViz end-to-end benchmark.
//
//   perfbench --workload sweep-cold --seed 7 --seconds 10 --trace 0
//
// Runs one workload from its seed for about --seconds, checks its
// outputs, and prints as its last stdout line one JSON object:
// {"correct", "attempted", "failed", "metrics"} with the end-to-end
// metrics (--trace 0) or the per-layer metrics (--trace 1).  The line
// before it carries the host fingerprint and the run's details.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>

#include "service/json.h"
#include "util/error.h"
#include "util/log.h"
#include "workloads.h"

namespace {

[[noreturn]] void usage(int code) {
  std::cerr << "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR] [--commit ID]\n"
               "workloads:";
  for (const std::string& w : perfbench::workloadNames()) std::cerr << ' ' << w;
  std::cerr << '\n';
  std::exit(code);
}

}  // namespace

int main(int argc, char** argv) {
  using pviz::service::Json;
  pviz::util::setDefaultLogLevel(pviz::util::LogLevel::Warn);
  perfbench::Options o;
  o.selfPath = argv[0];
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "-h" || arg == "--help") usage(0);
      if (i + 1 >= argc) usage(2);
      const std::string value = argv[++i];
      if (arg == "--workload") o.workload = value;
      else if (arg == "--seed") o.seed = std::stoull(value);
      else if (arg == "--seconds") o.seconds = std::stod(value);
      else if (arg == "--trace") o.trace = value == "1";
      else if (arg == "--out-dir") o.outDir = value;
      else if (arg == "--commit") o.commit = value;
      else if (arg == "--pass") o.pass = std::stoi(value);
      else usage(2);
    }
    if (o.workload.empty()) usage(2);
    std::filesystem::create_directories(o.outDir);
    if (o.pass >= 0) return perfbench::runChildPass(o);

    const perfbench::Outcome out = perfbench::runWorkload(o);
    Json info = out.info;
    info.set("workload", o.workload);
    info.set("seed", static_cast<double>(o.seed));
    info.set("trace", o.trace);
    std::cout << info.dump() << '\n';

    Json metrics = Json::object();
    for (const perfbench::Metric& m : out.metrics) {
      Json entry = Json::object();
      entry.set("value", m.value);
      entry.set("unit", m.unit);
      metrics.set(m.name, std::move(entry));
    }
    Json result = Json::object();
    result.set("correct", out.correct);
    result.set("attempted", static_cast<double>(out.attempted));
    result.set("failed", static_cast<double>(out.failed));
    result.set("metrics", std::move(metrics));
    std::cout << result.dump() << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 1;
  }
}
