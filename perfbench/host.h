// Host resource counters and the host fingerprint every result carries.
#pragma once

#include <cstdint>
#include <string>

#include "service/json.h"

namespace perfbench {

/// getrusage(RUSAGE_SELF) snapshot: the whole process, pool threads
/// included.
struct Usage {
  double userS = 0.0;
  double sysS = 0.0;
  std::int64_t minorFaults = 0;
  double peakRssMb = 0.0;
  double cpuS() const { return userS + sysS; }
};
Usage selfUsage();

/// CPU (user + system, including reaped children) and peak RSS of
/// another process, read from /proc/<pid>.
struct ProcUsage {
  double cpuS = 0.0;
  double peakRssMb = 0.0;
};
ProcUsage procUsage(long pid);

/// Cores, transparent-huge-page mode, this build's CMAKE_BUILD_TYPE and
/// compiler, the source commit, and whether caches start cold.
pviz::service::Json hostFingerprint(const std::string& commit, bool cold);

}  // namespace perfbench
