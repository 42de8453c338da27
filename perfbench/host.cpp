#include "host.h"

#include <sys/resource.h>
#include <unistd.h>

#include <fstream>
#include <sstream>
#include <thread>

namespace perfbench {

namespace {

double seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
}

/// The bracketed choice of a sysfs mode file ("always [madvise] never").
std::string bracketed(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  if (!std::getline(in, line)) return "unknown";
  const std::size_t open = line.find('[');
  const std::size_t close = line.find(']', open);
  if (open == std::string::npos || close == std::string::npos) return line;
  return line.substr(open + 1, close - open - 1);
}

}  // namespace

Usage selfUsage() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.userS = seconds(ru.ru_utime);
  u.sysS = seconds(ru.ru_stime);
  u.minorFaults = ru.ru_minflt;
  u.peakRssMb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  return u;
}

ProcUsage procUsage(long pid) {
  ProcUsage u;
  const std::string dir = "/proc/" + std::to_string(pid);
  {
    std::ifstream in(dir + "/stat");
    std::string line;
    if (std::getline(in, line)) {
      // Fields after the parenthesised command name; utime is field 14.
      const std::size_t close = line.rfind(')');
      std::istringstream rest(line.substr(close + 2));
      std::string field;
      double ticks = 0.0;
      for (int f = 3; f <= 17 && rest >> field; ++f) {
        if (f >= 14) ticks += std::stod(field);  // utime stime cutime cstime
      }
      u.cpuS = ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
    }
  }
  std::ifstream status(dir + "/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kb = 0.0;
      status >> kb;
      u.peakRssMb = kb / 1024.0;
      break;
    }
    status.ignore(1 << 12, '\n');
  }
  return u;
}

pviz::service::Json hostFingerprint(const std::string& commit, bool cold) {
  pviz::service::Json host = pviz::service::Json::object();
  host.set("cores", static_cast<int>(std::thread::hardware_concurrency()));
  host.set("thp", bracketed("/sys/kernel/mm/transparent_hugepage/enabled"));
  host.set("build_type", PERFBENCH_BUILD_TYPE);
  host.set("compiler", PERFBENCH_COMPILER);
  host.set("commit", commit);
  host.set("caches", cold ? "cold" : "warm");
  return host;
}

}  // namespace perfbench
