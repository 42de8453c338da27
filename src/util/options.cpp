#include "util/options.h"

#include <cerrno>
#include <cstdlib>
#include <sstream>
#include <string>

#include "util/error.h"

namespace pviz::util {

namespace {

/// The whole token as a base-10 integer, or false.
bool wholeInt(const std::string& token, std::int64_t& value) {
  errno = 0;
  char* end = nullptr;
  value = static_cast<std::int64_t>(std::strtoll(token.c_str(), &end, 10));
  return !token.empty() && end == token.c_str() + token.size() && errno == 0;
}

}  // namespace

std::vector<std::string> splitList(const std::string& csv) {
  std::vector<std::string> out;
  std::stringstream ss(csv);
  std::string token;
  while (std::getline(ss, token, ',')) {
    if (!token.empty()) out.push_back(token);
  }
  return out;
}

std::int64_t parseInt(const std::string& token, const std::string& what) {
  std::int64_t value = 0;
  if (!wholeInt(token, value)) {
    throw Error(what + ": '" + token + "' is not an integer");
  }
  return value;
}

std::int64_t parseBounded(const std::string& token, const std::string& flag,
                          std::int64_t lo, std::int64_t hi) {
  std::int64_t value = 0;
  if (!wholeInt(token, value) || value < lo || value > hi) {
    throw Error(flag + " must be an integer in [" + std::to_string(lo) +
                ", " + std::to_string(hi) + "], got '" + token + "'");
  }
  return value;
}

double parseDouble(const std::string& token, const std::string& what) {
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(token.c_str(), &end);
  if (token.empty() || end != token.c_str() + token.size() || errno != 0) {
    throw Error(what + ": '" + token + "' is not a number");
  }
  return value;
}

std::vector<std::int64_t> parseSizeList(const std::string& csv) {
  std::vector<std::int64_t> sizes;
  for (const auto& token : splitList(csv)) {
    const std::int64_t size = parseInt(token, "size list");
    if (size <= 0) throw Error("size list: '" + token + "' must be positive");
    sizes.push_back(size);
  }
  if (sizes.empty()) throw Error("size list is empty");
  return sizes;
}

std::vector<double> parseCapList(const std::string& csv) {
  std::vector<double> caps;
  for (const auto& token : splitList(csv)) {
    const double cap = parseDouble(token, "cap list");
    if (!(cap > 0.0)) throw Error("cap list: '" + token + "' must be positive");
    caps.push_back(cap);
  }
  if (caps.empty()) throw Error("cap list is empty");
  return caps;
}

}  // namespace pviz::util
