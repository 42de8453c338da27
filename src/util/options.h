// Shared command-line/option parsing for the PowerViz tools.
//
// Every front end (powerviz_study, powerviz_serve, powerviz_client, the
// benches) accepts the same comma-separated size and cap lists; this is
// the one strict implementation.  All parsers throw pviz::Error with a
// message naming the offending token — the tools catch it at top level
// and turn it into a usage error, the server turns it into an `error`
// response.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace pviz::util {

/// Split a comma-separated list into tokens; empty tokens are dropped
/// ("a,,b" -> {"a", "b"}), so a trailing comma is not an error.
std::vector<std::string> splitList(const std::string& csv);

/// Largest value of a flag stored in an int (milliseconds, counts).
inline constexpr std::int64_t kMaxIntFlag = std::numeric_limits<int>::max();
/// Largest TCP port number.
inline constexpr std::int64_t kMaxPort = 65535;

/// Strict integer parse: the whole token must be a base-10 integer.
/// `what` names the option in the error message.
std::int64_t parseInt(const std::string& token, const std::string& what);

/// Strict integer parse of `flag`'s value, which must lie in [lo, hi].
/// Throws pviz::Error naming the flag and the range.
std::int64_t parseBounded(const std::string& token, const std::string& flag,
                          std::int64_t lo, std::int64_t hi);

/// Strict floating-point parse of the whole token.
double parseDouble(const std::string& token, const std::string& what);

/// Parse "32,64,128" into dataset sizes (cells per axis).  Throws on an
/// empty list, a non-numeric token, or a non-positive size.
std::vector<std::int64_t> parseSizeList(const std::string& csv);

/// Parse "120,80,40" into power caps in watts, default cap first.
/// Throws on an empty list, a non-numeric token, or a non-positive cap.
std::vector<double> parseCapList(const std::string& csv);

}  // namespace pviz::util
