// Reply checking for the service workload.  A reply passes when its
// status is ok, it carries the id of the request that was sent, and its
// result equals the reference result for the request's cache key.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "service/protocol.h"

namespace perfbench {

std::uint64_t digestOf(const std::string& text);

class ReplyLedger {
 public:
  /// Record one reply to the request with cache key `key` and id
  /// `sentId`.  A refused, failed or misaddressed reply fails at once;
  /// any other is kept for settle().  Thread-safe.
  bool record(const std::string& key, const std::string& sentId,
              const pviz::service::Response& reply);
  /// Compare every kept reply for `key` with the reference result;
  /// returns how many differ (each counts as failed).
  std::size_t settle(const std::string& key,
                     const pviz::service::Json& reference);
  bool replied(const std::string& key) const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::vector<std::uint64_t>> digests_;
};

}  // namespace perfbench
