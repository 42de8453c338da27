#include "check.h"

namespace perfbench {

std::uint64_t digestOf(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a 64
  for (unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

bool ReplyLedger::record(const std::string& key, const std::string& sentId,
                         const pviz::service::Response& reply) {
  const bool answered = reply.ok() && reply.id == sentId;
  if (!answered) return false;
  const std::uint64_t digest = digestOf(reply.result.dump());
  std::lock_guard lock(mutex_);
  digests_[key].push_back(digest);
  return true;
}

std::size_t ReplyLedger::settle(const std::string& key,
                                const pviz::service::Json& reference) {
  const std::uint64_t want = digestOf(reference.dump());
  std::lock_guard lock(mutex_);
  std::size_t mismatched = 0;
  auto it = digests_.find(key);
  if (it == digests_.end()) return 0;
  for (std::uint64_t d : it->second) mismatched += d != want ? 1 : 0;
  return mismatched;
}

bool ReplyLedger::replied(const std::string& key) const {
  std::lock_guard lock(mutex_);
  return digests_.count(key) != 0;
}

}  // namespace perfbench
