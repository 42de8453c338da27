#include "trace.h"

#include <algorithm>
#include <map>

#include "service/json.h"
#include "util/error.h"

namespace perfbench {

std::int64_t nowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int SpanLog::open(std::string name, std::string id, std::uint32_t lane,
                  int parent) {
  if (!enabled_) return -1;
  Span span;
  span.name = std::move(name);
  span.id = std::move(id);
  span.lane = lane;
  span.parent = parent;
  span.startUs = nowUs();
  span.endUs = span.startUs;
  std::lock_guard lock(mutex_);
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::close(int index) {
  if (index < 0) return;
  const std::int64_t end = nowUs();
  std::lock_guard lock(mutex_);
  spans_[static_cast<std::size_t>(index)].endUs = end;
}

int SpanLog::add(Span span) {
  if (!enabled_) return -1;
  std::lock_guard lock(mutex_);
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size()) - 1;
}

std::vector<Span> SpanLog::spans() const {
  std::lock_guard lock(mutex_);
  return spans_;
}

std::string SpanLog::toChromeJson() const {
  using pviz::service::Json;
  Json events = Json::array();
  for (const Span& s : spans()) {
    Json args = Json::object();
    args.set("id", s.id);
    args.set("parent", s.parent);
    if (!s.arg.empty()) args.set("arg", s.arg);
    Json e = Json::object();
    e.set("name", s.name);
    e.set("cat", "perfbench");
    e.set("ph", "X");
    e.set("ts", static_cast<std::int64_t>(s.startUs));
    e.set("dur", static_cast<std::int64_t>(s.endUs - s.startUs));
    e.set("pid", 1);
    e.set("tid", static_cast<std::int64_t>(s.lane));
    e.set("args", std::move(args));
    events.push(std::move(e));
  }
  Json out = Json::object();
  out.set("displayTimeUnit", "ms");
  out.set("traceEvents", std::move(events));
  return out.dump();
}

std::vector<double> attributeSelfTime(const std::vector<Span>& spans,
                                      int root) {
  PVIZ_REQUIRE(root >= 0 && static_cast<std::size_t>(root) < spans.size(),
               "attributeSelfTime: root out of range");
  const std::size_t n = spans.size();
  // Subtree membership, memoized along each parent chain.
  std::vector<signed char> member(n, -1);  // -1 unknown, 0 no, 1 yes
  member[static_cast<std::size_t>(root)] = 1;
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<std::size_t> chain;
    std::size_t j = i;
    signed char verdict = 0;
    for (;;) {
      if (member[j] != -1) {
        verdict = member[j];
        break;
      }
      chain.push_back(j);
      const int p = spans[j].parent;
      if (p < 0 || static_cast<std::size_t>(p) >= n) break;
      j = static_cast<std::size_t>(p);
      if (chain.size() > n) break;  // a parent cycle: not in the subtree
    }
    for (std::size_t c : chain) member[c] = verdict;
  }

  const std::int64_t lo = spans[static_cast<std::size_t>(root)].startUs;
  const std::int64_t hi = spans[static_cast<std::size_t>(root)].endUs;
  struct Event {
    std::int64_t t;
    bool start;
    int index;
  };
  std::vector<Event> events;
  for (std::size_t i = 0; i < n; ++i) {
    if (member[i] != 1 || static_cast<int>(i) == root) continue;
    const std::int64_t s = std::max(spans[i].startUs, lo);
    const std::int64_t e = std::min(spans[i].endUs, hi);
    if (e <= s) continue;
    events.push_back({s, true, static_cast<int>(i)});
    events.push_back({e, false, static_cast<int>(i)});
  }
  std::sort(events.begin(), events.end(),
            [](const Event& a, const Event& b) { return a.t < b.t; });

  std::vector<double> self(n, 0.0);
  std::map<std::uint32_t, std::vector<int>> active;  // lane -> open spans
  // The innermost open span of a lane: latest start, then shortest, then
  // the later-recorded one (a child is recorded after its parent opens).
  auto innermost = [&](const std::vector<int>& open) {
    int best = open.front();
    for (int idx : open) {
      const Span& a = spans[static_cast<std::size_t>(idx)];
      const Span& b = spans[static_cast<std::size_t>(best)];
      if (a.startUs != b.startUs ? a.startUs > b.startUs
          : a.endUs != b.endUs   ? a.endUs < b.endUs
                                 : idx > best) {
        best = idx;
      }
    }
    return best;
  };
  std::vector<int> innermostByLane;
  std::vector<int> owners;
  auto distribute = [&](std::int64_t from, std::int64_t to) {
    if (to <= from) return;
    const double dt = static_cast<double>(to - from) * 1e-6;
    innermostByLane.clear();
    for (const auto& [lane, open] : active) {
      if (!open.empty()) innermostByLane.push_back(innermost(open));
    }
    // A span whose descendant is running on another lane is waiting for
    // it, not working beside it.
    auto waiting = [&](int candidate) {
      for (int other : innermostByLane) {
        for (int p = spans[static_cast<std::size_t>(other)].parent; p >= 0;
             p = spans[static_cast<std::size_t>(p)].parent) {
          if (p == candidate) return true;
          if (p == root) break;
        }
      }
      return false;
    };
    owners.clear();
    for (int idx : innermostByLane) {
      if (!waiting(idx)) owners.push_back(idx);
    }
    if (owners.empty()) {
      self[static_cast<std::size_t>(root)] += dt;
      return;
    }
    const double share = dt / static_cast<double>(owners.size());
    for (int idx : owners) self[static_cast<std::size_t>(idx)] += share;
  };

  std::int64_t cursor = lo;
  for (std::size_t k = 0; k < events.size();) {
    const std::int64_t t = events[k].t;
    distribute(cursor, t);
    cursor = t;
    for (; k < events.size() && events[k].t == t; ++k) {
      const Event& ev = events[k];
      std::vector<int>& open = active[spans[static_cast<std::size_t>(ev.index)].lane];
      if (ev.start) {
        open.push_back(ev.index);
      } else {
        open.erase(std::find(open.begin(), open.end(), ev.index));
      }
    }
  }
  distribute(cursor, hi);
  return self;
}

std::size_t samplesBeyond(std::size_t n, double p) {
  if (n == 0) return 0;
  const auto rank =
      static_cast<std::size_t>(p / 100.0 * static_cast<double>(n - 1));
  return n - 1 - std::min(rank, n - 1);
}

double tailPercentileFor(std::size_t n, std::size_t minBeyond) {
  static const double kLadder[] = {99.9, 99.5, 99, 95, 90, 75, 50};
  for (double p : kLadder) {
    if (samplesBeyond(n, p) >= minBeyond) return p;
  }
  return 0.0;
}

}  // namespace perfbench
