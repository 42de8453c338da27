// The benchmark's own spans and the arithmetic on them.
//
// Spans are recorded in memory around the calls the benchmark makes
// into the program, and external spans (PhaseTracer phases, server
// `trace: true` spans, the fleet's merged trace) are attached as
// children.  At exit they are written as Chrome trace JSON.
//
// Per-layer time is self time: each instant of a root span belongs to
// the innermost span open at that instant on each lane (thread or
// remote track).  When several lanes are busy at once the instant is
// split equally among them, so the layers of a concurrent workload
// still add up to its wall time; a span waiting for its own descendant
// on another lane gets none of it.  Whatever no span covers stays with
// the root: the explicit `untraced` remainder.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Steady-clock microseconds; the same clock as PhaseTracer and the
/// server's spans (CLOCK_MONOTONIC is shared by every process on a host).
std::int64_t nowUs();

struct Span {
  std::string name;
  std::string id;           ///< request or configuration id
  std::uint32_t lane = 0;   ///< timeline track
  std::int64_t startUs = 0;
  std::int64_t endUs = 0;
  int parent = -1;          ///< index into the log, -1 for a root
  std::string arg;          ///< one free-form annotation (e.g. cache hit)
};

/// Thread-safe in-memory span log.  A disabled log records nothing and
/// costs one branch per call.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  bool enabled() const { return enabled_; }

  /// Open a span starting now; returns its index (-1 when disabled).
  int open(std::string name, std::string id, std::uint32_t lane, int parent);
  /// Close a span opened with open().
  void close(int index);
  /// Add a completed span; returns its index (-1 when disabled).
  int add(Span span);

  std::vector<Span> spans() const;

  /// {"traceEvents":[...]} with one "X" event per span.
  std::string toChromeJson() const;

 private:
  const bool enabled_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// RAII span around one call.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, std::string name, std::string id,
             std::uint32_t lane, int parent)
      : log_(log), index_(log.open(std::move(name), std::move(id), lane,
                                   parent)) {}
  ~ScopedSpan() { log_.close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int index() const { return index_; }

 private:
  SpanLog& log_;
  const int index_;
};

/// Seconds of `root`'s interval attributed to each span of its subtree
/// (indexed like `spans`; zero outside the subtree).  The root's own
/// entry is the untraced remainder.  The entries sum to the root's
/// duration.
std::vector<double> attributeSelfTime(const std::vector<Span>& spans,
                                      int root);

// --- Tail percentile -----------------------------------------------------
// Percentiles themselves are pviz::util::percentile (linear interpolation
// at rank q*(n-1)); these two follow its rank convention.

/// The highest percentile of {50, 75, 90, 95, 99, 99.5, 99.9} that
/// leaves at least `minBeyond` of `n` samples above it; 0 when even the
/// median does not.
double tailPercentileFor(std::size_t n, std::size_t minBeyond = 10);

/// Samples above the interpolation rank floor(p/100 * (n-1)) of
/// percentile `p` (in [0, 100]) in `n`.
std::size_t samplesBeyond(std::size_t n, double p);

}  // namespace perfbench
