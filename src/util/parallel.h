// Parallel loop, scan, and compaction primitives used by the kernels:
// index-based parallelFor, grain-blocked parallelForBlocks and the
// parallelReduce built on it, a parallel three-phase
// exclusive scan, and the deterministic compaction that filters emitting
// variable-sized output build on (count → scan → write).
//
// Every primitive takes an ExecutionContext: it dispatches chunks
// straight onto the context's pool and polls the context's CancelToken
// at chunk boundaries, so a cancelled run unwinds at the next chunk edge
// (the pool captures the CancelledError, drains the remaining chunks,
// and rethrows in the caller).  A one-thread pool runs the same chunks
// in order on the calling thread, so it polls at the same edges.  The
// one exception is the context-free parallelFor at the bottom of this
// file, which runs on ThreadPool::global() with no cancellation; it
// serves the proxy simulation (src/sim), whose generators are called
// without a context.
//
// Determinism contract: for a fixed input, every primitive here produces
// bit-identical results on every pool width and schedule.  The pool only
// chooses who executes a chunk; chunk boundaries, per-chunk arithmetic,
// and merge order are fixed by the primitive itself.
#pragma once

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <utility>
#include <vector>

#include "util/exec_context.h"
#include "util/thread_pool.h"

namespace pviz::util {

inline constexpr std::int64_t kDefaultGrain = 1024;

/// Chunk size used by the scan/compaction primitives.  Large enough that
/// the serial scan-of-chunk-sums phase is negligible, small enough to
/// load-balance on every pool size we run.
inline constexpr std::int64_t kScanGrain = 1 << 14;

namespace detail {

/// Chunk-boundary cancellation point: nullptr means "not cancellable".
inline void pollCancel(CancelToken* cancel) {
  if (cancel != nullptr) cancel->throwIfCancelled();
}

/// The body shared by both parallelFor forms.
template <typename Func>
void parallelForOn(ThreadPool& pool, CancelToken* cancel, std::int64_t begin,
                   std::int64_t end, Func&& f, std::int64_t grain) {
  pool.parallelFor(begin, end, grain,
                   [&f, cancel](std::int64_t b, std::int64_t e) {
                     pollCancel(cancel);
                     for (std::int64_t i = b; i < e; ++i) f(i);
                   });
}

}  // namespace detail

// ---- context-taking forms (pool dispatch + chunk cancellation) ---------

/// Run `f(i)` for every i in [begin, end) on the context's pool.
template <typename Func>
void parallelFor(ExecutionContext& ctx, std::int64_t begin, std::int64_t end,
                 Func&& f, std::int64_t grain = kDefaultGrain) {
  detail::parallelForOn(ctx.pool(), &ctx.cancel(), begin, end,
                        std::forward<Func>(f), grain);
}

/// Run `f(chunkBegin, chunkEnd)` over [begin, end) on the context's pool.
template <typename Func>
void parallelForChunks(ExecutionContext& ctx, std::int64_t begin,
                       std::int64_t end, Func&& f,
                       std::int64_t grain = kDefaultGrain) {
  CancelToken* cancel = &ctx.cancel();
  ctx.pool().parallelFor(begin, end, grain,
                         [&f, cancel](std::int64_t b, std::int64_t e) {
                           detail::pollCancel(cancel);
                           f(b, e);
                         });
}

/// Run `f(block, blockBegin, blockEnd)` once for every block of [begin,
/// end), where block b is [begin + b·grain, min(end, begin + (b+1)·grain)).
/// The pool's chunks are exactly these blocks at every width, inline or
/// not, so which indices form a block — and so anything a caller
/// accumulates per block — is fixed by `grain` alone, never by who
/// executed which chunk.
template <typename Func>
void parallelForBlocks(ExecutionContext& ctx, std::int64_t begin,
                       std::int64_t end, Func&& f,
                       std::int64_t grain = kDefaultGrain) {
  PVIZ_REQUIRE(grain > 0, "parallelForBlocks grain must be positive");
  CancelToken* cancel = &ctx.cancel();
  ctx.pool().parallelFor(begin, end, grain,
                         [&f, cancel, begin, grain](std::int64_t b,
                                                    std::int64_t e) {
                           detail::pollCancel(cancel);
                           f((b - begin) / grain, b, e);
                         });
}

/// Map-reduce over [begin, end): `identity` seeds each grain-sized block,
/// `map(acc, i)` folds an index into a block accumulator, and
/// `combine(a, b)` merges block results.  Partials are indexed by block
/// (see parallelForBlocks) and combined in block order, so identical
/// inputs reduce in the same order on every run regardless of thread
/// scheduling — floating-point reductions are bit-reproducible, which the
/// Rng header's determinism contract depends on.
template <typename T, typename Map, typename Combine>
T parallelReduce(ExecutionContext& ctx, std::int64_t begin, std::int64_t end,
                 T identity, Map&& map, Combine&& combine,
                 std::int64_t grain = kDefaultGrain) {
  if (begin >= end) return identity;
  PVIZ_REQUIRE(grain > 0, "parallelReduce grain must be positive");
  const std::size_t blockCount =
      static_cast<std::size_t>((end - begin + grain - 1) / grain);
  std::vector<T> partials(blockCount, identity);
  parallelForBlocks(
      ctx, begin, end,
      [&](std::int64_t block, std::int64_t b, std::int64_t e) {
        T acc = identity;
        for (std::int64_t i = b; i < e; ++i) acc = map(std::move(acc), i);
        partials[static_cast<std::size_t>(block)] = std::move(acc);
      },
      grain);
  T total = std::move(identity);
  for (auto& p : partials) total = combine(std::move(total), std::move(p));
  return total;
}

/// Exclusive prefix sum of `counts[0, n)`; returns the grand total.  Used
/// by the two-pass "count then fill" pattern every variable-output filter
/// follows.  The pointer form exists so arena-backed scratch arrays scan
/// in place.
///
/// Arrays past one chunk run as a three-phase tree scan (per-chunk sums →
/// serial scan of the sums → parallel per-chunk fix-up); smaller inputs —
/// or a one-thread pool, where the extra passes only cost bandwidth —
/// take a single serial sweep.  Both paths are exact integer arithmetic, so the result is
/// identical everywhere.
inline std::int64_t exclusiveScan(ExecutionContext& ctx, std::int64_t* counts,
                                  std::int64_t n) {
  CancelToken* cancel = &ctx.cancel();
  if (n <= 2 * kScanGrain || ctx.concurrency() == 1) {
    detail::pollCancel(cancel);
    std::int64_t running = 0;
    for (std::int64_t i = 0; i < n; ++i) {
      const std::int64_t v = counts[i];
      counts[i] = running;
      running += v;
    }
    return running;
  }

  // Phase 1: independent chunk sums.
  const std::size_t chunkCount =
      static_cast<std::size_t>((n + kScanGrain - 1) / kScanGrain);
  std::vector<std::int64_t> chunkSums(chunkCount, 0);
  ctx.pool().parallelFor(
      0, n, kScanGrain,
      [&, cancel](std::int64_t b, std::int64_t e) {
        detail::pollCancel(cancel);
        std::int64_t sum = 0;
        for (std::int64_t i = b; i < e; ++i) sum += counts[i];
        chunkSums[static_cast<std::size_t>(b / kScanGrain)] = sum;
      });

  // Phase 2: serial exclusive scan of the (few) chunk sums.
  std::int64_t running = 0;
  for (auto& s : chunkSums) {
    const std::int64_t v = s;
    s = running;
    running += v;
  }

  // Phase 3: per-chunk fix-up re-scans each chunk seeded by its offset.
  ctx.pool().parallelFor(
      0, n, kScanGrain,
      [&, cancel](std::int64_t b, std::int64_t e) {
        detail::pollCancel(cancel);
        std::int64_t acc = chunkSums[static_cast<std::size_t>(b / kScanGrain)];
        for (std::int64_t i = b; i < e; ++i) {
          const std::int64_t v = counts[i];
          counts[i] = acc;
          acc += v;
        }
      });
  return running;
}

inline std::int64_t exclusiveScan(ExecutionContext& ctx,
                                  std::vector<std::int64_t>& counts) {
  return exclusiveScan(ctx, counts.data(),
                       static_cast<std::int64_t>(counts.size()));
}

/// Stream-compact the indices in [0, n) where `pred(i)` holds, in
/// ascending order.  Runs as count → chunk scan → fill; the output is
/// identical for every pool width and grain because chunks are
/// fixed ranges written at scanned offsets.
template <typename Pred>
std::vector<std::int64_t> parallelSelect(ExecutionContext& ctx, std::int64_t n,
                                         Pred&& pred,
                                         std::int64_t grain = kScanGrain) {
  PVIZ_REQUIRE(grain > 0, "parallelSelect grain must be positive");
  std::vector<std::int64_t> out;
  if (n <= 0) return out;
  CancelToken* cancel = &ctx.cancel();
  if (n <= grain || ctx.concurrency() == 1) {
    detail::pollCancel(cancel);
    for (std::int64_t i = 0; i < n; ++i) {
      if (pred(i)) out.push_back(i);
    }
    return out;
  }
  const std::size_t chunkCount =
      static_cast<std::size_t>((n + grain - 1) / grain);
  std::vector<std::int64_t> chunkCounts(chunkCount + 1, 0);
  ctx.pool().parallelFor(0, n, grain,
                         [&, cancel](std::int64_t b, std::int64_t e) {
                           detail::pollCancel(cancel);
                           std::int64_t count = 0;
                           for (std::int64_t i = b; i < e; ++i) {
                             count += pred(i) ? 1 : 0;
                           }
                           chunkCounts[static_cast<std::size_t>(b / grain)] =
                               count;
                         });
  const std::int64_t total = exclusiveScan(ctx, chunkCounts);
  out.resize(static_cast<std::size_t>(total));
  ctx.pool().parallelFor(0, n, grain,
                         [&, cancel](std::int64_t b, std::int64_t e) {
                           detail::pollCancel(cancel);
                           const auto chunk =
                               static_cast<std::size_t>(b / grain);
                           auto at =
                               static_cast<std::size_t>(chunkCounts[chunk]);
                           for (std::int64_t i = b; i < e; ++i) {
                             if (pred(i)) out[at++] = i;
                           }
                         });
  return out;
}

// ---- context-free loop (global pool, no cancel) -------------------------

/// parallelFor over ThreadPool::global() for the proxy simulation, which
/// generates fields without a context.  Kernels use the context form.
template <typename Func>
void parallelFor(std::int64_t begin, std::int64_t end, Func&& f,
                 std::int64_t grain = kDefaultGrain) {
  detail::parallelForOn(ThreadPool::global(), nullptr, begin, end,
                        std::forward<Func>(f), grain);
}

}  // namespace pviz::util
