// Work-stealing batch scheduler: `parallelWorkSteal` runs `body(slot,
// b, e)` over [0, count) in `batch`-sized ranges, load-balanced by
// letting idle workers steal half of a busy worker's remaining batches.
//
// Built for particle advection (util/parallel.h's static chunking
// collapses when per-element cost varies by orders of magnitude —
// particles exit the domain or converge at wildly different step
// counts, so the slowest chunk dominates wall-clock), but generic over
// any body whose per-range work is unpredictable.
//
// Determinism contract, same as every primitive in util/parallel.h: the
// schedule decides only WHO runs a range and WHEN, never WHAT a range
// is.  Ranges are cut from [0, count) on fixed `batch` boundaries
// before any worker starts, a range is executed exactly once and never
// re-split, and `slot` identifies a deque (a storage lane callers may
// use for per-worker accumulation), not a thread.  A body whose output
// for range [b, e) depends only on (b, e) and its inputs — with any
// per-slot storage merged in a slot-independent order afterwards — is
// therefore bit-identical across pool widths and steal interleavings.
// On a one-thread pool (a 1-slot schedule) the ranges run front-to-back
// in index order: that is the reference schedule every wider pool must
// match.
//
// Stealing invariants:
//   * every range is executed exactly once: a range leaves a deque only
//     under that deque's mutex, stolen ranges stay private to the thief
//     until it pushes them onto its own deque (it never holds two deque
//     mutexes at once), and a popped range is run by the popper before
//     it touches any deque again;
//   * a worker only goes idle when every deque it scanned was empty —
//     and since bodies never enqueue new ranges, "all deques empty" is
//     a stable termination condition, not a race;
//   * thieves take the BACK half of the victim's deque (oldest-last
//     ranges), so the victim keeps popping from the front with minimal
//     contention and locality.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

#include "util/error.h"
#include "util/exec_context.h"
#include "util/parallel.h"

namespace pviz::util {

namespace detail {

struct StealRange {
  std::int64_t begin = 0;
  std::int64_t end = 0;
};

/// One per-worker deque.  A plain mutex per deque is the right tool at
/// this granularity: a batch is hundreds of RK4 rounds, so the lock is
/// touched at ~kHz, not MHz, and the mutex keeps owner-pop and
/// steal-half atomic without a Chase-Lev proof obligation.
struct StealDeque {
  std::mutex mutex;
  std::deque<StealRange> ranges;
};

}  // namespace detail

/// Run `body(slot, b, e)` over every batch-aligned range [b, e) of
/// [0, count), work-stealing across the context's concurrency.  `slot`
/// is in [0, slots) where slots = max(1, ctx.concurrency()); ranges are
/// seeded slot-contiguously (slot w owns an equal contiguous span of
/// [0, count)), and body invocations for the same slot never overlap in
/// time, so bodies may keep unsynchronized per-slot state.  Polls
/// ctx.cancel() at batch boundaries.
template <typename Body>
void parallelWorkSteal(ExecutionContext& ctx, std::int64_t count,
                       std::int64_t batch, Body&& body) {
  PVIZ_REQUIRE(batch > 0, "parallelWorkSteal batch must be positive");
  if (count <= 0) return;

  const std::int64_t slots =
      static_cast<std::int64_t>(std::max(1u, ctx.concurrency()));
  // Seed each slot's deque with its contiguous span of batches, before
  // any worker runs.  The cut points depend only on (count, batch,
  // slots) — the schedule never re-cuts them.
  std::vector<detail::StealDeque> deques(static_cast<std::size_t>(slots));
  const std::int64_t perSlot = (count + slots - 1) / slots;
  for (std::int64_t w = 0; w < slots; ++w) {
    const std::int64_t lo = std::min(count, w * perSlot);
    const std::int64_t hi = std::min(count, lo + perSlot);
    auto& dq = deques[static_cast<std::size_t>(w)].ranges;
    for (std::int64_t b = lo; b < hi; b += batch) {
      dq.push_back({b, std::min(hi, b + batch)});
    }
  }

  CancelToken* cancel = &ctx.cancel();

  auto runWorker = [&](std::int64_t self) {
    auto& own = deques[static_cast<std::size_t>(self)];
    for (;;) {
      detail::pollCancel(cancel);
      detail::StealRange next{0, 0};
      bool have = false;
      {
        std::lock_guard<std::mutex> lock(own.mutex);
        if (!own.ranges.empty()) {
          next = own.ranges.front();
          own.ranges.pop_front();
          have = true;
        }
      }
      if (!have) {
        // Own deque drained: scan the other slots and take half of the
        // first non-empty victim's BACK (round up, so a 1-range victim
        // still yields).  The first looted range runs immediately; the
        // rest move out under the victim's lock and land in our own
        // deque only after it is released — a thief never holds two
        // deque locks, so two slots stealing from each other cannot
        // deadlock.
        std::vector<detail::StealRange> loot;
        for (std::int64_t d = 1; d < slots && !have; ++d) {
          auto& victim = deques[static_cast<std::size_t>((self + d) % slots)];
          std::lock_guard<std::mutex> lock(victim.mutex);
          const std::int64_t avail =
              static_cast<std::int64_t>(victim.ranges.size());
          if (avail == 0) continue;
          const std::int64_t take = (avail + 1) / 2;
          next = victim.ranges.back();
          victim.ranges.pop_back();
          have = true;
          for (std::int64_t t = 1; t < take; ++t) {
            loot.push_back(victim.ranges.back());
            victim.ranges.pop_back();
          }
        }
        if (!loot.empty()) {
          std::lock_guard<std::mutex> ownLock(own.mutex);
          own.ranges.insert(own.ranges.end(), loot.begin(), loot.end());
        }
      }
      if (!have) break;  // every deque empty: done (bodies never enqueue)
      body(self, next.begin, next.end);
    }
  };

  // One dispatch index per slot, grain 1.  A pool running the loop
  // inline (a nested call) runs the slots in order on one thread; which
  // slot ran a range never shows in the output (see file comment).
  ctx.pool().parallelFor(0, slots, 1, [&](std::int64_t w, std::int64_t) {
    runWorker(w);
  });
}

}  // namespace pviz::util
