#include "util/thread_pool.h"

#include <algorithm>

namespace pviz::util {

thread_local bool ThreadPool::insideWorker_ = false;

ThreadPool::ThreadPool(unsigned workers) {
  if (workers == 0) {
    workers = std::max(1u, std::thread::hardware_concurrency());
  }
  // The calling thread participates in every loop, so spawn one fewer.
  const unsigned spawned = workers > 0 ? workers - 1 : 0;
  threads_.reserve(spawned);
  for (unsigned i = 0; i < spawned; ++i) {
    threads_.emplace_back([this] { workerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  for (auto& t : threads_) t.join();
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

void ThreadPool::workerLoop() {
  insideWorker_ = true;
  std::uint64_t seen = 0;
  for (;;) {
    Job* job = nullptr;
    {
      std::unique_lock lock(mutex_);
      wake_.wait(lock, [&] { return stop_ || epoch_ != seen; });
      if (stop_) return;
      seen = epoch_;
      job = job_;
      if (job == nullptr) continue;
      job->active.fetch_add(1, std::memory_order_relaxed);
    }
    runChunks();
    bool last = false;
    {
      std::lock_guard lock(mutex_);
      last = job->active.fetch_sub(1, std::memory_order_acq_rel) == 1;
    }
    if (last) done_.notify_all();
  }
}

void ThreadPool::runChunks() {
  Job* job = job_;
  for (;;) {
    const std::int64_t chunkBegin =
        job->cursor.fetch_add(job->grain, std::memory_order_relaxed);
    if (chunkBegin >= job->end) return;
    const std::int64_t chunkEnd = std::min(chunkBegin + job->grain, job->end);
    try {
      job->invoke(job->ctx, chunkBegin, chunkEnd);
    } catch (...) {
      std::lock_guard lock(mutex_);
      if (!firstError_) firstError_ = std::current_exception();
      // Drain the remaining chunks so the loop terminates promptly.
      job->cursor.store(job->end, std::memory_order_relaxed);
      return;
    }
  }
}

void ThreadPool::parallelForImpl(std::int64_t begin, std::int64_t end,
                                 std::int64_t grain, void* ctx,
                                 ChunkInvoker invoke) {
  if (begin >= end) return;
  PVIZ_REQUIRE(grain > 0, "parallelFor grain must be positive");

  // Nested loops, a pool with no worker threads, and ranges of at most
  // one grain run inline on the calling thread, chunk by chunk.
  const std::int64_t count = end - begin;
  if (insideWorker_ || threads_.empty() || count <= grain) {
    for (std::int64_t b = begin; b < end; b += grain) {
      invoke(ctx, b, std::min(b + grain, end));
    }
    return;
  }

  // Admit one top-level loop at a time; concurrent callers (service
  // request workers) queue here.  Nested calls never reach this point —
  // the insideWorker_ test above already ran them inline.
  std::lock_guard callerLock(callerMutex_);

  Job job;
  job.begin = begin;
  job.end = end;
  job.grain = grain;
  job.ctx = ctx;
  job.invoke = invoke;
  job.cursor.store(begin, std::memory_order_relaxed);

  {
    std::lock_guard lock(mutex_);
    firstError_ = nullptr;
    job_ = &job;
    ++epoch_;
  }
  wake_.notify_all();

  // The caller is a full participant: set the worker flag so any nested
  // parallelFor issued from `body` runs inline.
  insideWorker_ = true;
  runChunks();
  insideWorker_ = false;

  std::unique_lock lock(mutex_);
  done_.wait(lock, [&] { return job.active.load(std::memory_order_acquire) == 0; });
  job_ = nullptr;
  if (firstError_) {
    auto err = firstError_;
    firstError_ = nullptr;
    lock.unlock();
    std::rethrow_exception(err);
  }
}

}  // namespace pviz::util
