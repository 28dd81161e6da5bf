#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/deadline.h"
#include "common/result.h"
#include "common/status.h"

namespace ssum {

/// Thread-count knob shared by every parallel kernel. Plumbed through
/// SummarizeOptions and the `--threads` flag of the CLIs and benches.
/// (Still an aggregate: `ParallelOptions{1}` keeps meaning one thread.)
struct ParallelOptions {
  /// Worker threads for parallel kernels. 0 resolves to the process default
  /// (SetDefaultThreadCount, which the `--threads` flag and its SSUM_THREADS
  /// fallback feed), then to the hardware concurrency; 1 always takes the
  /// serial path. Every kernel guarantees bit-identical results across
  /// thread counts (see docs/performance.md).
  uint32_t threads = 0;
  /// Cooperative time budget / cancellation, checked before every chunk a
  /// worker claims; an expired deadline surfaces as kDeadlineExceeded from
  /// ParallelFor. Defaults to unlimited (a two-load no-op per chunk).
  Deadline deadline;
};

/// Upper bound of every thread-count flag (`--threads`, `ssum serve
/// --workers`): the shared pool spawns one worker per thread on first use.
inline constexpr uint32_t kMaxThreads = 1024;

/// std::thread::hardware_concurrency(), never 0.
uint32_t HardwareThreadCount();

/// Sets the process-wide default used when ParallelOptions::threads == 0.
/// Passing 0 reverts to the hardware concurrency. The `--threads` flag of
/// the CLIs and benches lands here.
void SetDefaultThreadCount(uint32_t threads);
uint32_t DefaultThreadCount();

/// Effective thread count for one kernel invocation: an explicit
/// `requested` > 0, otherwise the process default (SetDefaultThreadCount,
/// then the hardware concurrency).
uint32_t ResolveThreadCount(uint32_t requested);

/// Fixed-size thread pool with a FIFO work queue. One shared instance backs
/// every ParallelFor call (ThreadPool::Shared()); standalone pools are for
/// tests and special-purpose callers.
///
/// Waiting callers participate in execution (RunOnePendingTask), so nested
/// ParallelFor calls issued from inside pool tasks cannot deadlock.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (clamped to >= 1).
  explicit ThreadPool(uint32_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  uint32_t num_threads() const {
    return static_cast<uint32_t>(workers_.size());
  }

  /// Enqueues a task. After Shutdown the task runs inline on the caller.
  void Submit(std::function<void()> task);

  /// Pops and runs one queued task on the calling thread. Returns false when
  /// the queue is empty.
  bool RunOnePendingTask();

  /// Drains the queue, joins all workers. Idempotent; implied by ~ThreadPool.
  void Shutdown();

  /// Process-wide pool backing ParallelFor. Created on first use with
  /// max(DefaultThreadCount(), 8) - 1 workers (the caller thread is the
  /// extra lane); never destroyed.
  static ThreadPool& Shared();

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable work_cv_;
  bool shutting_down_ = false;
};

/// Number of chunks ParallelForChunked cuts [begin, end) into with the given
/// grain — use it to size per-chunk output arrays.
size_t ParallelNumChunks(size_t begin, size_t end, size_t grain);

/// Runs fn(chunk, chunk_begin, chunk_end) for every grain-sized contiguous
/// chunk of [begin, end). Chunk boundaries depend only on (begin, end,
/// grain) — never on the thread count — so per-chunk partial results reduced
/// in chunk order are bit-identical to a serial evaluation. At most
/// ResolveThreadCount(threads) chunks run concurrently; the serial path is
/// taken for threads == 1 or a single chunk.
///
/// Error contract: the first failing chunk *in chunk order* determines the
/// returned Status, independent of scheduling — exceptions escaping fn are
/// captured and converted to Status::Internal (Arrow idiom), and an expired
/// options.deadline fails every not-yet-started chunk with
/// kDeadlineExceeded. Nothing terminates the process; callers propagate.
Status ParallelForChunked(
    size_t begin, size_t end, size_t grain,
    const std::function<void(size_t chunk, size_t chunk_begin,
                             size_t chunk_end)>& fn,
    const ParallelOptions& options = {});
/// Thread-count-only overload kept for callers without a deadline.
Status ParallelForChunked(
    size_t begin, size_t end, size_t grain,
    const std::function<void(size_t chunk, size_t chunk_begin,
                             size_t chunk_end)>& fn,
    uint32_t threads);

/// Per-index convenience over ParallelForChunked: runs fn(i) for i in
/// [begin, end). Same determinism and error contract.
Status ParallelFor(size_t begin, size_t end, size_t grain,
                   const std::function<void(size_t)>& fn,
                   const ParallelOptions& options = {});
Status ParallelFor(size_t begin, size_t end, size_t grain,
                   const std::function<void(size_t)>& fn, uint32_t threads);

}  // namespace ssum
