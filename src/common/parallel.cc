#include "common/parallel.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <string>

#include "common/string_util.h"

namespace ssum {

namespace {

std::atomic<uint32_t> g_default_threads{0};

/// SSUM_THREADS, parsed fresh on every call (cheap, and keeps tests able to
/// flip the variable at runtime). 0 when unset or unparsable.
uint32_t EnvThreadOverride() {
  const char* env = std::getenv("SSUM_THREADS");
  if (env == nullptr || *env == '\0') return 0;
  char* end = nullptr;
  long v = std::strtol(env, &end, 10);
  if (end == env || *end != '\0' || v <= 0) return 0;
  return static_cast<uint32_t>(v);
}

}  // namespace

uint32_t HardwareThreadCount() {
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<uint32_t>(hw);
}

void SetDefaultThreadCount(uint32_t threads) {
  g_default_threads.store(threads, std::memory_order_relaxed);
}

uint32_t DefaultThreadCount() {
  uint32_t t = g_default_threads.load(std::memory_order_relaxed);
  return t > 0 ? t : HardwareThreadCount();
}

uint32_t ResolveThreadCount(uint32_t requested) {
  if (uint32_t env = EnvThreadOverride()) return env;
  if (requested > 0) return requested;
  return DefaultThreadCount();
}

Result<uint32_t> ConsumeThreadsFlag(int* argc, char** argv) {
  uint32_t parsed = 0;
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    if (arg == "--threads") {
      if (i + 1 == *argc) {
        return Status::InvalidArgument("missing value for --threads");
      }
      value = argv[++i];
    } else if (arg.rfind("--threads=", 0) == 0) {
      value = arg.substr(10);
    } else {
      argv[out++] = argv[i];
      continue;
    }
    const Result<int64_t> v = ParseInt64(value);
    if (!v.ok() || *v <= 0 || *v > UINT32_MAX) {
      return Status::InvalidArgument("--threads: '" + value +
                                     "' is not a positive integer");
    }
    parsed = static_cast<uint32_t>(*v);
  }
  *argc = out;
  argv[*argc] = nullptr;
  if (parsed > 0) SetDefaultThreadCount(parsed);
  return parsed;
}

ThreadPool::ThreadPool(uint32_t num_threads) {
  const uint32_t n = std::max<uint32_t>(num_threads, 1);
  workers_.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() { Shutdown(); }

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!shutting_down_) {
      queue_.push_back(std::move(task));
      work_cv_.notify_one();
      return;
    }
  }
  task();  // pool already shut down: degrade to inline execution
}

bool ThreadPool::RunOnePendingTask() {
  std::function<void()> task;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (queue_.empty()) return false;
    task = std::move(queue_.front());
    queue_.pop_front();
  }
  task();
  return true;
}

void ThreadPool::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutting_down_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return shutting_down_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutting down and fully drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

ThreadPool& ThreadPool::Shared() {
  // Leaked on purpose: joining workers during static destruction would race
  // with other translation units' teardown.
  static ThreadPool* pool = new ThreadPool(
      std::max<uint32_t>(DefaultThreadCount(), 8) - 1);
  return *pool;
}

size_t ParallelNumChunks(size_t begin, size_t end, size_t grain) {
  if (begin >= end) return 0;
  const size_t g = std::max<size_t>(grain, 1);
  return (end - begin + g - 1) / g;
}

Status ParallelForChunked(
    size_t begin, size_t end, size_t grain,
    const std::function<void(size_t, size_t, size_t)>& fn,
    const ParallelOptions& options) {
  const size_t chunks = ParallelNumChunks(begin, end, grain);
  if (chunks == 0) return Status::OK();
  const size_t g = std::max<size_t>(grain, 1);
  auto run_chunk = [&](size_t c) -> Status {
    // Cooperative deadline/cancellation check at every chunk claim: once the
    // budget is gone each remaining chunk fails fast, and the reduction
    // below surfaces kDeadlineExceeded like any other per-chunk failure.
    SSUM_RETURN_NOT_OK(options.deadline.Check("parallel task"));
    const size_t chunk_begin = begin + c * g;
    const size_t chunk_end = std::min(end, chunk_begin + g);
    try {
      fn(c, chunk_begin, chunk_end);
    } catch (const std::exception& e) {
      return Status::Internal(std::string("parallel task failed: ") +
                              e.what());
    } catch (...) {
      return Status::Internal("parallel task failed with unknown exception");
    }
    return Status::OK();
  };

  const uint32_t width = static_cast<uint32_t>(std::min<size_t>(
      ResolveThreadCount(options.threads), chunks));
  if (width <= 1) {
    for (size_t c = 0; c < chunks; ++c) SSUM_RETURN_NOT_OK(run_chunk(c));
    return Status::OK();
  }

  // Chunk indices are claimed dynamically, but every chunk writes only its
  // own status slot and callers reduce in chunk order, so results do not
  // depend on the claim order.
  std::vector<Status> statuses(chunks);
  std::atomic<size_t> next{0};
  auto drain = [&] {
    for (size_t c; (c = next.fetch_add(1, std::memory_order_relaxed)) < chunks;) {
      statuses[c] = run_chunk(c);
    }
  };

  ThreadPool& pool = ThreadPool::Shared();
  struct Join {
    std::mutex mu;
    std::condition_variable cv;
    uint32_t remaining;
  } join;
  join.remaining = width - 1;
  for (uint32_t i = 0; i + 1 < width; ++i) {
    pool.Submit([&drain, &join] {
      drain();
      std::lock_guard<std::mutex> lock(join.mu);
      if (--join.remaining == 0) join.cv.notify_all();
    });
  }
  drain();
  // Help execute other queued work while waiting: a helper task of ours may
  // sit behind tasks of a concurrent (possibly nested) ParallelFor, and
  // every waiting caller draining the shared queue guarantees progress.
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(join.mu);
      if (join.remaining == 0) break;
    }
    if (!pool.RunOnePendingTask()) {
      std::unique_lock<std::mutex> lock(join.mu);
      join.cv.wait_for(lock, std::chrono::milliseconds(1),
                       [&join] { return join.remaining == 0; });
      if (join.remaining == 0) break;
    }
  }
  for (size_t c = 0; c < chunks; ++c) {
    if (!statuses[c].ok()) return statuses[c];
  }
  return Status::OK();
}

Status ParallelForChunked(
    size_t begin, size_t end, size_t grain,
    const std::function<void(size_t, size_t, size_t)>& fn, uint32_t threads) {
  ParallelOptions options;
  options.threads = threads;
  return ParallelForChunked(begin, end, grain, fn, options);
}

Status ParallelFor(size_t begin, size_t end, size_t grain,
                   const std::function<void(size_t)>& fn,
                   const ParallelOptions& options) {
  return ParallelForChunked(
      begin, end, grain,
      [&fn](size_t, size_t chunk_begin, size_t chunk_end) {
        for (size_t i = chunk_begin; i < chunk_end; ++i) fn(i);
      },
      options);
}

Status ParallelFor(size_t begin, size_t end, size_t grain,
                   const std::function<void(size_t)>& fn, uint32_t threads) {
  ParallelOptions options;
  options.threads = threads;
  return ParallelFor(begin, end, grain, fn, options);
}

}  // namespace ssum
