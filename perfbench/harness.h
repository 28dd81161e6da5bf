// Shared plumbing of the perfbench driver: arguments, clocks, order
// statistics, the result report, and a timing Env that attributes the
// artifact store's file IO to the store layer.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/env.h"
#include "core/summary.h"

namespace perfbench {

/// Thread count of every parallel kernel (matrix rows, sharded annotation,
/// greedy MaxCoverage), and the number of CPUs the process is confined to.
/// On the shared 4-vCPU reference host, one CPU gives the steadiest figures
/// and is not slower: over the same four seeds, confined to two CPUs with
/// 2-thread kernels the cold op's p50 spread 35% and incremental_chain's
/// 20%, against 5% and 11% on one CPU at 1 thread, at about the same
/// medians (728 vs 704 ms, 145 vs 163 ms). Every wake-up of a thread on
/// another vCPU can wait for the hypervisor to run that vCPU; on one CPU a
/// hand-off is a plain context switch. The serving loop shows it most: its
/// throughput ranged 1580-3650 ops/s over four runs on two CPUs and
/// 1910-2120 on one (README).
inline constexpr uint32_t kKernelThreads = 1;

/// Allocations from this size up are mmapped and unmapped on free
/// (mallopt M_MMAP_THRESHOLD, which also turns off glibc's sliding
/// threshold). With the sliding default, whether a freed matrix went back
/// to the OS depended on the allocation history of the run's threads, and
/// serve_warm_mix's peak RSS ranged 250-300 MiB over identical runs; fixed,
/// it tracks the memory live at the peak (within ~2%).
inline constexpr int kMmapThreshold = 128 * 1024;

/// serve_warm_mix: closed-loop clients and daemon workers. Together they
/// fit the 4-core reference host; all of them share the one CPU above, which
/// the two clients keep busy.
inline constexpr uint32_t kServeClients = 2;
inline constexpr uint32_t kServeWorkers = 2;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch root for cache directories and scenario files (inside the
  /// checkout's build directory).
  std::string work_dir;
};

double NowSeconds();

/// Nearest-rank percentile (p in [0, 100]) of `v`; 0 for an empty vector.
double Percentile(std::vector<double> v, double p);
double Median(std::vector<double> v);

/// Confines the process to the last `n` CPUs of its allowed set: on the
/// reference host CPU 0 and 1 take about twice the interrupts and softirq
/// time of the others. Returns the CPU ids used, comma-separated ("" when
/// the affinity call failed).
std::string PinToCpus(uint32_t n);

/// ru_maxrss of this process in MiB.
double PeakRssMiB();

/// Returns memory freed by an earlier phase to the OS (malloc_trim), so
/// that the peak RSS reflects what a phase holds rather than which freed
/// chunks the allocator happened to keep from the phase before.
void ReleaseFreedMemory();

/// Deterministic 64-bit mix of a seed and a salt (splitmix64 finalizer).
uint64_t MixSeed(uint64_t seed, uint64_t salt);

/// A scenario `mutate.seed` derived from (seed, salt): non-zero and below
/// 2^31, so the spec also survives SerializeScenarioSpec + parse.
uint64_t MutateSeed(uint64_t seed, uint64_t salt);

/// What one run prints: correctness, op counts and named metrics. Metrics
/// are stored by name; the driver prints the set the run mode asks for.
class Report {
 public:
  void Fail(const std::string& what);
  void Set(const std::string& name, double value) { values_[name] = value; }
  bool Has(const std::string& name) const { return values_.count(name) != 0; }
  double Get(const std::string& name) const;

  bool correct() const { return correct_; }
  uint64_t attempted = 0;
  uint64_t failed = 0;

 private:
  bool correct_ = true;
  std::map<std::string, double> values_;
};

/// Byte-level summary equality (selection order, grouping and links).
bool SameSummary(const ssum::SchemaSummary& a, const ssum::SchemaSummary& b);

/// Independent Definition 2 check of a summary: at most `k` abstract
/// elements, the root represents itself, every other element maps to
/// exactly one abstract element that maps to itself, and every schema link
/// is internal to a group or carried by exactly one abstract link whose
/// count matches. Returns an empty string when all hold.
std::string CheckSummaryInvariants(const ssum::SchemaSummary& summary,
                                   size_t k);

/// Env decorator that times the artifact store's file IO. Reads are
/// ReadFile; writes are everything an install does (open, append, flush,
/// fsync, close, rename, directory fsync, the writer lock). Network calls
/// pass through untimed. Thread-safe: counters are atomics.
class TimingEnv : public ssum::Env {
 public:
  explicit TimingEnv(ssum::Env* base) : base_(base) {}

  struct Counters {
    uint64_t read_ns = 0;
    uint64_t write_ns = 0;
    uint64_t bytes_written = 0;
    uint64_t renames = 0;
  };
  Counters Snapshot() const;

  ssum::Result<std::unique_ptr<ssum::WritableFile>> NewWritableFile(
      const std::string& path) override;
  ssum::Result<std::string> ReadFile(const std::string& path) override;
  ssum::Status RenameFile(const std::string& from,
                          const std::string& to) override;
  ssum::Status RemoveFile(const std::string& path) override;
  ssum::Status CreateDirs(const std::string& path) override;
  ssum::Status SyncDir(const std::string& path) override;
  ssum::Result<bool> FileExists(const std::string& path) override;
  ssum::Result<std::unique_ptr<ssum::FileLock>> LockFile(
      const std::string& path) override;
  ssum::Result<std::unique_ptr<ssum::Listener>> NewListener(
      const std::string& addr) override;
  ssum::Result<std::unique_ptr<ssum::Connection>> Connect(
      const std::string& addr) override;

  void AddWrite(uint64_t ns, uint64_t bytes) {
    write_ns_ += ns;
    bytes_written_ += bytes;
  }

 private:
  ssum::Env* base_;
  std::atomic<uint64_t> read_ns_{0};
  std::atomic<uint64_t> write_ns_{0};
  std::atomic<uint64_t> bytes_written_{0};
  std::atomic<uint64_t> renames_{0};
};

/// Filesystem kind of `path` ("tmpfs", "overlay", "ext4", ...) from
/// statfs, so a run records whether its fsyncs reach a device.
std::string FilesystemKind(const std::string& path);

/// Files directly inside `dir` (names only), sorted.
std::vector<std::string> ListDir(const std::string& dir);

/// Removes every file of `dir` that is not in `keep` (sorted).
void RemoveAllBut(const std::string& dir, const std::vector<std::string>& keep);

/// Workload entry points. Each fills `report` with every end-to-end metric
/// (trace off) or every per-layer metric it measures (trace on).
void RunColdSchemaHeavy(const Args& args, Report* report);
void RunServeWarmMix(const Args& args, Report* report);
void RunIncrementalChain(const Args& args, Report* report);

}  // namespace perfbench
