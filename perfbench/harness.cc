#include "harness.h"

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/statfs.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <set>
#include <string_view>

#include "common/buildinfo.h"
#include "common/parallel.h"
#include "core/summary_io.h"

namespace perfbench {

namespace fs = std::filesystem;

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const size_t idx =
      static_cast<size_t>(std::clamp(rank, 1.0, static_cast<double>(v.size())));
  return v[idx - 1];
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double PeakRssMiB() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void ReleaseFreedMemory() { malloc_trim(0); }

std::string PinToCpus(uint32_t n) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return "";
  cpu_set_t pinned;
  CPU_ZERO(&pinned);
  std::string ids;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0 && n > 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    CPU_SET(cpu, &pinned);
    ids = std::to_string(cpu) + (ids.empty() ? "" : ",") + ids;
    --n;
  }
  if (sched_setaffinity(0, sizeof(pinned), &pinned) != 0) return "";
  return ids;
}

uint64_t MixSeed(uint64_t seed, uint64_t salt) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ull + salt + 0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

uint64_t MutateSeed(uint64_t seed, uint64_t salt) {
  return MixSeed(seed, salt) % 0x7FFFFFFFull + 1;
}

void Report::Fail(const std::string& what) {
  correct_ = false;
  std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
}

double Report::Get(const std::string& name) const {
  auto it = values_.find(name);
  return it == values_.end() ? 0.0 : it->second;
}

bool SameSummary(const ssum::SchemaSummary& a, const ssum::SchemaSummary& b) {
  return ssum::SerializeSummary(a) == ssum::SerializeSummary(b);
}

std::string CheckSummaryInvariants(const ssum::SchemaSummary& summary,
                                   size_t k) {
  const ssum::SchemaGraph& graph = *summary.schema;
  const size_t n = graph.size();
  if (summary.abstract_elements.empty() ||
      summary.abstract_elements.size() > k) {
    return "summary has " + std::to_string(summary.abstract_elements.size()) +
           " abstract elements for k=" + std::to_string(k);
  }
  if (summary.representative.size() != n) return "representative map size";
  if (summary.representative[graph.root()] != graph.root()) {
    return "root does not represent itself";
  }
  std::vector<char> abstract(n, 0);
  for (ssum::ElementId s : summary.abstract_elements) {
    if (s >= n || s == graph.root() || abstract[s]) {
      return "bad or repeated abstract element";
    }
    abstract[s] = 1;
    if (summary.representative[s] != s) {
      return "representative does not map to itself";
    }
  }
  for (ssum::ElementId e = 0; e < n; ++e) {
    if (e == graph.root()) continue;
    const ssum::ElementId r = summary.representative[e];
    if (r >= n || !abstract[r]) return "element without a representative";
  }
  // Crossing links per ordered group pair, from the schema itself.
  std::map<std::pair<ssum::ElementId, ssum::ElementId>, uint32_t> crossing;
  auto count = [&](ssum::ElementId from, ssum::ElementId to) {
    const ssum::ElementId a = summary.representative[from];
    const ssum::ElementId b = summary.representative[to];
    if (a != b) ++crossing[{a, b}];
  };
  for (const ssum::StructuralLink& l : graph.structural_links()) {
    count(l.parent, l.child);
  }
  for (const ssum::ValueLink& l : graph.value_links()) {
    count(l.referrer, l.referee);
  }
  std::set<std::pair<ssum::ElementId, ssum::ElementId>> seen;
  for (const ssum::AbstractLink& l : summary.links) {
    if (!seen.insert({l.from, l.to}).second) return "duplicate abstract link";
    auto it = crossing.find({l.from, l.to});
    if (it == crossing.end()) return "abstract link carries no schema link";
    if (it->second != l.source_links) return "abstract link count mismatch";
  }
  if (seen.size() != crossing.size()) {
    return "crossing schema link without an abstract link";
  }
  return "";
}

// --- TimingEnv ---------------------------------------------------------------

namespace {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

class TimedFile : public ssum::WritableFile {
 public:
  TimedFile(std::unique_ptr<ssum::WritableFile> base, TimingEnv* env)
      : base_(std::move(base)), env_(env) {}
  ssum::Status Append(std::string_view data) override {
    const uint64_t t0 = NowNs();
    ssum::Status s = base_->Append(data);
    env_->AddWrite(NowNs() - t0, data.size());
    return s;
  }
  ssum::Status Flush() override { return Timed([&] { return base_->Flush(); }); }
  ssum::Status Sync() override { return Timed([&] { return base_->Sync(); }); }
  ssum::Status Close() override { return Timed([&] { return base_->Close(); }); }

 private:
  template <class F>
  ssum::Status Timed(F f) {
    const uint64_t t0 = NowNs();
    ssum::Status s = f();
    env_->AddWrite(NowNs() - t0, 0);
    return s;
  }
  std::unique_ptr<ssum::WritableFile> base_;
  TimingEnv* env_;
};

}  // namespace

TimingEnv::Counters TimingEnv::Snapshot() const {
  return {read_ns_.load(), write_ns_.load(), bytes_written_.load(),
          renames_.load()};
}

ssum::Result<std::unique_ptr<ssum::WritableFile>> TimingEnv::NewWritableFile(
    const std::string& path) {
  const uint64_t t0 = NowNs();
  auto file = base_->NewWritableFile(path);
  AddWrite(NowNs() - t0, 0);
  if (!file.ok()) return file.status();
  return std::unique_ptr<ssum::WritableFile>(
      std::make_unique<TimedFile>(std::move(*file), this));
}

ssum::Result<std::string> TimingEnv::ReadFile(const std::string& path) {
  const uint64_t t0 = NowNs();
  auto bytes = base_->ReadFile(path);
  read_ns_ += NowNs() - t0;
  return bytes;
}

ssum::Status TimingEnv::RenameFile(const std::string& from,
                                   const std::string& to) {
  const uint64_t t0 = NowNs();
  ssum::Status s = base_->RenameFile(from, to);
  AddWrite(NowNs() - t0, 0);
  ++renames_;
  return s;
}

ssum::Status TimingEnv::RemoveFile(const std::string& path) {
  return base_->RemoveFile(path);
}

ssum::Status TimingEnv::CreateDirs(const std::string& path) {
  return base_->CreateDirs(path);
}

ssum::Status TimingEnv::SyncDir(const std::string& path) {
  const uint64_t t0 = NowNs();
  ssum::Status s = base_->SyncDir(path);
  AddWrite(NowNs() - t0, 0);
  return s;
}

ssum::Result<bool> TimingEnv::FileExists(const std::string& path) {
  return base_->FileExists(path);
}

ssum::Result<std::unique_ptr<ssum::FileLock>> TimingEnv::LockFile(
    const std::string& path) {
  const uint64_t t0 = NowNs();
  auto lock = base_->LockFile(path);
  AddWrite(NowNs() - t0, 0);
  return lock;
}

ssum::Result<std::unique_ptr<ssum::Listener>> TimingEnv::NewListener(
    const std::string& addr) {
  return base_->NewListener(addr);
}

ssum::Result<std::unique_ptr<ssum::Connection>> TimingEnv::Connect(
    const std::string& addr) {
  return base_->Connect(addr);
}

std::string FilesystemKind(const std::string& path) {
  struct statfs st {};
  if (statfs(path.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0x01021994UL:
      return "tmpfs";
    case 0x794C7630UL:
      return "overlay";
    case 0xEF53UL:
      return "ext4";
    case 0x58465342UL:
      return "xfs";
    case 0x9123683EUL:
      return "btrfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(st.f_type));
      return buf;
    }
  }
}

std::vector<std::string> ListDir(const std::string& dir) {
  std::vector<std::string> names;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    names.push_back(entry.path().filename().string());
  }
  std::sort(names.begin(), names.end());
  return names;
}

void RemoveAllBut(const std::string& dir,
                  const std::vector<std::string>& keep) {
  for (const std::string& name : ListDir(dir)) {
    if (std::binary_search(keep.begin(), keep.end(), name)) continue;
    std::error_code ec;
    fs::remove_all(fs::path(dir) / name, ec);
  }
}

}  // namespace perfbench

// --- driver ------------------------------------------------------------------

namespace {

using perfbench::Args;
using perfbench::Report;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Printed with --trace 0. Keep in step with BENCHMARK.json "end_to_end".
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"latency_p50_ms", "ms"},
    {"latency_tail_ms", "ms"},
    {"throughput_ops_s", "1/s"},
    {"peak_rss_mb", "MiB"},
    {"discovery_cost", "elements"},
};

// Printed with --trace 1. Keep in step with BENCHMARK.json "per_layer". A
// layer a workload does not exercise reads 0 (see README.md).
constexpr MetricSpec kPerLayer[] = {
    {"stats.annotate_ms", "ms"},
    {"stats.annotate_nodes_per_s", "1/s"},
    {"stats.delta_annotate_ms", "ms"},
    {"stats.dirty_units", "count"},
    {"stats.total_units", "count"},
    {"stats.lineage_hops", "count"},
    {"core.edge_metrics_ms", "ms"},
    {"core.importance_ms", "ms"},
    {"core.affinity_ms", "ms"},
    {"core.coverage_ms", "ms"},
    {"core.dominance_ms", "ms"},
    {"core.dominance_calls_per_op", "count"},
    {"core.dominance_pairs_tested", "count"},
    {"core.dominance_pairs", "count"},
    {"core.candidates", "count"},
    {"core.context_ms", "ms"},
    {"core.make_incremental_ms", "ms"},
    {"core.select_importance_ms", "ms"},
    {"core.select_coverage_ms", "ms"},
    {"core.select_balance_ms", "ms"},
    {"core.assembly_ms", "ms"},
    {"core.matrix_mb", "MiB"},
    {"core.patch_rows_rewalked", "count"},
    {"core.patch_rows_total", "count"},
    {"core.patched", "count"},
    {"store.read_ms", "ms"},
    {"store.write_ms", "ms"},
    {"store.bytes_written_mb", "MiB"},
    {"store.hits", "count"},
    {"store.misses", "count"},
    {"store.installs", "count"},
    {"serve.rtt_summarize_ms", "ms"},
    {"serve.rtt_discover_ms", "ms"},
    {"serve.server_p50_us", "us"},
    {"serve.server_p99_us", "us"},
    {"serve.fingerprint_ms.xmark", "ms"},
    {"serve.fingerprint_ms.tpch", "ms"},
    {"serve.fingerprint_ms.mimi", "ms"},
    {"serve.fingerprint_ms.scenario", "ms"},
    {"serve.parse_summary_ms", "ms"},
    {"serve.codec_us", "us"},
    {"serve.keepalive_reused", "count"},
    {"query.discover_ms", "ms"},
    {"query.discovery_cost_without", "elements"},
    {"trace.overhead_ms", "ms"},
};

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload cold_schema_heavy|serve_warm_mix|"
               "incremental_chain --seed N --seconds S --trace 0|1 "
               "--work-dir DIR\n");
  return 2;
}

std::string Compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  bool have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return Usage();
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0)) return Usage();
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return Usage();
      args.trace = value == "1";
      have_trace = true;
    } else if (key == "--work-dir") {
      args.work_dir = value;
    } else {
      return Usage();
    }
  }
  using RunFn = void (*)(const Args&, Report*);
  const std::map<std::string, RunFn> workloads = {
      {"cold_schema_heavy", perfbench::RunColdSchemaHeavy},
      {"serve_warm_mix", perfbench::RunServeWarmMix},
      {"incremental_chain", perfbench::RunIncrementalChain}};
  if (argc % 2 != 1 || workloads.count(args.workload) == 0 ||
      args.work_dir.empty() || !have_trace) {
    return Usage();
  }
  if (std::string_view(ssum::BuildType()) != "Release") {
    std::fprintf(stderr,
                 "perfbench: refusing to report from a '%s' build of the "
                 "library; configure with -DCMAKE_BUILD_TYPE=Release\n",
                 ssum::BuildType());
    return 2;
  }
  mallopt(M_MMAP_THRESHOLD, perfbench::kMmapThreshold);
  // Before any thread exists, so every thread inherits the mask.
  const std::string cpus = perfbench::PinToCpus(perfbench::kKernelThreads);
  ssum::SetDefaultThreadCount(perfbench::kKernelThreads);

  std::error_code ec;
  std::filesystem::create_directories(args.work_dir, ec);
  std::printf(
      "# run {\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%g,\"trace\":%d,"
      "\"build_type\":\"%s\",\"compiler\":\"%s\",\"hardware_threads\":%u,"
      "\"kernel_threads\":%u,\"cpus\":\"%s\",\"serve_clients\":%u,"
      "\"serve_workers\":%u,\"mmap_threshold\":%d,\"work_fs\":\"%s\"}\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.seconds, args.trace ? 1 : 0, ssum::BuildType(), Compiler().c_str(),
      ssum::HardwareThreadCount(), perfbench::kKernelThreads, cpus.c_str(),
      perfbench::kServeClients, perfbench::kServeWorkers,
      perfbench::kMmapThreshold,
      perfbench::FilesystemKind(args.work_dir).c_str());
  std::fflush(stdout);

  Report report;
  workloads.at(args.workload)(args, &report);
  if (report.attempted == 0) {
    std::fprintf(stderr, "perfbench: no operation was attempted\n");
    return 1;
  }

  std::string metrics;
  auto emit = [&](const MetricSpec& m) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", m.name, report.Get(m.name),
                  m.unit);
    metrics += buf;
  };
  if (args.trace) {
    for (const MetricSpec& m : kPerLayer) emit(m);
  } else {
    for (const MetricSpec& m : kEndToEnd) {
      if (!report.Has(m.name)) {
        std::fprintf(stderr, "perfbench: workload did not measure %s\n",
                     m.name);
        return 1;
      }
      emit(m);
    }
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      report.correct() ? "true" : "false",
      static_cast<unsigned long long>(report.attempted),
      static_cast<unsigned long long>(report.failed), metrics.c_str());
  return 0;
}
