// Robustness benchmark for the fault-injecting Env stack (src/common/env.h)
// and the crash-safe cache recovery path, gating the costs the abstraction
// is allowed to have:
//
//   * warm-path overhead: routing container reads through the Env virtual
//     interface (the path every cache lookup takes) must cost <= 2% over a
//     direct ifstream read + parse, min-of-N timed,
//   * heal throughput: corrupting a populated cache, quarantining every
//     container via Verify, and reinstalling must heal 100% of the entries
//     (throughput is recorded, correctness is the gate),
//   * deadline abort: a 10k-element synthetic summarize under a 50 ms
//     budget must return kDeadlineExceeded well inside the slack window
//     instead of running to completion (seconds).
//
//   fault_recovery [--json <path> | --gate-only] [--threads N]
//
// --json writes the machine-readable record consumed by bench/run_bench.sh
// (checked in as bench/BENCH_fault.json); Release builds only. --gate-only
// runs the correctness gates without timing gates and writes no record (any
// build type — this is what the CI faults stage runs under sanitizers, where
// timings are meaningless).

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/deadline.h"
#include "common/env.h"
#include "core/summarize.h"
#include "datasets/synthetic.h"
#include "store/artifact_cache.h"
#include "store/codec.h"
#include "store/container.h"
#include "store/fingerprint.h"

namespace {

using namespace ssum;
using namespace ssum::bench;

constexpr double kMaxWarmOverhead = 0.02;  // 2%
constexpr int kContainers = 32;
constexpr int kReadReps = 200;
constexpr int kSamples = 7;
constexpr int64_t kDeadlineBudgetMs = 50;
// The 10k context zero-fills two ~800 MB matrices before the first
// cooperative check can fire — ~500 ms on the reference box, not
// preemptible mid-allocation. The slack covers that plus machine
// variance; the abort must still land well under the time the full
// computation takes (tens of seconds).
constexpr double kDeadlineSlackMs = 950.0;

/// The pre-Env read path: a plain ifstream slurp, byte-for-byte what
/// PosixEnv::ReadFile does minus the virtual dispatch and Status plumbing.
std::string DirectRead(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

}  // namespace

int main(int argc, char** argv) {
  const BenchFlags flags = ParseBenchFlags(argc, argv, "fault_recovery");

  bool ok = true;
  const ScratchDir scratch("fault_bench");
  const std::string& dir = scratch.path();

  // -------------------------------------------------------------------
  // 1. Warm-path overhead: Env-routed read+parse vs direct read+parse.
  // -------------------------------------------------------------------
  SquareMatrix m(256, 0.0);
  for (size_t r = 0; r < m.size(); ++r) {
    for (size_t c = 0; c < m.size(); ++c) {
      m.Set(r, c, 1.0 / static_cast<double>(1 + r + c));
    }
  }
  const std::string payload = EncodeSquareMatrix(m);  // ~512 KiB container
  const std::string warm_path = dir + "/warm.ssb";
  if (!AtomicWriteFile(warm_path, payload).ok()) {
    std::fprintf(stderr, "cannot write %s\n", warm_path.c_str());
    return 1;
  }

  uint64_t sink = 0;
  const double direct_ms = MinOfNMs(kSamples, [&] {
    for (int i = 0; i < kReadReps; ++i) {
      std::string bytes = DirectRead(warm_path);
      auto parsed = ParseContainer(bytes);
      sink += parsed.ok() ? parsed->sections.size() : 0;
    }
  });
  Env* env = Env::Default();
  const double env_ms = MinOfNMs(kSamples, [&] {
    for (int i = 0; i < kReadReps; ++i) {
      auto bytes = ReadFileBytes(env, warm_path);
      if (!bytes.ok()) continue;
      auto parsed = ParseContainer(*bytes);
      sink += parsed.ok() ? parsed->sections.size() : 0;
    }
  });
  if (sink == 0) std::fprintf(stderr, "warm path parsed nothing?\n");
  const double overhead =
      direct_ms > 0 ? (env_ms - direct_ms) / direct_ms : 0.0;
  std::printf("warm path: direct %8.2f ms, env %8.2f ms, overhead %+.2f%%\n",
              direct_ms, env_ms, overhead * 100.0);
  if (!flags.gate_only && overhead > kMaxWarmOverhead) {
    std::fprintf(stderr, "FAIL: env warm-path overhead %.2f%% above 2%%\n",
                 overhead * 100.0);
    ok = false;
  }

  // -------------------------------------------------------------------
  // 2. Heal throughput: corrupt a populated cache, quarantine, reinstall.
  // -------------------------------------------------------------------
  SyntheticSchemaParams small_params;
  small_params.elements = 64;
  SyntheticSchema small = BuildSyntheticSchema(small_params);

  const std::string cache_dir = dir + "/cache";
  ArtifactCache cache(cache_dir);
  std::vector<Fingerprint> keys;
  for (int i = 0; i < kContainers; ++i) {
    Fingerprint key{0x1000u + static_cast<uint64_t>(i)};
    if (!cache.StoreAnnotations(key, small.annotations).ok()) {
      std::fprintf(stderr, "install %d failed\n", i);
      return 1;
    }
    keys.push_back(key);
  }
  // Corrupt every container in place (byte flip mid-payload).
  for (const auto& entry : std::filesystem::directory_iterator(cache_dir)) {
    if (entry.path().extension() != ".ssb") continue;
    std::string bytes = DirectRead(entry.path().string());
    bytes[bytes.size() / 2] ^= 0x40;
    std::ofstream out(entry.path(), std::ios::binary | std::ios::trunc);
    out << bytes;
  }

  uint64_t quarantined = 0;
  uint64_t reinstalled = 0;
  const double heal_ms = OnceMs([&] {
    auto report = cache.Verify(/*quarantine_corrupt=*/true);
    if (report.ok()) quarantined = report->quarantined;
    for (const Fingerprint& key : keys) {
      if (cache.StoreAnnotations(key, small.annotations).ok()) ++reinstalled;
    }
  });
  const uint64_t healed = cache.session_counters().healed;
  const double heals_per_sec =
      heal_ms > 0 ? 1000.0 * static_cast<double>(healed) / heal_ms : 0.0;
  std::printf(
      "heal: %d corrupted -> %llu quarantined, %llu healed in %.2f ms "
      "(%.0f heals/s)\n",
      kContainers, static_cast<unsigned long long>(quarantined),
      static_cast<unsigned long long>(healed), heal_ms, heals_per_sec);
  if (quarantined != kContainers || healed != kContainers ||
      reinstalled != kContainers) {
    std::fprintf(stderr,
                 "FAIL: quarantine/heal incomplete (%llu/%llu/%llu of %d)\n",
                 static_cast<unsigned long long>(quarantined),
                 static_cast<unsigned long long>(healed),
                 static_cast<unsigned long long>(reinstalled), kContainers);
    ok = false;
  }
  // Every healed entry must load cleanly again.
  for (const Fingerprint& key : keys) {
    if (!cache.LoadAnnotations(small.graph, key).has_value()) {
      std::fprintf(stderr, "FAIL: healed key not loadable\n");
      ok = false;
      break;
    }
  }

  // -------------------------------------------------------------------
  // 3. Deadline abort on the 10k synthetic summarize.
  // -------------------------------------------------------------------
  SyntheticSchemaParams params;
  params.elements = 10000;
  SyntheticSchema synth = BuildSyntheticSchema(params);
  SummarizeOptions options;
  options.parallel.deadline = Deadline::After(kDeadlineBudgetMs);
  Status abort_status;
  const double abort_ms = OnceMs([&] {
    auto context =
        SummarizerContext::Make(synth.graph, synth.annotations, options);
    abort_status =
        context.ok() ? Summarize(*context, 8).status() : context.status();
  });
  std::printf("deadline: 10k summarize under %lld ms budget -> '%s' after "
              "%.1f ms\n",
              static_cast<long long>(kDeadlineBudgetMs),
              abort_status.ToString().c_str(), abort_ms);
  if (!abort_status.IsDeadlineExceeded()) {
    std::fprintf(stderr, "FAIL: expected kDeadlineExceeded, got '%s'\n",
                 abort_status.ToString().c_str());
    ok = false;
  }
  if (!flags.gate_only &&
      abort_ms > static_cast<double>(kDeadlineBudgetMs) + kDeadlineSlackMs) {
    std::fprintf(stderr,
                 "FAIL: abort took %.1f ms, budget %lld ms + %.0f ms slack\n",
                 abort_ms, static_cast<long long>(kDeadlineBudgetMs),
                 kDeadlineSlackMs);
    ok = false;
  }

  if (!flags.json_path.empty()) {
    JsonRecord rec("fault_recovery");
    rec.Field("warm_direct_ms", direct_ms)
        .Field("warm_env_ms", env_ms)
        .Field("warm_overhead", overhead, 6)
        .Field("gate_max_overhead", kMaxWarmOverhead, 2)
        .Field("containers", kContainers)
        .Field("quarantined", quarantined)
        .Field("healed", healed)
        .Field("heal_ms", heal_ms)
        .Field("heals_per_sec", heals_per_sec, 1)
        .Field("deadline_budget_ms", kDeadlineBudgetMs)
        .Field("deadline_abort_ms", abort_ms, 1)
        .Field("deadline_slack_ms", kDeadlineSlackMs, 1)
        .Field("ok", ok);
    if (!rec.Write(flags.json_path)) return 1;
  }
  return ok ? 0 : 1;
}
