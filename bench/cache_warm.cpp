// Cold-vs-warm benchmark for the snapshot store (src/store): runs the full
// XMark pipeline — dataset generation + annotateSchema + context (matrices)
// + BalanceSummary selection — cold (no cache), then warm from a populated
// cache, and gates on the contract the store exists for:
//
//   * a warm context alone loads both matrices from containers
//     (matrices_loaded_from_cache() == 2),
//   * the timed warm path performs zero annotation/matrix/selection
//     computation (annotations + summary served from containers, zero
//     installs while timing),
//   * the warm summary is exactly the cold summary (bit-identical matrices),
//   * warm is at least 5x faster than cold.
//
//   cache_warm [--json <path>] [--sf S]
//
// --json writes the machine-readable record consumed by bench/run_bench.sh
// (checked in as bench/BENCH_cache.json).

#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

#include "common/buildinfo.h"
#include "core/summarize.h"
#include "datasets/registry.h"
#include "store/artifact_cache.h"

namespace {

using namespace ssum;

constexpr size_t kSummarySize = 10;
constexpr double kMinSpeedup = 5.0;

struct PipelineResult {
  SchemaSummary summary;
  uint64_t data_elements = 0;
};

/// One full pipeline run, exactly what `ssum summarize` does: load the
/// dataset (annotations cached), then the warm-start one-shot (summary
/// cached, else matrices cached). `cache` may be null (cold).
PipelineResult RunPipeline(double sf, ArtifactCache* cache) {
  auto bundle = LoadDataset(DatasetKind::kXMark, sf, cache);
  if (!bundle.ok()) {
    std::fprintf(stderr, "LoadDataset failed: %s\n",
                 bundle.status().ToString().c_str());
    std::exit(1);
  }
  auto summary =
      Summarize(bundle->schema, bundle->annotations, kSummarySize,
                Algorithm::kBalanceSummary, SummarizeOptions{}, cache);
  if (!summary.ok()) {
    std::fprintf(stderr, "Summarize failed: %s\n",
                 summary.status().ToString().c_str());
    std::exit(1);
  }
  return {std::move(*summary), bundle->data_elements};
}

template <typename Fn>
double TimeMs(int reps, const Fn& fn) {
  using clock = std::chrono::steady_clock;
  auto t0 = clock::now();
  for (int i = 0; i < reps; ++i) fn();
  double total =
      std::chrono::duration<double, std::milli>(clock::now() - t0).count();
  return total / reps;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  double sf = 0.5;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--json") && i + 1 < argc) {
      json_path = argv[++i];
    } else if (!std::strcmp(argv[i], "--sf") && i + 1 < argc) {
      sf = std::atof(argv[++i]);
    }
  }
  if (!json_path.empty() && !ssum::IsReleaseBuild()) {
    std::fprintf(stderr,
                 "cache_warm: refusing to emit gated JSON from a '%s' build; "
                 "configure with -DCMAKE_BUILD_TYPE=Release\n",
                 ssum::BuildType());
    return 2;
  }

  const std::string dir =
      (std::filesystem::temp_directory_path() / "ssum_cache_warm_bench")
          .string();
  std::filesystem::remove_all(dir);
  ArtifactCache cache(dir);
  if (!cache.EnsureDir().ok()) {
    std::fprintf(stderr, "cannot create cache dir %s\n", dir.c_str());
    return 1;
  }

  std::printf("cache_warm: XMark sf %.2f, K = %zu\n", sf, kSummarySize);

  PipelineResult cold = RunPipeline(sf, nullptr);
  const double cold_ms = TimeMs(3, [&] { RunPipeline(sf, nullptr); });
  std::printf("  cold   %10.2f ms  (%llu data nodes)\n", cold_ms,
              static_cast<unsigned long long>(cold.data_elements));

  // Populate, then time the fully-warm path.
  RunPipeline(sf, &cache);

  // Matrix-layer gate: a fresh context over the populated cache must load
  // both all-pairs matrices from containers (the timed warm path below never
  // builds a context at all — its summary hit short-circuits earlier).
  int matrices_from_cache = 0;
  {
    auto bundle = LoadDataset(DatasetKind::kXMark, sf, &cache);
    if (!bundle.ok()) {
      std::fprintf(stderr, "LoadDataset failed: %s\n",
                   bundle.status().ToString().c_str());
      return 1;
    }
    auto context = SummarizerContext::Make(bundle->schema, bundle->annotations,
                                           SummarizeOptions{}, &cache)
                       .ValueOrDie();
    matrices_from_cache = context.matrices_loaded_from_cache();
  }

  const CacheCounters populated = cache.session_counters();
  PipelineResult warm = RunPipeline(sf, &cache);
  const double warm_ms = TimeMs(10, [&] { RunPipeline(sf, &cache); });
  const CacheCounters after = cache.session_counters();
  std::printf("  warm   %10.2f ms\n", warm_ms);

  const double speedup = warm_ms > 0 ? cold_ms / warm_ms : 0.0;
  std::printf("  speedup %8.1fx\n", speedup);

  bool ok = true;
  if (matrices_from_cache != 2) {
    std::fprintf(stderr,
                 "FAIL: warm context loaded %d/2 matrices from the cache\n",
                 matrices_from_cache);
    ok = false;
  }
  const uint64_t warm_installs = after.installs - populated.installs;
  if (warm_installs != 0) {
    std::fprintf(stderr,
                 "FAIL: warm runs installed %llu artifacts (expected 0)\n",
                 static_cast<unsigned long long>(warm_installs));
    ok = false;
  }
  // Every timed warm run must be served entirely from containers: one
  // annotations hit + one summary hit per pipeline, nothing recomputed.
  const uint64_t warm_hits = after.hits - populated.hits;
  if (warm_hits < 2 * 11) {  // 1 untimed + 10 timed runs, 2 layers each
    std::fprintf(stderr,
                 "FAIL: warm runs hit the cache %llu times (expected >= 22)\n",
                 static_cast<unsigned long long>(warm_hits));
    ok = false;
  }
  const bool deterministic =
      warm.summary.abstract_elements == cold.summary.abstract_elements &&
      warm.summary.representative == cold.summary.representative;
  if (!deterministic) {
    std::fprintf(stderr, "FAIL: warm summary differs from cold summary\n");
    ok = false;
  }
  if (speedup < kMinSpeedup) {
    std::fprintf(stderr, "FAIL: warm speedup %.1fx below the %.0fx gate\n",
                 speedup, kMinSpeedup);
    ok = false;
  }

  if (!json_path.empty()) {
    std::ofstream out(json_path, std::ios::trunc);
    out << "{\n"
        << "  \"bench\": \"cache_warm\",\n"
        << "  \"build_type\": \"" << ssum::BuildType() << "\",\n"
        << "  \"dataset\": \"XMark\",\n"
        << "  \"sf\": " << sf << ",\n"
        << "  \"summary_size\": " << kSummarySize << ",\n"
        << "  \"data_elements\": " << cold.data_elements << ",\n"
        << "  \"cold_ms\": " << cold_ms << ",\n"
        << "  \"warm_ms\": " << warm_ms << ",\n"
        << "  \"speedup\": " << speedup << ",\n"
        << "  \"matrices_from_cache\": " << matrices_from_cache << ",\n"
        << "  \"warm_installs\": " << warm_installs << ",\n"
        << "  \"warm_hits\": " << warm_hits << ",\n"
        << "  \"deterministic\": " << (deterministic ? "true" : "false")
        << ",\n"
        << "  \"gate_min_speedup\": " << kMinSpeedup << ",\n"
        << "  \"ok\": " << (ok ? "true" : "false") << "\n"
        << "}\n";
    std::printf("  wrote %s\n", json_path.c_str());
  }

  std::filesystem::remove_all(dir);
  return ok ? 0 : 1;
}
