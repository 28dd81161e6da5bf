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
//   cache_warm [--json <path> | --gate-only] [--threads N] [--sf X]
//
// --json writes the machine-readable record consumed by bench/run_bench.sh
// (checked in as bench/BENCH_cache.json); --gate-only runs the gates without
// writing it (the CI bench stage). --sf must be > 0.

#include <cstdio>
#include <string>

#include "bench_util.h"
#include "core/summarize.h"
#include "datasets/registry.h"
#include "store/artifact_cache.h"

namespace {

using namespace ssum;
using namespace ssum::bench;

constexpr size_t kSummarySize = 10;
constexpr double kMinSpeedup = 5.0;

struct PipelineResult {
  SchemaSummary summary;
  uint64_t data_elements = 0;
};

/// One full pipeline run, exactly what `ssum summarize` does: load the
/// dataset (annotations cached), then the warm-start one-shot (summary
/// cached, else matrices cached). `cache` may be null (cold). A failure is
/// reported on stderr and clears `*ok`.
PipelineResult RunPipeline(double sf, ArtifactCache* cache, bool* ok) {
  auto bundle = LoadDataset(DatasetKind::kXMark, sf, cache);
  if (!bundle.ok()) {
    std::fprintf(stderr, "LoadDataset failed: %s\n",
                 bundle.status().ToString().c_str());
    *ok = false;
    return {};
  }
  auto summary =
      Summarize(bundle->schema, bundle->annotations, kSummarySize,
                Algorithm::kBalanceSummary, SummarizeOptions{}, cache);
  if (!summary.ok()) {
    std::fprintf(stderr, "Summarize failed: %s\n",
                 summary.status().ToString().c_str());
    *ok = false;
    return {};
  }
  return {std::move(*summary), bundle->data_elements};
}

}  // namespace

int main(int argc, char** argv) {
  double sf = 0.5;
  const BenchFlags flags = ParseBenchFlags(
      argc, argv, "cache_warm",
      {DoubleFlag("--sf", &sf, {.min = 0, .min_open = true})});

  const ScratchDir dir("cache_warm_bench");
  ArtifactCache cache(dir.path());
  if (!cache.EnsureDir().ok()) {
    std::fprintf(stderr, "cannot create cache dir %s\n", dir.path().c_str());
    return 1;
  }

  std::printf("cache_warm: XMark sf %.2f, K = %zu\n", sf, kSummarySize);

  // Cold and warm report the mean over their timed runs.
  bool pipeline_ok = true;
  PipelineResult cold = RunPipeline(sf, nullptr, &pipeline_ok);
  const double cold_ms =
      BatchMs(3, [&] { RunPipeline(sf, nullptr, &pipeline_ok); });
  std::printf("  cold   %10.2f ms  (%llu data nodes)\n", cold_ms,
              static_cast<unsigned long long>(cold.data_elements));

  // Populate, then time the fully-warm path.
  RunPipeline(sf, &cache, &pipeline_ok);

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
  PipelineResult warm = RunPipeline(sf, &cache, &pipeline_ok);
  const double warm_ms =
      BatchMs(10, [&] { RunPipeline(sf, &cache, &pipeline_ok); });
  const CacheCounters after = cache.session_counters();
  std::printf("  warm   %10.2f ms\n", warm_ms);

  if (!pipeline_ok) return 1;
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

  if (!flags.json_path.empty()) {
    JsonRecord rec("cache_warm");
    rec.Field("dataset", "XMark")
        .Field("sf", sf, 2)
        .Field("summary_size", kSummarySize)
        .Field("data_elements", cold.data_elements)
        .Field("cold_ms", cold_ms)
        .Field("warm_ms", warm_ms)
        .Field("speedup", speedup, 2)
        .Field("matrices_from_cache", matrices_from_cache)
        .Field("warm_installs", warm_installs)
        .Field("warm_hits", warm_hits)
        .Field("deterministic", deterministic)
        .Field("gate_min_speedup", kMinSpeedup, 1)
        .Field("ok", ok);
    if (!rec.Write(flags.json_path)) return 1;
  }
  return ok ? 0 : 1;
}
