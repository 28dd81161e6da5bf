// Incremental delta-summarization benchmark: a versioned scenario chain
// (what `ssum gen --chain` emits) summarized cold at every version versus
// incrementally from the previous version — delta-annotation over the dirty
// units, with snapshot lineage resolving each step's base annotations from
// the artifact cache, then a context built over the new statistics.
//
//   delta_scaling [--json <path> | --gate-only] [--threads N]
//
// Gates (any violation fails the run):
//   * every chain step actually takes the incremental path (analytic dirty
//     set, no cold fallback) and re-walks only a strict subset of units;
//   * the incremental step is < 20% of the cold pipeline wall clock;
//   * bit-identity at 1 and 8 threads: incremental annotations equal the
//     full pass exactly, the matrices byte-equal the cold ones, and the
//     selected summaries match (the incremental path may only ever be a
//     faster route to the same bytes).
//
// --json writes the trajectory record consumed by bench/run_bench.sh
// (checked in as bench/BENCH_delta.json); --gate-only runs the gates
// without writing JSON (the CI bench stage).

#include <cstdio>
#include <deque>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/summarize.h"
#include "datasets/scenario.h"
#include "stats/annotate.h"
#include "store/artifact_cache.h"

namespace {

using namespace ssum;
using namespace ssum::bench;

// Sized so annotation dominates the cold pipeline (many units, a modest
// matrix): that is the regime incremental summarization exists for.
constexpr uint32_t kElements = 120;
constexpr uint64_t kUnits = 60000;
constexpr int kChain = 3;           // v0 -> v1 -> v2 -> v3
constexpr size_t kSummarySize = 8;
constexpr double kMutateFraction = 0.01;
constexpr double kMaxIncFraction = 0.20;  // inc step < 20% of cold
constexpr int kReps = 5;

ScenarioSpec MakeVersion(int i) {
  ScenarioSpec spec;
  spec.name = "delta-bench";
  spec.seed = 17;
  spec.schema_elements = kElements;
  spec.instance_units = kUnits;
  if (i > 0) {
    spec.mutate_seed = static_cast<uint64_t>(i);
    spec.mutate_fraction = kMutateFraction;
  }
  return spec;
}

struct StepReport {
  int version = 0;
  uint64_t dirty_units = 0;
  uint64_t total_units = 0;
  uint32_t lineage_hops = 0;
  double cold_ms = 0;
  double inc_ms = 0;

  double Fraction() const { return cold_ms > 0 ? inc_ms / cold_ms : 1.0; }
};

}  // namespace

int main(int argc, char** argv) {
  const BenchFlags flags = ParseBenchFlags(argc, argv, "delta_scaling");

  std::printf(
      "delta scaling — %u elements, %llu units, chain of %d versions, "
      "mutate fraction %.2f\n\n",
      kElements, static_cast<unsigned long long>(kUnits), kChain,
      kMutateFraction);

  // The version chain. Datasets stay alive for the whole run (contexts hold
  // pointers into their schemas).
  std::deque<ScenarioDataset> versions;
  for (int i = 0; i <= kChain; ++i) {
    auto ds = ScenarioDataset::Make(MakeVersion(i));
    if (!ds.ok()) {
      std::fprintf(stderr, "ScenarioDataset::Make(v%d): %s\n", i,
                   ds.status().ToString().c_str());
      return 1;
    }
    versions.push_back(std::move(*ds));
  }

  bool ok = true;         // every gate
  bool identical = true;  // the bit-identity gates alone

  // -------------------------------------------------------------------------
  // Bit-identity gates at 1 and 8 threads: walk the chain incrementally
  // version by version and compare every layer against the cold pipeline.
  // -------------------------------------------------------------------------
  for (uint32_t threads : {1u, 8u}) {
    const ScratchDir dir("delta_bench_t" + std::to_string(threads));
    ArtifactCache cache(dir.path());

    SummarizeOptions options;
    options.parallel.threads = threads;

    for (int i = 1; i <= kChain; ++i) {
      auto delta =
          AnnotateScenarioDelta(versions[i - 1], versions[i], &cache);
      if (!delta.ok()) {
        std::fprintf(stderr, "delta v%d: %s\n", i,
                     delta.status().ToString().c_str());
        return 1;
      }
      if (!delta->incremental) {
        std::fprintf(stderr,
                     "FAIL: threads=%u v%d fell back to cold annotation "
                     "(%s)\n",
                     threads, i, delta->fallback_reason.c_str());
        ok = false;
      }
      if (delta->dirty_units == 0 || delta->dirty_units >= delta->total_units) {
        std::fprintf(
            stderr,
            "FAIL: threads=%u v%d re-walked %llu/%llu units (expected a "
            "strict non-empty subset)\n",
            threads, i, static_cast<unsigned long long>(delta->dirty_units),
            static_cast<unsigned long long>(delta->total_units));
        ok = false;
      }

      // Incremental layer equals the full pass, bit for bit.
      auto full = AnnotateSchemaSharded(*versions[i].MakeShardedSource());
      if (!full.ok()) {
        std::fprintf(stderr, "annotate v%d: %s\n", i,
                     full.status().ToString().c_str());
        return 1;
      }
      if (!(delta->annotations == *full)) {
        std::fprintf(stderr,
                     "FAIL: threads=%u v%d incremental annotations differ "
                     "from the full pass\n",
                     threads, i);
        identical = false;
      }

      auto inc = SummarizerContext::Make(versions[i].schema(),
                                         delta->annotations, options, &cache);
      if (!inc.ok()) {
        std::fprintf(stderr, "incremental context v%d: %s\n", i,
                     inc.status().ToString().c_str());
        return 1;
      }
      auto cold =
          SummarizerContext::Make(versions[i].schema(), *full, options);
      if (!cold.ok()) {
        std::fprintf(stderr, "cold context v%d: %s\n", i,
                     cold.status().ToString().c_str());
        return 1;
      }
      if (!SameBytes(inc->affinity().matrix(), cold->affinity().matrix()) ||
          !SameBytes(inc->coverage().matrix(), cold->coverage().matrix())) {
        std::fprintf(stderr,
                     "FAIL: threads=%u v%d incremental matrices are not "
                     "byte-equal to the cold ones\n",
                     threads, i);
        identical = false;
      }
      auto inc_summary = Summarize(*inc, kSummarySize);
      auto cold_summary = Summarize(*cold, kSummarySize);
      if (!inc_summary.ok() || !cold_summary.ok()) {
        std::fprintf(stderr, "summarize v%d failed\n", i);
        return 1;
      }
      if (inc_summary->abstract_elements != cold_summary->abstract_elements ||
          inc_summary->representative != cold_summary->representative) {
        std::fprintf(stderr,
                     "FAIL: threads=%u v%d incremental summary differs from "
                     "the cold summary\n",
                     threads, i);
        identical = false;
      }
    }
    std::printf("  threads=%u: chain bit-identity %s\n", threads,
                identical ? "ok" : "VIOLATED");
  }

  // -------------------------------------------------------------------------
  // Wall clock: cold pipeline per version vs the incremental step. The
  // cache is pre-populated by a warm-up chain pass, so the timed incremental
  // step measures what a steady-state consumer pays: lineage lookup + dirty
  // set + delta walk + context build + selection. Every time is the minimum
  // over kReps runs: scheduler or IO hiccups only ever add time, so one slow
  // rep cannot trip the fraction gate.
  // -------------------------------------------------------------------------
  const ScratchDir dir("delta_bench_time");
  ArtifactCache cache(dir.path());
  bool timed_ok = true;  // every timed run summarized

  SummarizeOptions options;  // session default threads

  std::vector<StepReport> steps(kChain);
  for (int i = 1; i <= kChain; ++i) {
    StepReport& step = steps[i - 1];
    step.version = i;

    step.cold_ms = MinOfNMs(kReps, [&] {
      auto ann = AnnotateSchemaSharded(*versions[i].MakeShardedSource());
      auto ctx = SummarizerContext::Make(versions[i].schema(), *ann, options);
      timed_ok &= Summarize(*ctx, kSummarySize).ok();
    });

    // Warm-up: populates the lineage chain for this step and records the
    // provenance stats the timed loop reproduces.
    {
      auto delta = AnnotateScenarioDelta(versions[i - 1], versions[i], &cache);
      if (!delta.ok() || !delta->incremental) {
        std::fprintf(stderr, "FAIL: timed chain v%d not incremental\n", i);
        return 1;
      }
      step.dirty_units = delta->dirty_units;
      step.total_units = delta->total_units;
      step.lineage_hops = delta->lineage_hops;
    }

    step.inc_ms = MinOfNMs(kReps, [&] {
      auto delta = AnnotateScenarioDelta(versions[i - 1], versions[i], &cache);
      auto inc = SummarizerContext::Make(versions[i].schema(),
                                         delta->annotations, options);
      timed_ok &= Summarize(*inc, kSummarySize).ok();
    });

    std::printf(
        "  v%d: cold %8.2f ms   incremental %8.2f ms (%.1f%%)  — %llu/%llu "
        "units re-walked, %u lineage hop(s)\n",
        i, step.cold_ms, step.inc_ms, 100.0 * step.Fraction(),
        static_cast<unsigned long long>(step.dirty_units),
        static_cast<unsigned long long>(step.total_units), step.lineage_hops);

    if (step.Fraction() >= kMaxIncFraction) {
      std::fprintf(stderr,
                   "FAIL: v%d incremental step is %.1f%% of cold (gate: < "
                   "%.0f%%)\n",
                   i, 100.0 * step.Fraction(), 100.0 * kMaxIncFraction);
      ok = false;
    }
  }
  if (!timed_ok) {
    std::fprintf(stderr, "a timed summarize failed\n");
    return 1;
  }
  ok = ok && identical;

  if (!flags.json_path.empty()) {
    JsonRecord rec("delta_scaling");
    rec.Field("threads", ResolveThreadCount(0))
        .Field("schema_elements", kElements)
        .Field("instance_units", kUnits)
        .Field("chain", kChain)
        .Field("mutate_fraction", kMutateFraction, 2)
        .Field("summary_size", kSummarySize)
        .Field("gate_max_inc_fraction", kMaxIncFraction, 2)
        .Field("bit_identical", identical)
        .Open("steps", '[');
    for (const StepReport& r : steps) {
      rec.Open("", '{')
          .Field("version", r.version)
          .Field("cold_ms", r.cold_ms)
          .Field("inc_ms", r.inc_ms)
          .Field("fraction", r.Fraction())
          .Field("dirty_units", r.dirty_units)
          .Field("total_units", r.total_units)
          .Field("lineage_hops", r.lineage_hops)
          .Close();
    }
    rec.Close().Field("ok", ok);
    if (!rec.Write(flags.json_path)) return 1;
  }

  if (!ok) {
    std::fprintf(stderr, "BENCH GATE FAILED (see FAIL lines above)\n");
    return 1;
  }
  return 0;
}
