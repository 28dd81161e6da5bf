// Incremental delta-summarization benchmark: a versioned scenario chain
// (what `ssum gen --chain` emits) summarized cold at every version versus
// incrementally from the previous version — delta-annotation over the dirty
// units, with snapshot lineage resolving each step's base annotations from
// the artifact cache, then a context built over the new statistics.
//
//   delta_scaling [--json <path>] [--gate-only] [--threads N]
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

#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/buildinfo.h"
#include "common/parallel.h"
#include "core/summarize.h"
#include "datasets/scenario.h"
#include "stats/annotate.h"
#include "store/artifact_cache.h"

namespace {

using namespace ssum;

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

/// Min-of-reps: the minimum is the noise-robust estimator of a step's
/// cost (scheduler or IO hiccups only ever add time), and keeps the
/// fraction gate from tripping on one slow rep.
template <typename Fn>
double TimeMs(int reps, const Fn& fn) {
  using clock = std::chrono::steady_clock;
  double best = 0.0;
  for (int i = 0; i < reps; ++i) {
    auto t0 = clock::now();
    fn();
    double ms =
        std::chrono::duration<double, std::milli>(clock::now() - t0).count();
    if (i == 0 || ms < best) best = ms;
  }
  return best;
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

bool Equal(const SquareMatrix& a, const SquareMatrix& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.data().size() * sizeof(double)) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  ssum::ConsumeThreadsFlag(&argc, argv);
  std::string json_path;
  bool gate_only = false;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (a.rfind("--json=", 0) == 0) {
      json_path = a.substr(7);
    } else if (a == "--gate-only") {
      gate_only = true;
    } else {
      std::fprintf(stderr,
                   "usage: delta_scaling [--json <path>] [--gate-only]\n");
      return 2;
    }
  }
  if (!json_path.empty() && !gate_only && !IsReleaseBuild()) {
    std::fprintf(stderr,
                 "delta_scaling: refusing to emit gated JSON from a '%s' "
                 "build; configure with -DCMAKE_BUILD_TYPE=Release\n",
                 BuildType());
    return 2;
  }

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
    const std::string dir =
        (std::filesystem::temp_directory_path() /
         ("ssum_delta_bench_t" + std::to_string(threads)))
            .string();
    std::filesystem::remove_all(dir);
    ArtifactCache cache(dir);

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
      if (!Equal(inc->affinity().matrix(), cold->affinity().matrix()) ||
          !Equal(inc->coverage().matrix(), cold->coverage().matrix())) {
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
    std::filesystem::remove_all(dir);
  }

  // -------------------------------------------------------------------------
  // Wall clock: cold pipeline per version vs the incremental step. The
  // cache is pre-populated by a warm-up chain pass, so the timed incremental
  // step measures what a steady-state consumer pays: lineage lookup + dirty
  // set + delta walk + context build + selection.
  // -------------------------------------------------------------------------
  const std::string dir =
      (std::filesystem::temp_directory_path() / "ssum_delta_bench_time")
          .string();
  std::filesystem::remove_all(dir);
  ArtifactCache cache(dir);

  SummarizeOptions options;  // session default threads

  std::vector<StepReport> steps(kChain);
  for (int i = 1; i <= kChain; ++i) {
    StepReport& step = steps[i - 1];
    step.version = i;

    step.cold_ms = TimeMs(kReps, [&] {
      auto ann = AnnotateSchemaSharded(*versions[i].MakeShardedSource());
      auto ctx = SummarizerContext::Make(versions[i].schema(), *ann, options);
      auto summary = Summarize(*ctx, kSummarySize);
      if (!summary.ok()) std::exit(1);
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

    step.inc_ms = TimeMs(kReps, [&] {
      auto delta = AnnotateScenarioDelta(versions[i - 1], versions[i], &cache);
      auto inc = SummarizerContext::Make(versions[i].schema(),
                                         delta->annotations, options);
      auto summary = Summarize(*inc, kSummarySize);
      if (!summary.ok()) std::exit(1);
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
  std::filesystem::remove_all(dir);
  ok = ok && identical;

  if (!json_path.empty() && !gate_only) {
    std::ofstream out(json_path, std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
      return 1;
    }
    out << "{\n"
        << "  \"bench\": \"delta_scaling\",\n"
        << "  \"build_type\": \"" << BuildType() << "\",\n"
        << "  \"hardware_threads\": " << HardwareThreadCount() << ",\n"
        << "  \"threads\": " << ResolveThreadCount(0) << ",\n"
        << "  \"schema_elements\": " << kElements << ",\n"
        << "  \"instance_units\": " << kUnits << ",\n"
        << "  \"chain\": " << kChain << ",\n"
        << "  \"mutate_fraction\": " << kMutateFraction << ",\n"
        << "  \"summary_size\": " << kSummarySize << ",\n"
        << "  \"gate_max_inc_fraction\": " << kMaxIncFraction << ",\n"
        << "  \"bit_identical\": " << (identical ? "true" : "false") << ",\n"
        << "  \"steps\": [\n";
    for (size_t s = 0; s < steps.size(); ++s) {
      const StepReport& r = steps[s];
      char buf[240];
      std::snprintf(
          buf, sizeof(buf),
          "    {\"version\": %d, \"cold_ms\": %.4f, \"inc_ms\": %.4f, "
          "\"fraction\": %.4f, \"dirty_units\": %llu, \"total_units\": %llu, "
          "\"lineage_hops\": %u}",
          r.version, r.cold_ms, r.inc_ms, r.Fraction(),
          static_cast<unsigned long long>(r.dirty_units),
          static_cast<unsigned long long>(r.total_units), r.lineage_hops);
      out << buf << (s + 1 < steps.size() ? ",\n" : "\n");
    }
    out << "  ],\n"
        << "  \"ok\": " << (ok ? "true" : "false") << "\n"
        << "}\n";
    std::printf("  wrote %s\n", json_path.c_str());
  }

  if (!ok) {
    std::fprintf(stderr, "BENCH GATE FAILED (see FAIL lines above)\n");
    return 1;
  }
  return 0;
}
