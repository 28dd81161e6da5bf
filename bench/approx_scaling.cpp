// Approximate-MaxCoverage benchmark and gate: the sketched lazy-greedy
// engine (core/approx_cover.h) versus the exact Figure 6 path, on the three
// paper datasets and on a 10k-element deterministic synthetic schema where
// exact enumeration is infeasible.
//
//   approx_scaling [--json <path> | --gate-only] [--threads N]
//
// Gates (a violated gate fails the run):
//   - determinism (hard, every build type): the approximate selection must
//     be exactly identical across thread counts {1, 2, 8} and across
//     repeated runs;
//   - quality (hard, every build type): at the default epsilon the sketched
//     selection's summary coverage must be >= 0.95x the exact selection's
//     on XMark, TPC-H, and MiMI;
//   - speedup (release builds): on the 10k-element synthetic schema the
//     approximate selection must be >= 20x faster than the budget-limited
//     exact path (which falls back to the greedy full-objective search at
//     that size). Skipped, with a notice, on debug builds — which also
//     cannot emit JSON (exit 2), so debug numbers can never reach the
//     checked-in BENCH_approx.json.
//
// --json writes the machine-readable trajectory record consumed by
// bench/run_bench.sh (checked in as bench/BENCH_approx.json).
// --gate-only runs every gate without writing JSON (the CI bench stage).

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/approx_cover.h"
#include "core/metrics.h"
#include "core/summarize.h"
#include "datasets/registry.h"
#include "datasets/synthetic.h"

namespace {

using namespace ssum;
using namespace ssum::bench;

constexpr double kTargetMs = 25.0;  // per timing batch, keeps the bench quick
constexpr int kBatches = 3;         // min-of-k batches rejects host noise
constexpr double kMinQualityRatio = 0.95;
constexpr double kMinSyntheticSpeedup = 20.0;
constexpr double kDefaultEpsilon = 0.1;
constexpr size_t kSyntheticElements = 10000;
constexpr size_t kSyntheticK = 8;

/// Approximate selection through the low-level engine (the SelectMaxCoverage
/// kApprox route minus the top-up, which never fires here: candidates > k).
std::vector<ElementId> ApproxSelect(const SummarizerContext& context, size_t k,
                                    double epsilon, uint32_t threads) {
  ApproxCoverOptions opts;
  opts.epsilon = epsilon;
  opts.parallel.threads = threads;
  return ApproxMaxCoverage(context.graph(), context.coverage(),
                           context.dominance().candidates, k, opts);
}

double SetCoverage(const SummarizerContext& context,
                   const std::vector<ElementId>& set) {
  return CoverageOfSet(context.graph(), context.affinity(), context.coverage(),
                       set);
}

struct EpsilonPoint {
  double epsilon;
  double quality;  // coverage ratio vs exact at this epsilon
};

struct DatasetReport {
  std::string name;
  double scale = 0;
  size_t elements = 0;
  size_t candidates = 0;
  size_t k = 0;
  double exact_cov = 0;
  double approx_cov = 0;
  double quality = 0;  // approx_cov / exact_cov at the default epsilon
  double exact_ms = 0;
  double approx_ms = 0;
  bool deterministic = true;
  std::vector<EpsilonPoint> epsilon_sweep;

  double Speedup() const { return approx_ms > 0 ? exact_ms / approx_ms : 0; }
};

DatasetReport RunDataset(const DatasetBundle& bundle, double scale,
                         bool* deterministic_ok, double* min_quality) {
  DatasetReport report;
  report.name = bundle.name;
  report.scale = scale;
  report.elements = bundle.schema.size();

  SummarizeOptions base;
  auto context = SummarizerContext::Make(bundle.schema, bundle.annotations,
                                         base)
                     .ValueOrDie();
  const size_t m = context.dominance().candidates.size();
  report.candidates = m;
  const size_t k =
      LargestEnumerableK(m, base.max_coverage_enumeration_budget);
  if (k < 2) {
    std::fprintf(stderr,
                 "  (skipping %s: %zu candidates leave no k with a "
                 "budget-sized enumeration)\n",
                 bundle.name.c_str(), m);
    return report;
  }
  report.k = k;

  std::vector<ElementId> exact;
  {
    auto r = SelectMaxCoverage(context, k);
    if (r.ok()) exact = *r;
  }
  report.exact_cov = SetCoverage(context, exact);

  const std::vector<ElementId> approx =
      ApproxSelect(context, k, kDefaultEpsilon, /*threads=*/1);
  report.approx_cov = SetCoverage(context, approx);
  report.quality =
      report.exact_cov > 0 ? report.approx_cov / report.exact_cov : 1.0;
  *min_quality = std::min(*min_quality, report.quality);

  // Determinism: thread counts {1, 2, 8} and a repeated run must all yield
  // the selection computed above, exactly.
  for (uint32_t t : {1u, 2u, 8u}) {
    for (int run = 0; run < 2; ++run) {
      if (ApproxSelect(context, k, kDefaultEpsilon, t) != approx) {
        report.deterministic = false;
        *deterministic_ok = false;
        std::fprintf(stderr,
                     "MISMATCH: %s approx selection diverged at t=%u run %d\n",
                     bundle.name.c_str(), t, run);
      }
    }
  }

  // Epsilon sweep for the trajectory record (and docs/performance.md):
  // smaller epsilon keeps wider sketches, so quality rises toward exact.
  for (double eps : {0.0, 0.05, 0.1, 0.3}) {
    const double cov = SetCoverage(context, ApproxSelect(context, k, eps, 1));
    report.epsilon_sweep.push_back(
        {eps, report.exact_cov > 0 ? cov / report.exact_cov : 1.0});
  }

  report.exact_ms = MinOfBatchesMs(kTargetMs, kBatches, [&] {
    auto r = SelectMaxCoverage(context, k);
    (void)r;
  });
  report.approx_ms = MinOfBatchesMs(kTargetMs, kBatches, [&] {
    (void)ApproxSelect(context, k, kDefaultEpsilon, 1);
  });
  return report;
}

void PrintDataset(const DatasetReport& r) {
  if (r.k == 0) return;
  std::printf(
      "%-6s (%zu elements, %zu candidates, k=%zu)\n"
      "  exact %9.3fms cov %.4f   approx %8.3fms cov %.4f   "
      "quality %.4f (%.1fx)  %s\n  epsilon sweep:",
      r.name.c_str(), r.elements, r.candidates, r.k, r.exact_ms, r.exact_cov,
      r.approx_ms, r.approx_cov, r.quality, r.Speedup(),
      r.deterministic ? "deterministic" : "MISMATCH");
  for (const EpsilonPoint& p : r.epsilon_sweep) {
    std::printf("  eps=%.2f %.4f", p.epsilon, p.quality);
  }
  std::printf("\n");
}

struct SyntheticReport {
  size_t elements = 0;
  size_t candidates = 0;
  size_t k = kSyntheticK;
  double exact_greedy_ms = 0;  // budget-limited exact = greedy fallback, 1 run
  double approx_ms = 0;
  double exact_cov = 0;
  double approx_cov = 0;
  bool deterministic = true;
  bool ran = false;

  double Speedup() const {
    return approx_ms > 0 ? exact_greedy_ms / approx_ms : 0;
  }
};

SyntheticReport RunSynthetic(bool* deterministic_ok) {
  SyntheticReport report;
  SyntheticSchemaParams params;
  params.elements = kSyntheticElements;
  SyntheticSchema synth = BuildSyntheticSchema(params);
  report.elements = synth.graph.size();

  std::printf("synthetic: building %zu-element context...\n", report.elements);
  SummarizeOptions base;
  auto context = SummarizerContext::Make(synth.graph, synth.annotations, base)
                     .ValueOrDie();
  report.candidates = context.dominance().candidates.size();

  // Budget-limited exact: C(candidates, 8) blows the enumeration budget at
  // this size, so SelectMaxCoverage takes the greedy full-objective path.
  // One measurement — it runs for seconds, repetition would dwarf the bench.
  std::vector<ElementId> exact;
  report.exact_greedy_ms = OnceMs([&] {
    auto r = SelectMaxCoverage(context, kSyntheticK);
    if (r.ok()) exact = *r;
  });
  report.exact_cov = SetCoverage(context, exact);

  const std::vector<ElementId> approx =
      ApproxSelect(context, kSyntheticK, kDefaultEpsilon, 1);
  report.approx_cov = SetCoverage(context, approx);
  report.approx_ms = MinOfBatchesMs(kTargetMs, kBatches, [&] {
    (void)ApproxSelect(context, kSyntheticK, kDefaultEpsilon, 1);
  });

  for (uint32_t t : {2u, 8u}) {
    if (ApproxSelect(context, kSyntheticK, kDefaultEpsilon, t) != approx) {
      report.deterministic = false;
      *deterministic_ok = false;
      std::fprintf(stderr,
                   "MISMATCH: synthetic approx selection diverged at t=%u\n",
                   t);
    }
  }
  report.ran = true;
  return report;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchFlags flags = ParseBenchFlags(argc, argv, "approx_scaling");

  std::printf("approximate MaxCoverage scaling — %u hardware thread(s), %s "
              "build, epsilon %.2f\n\n",
              HardwareThreadCount(), BuildType(), kDefaultEpsilon);

  bool deterministic_ok = true;
  double min_quality = 1.0;
  std::vector<DatasetReport> reports;
  const struct {
    DatasetKind kind;
    double scale;
  } kDatasets[] = {{DatasetKind::kXMark, 0.05},
                   {DatasetKind::kTpch, 0.01},
                   {DatasetKind::kMimi, 0.02}};
  for (const auto& d : kDatasets) {
    auto bundle = LoadDataset(d.kind, d.scale);
    if (!bundle.ok()) {
      std::fprintf(stderr, "%s load failed: %s\n", DatasetName(d.kind),
                   bundle.status().ToString().c_str());
      return 1;
    }
    reports.push_back(
        RunDataset(*bundle, d.scale, &deterministic_ok, &min_quality));
    PrintDataset(reports.back());
  }

  // The 10k-element phase exists for its wall-clock gate; without
  // optimization the numbers are meaningless and the run would take
  // minutes, so debug builds skip it (they cannot emit JSON anyway).
  SyntheticReport synth;
  if (IsReleaseBuild()) {
    synth = RunSynthetic(&deterministic_ok);
    std::printf(
        "synthetic (%zu elements, %zu candidates, k=%zu)\n"
        "  exact-greedy %9.1fms   approx %8.3fms   speedup %.1fx   "
        "coverage %.4f vs %.4f   %s\n",
        synth.elements, synth.candidates, synth.k, synth.exact_greedy_ms,
        synth.approx_ms, synth.Speedup(), synth.approx_cov, synth.exact_cov,
        synth.deterministic ? "deterministic" : "MISMATCH");
  } else {
    std::printf("\n(synthetic 10k phase skipped: %s build)\n",
                BuildType());
  }

  bool gates_ok = true;
  if (min_quality < kMinQualityRatio) {
    std::fprintf(stderr,
                 "REGRESSION: approx quality %.4f < required %.2fx exact\n",
                 min_quality, kMinQualityRatio);
    gates_ok = false;
  }
  if (synth.ran && synth.Speedup() < kMinSyntheticSpeedup) {
    std::fprintf(stderr,
                 "REGRESSION: synthetic speedup %.1fx < required %.0fx\n",
                 synth.Speedup(), kMinSyntheticSpeedup);
    gates_ok = false;
  }

  if (!flags.json_path.empty()) {
    JsonRecord rec("approx_scaling");
    rec.Field("epsilon", kDefaultEpsilon, 2)
        .Field("deterministic", deterministic_ok)
        .Open("gates", '{')
        .Field("min_quality_ratio", kMinQualityRatio, 2)
        .Field("measured_min_quality", min_quality, 6)
        .Field("min_synthetic_speedup", kMinSyntheticSpeedup, 1)
        .Field("measured_synthetic_speedup", synth.Speedup(), 2)
        .Close()
        .Open("datasets", '[');
    for (const DatasetReport& r : reports) {
      if (r.k == 0) continue;
      rec.Open("", '{')
          .Field("name", r.name)
          .Field("elements", r.elements)
          .Field("candidates", r.candidates)
          .Field("k", r.k)
          .Field("exact_ms", r.exact_ms)
          .Field("approx_ms", r.approx_ms)
          .Field("speedup", r.Speedup(), 3)
          .Field("exact_coverage", r.exact_cov, 6)
          .Field("approx_coverage", r.approx_cov, 6)
          .Field("quality", r.quality, 6)
          .Field("deterministic", r.deterministic)
          .Open("epsilon_sweep", '[');
      for (const EpsilonPoint& p : r.epsilon_sweep) {
        rec.Open("", '{')
            .Field("epsilon", p.epsilon, 2)
            .Field("quality", p.quality, 6)
            .Close();
      }
      rec.Close().Close();
    }
    rec.Close()
        .Open("synthetic", '{')
        .Field("elements", synth.elements)
        .Field("candidates", synth.candidates)
        .Field("k", synth.k)
        .Field("exact_greedy_ms", synth.exact_greedy_ms, 2)
        .Field("approx_ms", synth.approx_ms)
        .Field("speedup", synth.Speedup(), 2)
        .Field("exact_coverage", synth.exact_cov, 6)
        .Field("approx_coverage", synth.approx_cov, 6)
        .Field("deterministic", synth.deterministic);
    if (!rec.Write(flags.json_path)) return 1;
  }
  if (!deterministic_ok) {
    std::fprintf(stderr,
                 "DETERMINISM VIOLATION: approximate selection diverged "
                 "across thread counts or runs\n");
    return 1;
  }
  if (!gates_ok) {
    std::fprintf(stderr, "BENCH GATE FAILED (see REGRESSION lines above)\n");
    return 1;
  }
  return 0;
}
