// Approximate-MaxCoverage benchmark and gate: the sketched lazy-greedy
// engine (core/approx_cover.h) versus the exact Figure 6 path, on the three
// paper datasets and on a 10k-element deterministic synthetic schema where
// exact enumeration is infeasible.
//
//   approx_scaling [--json <path>] [--gate-only] [--threads N]
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
// bench/run_bench.sh (checked in as BENCH_approx.json at the repo root).
// --gate-only runs every gate without writing JSON (the CI bench stage).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/buildinfo.h"
#include "common/parallel.h"
#include "core/approx_cover.h"
#include "core/metrics.h"
#include "core/summarize.h"
#include "datasets/registry.h"
#include "datasets/synthetic.h"

namespace {

using namespace ssum;

constexpr double kTargetMs = 25.0;  // per timing batch, keeps the bench quick
constexpr int kBatches = 3;         // min-of-k batches rejects host noise
constexpr double kMinQualityRatio = 0.95;
constexpr double kMinSyntheticSpeedup = 20.0;
constexpr double kDefaultEpsilon = 0.1;
constexpr size_t kSyntheticElements = 10000;
constexpr size_t kSyntheticK = 8;

template <typename Fn>
double OnceMs(const Fn& fn) {
  using clock = std::chrono::steady_clock;
  const auto t0 = clock::now();
  fn();
  return std::chrono::duration<double, std::milli>(clock::now() - t0).count();
}

template <typename Fn>
double TimeMs(const Fn& fn) {
  const double once = OnceMs(fn);  // warm-up + calibration
  int reps = 1;
  if (once < kTargetMs) {
    reps = static_cast<int>(kTargetMs / (once > 1e-3 ? once : 1e-3)) + 1;
    if (reps > 10000) reps = 10000;
  }
  double best = 0.0;
  for (int b = 0; b < kBatches; ++b) {
    const double ms = OnceMs([&] {
                        for (int i = 0; i < reps; ++i) fn();
                      }) /
                      reps;
    if (b == 0 || ms < best) best = ms;
  }
  return best;
}

uint64_t Binomial(uint64_t n, uint64_t k) {
  if (k > n) return 0;
  k = std::min(k, n - k);
  uint64_t r = 1;
  for (uint64_t i = 1; i <= k; ++i) r = r * (n - k + i) / i;
  return r;
}

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
  // Largest k <= 8 whose full enumeration fits the budget, so "exact" below
  // really is the Figure 6 enumeration.
  size_t k = 0;
  for (size_t cand_k = 2; cand_k <= 8 && cand_k < m; ++cand_k) {
    if (Binomial(m, cand_k) <= base.max_coverage_enumeration_budget) {
      k = cand_k;
    }
  }
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

  report.exact_ms = TimeMs([&] {
    auto r = SelectMaxCoverage(context, k);
    (void)r;
  });
  report.approx_ms =
      TimeMs([&] { (void)ApproxSelect(context, k, kDefaultEpsilon, 1); });
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
  report.approx_ms = TimeMs(
      [&] { (void)ApproxSelect(context, kSyntheticK, kDefaultEpsilon, 1); });

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

void WriteJson(const std::string& path,
               const std::vector<DatasetReport>& reports,
               const SyntheticReport& synth, bool deterministic,
               double min_quality) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return;
  }
  out << "{\n"
      << "  \"bench\": \"approx_scaling\",\n"
      << "  \"build_type\": \"" << BuildType() << "\",\n"
      << "  \"hardware_threads\": " << HardwareThreadCount() << ",\n"
      << "  \"epsilon\": " << kDefaultEpsilon << ",\n"
      << "  \"deterministic\": " << (deterministic ? "true" : "false") << ",\n"
      << "  \"gates\": {\"min_quality_ratio\": " << kMinQualityRatio
      << ", \"measured_min_quality\": " << min_quality
      << ", \"min_synthetic_speedup\": " << kMinSyntheticSpeedup
      << ", \"measured_synthetic_speedup\": " << synth.Speedup() << "},\n"
      << "  \"datasets\": [\n";
  bool first = true;
  for (const DatasetReport& r : reports) {
    if (r.k == 0) continue;
    if (!first) out << ",\n";
    first = false;
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "    {\"name\": \"%s\", \"elements\": %zu, "
                  "\"candidates\": %zu, \"k\": %zu,\n"
                  "     \"exact_ms\": %.4f, \"approx_ms\": %.4f, "
                  "\"speedup\": %.3f,\n"
                  "     \"exact_coverage\": %.6f, \"approx_coverage\": %.6f, "
                  "\"quality\": %.6f, \"deterministic\": %s,\n"
                  "     \"epsilon_sweep\": [",
                  r.name.c_str(), r.elements, r.candidates, r.k, r.exact_ms,
                  r.approx_ms, r.Speedup(), r.exact_cov, r.approx_cov,
                  r.quality, r.deterministic ? "true" : "false");
    out << buf;
    for (size_t i = 0; i < r.epsilon_sweep.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "{\"epsilon\": %.2f, \"quality\": %.6f}",
                    r.epsilon_sweep[i].epsilon, r.epsilon_sweep[i].quality);
      out << buf << (i + 1 < r.epsilon_sweep.size() ? ", " : "");
    }
    out << "]}";
  }
  out << "\n  ],\n";
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "  \"synthetic\": {\"elements\": %zu, \"candidates\": %zu, "
                "\"k\": %zu,\n"
                "    \"exact_greedy_ms\": %.2f, \"approx_ms\": %.4f, "
                "\"speedup\": %.2f,\n"
                "    \"exact_coverage\": %.6f, \"approx_coverage\": %.6f, "
                "\"deterministic\": %s}\n",
                synth.elements, synth.candidates, synth.k,
                synth.exact_greedy_ms, synth.approx_ms, synth.Speedup(),
                synth.exact_cov, synth.approx_cov,
                synth.deterministic ? "true" : "false");
  out << buf << "}\n";
  std::fprintf(stderr, "JSON written to %s\n", path.c_str());
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
                   "usage: approx_scaling [--json <path>] [--gate-only]\n");
      return 2;
    }
  }
  if (!json_path.empty() && !IsReleaseBuild()) {
    std::fprintf(stderr,
                 "approx_scaling: refusing to emit gated JSON from a '%s' "
                 "build; configure with -DCMAKE_BUILD_TYPE=Release "
                 "(bench/run_bench.sh does this in build-bench/)\n",
                 BuildType());
    return 2;
  }

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
  if (ssum::IsReleaseBuild()) {
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
                ssum::BuildType());
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

  if (!json_path.empty() && !gate_only) {
    WriteJson(json_path, reports, synth, deterministic_ok, min_quality);
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
