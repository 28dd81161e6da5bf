// Walk-engine benchmark and gate: the batched CSR kernel
// (MaxProductWalksBatch) versus the scalar reference (MaxProductWalks) on
// the affinity (Formula 2) and coverage (Formula 3) factor sets of the
// XMark, TPC-H, and MiMI schemas.
//
//   walk_scaling [--json <path> | --gate-only] [--threads N]
//
// Gates (a violated gate fails the run):
//   - determinism (hard, every build type): for every source row of every
//     dataset x kernel, the batched engine must be bit-identical to the
//     scalar walk, and the full matrices must be bit-identical at 1 and 8
//     threads;
//   - speedup (release builds): the single-thread batched pass must be
//     >= 2x the scalar pass on the MiMI schema (the largest evaluated
//     graph) for both kernels. Skipped, with a notice, on debug builds —
//     which also cannot emit JSON (exit 2), so debug numbers can never
//     reach the checked-in BENCH_walk.json.
//
// --json writes the machine-readable trajectory record consumed by
// bench/run_bench.sh (checked in as bench/BENCH_walk.json).
// --gate-only runs every gate without writing JSON (the CI bench stage).

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "core/affinity.h"
#include "core/coverage.h"
#include "datasets/mimi.h"
#include "datasets/tpch.h"
#include "datasets/xmark.h"
#include "stats/annotate.h"

namespace {

using namespace ssum;
using namespace ssum::bench;

constexpr double kTargetMs = 25.0;  // per timing batch, keeps the bench quick
constexpr int kBatches = 5;         // min-of-k batches rejects host noise
constexpr double kRequiredSpeedup = 2.0;

struct KernelReport {
  std::string kernel;  // "affinity" | "coverage"
  double scalar_ms = 0;       // n scalar walks, single thread
  double batched_ms = 0;      // one batched pass, single thread
  double batched_t8_ms = 0;   // full matrix compute at 8 threads
  bool deterministic = true;

  double Speedup() const { return batched_ms > 0 ? scalar_ms / batched_ms : 0; }
};

struct DatasetReport {
  std::string name;
  size_t elements = 0;
  size_t edges = 0;
  std::vector<KernelReport> kernels;
};

/// All n scalar rows of (factors, walk) — the reference the batched engine
/// must reproduce bit for bit.
std::vector<std::vector<double>> ScalarRows(const SchemaGraph& graph,
                                            const EdgeFactors& factors,
                                            const WalkSearchOptions& walk) {
  std::vector<std::vector<double>> rows(graph.size());
  for (ElementId src = 0; src < graph.size(); ++src) {
    rows[src] = MaxProductWalks(graph, factors, src, walk);
  }
  return rows;
}

KernelReport RunKernel(const std::string& kernel, const SchemaGraph& graph,
                       const EdgeFactors& factors, bool divide_by_steps,
                       bool* deterministic_ok) {
  const size_t n = graph.size();
  WalkSearchOptions walk;
  walk.divide_by_steps = divide_by_steps;
  const WalkPlan plan = WalkPlan::Build(graph, factors);

  KernelReport report;
  report.kernel = kernel;

  // Determinism gate: every batched row == the scalar row, bitwise.
  const std::vector<std::vector<double>> reference =
      ScalarRows(graph, factors, walk);
  std::vector<double> batch_buf(n * n);
  std::vector<ElementId> sources(n);
  std::vector<std::span<double>> rows(n);
  for (ElementId s = 0; s < n; ++s) {
    sources[s] = s;
    rows[s] = {batch_buf.data() + static_cast<size_t>(s) * n, n};
  }
  MaxProductWalksBatch(plan, sources, walk, rows);
  for (ElementId s = 0; s < n; ++s) {
    if (std::memcmp(reference[s].data(), rows[s].data(),
                    n * sizeof(double)) != 0) {
      report.deterministic = false;
      *deterministic_ok = false;
      std::fprintf(stderr, "MISMATCH: %s row %u diverged from scalar\n",
                   kernel.c_str(), s);
      break;
    }
  }

  // Timings: identical work per iteration (all n rows), single thread,
  // interleaved so the gated ratio is noise-resistant.
  std::tie(report.scalar_ms, report.batched_ms) = MinOfBatchesPairMs(
      kTargetMs, kBatches,
      [&] {
        for (ElementId s = 0; s < n; ++s) {
          auto row = MaxProductWalks(graph, factors, s, walk);
          (void)row;
        }
      },
      [&] { MaxProductWalksBatch(plan, sources, walk, rows); });
  return report;
}

DatasetReport RunDataset(const std::string& name, const SchemaGraph& graph,
                         const Annotations& annotations,
                         bool* deterministic_ok) {
  const EdgeMetrics metrics = EdgeMetrics::Compute(graph, annotations);
  DatasetReport report;
  report.name = name;
  report.elements = graph.size();
  size_t edges = 0;
  for (ElementId u = 0; u < graph.size(); ++u) {
    edges += graph.neighbors(u).size();
  }
  report.edges = edges;

  report.kernels.push_back(RunKernel("affinity", graph, metrics.edge_affinity,
                                     /*divide_by_steps=*/true,
                                     deterministic_ok));
  report.kernels.push_back(RunKernel("coverage", graph,
                                     CoverageStepFactors(graph, metrics),
                                     /*divide_by_steps=*/false,
                                     deterministic_ok));

  // Full-matrix thread invariance (the ParallelFor lane-block distribution)
  // plus the 8-thread wall clock for the trajectory record.
  ParallelOptions t1, t8;
  t1.threads = 1;
  t8.threads = 8;
  const auto a1 = AffinityMatrix::TryCompute(graph, metrics, {}, t1);
  const auto a8 = AffinityMatrix::TryCompute(graph, metrics, {}, t8);
  const auto c1 =
      CoverageMatrix::TryCompute(graph, annotations, metrics, {}, t1);
  const auto c8 =
      CoverageMatrix::TryCompute(graph, annotations, metrics, {}, t8);
  if (a1->matrix().data() != a8->matrix().data() ||
      c1->matrix().data() != c8->matrix().data()) {
    *deterministic_ok = false;
    report.kernels.front().deterministic = false;
    std::fprintf(stderr, "MISMATCH: %s matrices diverged across threads\n",
                 name.c_str());
  }
  report.kernels[0].batched_t8_ms = MinOfBatchesMs(kTargetMs, kBatches, [&] {
    auto m = AffinityMatrix::TryCompute(graph, metrics, {}, t8);
    (void)m;
  });
  report.kernels[1].batched_t8_ms = MinOfBatchesMs(kTargetMs, kBatches, [&] {
    auto m = CoverageMatrix::TryCompute(graph, annotations, metrics, {}, t8);
    (void)m;
  });
  return report;
}

void PrintReport(const DatasetReport& r) {
  std::printf("%s (%zu elements, %zu adjacency records)\n", r.name.c_str(),
              r.elements, r.edges);
  for (const KernelReport& k : r.kernels) {
    std::printf(
        "  %-8s scalar %8.3fms  batched %8.3fms (%.2fx)  t8 %8.3fms  %s\n",
        k.kernel.c_str(), k.scalar_ms, k.batched_ms, k.Speedup(),
        k.batched_t8_ms, k.deterministic ? "deterministic" : "MISMATCH");
  }
}

Annotations Annotate(InstanceStream& stream) {
  auto res = AnnotateSchema(stream);
  return std::move(*res);
}

}  // namespace

int main(int argc, char** argv) {
  const BenchFlags flags = ParseBenchFlags(argc, argv, "walk_scaling");

  std::printf("walk engine scaling — %u hardware thread(s), %s build\n\n",
              HardwareThreadCount(), BuildType());

  bool deterministic_ok = true;
  std::vector<DatasetReport> reports;

  {
    XMarkParams p;
    p.sf = 0.05;
    XMarkDataset ds(p);
    reports.push_back(RunDataset("XMark", ds.schema(),
                                 Annotate(*ds.MakeStream()),
                                 &deterministic_ok));
    PrintReport(reports.back());
  }
  {
    TpchParams p;
    p.sf = 0.01;
    TpchDataset ds(p);
    reports.push_back(RunDataset("TPC-H", ds.schema(),
                                 Annotate(*ds.MakeStream()),
                                 &deterministic_ok));
    PrintReport(reports.back());
  }
  double gated_speedup = 0.0;
  {
    MimiParams p;
    p.scale = 0.02;
    MimiDataset ds(p);
    reports.push_back(RunDataset("MiMI", ds.schema(),
                                 Annotate(*ds.MakeStream()),
                                 &deterministic_ok));
    PrintReport(reports.back());
    gated_speedup = reports.back().kernels[0].Speedup();
    for (const KernelReport& k : reports.back().kernels) {
      gated_speedup = std::min(gated_speedup, k.Speedup());
    }
  }

  bool gates_ok = true;
  if (IsReleaseBuild()) {
    if (gated_speedup < kRequiredSpeedup) {
      std::fprintf(stderr,
                   "REGRESSION: batched walk engine %.2fx < required %.1fx "
                   "single-thread speedup on MiMI\n",
                   gated_speedup, kRequiredSpeedup);
      gates_ok = false;
    }
  } else {
    std::printf("\n(speedup gate skipped: %s build)\n", BuildType());
  }

  if (!flags.json_path.empty()) {
    JsonRecord rec("walk_scaling");
    rec.Field("deterministic", deterministic_ok)
        .Open("gate", '{')
        .Field("min_single_thread_speedup", kRequiredSpeedup, 1)
        .Field("dataset", "MiMI")
        .Field("measured", gated_speedup, 3)
        .Close()
        .Open("datasets", '[');
    for (const DatasetReport& r : reports) {
      rec.Open("", '{')
          .Field("name", r.name)
          .Field("elements", r.elements)
          .Field("adjacency_records", r.edges)
          .Open("kernels", '[');
      for (const KernelReport& k : r.kernels) {
        rec.Open("", '{')
            .Field("kernel", k.kernel)
            .Field("scalar_ms", k.scalar_ms)
            .Field("batched_ms", k.batched_ms)
            .Field("speedup", k.Speedup(), 3)
            .Field("matrix_t8_ms", k.batched_t8_ms)
            .Field("deterministic", k.deterministic)
            .Close();
      }
      rec.Close().Close();
    }
    if (!rec.Write(flags.json_path)) return 1;
  }
  if (!deterministic_ok) {
    std::fprintf(stderr,
                 "DETERMINISM VIOLATION: batched walk engine diverged from "
                 "the scalar reference\n");
    return 1;
  }
  if (!gates_ok) {
    std::fprintf(stderr, "BENCH GATE FAILED (see REGRESSION lines above)\n");
    return 1;
  }
  return 0;
}
