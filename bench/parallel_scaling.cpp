// Parallel-scaling benchmark: wall-clock speedup of the parallel kernels
// (affinity matrix, coverage matrix, exact MaxCoverage enumeration, workload
// discovery-cost evaluation) versus thread count, on XMark at sf 0.05 and
// 0.25 — and a hard determinism gate: every kernel's threads=N output must
// be byte-identical (matrices) or exactly equal (selections, averages) to
// the threads=1 serial result. A violated gate fails the run.
//
// Release builds additionally gate maxcoverage_exact against oversubscription
// regressions: requesting more threads than the hardware offers must never
// run meaningfully slower than the single-thread path (the enumeration width
// is clamped to the hardware in summarize.cc; this gate keeps it that way).
//
//   parallel_scaling [--json <path>] [--threads N]
//
// --json writes the machine-readable trajectory record consumed by
// bench/run_bench.sh (checked in as bench/BENCH_parallel.json).

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common/buildinfo.h"
#include "common/parallel.h"
#include "core/summarize.h"
#include "datasets/registry.h"
#include "query/discovery.h"

namespace {

using namespace ssum;

constexpr uint32_t kThreadCounts[] = {1, 2, 4, 8};
constexpr double kTargetMs = 40.0;  // per timing batch, keeps the bench quick
constexpr int kBatches = 3;         // min-of-k batches rejects host noise
// Release gate: maxcoverage_exact at any thread count may be at most this
// factor slower than its single-thread time.
constexpr double kNoRegressionFactor = 1.25;

template <typename Fn>
double OnceMs(const Fn& fn) {
  using clock = std::chrono::steady_clock;
  const auto t0 = clock::now();
  fn();
  return std::chrono::duration<double, std::milli>(clock::now() - t0).count();
}

template <typename Fn>
double TimeMs(const Fn& fn) {
  // Calibrate the repetition count from one warm-up run, then take the
  // fastest of kBatches batches (transient host noise only ever slows a
  // batch down, so the minimum is the clean measurement).
  const double once = OnceMs(fn);
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

struct ThreadPoint {
  uint32_t threads;
  double ms;
};

struct KernelReport {
  std::string kernel;
  std::vector<ThreadPoint> points;
  bool deterministic = true;

  double Speedup(const ThreadPoint& p) const {
    return p.ms > 0 ? points.front().ms / p.ms : 0.0;
  }
};

struct DatasetReport {
  std::string name;
  double sf;
  size_t schema_elements;
  std::vector<KernelReport> kernels;
};

bool SameBytes(const SquareMatrix& a, const SquareMatrix& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.data().size() * sizeof(double)) == 0;
}

uint64_t Binomial(uint64_t n, uint64_t k) {
  if (k > n) return 0;
  k = std::min(k, n - k);
  uint64_t r = 1;
  for (uint64_t i = 1; i <= k; ++i) r = r * (n - k + i) / i;
  return r;
}

DatasetReport RunDataset(const DatasetBundle& bundle, double sf, bool* ok,
                         bool* no_regression) {
  DatasetReport report;
  report.name = bundle.name;
  report.sf = sf;
  report.schema_elements = bundle.schema.size();

  EdgeMetrics metrics = EdgeMetrics::Compute(bundle.schema, bundle.annotations);

  // --- affinity / coverage: row-parallel all-pairs matrices ---------------
  KernelReport aff{"affinity_matrix", {}, true};
  KernelReport cov{"coverage_matrix", {}, true};
  ParallelOptions serial;
  serial.threads = 1;
  const auto aff_serial =
      AffinityMatrix::TryCompute(bundle.schema, metrics, {}, serial)
          .ValueOrDie();
  const auto cov_serial =
      CoverageMatrix::TryCompute(bundle.schema, bundle.annotations, metrics, {},
                                 serial)
          .ValueOrDie();
  for (uint32_t t : kThreadCounts) {
    ParallelOptions par;
    par.threads = t;
    aff.points.push_back({t, TimeMs([&] {
      auto m = AffinityMatrix::TryCompute(bundle.schema, metrics, {}, par);
      (void)m;
    })});
    cov.points.push_back({t, TimeMs([&] {
      auto m = CoverageMatrix::TryCompute(bundle.schema, bundle.annotations,
                                          metrics, {}, par);
      (void)m;
    })});
    if (t > 1) {
      auto am = AffinityMatrix::TryCompute(bundle.schema, metrics, {}, par)
                    .ValueOrDie();
      auto cm = CoverageMatrix::TryCompute(bundle.schema, bundle.annotations,
                                           metrics, {}, par)
                    .ValueOrDie();
      aff.deterministic &= SameBytes(am.matrix(), aff_serial.matrix());
      cov.deterministic &= SameBytes(cm.matrix(), cov_serial.matrix());
    }
  }
  report.kernels.push_back(aff);
  report.kernels.push_back(cov);

  // --- exact MaxCoverage enumeration (sharded rank ranges) ----------------
  {
    SummarizeOptions base;
    auto probe = SummarizerContext::Make(bundle.schema, bundle.annotations,
                                         base)
                     .ValueOrDie();
    const size_t m = probe.dominance().candidates.size();
    // Largest k <= 8 whose full enumeration fits the budget.
    size_t k = 0;
    for (size_t cand_k = 2; cand_k <= 8 && cand_k < m; ++cand_k) {
      if (Binomial(m, cand_k) <= base.max_coverage_enumeration_budget) {
        k = cand_k;
      }
    }
    if (k >= 2) {
      KernelReport sel{"maxcoverage_exact", {}, true};
      std::vector<ElementId> serial_set;
      for (uint32_t t : kThreadCounts) {
        SummarizeOptions opts;
        opts.parallel.threads = t;
        auto context = SummarizerContext::Make(bundle.schema,
                                               bundle.annotations, opts)
                           .ValueOrDie();
        std::vector<ElementId> last;
        sel.points.push_back({t, TimeMs([&] {
          auto r = SelectMaxCoverage(context, k);
          if (r.ok()) last = *r;
        })});
        if (t == 1) {
          serial_set = last;
        } else {
          sel.deterministic &= (last == serial_set);
        }
      }
      // Oversubscription no-regression gate: sharding must never lose to
      // the single-thread scan, whatever the requested thread count.
      for (const ThreadPoint& p : sel.points) {
        if (p.ms > sel.points.front().ms * kNoRegressionFactor) {
          std::fprintf(stderr,
                       "REGRESSION: maxcoverage_exact t=%u %.3fms exceeds "
                       "%.2fx the t=1 time (%.3fms)\n",
                       p.threads, p.ms, kNoRegressionFactor,
                       sel.points.front().ms);
          *no_regression = false;
        }
      }
      report.kernels.push_back(sel);
    } else {
      std::fprintf(stderr,
                   "  (skipping maxcoverage_exact: %zu candidates leave no "
                   "k with a budget-sized enumeration)\n",
                   m);
    }
  }

  // --- per-query discovery-cost evaluation --------------------------------
  {
    KernelReport disc{"discovery_workload", {}, true};
    DiscoveryOracle oracle(bundle.schema);
    double serial_avg = 0;
    for (uint32_t t : kThreadCounts) {
      ParallelOptions par;
      par.threads = t;
      double avg = 0;
      disc.points.push_back({t, TimeMs([&] {
        avg = AverageDiscoveryCost(oracle, bundle.workload,
                                   TraversalStrategy::kBestFirst, par);
      })});
      if (t == 1) {
        serial_avg = avg;
      } else {
        disc.deterministic &= (avg == serial_avg);
      }
    }
    report.kernels.push_back(disc);
  }

  for (const KernelReport& k : report.kernels) {
    if (!k.deterministic) *ok = false;
  }
  return report;
}

void PrintReport(const DatasetReport& report) {
  std::printf("%s (sf %.2f, %zu schema elements)\n", report.name.c_str(),
              report.sf, report.schema_elements);
  for (const KernelReport& k : report.kernels) {
    std::printf("  %-22s", k.kernel.c_str());
    for (const ThreadPoint& p : k.points) {
      std::printf("  t=%u %8.3fms (%.2fx)", p.threads, p.ms, k.Speedup(p));
    }
    std::printf("  %s\n", k.deterministic ? "deterministic" : "MISMATCH");
  }
}

void WriteJson(const std::string& path,
               const std::vector<DatasetReport>& reports, bool ok) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return;
  }
  out << "{\n"
      << "  \"bench\": \"parallel_scaling\",\n"
      << "  \"build_type\": \"" << BuildType() << "\",\n"
      << "  \"hardware_threads\": " << HardwareThreadCount() << ",\n"
      << "  \"deterministic\": " << (ok ? "true" : "false") << ",\n"
      << "  \"datasets\": [\n";
  for (size_t d = 0; d < reports.size(); ++d) {
    const DatasetReport& r = reports[d];
    out << "    {\n"
        << "      \"name\": \"" << r.name << "\",\n"
        << "      \"sf\": " << r.sf << ",\n"
        << "      \"schema_elements\": " << r.schema_elements << ",\n"
        << "      \"kernels\": [\n";
    for (size_t k = 0; k < r.kernels.size(); ++k) {
      const KernelReport& kr = r.kernels[k];
      out << "        {\"kernel\": \"" << kr.kernel << "\", "
          << "\"deterministic\": " << (kr.deterministic ? "true" : "false")
          << ", \"results\": [";
      for (size_t p = 0; p < kr.points.size(); ++p) {
        const ThreadPoint& tp = kr.points[p];
        char buf[128];
        std::snprintf(buf, sizeof(buf),
                      "{\"threads\": %u, \"ms\": %.4f, \"speedup\": %.3f}",
                      tp.threads, tp.ms, kr.Speedup(tp));
        out << buf << (p + 1 < kr.points.size() ? ", " : "");
      }
      out << "]}" << (k + 1 < r.kernels.size() ? "," : "") << "\n";
    }
    out << "      ]\n    }" << (d + 1 < reports.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::fprintf(stderr, "JSON written to %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  ssum::ConsumeThreadsFlag(&argc, argv);
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (a.rfind("--json=", 0) == 0) {
      json_path = a.substr(7);
    } else {
      std::fprintf(stderr, "usage: parallel_scaling [--json <path>]\n");
      return 2;
    }
  }
  if (!json_path.empty() && !ssum::IsReleaseBuild()) {
    std::fprintf(stderr,
                 "parallel_scaling: refusing to emit gated JSON from a '%s' "
                 "build; configure with -DCMAKE_BUILD_TYPE=Release\n",
                 ssum::BuildType());
    return 2;
  }

  std::printf("parallel scaling — %u hardware thread(s)\n\n",
              HardwareThreadCount());
  bool ok = true;
  bool no_regression = true;
  std::vector<DatasetReport> reports;
  for (double sf : {0.05, 0.25}) {
    auto bundle = LoadDataset(DatasetKind::kXMark, sf);
    if (!bundle.ok()) {
      std::fprintf(stderr, "XMark sf=%.2f load failed: %s\n", sf,
                   bundle.status().ToString().c_str());
      return 1;
    }
    reports.push_back(RunDataset(*bundle, sf, &ok, &no_regression));
    PrintReport(reports.back());
    std::printf("\n");
  }
  if (!json_path.empty()) WriteJson(json_path, reports, ok);
  if (!ok) {
    std::fprintf(stderr,
                 "DETERMINISM VIOLATION: parallel output diverged from the "
                 "serial path\n");
    return 1;
  }
  if (!no_regression) {
    if (ssum::IsReleaseBuild()) {
      std::fprintf(stderr, "BENCH GATE FAILED (see REGRESSION lines above)\n");
      return 1;
    }
    std::printf("(no-regression gate skipped: %s build)\n", ssum::BuildType());
  }
  return 0;
}
