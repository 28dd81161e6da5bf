// Scenario matrix: runs the full annotate -> matrices -> summarize pipeline
// over every case file in bench/scenarios/ (datasets/scenario.h), gating
// per-case determinism and sanity invariants.
//
//   scenario_matrix [--json <path>] [--gate-only] [--tier quick|full|all]
//                   [--case NAME] [--dir DIR] [--threads N]
//
// Gates (a violated gate fails the run, every build type):
//   - annotation determinism: the sharded pass (t=1 and t=8, auto shard
//     count) must be bit-identical to the serial traversal, and a serial
//     rerun must reproduce itself exactly;
//   - summary determinism: Summarize at thread counts {1, 8} and a repeated
//     t=8 run must yield identical selections and group assignments;
//   - budget: 0 < |summary| <= bench.summary_k, and the summary passes
//     ValidateSummary (Definition 2 invariants);
//   - coverage monotone in k: SelectMaxCoverage coverage must be
//     non-decreasing over increasing k;
//   - workload: the scenario samples at least one query.
//
// --json writes the machine-readable trajectory record consumed by
// bench/run_bench.sh (checked in as BENCH_scenario.json at the repo root);
// timings are only meaningful — and JSON only permitted — in Release builds.
// --gate-only runs every gate without writing JSON (the CI scenarios stage).
// --tier selects which cases run: per-PR CI runs quick (the default), the
// nightly matrix runs full or all. --case restricts to one case by name.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/buildinfo.h"
#include "common/parallel.h"
#include "core/metrics.h"
#include "core/summarize.h"
#include "datasets/scenario.h"
#include "stats/annotate.h"

#ifndef SSUM_SCENARIO_CASE_DIR
#define SSUM_SCENARIO_CASE_DIR "bench/scenarios"
#endif

namespace {

using namespace ssum;

constexpr double kTargetMs = 25.0;  // per timing batch, keeps the bench quick
constexpr int kBatches = 3;         // min-of-k batches rejects host noise

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

struct KPoint {
  size_t k;
  double coverage;
};

struct CaseReport {
  std::string name;
  std::string tier;
  size_t elements = 0;
  uint64_t units = 0;
  uint64_t data_nodes = 0;
  size_t queries = 0;
  size_t k = 0;
  size_t summary_size = 0;
  double annotate_serial_ms = 0;
  double annotate_sharded_ms = 0;  // t=8, auto shard count
  double summarize_ms = 0;         // context build + selection, t=8
  bool deterministic = true;
  bool gates_ok = true;
  std::vector<KPoint> k_sweep;

  double AnnotateSpeedup() const {
    return annotate_sharded_ms > 0 ? annotate_serial_ms / annotate_sharded_ms
                                   : 0;
  }
};

bool SameSummary(const SchemaSummary& a, const SchemaSummary& b) {
  return a.abstract_elements == b.abstract_elements &&
         a.representative == b.representative;
}

/// Runs one case end to end. Returns false when a gate or determinism check
/// failed (details already on stderr).
bool RunCase(const ScenarioSpec& spec, CaseReport* report) {
  bool ok = true;
  report->name = spec.name;
  report->tier = spec.tier;
  report->k = spec.summary_k;

  auto made = ScenarioDataset::Make(spec);
  if (!made.ok()) {
    std::fprintf(stderr, "REGRESSION: %s: generation failed: %s\n",
                 spec.name.c_str(), made.status().ToString().c_str());
    report->gates_ok = false;
    return false;
  }
  const ScenarioDataset& ds = *made;
  report->elements = ds.schema().size();
  report->units = ds.NumUnits();

  // --- annotation determinism: serial vs sharded vs rerun ------------------
  Annotations serial;
  {
    auto r = AnnotateSchema(*ds.MakeStream());
    if (!r.ok()) {
      std::fprintf(stderr, "REGRESSION: %s: serial annotate failed: %s\n",
                   spec.name.c_str(), r.status().ToString().c_str());
      report->gates_ok = false;
      return false;
    }
    serial = std::move(*r);
  }
  report->data_nodes = serial.TotalNodes();
  if (report->data_nodes == 0) {
    std::fprintf(stderr, "REGRESSION: %s: scenario produced no data nodes\n",
                 spec.name.c_str());
    report->gates_ok = false;
    ok = false;
  }

  auto source = ds.MakeShardedSource();
  for (uint32_t threads : {1u, 8u}) {
    ShardedAnnotateOptions opts;
    opts.parallel.threads = threads;
    auto r = AnnotateSchemaSharded(*source, opts);
    if (!r.ok() || !(*r == serial)) {
      std::fprintf(stderr,
                   "DETERMINISM VIOLATION: %s: sharded annotation (t=%u) "
                   "differs from the serial pass\n",
                   spec.name.c_str(), threads);
      report->deterministic = false;
      ok = false;
    }
  }
  {
    auto rerun = AnnotateSchema(*ds.MakeStream());
    if (!rerun.ok() || !(*rerun == serial)) {
      std::fprintf(stderr,
                   "DETERMINISM VIOLATION: %s: serial annotation rerun "
                   "diverged\n",
                   spec.name.c_str());
      report->deterministic = false;
      ok = false;
    }
  }

  // --- workload ------------------------------------------------------------
  {
    auto workload = ds.Queries(serial);
    if (!workload.ok() || workload->queries.empty()) {
      std::fprintf(stderr, "REGRESSION: %s: scenario workload is empty\n",
                   spec.name.c_str());
      report->gates_ok = false;
      ok = false;
    } else {
      report->queries = workload->queries.size();
    }
  }

  // --- summary determinism + budget ----------------------------------------
  SchemaSummary summary;
  {
    SummarizeOptions opts;
    opts.parallel.threads = 1;
    auto t1 = Summarize(ds.schema(), serial, spec.summary_k,
                        Algorithm::kBalanceSummary, opts);
    opts.parallel.threads = 8;
    auto t8 = Summarize(ds.schema(), serial, spec.summary_k,
                        Algorithm::kBalanceSummary, opts);
    auto t8b = Summarize(ds.schema(), serial, spec.summary_k,
                         Algorithm::kBalanceSummary, opts);
    if (!t1.ok() || !t8.ok() || !t8b.ok()) {
      std::fprintf(stderr, "REGRESSION: %s: summarize failed: %s\n",
                   spec.name.c_str(),
                   (!t1.ok() ? t1.status() : !t8.ok() ? t8.status()
                                                      : t8b.status())
                       .ToString()
                       .c_str());
      report->gates_ok = false;
      return false;
    }
    if (!SameSummary(*t1, *t8) || !SameSummary(*t8, *t8b)) {
      std::fprintf(stderr,
                   "DETERMINISM VIOLATION: %s: summary differs across thread "
                   "counts or reruns\n",
                   spec.name.c_str());
      report->deterministic = false;
      ok = false;
    }
    summary = std::move(*t1);
  }
  report->summary_size = summary.size();
  if (summary.size() == 0 || summary.size() > spec.summary_k) {
    std::fprintf(stderr,
                 "REGRESSION: %s: summary size %zu violates budget (0, %u]\n",
                 spec.name.c_str(), summary.size(), spec.summary_k);
    report->gates_ok = false;
    ok = false;
  }
  if (Status v = ValidateSummary(summary); !v.ok()) {
    std::fprintf(stderr, "REGRESSION: %s: summary invariants violated: %s\n",
                 spec.name.c_str(), v.ToString().c_str());
    report->gates_ok = false;
    ok = false;
  }

  // --- coverage monotone in k ----------------------------------------------
  {
    auto context = SummarizerContext::Make(ds.schema(), serial).ValueOrDie();
    const size_t candidates = context.dominance().candidates.size();
    std::vector<size_t> ks = {2, std::max<size_t>(3, spec.summary_k / 2),
                              spec.summary_k};
    for (size_t& k : ks) k = std::min(k, candidates);
    ks.erase(std::unique(ks.begin(), ks.end()), ks.end());
    std::sort(ks.begin(), ks.end());
    double prev = -1.0;
    for (size_t k : ks) {
      if (k == 0) continue;
      auto sel = SelectMaxCoverage(context, k);
      if (!sel.ok()) {
        std::fprintf(stderr, "REGRESSION: %s: SelectMaxCoverage(k=%zu): %s\n",
                     spec.name.c_str(), k, sel.status().ToString().c_str());
        report->gates_ok = false;
        ok = false;
        break;
      }
      const double cov = CoverageOfSet(context.graph(), context.affinity(),
                                       context.coverage(), *sel);
      report->k_sweep.push_back({k, cov});
      if (cov < prev - 1e-9) {
        std::fprintf(stderr,
                     "REGRESSION: %s: coverage not monotone in k "
                     "(k=%zu cov %.6f < %.6f)\n",
                     spec.name.c_str(), k, cov, prev);
        report->gates_ok = false;
        ok = false;
      }
      prev = std::max(prev, cov);
    }
  }

  // --- timings (trajectory record; min-of-k batches) -----------------------
  report->annotate_serial_ms =
      TimeMs([&] { (void)AnnotateSchema(*ds.MakeStream()); });
  report->annotate_sharded_ms = TimeMs([&] {
    ShardedAnnotateOptions opts;
    opts.parallel.threads = 8;
    (void)AnnotateSchemaSharded(*source, opts);
  });
  report->summarize_ms = TimeMs([&] {
    SummarizeOptions opts;
    opts.parallel.threads = 8;
    (void)Summarize(ds.schema(), serial, spec.summary_k,
                    Algorithm::kBalanceSummary, opts);
  });
  return ok;
}

void PrintCase(const CaseReport& r) {
  std::printf(
      "%-15s (%s, %zu elements, %llu units, %llu nodes, %zu queries)\n"
      "  annotate %8.3fms serial %8.3fms sharded-t8 (%.1fx)   "
      "summarize %8.3fms   |summary| %zu/%zu   %s\n  coverage sweep:",
      r.name.c_str(), r.tier.c_str(), r.elements,
      static_cast<unsigned long long>(r.units),
      static_cast<unsigned long long>(r.data_nodes), r.queries,
      r.annotate_serial_ms, r.annotate_sharded_ms, r.AnnotateSpeedup(),
      r.summarize_ms, r.summary_size, r.k,
      r.deterministic && r.gates_ok ? "ok" : "FAILED");
  for (const KPoint& p : r.k_sweep) {
    std::printf("  k=%zu %.4f", p.k, p.coverage);
  }
  std::printf("\n");
}

void WriteJson(const std::string& path, const std::vector<CaseReport>& reports,
               bool all_ok) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return;
  }
  out << "{\n"
      << "  \"bench\": \"scenario_matrix\",\n"
      << "  \"build_type\": \"" << BuildType() << "\",\n"
      << "  \"hardware_threads\": " << HardwareThreadCount() << ",\n"
      << "  \"cases_run\": " << reports.size() << ",\n"
      << "  \"all_gates_ok\": " << (all_ok ? "true" : "false") << ",\n"
      << "  \"cases\": [\n";
  for (size_t i = 0; i < reports.size(); ++i) {
    const CaseReport& r = reports[i];
    char buf[768];
    std::snprintf(
        buf, sizeof(buf),
        "    {\"name\": \"%s\", \"tier\": \"%s\", \"elements\": %zu, "
        "\"units\": %llu, \"data_nodes\": %llu, \"queries\": %zu,\n"
        "     \"k\": %zu, \"summary_size\": %zu,\n"
        "     \"annotate_serial_ms\": %.4f, \"annotate_sharded_t8_ms\": %.4f, "
        "\"annotate_speedup\": %.3f, \"summarize_ms\": %.4f,\n"
        "     \"deterministic\": %s, \"gates_ok\": %s, \"k_sweep\": [",
        r.name.c_str(), r.tier.c_str(), r.elements,
        static_cast<unsigned long long>(r.units),
        static_cast<unsigned long long>(r.data_nodes), r.queries, r.k,
        r.summary_size, r.annotate_serial_ms, r.annotate_sharded_ms,
        r.AnnotateSpeedup(), r.summarize_ms,
        r.deterministic ? "true" : "false", r.gates_ok ? "true" : "false");
    out << buf;
    for (size_t j = 0; j < r.k_sweep.size(); ++j) {
      std::snprintf(buf, sizeof(buf), "{\"k\": %zu, \"coverage\": %.6f}",
                    r.k_sweep[j].k, r.k_sweep[j].coverage);
      out << buf << (j + 1 < r.k_sweep.size() ? ", " : "");
    }
    out << "]}" << (i + 1 < reports.size() ? ",\n" : "\n");
  }
  out << "  ]\n}\n";
  std::fprintf(stderr, "JSON written to %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  ssum::ConsumeThreadsFlag(&argc, argv);
  std::string json_path;
  std::string tier = "quick";
  std::string only_case;
  std::string dir = SSUM_SCENARIO_CASE_DIR;
  bool gate_only = false;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (a.rfind("--json=", 0) == 0) {
      json_path = a.substr(7);
    } else if (a == "--tier" && i + 1 < argc) {
      tier = argv[++i];
    } else if (a == "--case" && i + 1 < argc) {
      only_case = argv[++i];
    } else if (a == "--dir" && i + 1 < argc) {
      dir = argv[++i];
    } else if (a == "--gate-only") {
      gate_only = true;
    } else {
      std::fprintf(stderr,
                   "usage: scenario_matrix [--json <path>] [--gate-only] "
                   "[--tier quick|full|all] [--case NAME] [--dir DIR]\n");
      return 2;
    }
  }
  if (tier != "quick" && tier != "full" && tier != "all") {
    std::fprintf(stderr, "scenario_matrix: unknown --tier '%s'\n",
                 tier.c_str());
    return 2;
  }
  if (!json_path.empty() && !IsReleaseBuild()) {
    std::fprintf(stderr,
                 "scenario_matrix: refusing to emit gated JSON from a '%s' "
                 "build; configure with -DCMAKE_BUILD_TYPE=Release "
                 "(bench/run_bench.sh does this in build-bench/)\n",
                 BuildType());
    return 2;
  }

  std::vector<std::string> files;
  {
    std::error_code ec;
    for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
      if (entry.path().extension() == ".scn") {
        files.push_back(entry.path().string());
      }
    }
    if (ec) {
      std::fprintf(stderr, "scenario_matrix: cannot read case dir %s: %s\n",
                   dir.c_str(), ec.message().c_str());
      return 2;
    }
  }
  std::sort(files.begin(), files.end());  // deterministic case order

  std::printf("scenario matrix — %u hardware thread(s), %s build, tier %s, "
              "%zu case file(s) in %s\n\n",
              ssum::HardwareThreadCount(), ssum::BuildType(), tier.c_str(),
              files.size(), dir.c_str());

  bool all_ok = true;
  std::vector<CaseReport> reports;
  for (const std::string& file : files) {
    auto spec = ssum::LoadScenarioSpecFile(file);
    if (!spec.ok()) {
      std::fprintf(stderr, "REGRESSION: %s: %s\n", file.c_str(),
                   spec.status().ToString().c_str());
      all_ok = false;
      continue;
    }
    if (tier != "all" && spec->tier != tier) continue;
    if (!only_case.empty() && spec->name != only_case) continue;
    CaseReport report;
    if (!RunCase(*spec, &report)) all_ok = false;
    PrintCase(report);
    reports.push_back(std::move(report));
  }

  if (reports.empty()) {
    std::fprintf(stderr,
                 "scenario_matrix: no case matched (tier %s, case '%s')\n",
                 tier.c_str(), only_case.c_str());
    return 2;
  }
  if (!json_path.empty() && !gate_only) {
    WriteJson(json_path, reports, all_ok);
  }
  if (!all_ok) {
    std::fprintf(stderr, "BENCH GATE FAILED (see lines above)\n");
    return 1;
  }
  std::printf("\nall %zu case(s) passed determinism + sanity gates\n",
              reports.size());
  return 0;
}
