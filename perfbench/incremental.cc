// incremental_chain: a base scenario version fills one cache directory in
// setup; every op summarizes a fresh successor version against that base
// the way `ssum summarize --base` does, writing its delta, matrices and
// summary into the cache. The stats delta pass and store writes do the
// work; full annotation does none.
#include <cstdio>
#include <filesystem>
#include <optional>
#include <unistd.h>

#include "core/summary_io.h"
#include "datasets/scenario.h"
#include "harness.h"
#include "instance/event_stream.h"
#include "pipeline.h"
#include "query/discovery.h"
#include "store/artifact_cache.h"

namespace perfbench {

namespace {

constexpr size_t kSummaryK = 8;
constexpr int kSetupReps = 3;
// 170-240 ops per run of BENCHMARK.json's 30 s: p90 keeps ten samples
// beyond it.
constexpr double kTailPercentile = 90;
// Steps re-derived cold in the check phase: every kCheckStride-th step of
// the whole run (indices 0, 12, 24, ...), so the checked successors spread
// over the run and are chosen by index, not by the seed. A cold
// re-derivation (generate, full annotation pass, context build) costs
// ~0.5 s, three times a step; checking all 170-240 steps would add
// 85-120 s to a run. Steps whose discovery cost is averaged: the first
// ones, so that it depends on the seed alone.
constexpr uint64_t kCheckStride = 12;
constexpr size_t kDiscoverySteps = 16;
constexpr ssum::Algorithm kAlgorithm = ssum::Algorithm::kBalanceSummary;

/// Base version: a fixed shape in the style of bench/scenarios/
/// delta_chain_v0.scn, scaled to 100k units.
ssum::ScenarioSpec BaseSpec() {
  ssum::ScenarioSpec spec;
  spec.name = "incremental_chain";
  spec.seed = 23;
  spec.schema_elements = 400;
  spec.entity_classes = 8;
  spec.max_depth = 8;
  spec.instance_units = 100000;
  spec.queries = 40;
  spec.summary_k = kSummaryK;
  spec.tier = "full";
  return spec;
}

/// Successor `i` of the base: a new mutation seed drawn from the workload
/// seed redraws the set cardinalities of 1% of the units.
ssum::ScenarioSpec SuccessorSpec(uint64_t seed, uint64_t i) {
  ssum::ScenarioSpec spec = BaseSpec();
  spec.mutate_seed = MutateSeed(seed, i);
  spec.mutate_fraction = 0.01;
  spec.mutate_amplitude = 0.25;
  return spec;
}

class NodeCounter : public ssum::InstanceVisitor {
 public:
  void OnEnter(ssum::ElementId) override { ++nodes; }
  void OnReference(ssum::LinkId) override {}
  uint64_t nodes = 0;
};

struct Step {
  uint64_t index = 0;
  ssum::Annotations annotations;
  std::string summary;  // SerializeSummary text
};

}  // namespace

void RunIncrementalChain(const Args& args, Report* report) {
  ssum::SummarizeOptions options;
  options.parallel.threads = kKernelThreads;
  Samples layer;
  TimingEnv env(ssum::Env::Default());

  // --- setup: base version into a fresh cache, three times -----------------
  std::optional<ssum::ScenarioDataset> base;
  std::optional<ssum::ArtifactCache> cache;
  std::string dir;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (!dir.empty()) std::filesystem::remove_all(dir);
    ReleaseFreedMemory();
    dir = args.work_dir + "/incremental-cache-" + std::to_string(getpid()) +
          "-" + std::to_string(rep);
    std::filesystem::remove_all(dir);
    const double t0 = NowSeconds();
    cache.emplace(dir, &env);
    if (ssum::Status s = cache->EnsureDir(); !s.ok()) {
      report->Fail("cache dir: " + s.ToString());
      return;
    }
    auto ds = ssum::ScenarioDataset::Make(BaseSpec());
    if (!ds.ok()) {
      report->Fail("base scenario: " + ds.status().ToString());
      return;
    }
    base.emplace(std::move(*ds));
    const double t1 = NowSeconds();
    auto bundle = ssum::LoadScenario(BaseSpec(), &*cache);
    const double load_s = NowSeconds() - t1;
    if (!bundle.ok()) {
      report->Fail("base load: " + bundle.status().ToString());
      return;
    }
    auto ctx = ssum::SummarizerContext::Make(base->schema(),
                                             bundle->annotations, options,
                                             &*cache);
    if (!ctx.ok()) {
      report->Fail("base context: " + ctx.status().ToString());
      return;
    }
    auto summary = ssum::Summarize(*ctx, kSummaryK, kAlgorithm);
    if (!summary.ok()) {
      report->Fail("base summary: " + summary.status().ToString());
      return;
    }
    (void)cache->StoreSummary(
        ssum::SummaryFingerprint(base->schema(), bundle->annotations, options,
                                 kSummaryK, kAlgorithm),
        *summary);
    setup_s.push_back(NowSeconds() - t0);
    layer.Add("stats.annotate_ms", load_s * 1e3);
    layer.Add("stats.annotate_nodes_per_s",
              static_cast<double>(bundle->data_elements) / load_s);
  }
  // Every op leaves the directory as setup left it, so every op sits at
  // lineage depth 1 over the same files.
  const std::vector<std::string> base_files = ListDir(dir);

  // --- timed ops ------------------------------------------------------------
  std::vector<double> latency;
  std::vector<double> traced_latency;
  std::vector<StageTimes> stages;
  std::vector<Step> steps;
  const double loop_start = NowSeconds();
  const double end = loop_start + args.seconds;
  const double untraced_end = args.trace ? loop_start + args.seconds / 2 : end;
  double loop_s = 0;  // length of the untraced phase
  for (uint64_t i = 0;; ++i) {
    const double now = NowSeconds();
    const bool traced = now >= untraced_end;
    if (traced && loop_s == 0) loop_s = now - loop_start;
    if (now >= end) break;
    RemoveAllBut(dir, base_files);
    ++report->attempted;
    const TimingEnv::Counters io0 = env.Snapshot();
    const ssum::CacheCounters cc0 = cache->session_counters();
    double t = NowSeconds();
    const double t_start = t;
    auto lap = [&t]() {
      const double now_s = NowSeconds();
      const double ms = (now_s - t) * 1e3;
      t = now_s;
      return ms;
    };
    auto next = ssum::ScenarioDataset::Make(SuccessorSpec(args.seed, i));
    if (!next.ok()) {
      ++report->failed;
      continue;
    }
    lap();
    auto delta = ssum::AnnotateScenarioDelta(*base, *next, &*cache);
    const double delta_ms = lap();
    if (!delta.ok()) {
      ++report->failed;
      continue;
    }
    auto base_ctx = ssum::SummarizerContext::Make(
        base->schema(), delta->base_annotations, options, &*cache);
    const double context_ms = lap();
    if (!base_ctx.ok()) {
      ++report->failed;
      continue;
    }
    ssum::MatrixPatchStats aff_stats;
    ssum::MatrixPatchStats cov_stats;
    auto inc = ssum::SummarizerContext::MakeIncremental(
        *base_ctx, delta->annotations, &*cache, ssum::MatrixPatchOptions{},
        &aff_stats, &cov_stats);
    const double incremental_ms = lap();
    if (!inc.ok()) {
      ++report->failed;
      continue;
    }
    auto summary = ssum::Summarize(*inc, kSummaryK, kAlgorithm);
    const double summarize_ms = lap();
    if (!summary.ok()) {
      ++report->failed;
      continue;
    }
    const ssum::Status stored = cache->StoreSummary(
        ssum::SummaryFingerprint(next->schema(), delta->annotations, options,
                                 kSummaryK, kAlgorithm),
        *summary);
    lap();
    const double op_ms = (t - t_start) * 1e3;
    if (!stored.ok()) {
      ++report->failed;
      continue;
    }
    (traced ? traced_latency : latency).push_back(op_ms);

    // Untimed: the step must have taken the incremental path at depth 1.
    if (!delta->incremental || delta->lineage_hops != 0 ||
        base_ctx->matrices_loaded_from_cache() != 2) {
      report->Fail("step " + std::to_string(i) +
                   " left the incremental path: " + delta->fallback_reason);
    }
    steps.push_back({i, delta->annotations, ssum::SerializeSummary(*summary)});
    if (traced) {
      const TimingEnv::Counters io1 = env.Snapshot();
      const ssum::CacheCounters cc1 = cache->session_counters();
      layer.Add("stats.delta_annotate_ms", delta_ms);
      layer.Add("stats.dirty_units", static_cast<double>(delta->dirty_units));
      layer.Add("stats.total_units", static_cast<double>(delta->total_units));
      layer.Add("stats.lineage_hops", delta->lineage_hops);
      layer.Add("core.context_ms", context_ms);
      layer.Add("core.make_incremental_ms", incremental_ms);
      double t0 = NowSeconds();
      (void)ssum::SelectBalanced(*inc, kSummaryK);
      const double select_ms = (NowSeconds() - t0) * 1e3;
      layer.Add("core.select_balance_ms", select_ms);
      layer.Add("core.assembly_ms", summarize_ms - select_ms);
      size_t rewalked = 0;
      for (const ssum::MatrixPatchStats* s : {&aff_stats, &cov_stats}) {
        rewalked += s->patched ? s->dirty_rows : s->total_rows;
      }
      layer.Add("core.patch_rows_rewalked", static_cast<double>(rewalked));
      layer.Add("core.patch_rows_total",
                static_cast<double>(aff_stats.total_rows + cov_stats.total_rows));
      layer.Add("core.patched",
                (aff_stats.patched ? 1 : 0) + (cov_stats.patched ? 1 : 0));
      layer.Add("store.read_ms", static_cast<double>(io1.read_ns - io0.read_ns) / 1e6);
      layer.Add("store.write_ms",
                static_cast<double>(io1.write_ns - io0.write_ns) / 1e6);
      layer.Add("store.bytes_written_mb",
                static_cast<double>(io1.bytes_written - io0.bytes_written) /
                    (1024.0 * 1024.0));
      layer.Add("store.hits", static_cast<double>(cc1.hits - cc0.hits));
      layer.Add("store.misses", static_cast<double>(cc1.misses - cc0.misses));
      layer.Add("store.installs",
                static_cast<double>(cc1.installs - cc0.installs));
      // The base context and the incremental one each run dominance.
      layer.Add("core.dominance_calls_per_op", 2);
      StageTimes st;
      if (std::string err = ReplayStages(*inc, &st); !err.empty()) {
        report->Fail(err);
      }
      stages.push_back(st);
      layer.Add("core.dominance_pairs_tested",
                static_cast<double>(DominancePairsTested(inc->graph())));
      layer.Add("core.dominance_pairs",
                static_cast<double>(inc->dominance().pairs.size()));
      layer.Add("core.candidates",
                static_cast<double>(inc->dominance().candidates.size()));
      layer.Add("core.matrix_mb", MatrixMiB(*inc));
    }
  }
  if (steps.empty()) {
    report->Fail("no step completed");
    return;
  }

  // --- output checks (untimed): every kCheckStride-th step re-derived cold --
  ReleaseFreedMemory();
  if (steps.size() < kDiscoverySteps) {
    report->Fail("fewer steps than the check phase reads");
    return;
  }
  const double check_start = NowSeconds();
  size_t checked = 0;
  for (const Step& step : steps) {
    if (step.index % kCheckStride != 0) continue;
    ++checked;
    auto next = ssum::ScenarioDataset::Make(SuccessorSpec(args.seed, step.index));
    if (!next.ok()) {
      report->Fail("successor: " + next.status().ToString());
      continue;
    }
    ssum::ShardedAnnotateOptions annotate;
    annotate.parallel.threads = kKernelThreads;
    auto cold = ssum::AnnotateSchemaSharded(*next->MakeShardedSource(), annotate);
    if (!cold.ok() || !(*cold == step.annotations)) {
      report->Fail("step " + std::to_string(step.index) +
                   " annotations differ from a cold annotation pass");
      continue;
    }
    // The stream walk costs as much as the annotation pass; the first
    // checked step's count checks the pass's node accounting.
    if (checked == 1) {
      NodeCounter counter;
      if (ssum::Status s = next->MakeStream()->Accept(&counter); !s.ok() ||
          counter.nodes != cold->TotalNodes()) {
        report->Fail("node count differs from the instance stream's events");
      }
    }
    auto ctx = ssum::SummarizerContext::Make(next->schema(), *cold, options);
    if (!ctx.ok()) {
      report->Fail("cold context: " + ctx.status().ToString());
      continue;
    }
    auto summary = ssum::Summarize(*ctx, kSummaryK, kAlgorithm);
    if (!summary.ok() || ssum::SerializeSummary(*summary) != step.summary) {
      report->Fail("step " + std::to_string(step.index) +
                   " summary differs from the cold one");
      continue;
    }
    for (const std::string& err : {CheckSummaryInvariants(*summary, kSummaryK),
                                   CheckTheorem1(*ctx),
                                   CheckImportanceConserved(*ctx)}) {
      if (!err.empty()) report->Fail(err);
    }
  }
  const double check_s = NowSeconds() - check_start;
  // Discovery cost, and its reference without a summary, averaged over the
  // first steps: each step's own summary against its own workload.
  double discovery_cost = 0;
  for (size_t c = 0; c < kDiscoverySteps; ++c) {
    const Step& step = steps[c];
    auto next = ssum::ScenarioDataset::Make(SuccessorSpec(args.seed, step.index));
    auto summary = next.ok() ? ssum::ParseSummary(next->schema(), step.summary)
                             : ssum::Result<ssum::SchemaSummary>(next.status());
    auto workload = next.ok() ? next->Queries(step.annotations)
                              : ssum::Result<ssum::Workload>(next.status());
    if (!summary.ok() || !workload.ok()) {
      report->Fail("discovery inputs of step " + std::to_string(step.index));
      continue;
    }
    const ssum::DiscoveryOracle oracle(next->schema());
    const double t0 = NowSeconds();
    discovery_cost +=
        ssum::AverageDiscoveryCostWithSummary(oracle, *summary, *workload) /
        kDiscoverySteps;
    const double without = ssum::AverageDiscoveryCost(
        oracle, *workload, ssum::TraversalStrategy::kBestFirst);
    layer.Add("query.discover_ms",
              (NowSeconds() - t0) * 1e3 /
                  static_cast<double>(std::max<size_t>(1, workload->size())));
    layer.Add("query.discovery_cost_without", without);
  }
  std::filesystem::remove_all(dir);

  report->Set("setup_s", Median(setup_s));
  report->Set("latency_p50_ms", Median(latency));
  report->Set("latency_tail_ms", Percentile(latency, kTailPercentile));
  report->Set("throughput_ops_s", static_cast<double>(latency.size()) / loop_s);
  report->Set("peak_rss_mb", PeakRssMiB());
  report->Set("discovery_cost", discovery_cost);
  std::fprintf(stderr,
               "incremental_chain: %zu elements, %zu ops, p50 %.1f ms, p%.0f "
               "%.1f ms, discovery %.3f, %zu steps checked cold in %.1f s, "
               "cache fs %s\n",
               base->schema().size(), latency.size(), Median(latency),
               kTailPercentile, Percentile(latency, kTailPercentile),
               discovery_cost, checked, check_s,
               FilesystemKind(args.work_dir).c_str());
  if (!args.trace) return;
  layer.Add("trace.overhead_ms", Median(traced_latency) - Median(latency));
  layer.MediansInto(report);
  SetStageMedians(stages, report);
}

}  // namespace perfbench
