// cold_schema_heavy: one large generated scenario, annotated once in setup;
// every op builds a SummarizerContext with no cache and summarizes it three
// ways. The core layer does nearly all the work.
#include <cstdio>
#include <optional>

#include "datasets/scenario.h"
#include "harness.h"
#include "pipeline.h"
#include "query/discovery.h"

namespace perfbench {

namespace {

constexpr size_t kSummaryK = 16;
constexpr int kSetupReps = 3;
// A 30 s run (BENCHMARK.json) makes about 40 ops of 0.73 s; p70 keeps
// ten samples beyond it down to 34 ops (0.88 s per op).
constexpr double kTailPercentile = 70;
// Thread count of the check phase's second computation: it differs from
// kKernelThreads, so the check covers the parallel kernels' determinism.
constexpr uint32_t kCheckThreads = 2;

constexpr ssum::Algorithm kAlgorithms[] = {ssum::Algorithm::kMaxImportance,
                                           ssum::Algorithm::kMaxCoverage,
                                           ssum::Algorithm::kBalanceSummary};

/// The scenario shape is fixed (bench/scenarios/comprehensive.scn at half
/// the elements); the seed drives the mutation layer, which redraws the set
/// cardinalities of 1% of the units, and through them the sampled workload.
/// Generator seeds of the shape itself move dominance and discovery cost by
/// several times, which would swamp any run-to-run comparison.
ssum::ScenarioSpec Spec(uint64_t seed) {
  ssum::ScenarioSpec spec;
  spec.name = "cold_schema_heavy";
  spec.seed = 101;
  spec.schema_elements = 1000;
  spec.entity_classes = 24;
  spec.max_depth = 12;
  spec.set_fraction = 0.28;
  spec.value_link_fraction = 0.08;
  spec.instance_units = 30000;
  spec.unit_skew = "zipf";
  spec.zipf_s = 1.2;
  spec.set_mean = 3.5;
  spec.queries = 200;
  spec.query_mean_size = 4.0;
  spec.summary_k = kSummaryK;
  spec.tier = "full";
  spec.mutate_seed = MutateSeed(seed, 0xC01D);
  spec.mutate_fraction = 0.01;
  spec.mutate_amplitude = 0.25;
  return spec;
}

struct Input {
  std::optional<ssum::ScenarioDataset> dataset;
  ssum::Annotations annotations;
  ssum::Workload workload;
};

struct OpResult {
  std::optional<ssum::SummarizerContext> context;
  std::vector<ssum::SchemaSummary> summaries;
};

/// One op: a cold context build and the three summaries. Latency in ms, or
/// a negative value when any call failed.
double RunOp(const Input& in, const ssum::SummarizeOptions& options,
             OpResult* out) {
  const double t0 = NowSeconds();
  auto ctx = ssum::SummarizerContext::Make(in.dataset->schema(),
                                           in.annotations, options);
  if (!ctx.ok()) return -1;
  std::vector<ssum::SchemaSummary> summaries;
  for (ssum::Algorithm a : kAlgorithms) {
    auto s = ssum::Summarize(*ctx, kSummaryK, a);
    if (!s.ok()) return -1;
    summaries.push_back(std::move(*s));
  }
  const double ms = (NowSeconds() - t0) * 1e3;
  out->context.emplace(std::move(*ctx));
  out->summaries = std::move(summaries);
  return ms;
}

}  // namespace

void RunColdSchemaHeavy(const Args& args, Report* report) {
  const ssum::ScenarioSpec spec = Spec(args.seed);
  ssum::SummarizeOptions options;
  options.parallel.threads = kKernelThreads;
  Samples layer;

  // --- setup: generate + annotate, three times; the last one is kept -------
  Input in;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    ReleaseFreedMemory();
    Input fresh;
    const double t0 = NowSeconds();
    auto ds = ssum::ScenarioDataset::Make(spec);
    if (!ds.ok()) {
      report->Fail("scenario: " + ds.status().ToString());
      return;
    }
    fresh.dataset.emplace(std::move(*ds));
    ssum::ShardedAnnotateOptions annotate;
    annotate.parallel.threads = kKernelThreads;
    const double t1 = NowSeconds();
    auto ann = ssum::AnnotateSchemaSharded(
        *fresh.dataset->MakeShardedSource(), annotate);
    const double annotate_s = NowSeconds() - t1;
    if (!ann.ok()) {
      report->Fail("annotate: " + ann.status().ToString());
      return;
    }
    fresh.annotations = std::move(*ann);
    auto wl = fresh.dataset->Queries(fresh.annotations);
    if (!wl.ok()) {
      report->Fail("workload: " + wl.status().ToString());
      return;
    }
    fresh.workload = std::move(*wl);
    setup_s.push_back(NowSeconds() - t0);
    layer.Add("stats.annotate_ms", annotate_s * 1e3);
    layer.Add("stats.annotate_nodes_per_s",
              static_cast<double>(fresh.annotations.TotalNodes()) / annotate_s);
    in = std::move(fresh);
  }

  // --- timed ops ----------------------------------------------------------
  // Traced runs spend the first half untraced, the second half traced; the
  // difference of the two medians is the tracing overhead.
  OpResult first;
  std::vector<double> latency;
  std::vector<double> traced_latency;
  std::vector<StageTimes> stages;
  auto check_op = [&](OpResult& op) {
    if (!first.context.has_value()) {
      first = std::move(op);
      return;
    }
    for (size_t i = 0; i < first.summaries.size(); ++i) {
      if (!SameSummary(op.summaries[i], first.summaries[i])) {
        report->Fail("op summaries differ between ops");
      }
    }
  };
  const double loop_start = NowSeconds();
  const double untraced_end =
      loop_start + (args.trace ? args.seconds / 2 : args.seconds);
  while (NowSeconds() < untraced_end) {
    ++report->attempted;
    OpResult op;
    const double ms = RunOp(in, options, &op);
    if (ms < 0) {
      ++report->failed;
      continue;
    }
    latency.push_back(ms);
    check_op(op);
  }
  const double loop_s = NowSeconds() - loop_start;
  while (args.trace && NowSeconds() < loop_start + args.seconds) {
    ++report->attempted;
    const ssum::SchemaGraph& graph = in.dataset->schema();
    double t0 = NowSeconds();
    auto ctx = ssum::SummarizerContext::Make(graph, in.annotations, options);
    const double context_ms = (NowSeconds() - t0) * 1e3;
    if (!ctx.ok()) {
      ++report->failed;
      continue;
    }
    OpResult op;
    double summarize_ms[3] = {};
    for (int i = 0; i < 3; ++i) {
      t0 = NowSeconds();
      auto s = ssum::Summarize(*ctx, kSummaryK, kAlgorithms[i]);
      summarize_ms[i] = (NowSeconds() - t0) * 1e3;
      if (s.ok()) op.summaries.push_back(std::move(*s));
    }
    if (op.summaries.size() != 3) {
      ++report->failed;
      continue;
    }
    traced_latency.push_back(context_ms + summarize_ms[0] + summarize_ms[1] +
                             summarize_ms[2]);
    layer.Add("core.context_ms", context_ms);
    // Selection alone, so assembly = Summarize - Select*.
    double select_ms[3] = {};
    t0 = NowSeconds();
    (void)ssum::SelectMaxImportance(*ctx, kSummaryK);
    select_ms[0] = (NowSeconds() - t0) * 1e3;
    t0 = NowSeconds();
    (void)ssum::SelectMaxCoverage(*ctx, kSummaryK);
    select_ms[1] = (NowSeconds() - t0) * 1e3;
    t0 = NowSeconds();
    (void)ssum::SelectBalanced(*ctx, kSummaryK);
    select_ms[2] = (NowSeconds() - t0) * 1e3;
    layer.Add("core.select_importance_ms", select_ms[0]);
    layer.Add("core.select_coverage_ms", select_ms[1]);
    layer.Add("core.select_balance_ms", select_ms[2]);
    layer.Add("core.assembly_ms", ((summarize_ms[0] - select_ms[0]) +
                                   (summarize_ms[1] - select_ms[1]) +
                                   (summarize_ms[2] - select_ms[2])) /
                                      3);
    StageTimes t;
    if (std::string err = ReplayStages(*ctx, &t); !err.empty()) {
      report->Fail(err);
    }
    stages.push_back(t);
    op.context.emplace(std::move(*ctx));
    check_op(op);
  }
  if (!first.context.has_value()) {
    report->Fail("no op completed");
    return;
  }

  // --- output checks (untimed) ---------------------------------------------
  ReleaseFreedMemory();
  const ssum::SummarizerContext& ctx = *first.context;
  {
    // The timed ops run at kKernelThreads; the summaries must not depend
    // on the thread count.
    ssum::SummarizeOptions other = options;
    other.parallel.threads = kCheckThreads;
    OpResult again;
    if (RunOp(in, other, &again) < 0) {
      report->Fail(std::to_string(kCheckThreads) +
                   "-thread computation failed");
    } else {
      for (size_t i = 0; i < first.summaries.size(); ++i) {
        if (!SameSummary(again.summaries[i], first.summaries[i])) {
          report->Fail(std::to_string(kCheckThreads) + "-thread " +
                       ssum::AlgorithmName(kAlgorithms[i]) +
                       " summary differs from the " +
                       std::to_string(kKernelThreads) + "-thread one");
        }
      }
    }
  }
  for (const std::string& err :
       {CheckTopImportance(ctx, kSummaryK, first.summaries[0]),
        CheckTheorem1(ctx), CheckImportanceConserved(ctx)}) {
    if (!err.empty()) report->Fail(err);
  }
  for (const ssum::SchemaSummary& s : first.summaries) {
    if (std::string err = CheckSummaryInvariants(s, kSummaryK); !err.empty()) {
      report->Fail(err);
    }
  }
  const ssum::DiscoveryOracle oracle(in.dataset->schema());
  ssum::ParallelOptions parallel;
  parallel.threads = kKernelThreads;
  double t0 = NowSeconds();
  const double cost_with = ssum::AverageDiscoveryCostWithSummary(
      oracle, first.summaries[2], in.workload, parallel);
  const double with_ms = (NowSeconds() - t0) * 1e3;

  report->Set("setup_s", Median(setup_s));
  report->Set("latency_p50_ms", Median(latency));
  report->Set("latency_tail_ms", Percentile(latency, kTailPercentile));
  report->Set("throughput_ops_s", static_cast<double>(latency.size()) / loop_s);
  report->Set("peak_rss_mb", PeakRssMiB());
  report->Set("discovery_cost", cost_with);
  std::fprintf(stderr,
               "cold_schema_heavy: %zu elements, %llu nodes, %zu ops, p50 "
               "%.1f ms, p%.0f %.1f ms, discovery %.3f\n",
               in.dataset->schema().size(),
               static_cast<unsigned long long>(in.annotations.TotalNodes()),
               latency.size(), Median(latency), kTailPercentile,
               Percentile(latency, kTailPercentile), cost_with);
  if (!args.trace) return;

  t0 = NowSeconds();
  const double cost_without = ssum::AverageDiscoveryCost(
      oracle, in.workload, ssum::TraversalStrategy::kBestFirst, parallel);
  const double without_ms = (NowSeconds() - t0) * 1e3;
  layer.Add("query.discover_ms",
            (with_ms + without_ms) /
                static_cast<double>(std::max<size_t>(1, in.workload.size())));
  layer.Add("query.discovery_cost_without", cost_without);
  layer.Add("core.dominance_calls_per_op", 1);
  layer.Add("core.dominance_pairs_tested",
            static_cast<double>(DominancePairsTested(ctx.graph())));
  layer.Add("core.dominance_pairs",
            static_cast<double>(ctx.dominance().pairs.size()));
  layer.Add("core.candidates",
            static_cast<double>(ctx.dominance().candidates.size()));
  layer.Add("core.matrix_mb", MatrixMiB(ctx));
  layer.Add("trace.overhead_ms", Median(traced_latency) - Median(latency));
  layer.MediansInto(report);
  SetStageMedians(stages, report);
}

}  // namespace perfbench
