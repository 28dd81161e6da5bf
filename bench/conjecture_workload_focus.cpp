// Tests the paper's open conjecture (Section 5.4): "benchmarks, by design,
// 'spread their queries' around the schema, whereas real queries on real
// databases tend to focus on the important elements. However, our
// experiments do not provide enough information to verify this conjecture."
//
// We sweep a synthetic workload's *focus* — how strongly query anchors
// concentrate on important elements — from benchmark-like (uniform) to
// trace-like (importance-squared), on all three schemas, and measure the
// summary's saving at each point. The conjecture predicts saving grows
// with focus.

#include <cstdio>

#include "bench_util.h"
#include "common/parallel.h"
#include "common/string_util.h"
#include "core/summarize.h"
#include "datasets/registry.h"
#include "eval/table_printer.h"
#include "query/discovery.h"
#include "query/generate_workload.h"

using namespace ssum;

int main(int argc, char** argv) {
  bench::ConsumeThreadsFlagOrExit(&argc, argv);
  const double focuses[] = {0.0, 0.25, 0.5, 0.75, 1.0};
  TablePrinter table({"focus", "XMark saving%", "TPC-H saving%",
                      "MiMI saving%"});
  std::vector<std::vector<std::string>> rows(std::size(focuses));
  for (size_t f = 0; f < std::size(focuses); ++f) {
    rows[f].push_back(FormatDouble(focuses[f], 2));
  }
  for (DatasetKind kind :
       {DatasetKind::kXMark, DatasetKind::kTpch, DatasetKind::kMimi}) {
    auto bundle = LoadDataset(kind, 0.1);
    if (!bundle.ok()) {
      std::fprintf(stderr, "load failed: %s\n",
                   bundle.status().ToString().c_str());
      return 1;
    }
    auto context = SummarizerContext::Make(bundle->schema, bundle->annotations)
                       .ValueOrDie();
    auto summary = Summarize(context, bundle->paper_summary_size);
    if (!summary.ok()) {
      std::fprintf(stderr, "summarize failed: %s\n",
                   summary.status().ToString().c_str());
      return 1;
    }
    DiscoveryOracle oracle(bundle->schema);
    for (size_t f = 0; f < std::size(focuses); ++f) {
      WorkloadGenOptions opts;
      opts.focus = focuses[f];
      opts.num_queries = 200;
      opts.mean_size = 3.5;
      Workload load = GenerateWorkload(bundle->schema,
                                       context.importance().importance, opts);
      double best =
          AverageDiscoveryCost(oracle, load, TraversalStrategy::kBestFirst);
      double with =
          AverageDiscoveryCostWithSummary(oracle, *summary, load);
      double saving = best > 0 ? 1.0 - with / best : 0.0;
      rows[f].push_back(Percent(saving));
    }
  }
  for (auto& row : rows) table.AddRow(row);
  std::printf(
      "Workload-focus conjecture (Section 5.4): summary saving vs how "
      "strongly queries\nconcentrate on important elements "
      "(focus 0 = benchmark-like uniform, 1 = trace-like)\n%s\n",
      table.ToString().c_str());
  std::printf(
      "Conjecture prediction: saving grows monotonically with focus on "
      "every dataset.\n(200 synthetic queries per cell, size-%s summaries "
      "as in Table 3.)\n",
      "10/5/10");
  return 0;
}
