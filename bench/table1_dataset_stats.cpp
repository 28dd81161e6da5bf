// Regenerates paper Table 1 (dataset statistics) and the Section 3.1 text
// claim about the most important XMark elements.

#include <cstdio>

#include "bench_util.h"
#include "common/parallel.h"
#include "common/string_util.h"
#include "core/importance.h"
#include "datasets/registry.h"
#include "eval/table_printer.h"

using namespace ssum;

int main(int argc, char** argv) {
  bench::ParseThreadsOrExit(argc, argv, "table1_dataset_stats");
  TablePrinter table({"", "XMark", "TPC-H", "MiMI"});
  std::vector<DatasetBundle> bundles;
  for (DatasetKind kind :
       {DatasetKind::kXMark, DatasetKind::kTpch, DatasetKind::kMimi}) {
    auto bundle = LoadDataset(kind);
    if (!bundle.ok()) {
      std::fprintf(stderr, "failed to load %s: %s\n", DatasetName(kind),
                   bundle.status().ToString().c_str());
      return 1;
    }
    bundles.push_back(std::move(*bundle));
  }
  auto row = [&](const char* label, auto fn) {
    std::vector<std::string> cells{label};
    for (const DatasetBundle& b : bundles) cells.push_back(fn(b));
    table.AddRow(cells);
  };
  row("# Schema elements", [](const DatasetBundle& b) {
    return std::to_string(b.schema.size());
  });
  row("# Data elements (in 000s)", [](const DatasetBundle& b) {
    return FormatWithCommas(static_cast<int64_t>(b.data_elements / 1000));
  });
  row("# Queries", [](const DatasetBundle& b) {
    return std::to_string(b.workload.size());
  });
  row("Avg. query intention size", [](const DatasetBundle& b) {
    return FormatDouble(b.workload.AverageIntentionSize(), 2);
  });
  std::printf("Table 1: dataset statistics\n%s\n",
              table.ToString().c_str());
  std::printf(
      "Paper reference: 327 / 70 / 155 schema elements; 1,573 / 12,550 / "
      "7,055 data elements (000s); 20 / 22 / 52 queries; 3.65 / 13.4 / 3.35 "
      "avg intention size.\n\n");

  // Section 3.1: "the most important elements are bidder, item, and person".
  const DatasetBundle& xmark = bundles[0];
  ImportanceResult imp = ComputeImportance(xmark.schema, xmark.annotations);
  std::printf("XMark element importance (p=0.5, c=0.1%%, %d iterations%s):\n",
              imp.iterations, imp.converged ? "" : ", NOT converged");
  int shown = 0;
  for (ElementId e : imp.Ranked()) {
    if (e == xmark.schema.root()) continue;
    std::printf("  %-45s %12.0f\n", xmark.schema.PathOf(e).c_str(),
                imp.importance[e]);
    if (++shown == 8) break;
  }
  // Our expansion unfolds `item` into six per-region schema elements; the
  // paper's single "item" corresponds to their aggregate.
  double item_total = 0;
  for (ElementId e : xmark.schema.FindByLabel("item")) {
    item_total += imp.importance[e];
  }
  std::printf("  (aggregate over the six per-region item elements: %.0f)\n",
              item_total);
  std::printf(
      "Paper reference: bidder (190292) > item (143881) > person (128465)\n");
  return 0;
}
