// Regenerates paper Table 3: average query discovery cost without a summary
// (depth-first / breadth-first / best-first) and with a BalanceSummary.

#include <cstdio>

#include "bench_util.h"
#include "common/parallel.h"
#include "common/string_util.h"
#include "eval/experiment.h"
#include "eval/table_printer.h"

using namespace ssum;

int main(int argc, char** argv) {
  bench::ParseThreadsOrExit(argc, argv, "table3_query_discovery");
  TablePrinter table({"Avg. cost", "XMark", "TPC-H", "MiMI"});
  std::vector<QueryDiscoveryRow> rows;
  for (DatasetKind kind :
       {DatasetKind::kXMark, DatasetKind::kTpch, DatasetKind::kMimi}) {
    auto bundle = LoadDataset(kind);
    if (!bundle.ok()) {
      std::fprintf(stderr, "failed to load %s: %s\n", DatasetName(kind),
                   bundle.status().ToString().c_str());
      return 1;
    }
    auto row = RunQueryDiscoveryRow(*bundle);
    if (!row.ok()) {
      std::fprintf(stderr, "failed on %s: %s\n", DatasetName(kind),
                   row.status().ToString().c_str());
      return 1;
    }
    rows.push_back(std::move(*row));
  }
  auto line = [&](const char* label, auto fn) {
    std::vector<std::string> cells{label};
    for (const QueryDiscoveryRow& r : rows) cells.push_back(fn(r));
    table.AddRow(cells);
  };
  line("Depth First", [](const QueryDiscoveryRow& r) {
    return FormatDouble(r.depth_first, 2);
  });
  line("Breadth First", [](const QueryDiscoveryRow& r) {
    return FormatDouble(r.breadth_first, 2);
  });
  line("Best First", [](const QueryDiscoveryRow& r) {
    return FormatDouble(r.best_first, 2);
  });
  table.AddSeparator();
  line("w/ summary", [](const QueryDiscoveryRow& r) {
    return FormatDouble(r.with_summary, 2);
  });
  line("size (Summ.%)", [](const QueryDiscoveryRow& r) {
    return std::to_string(r.summary_size) + " (" +
           Percent(r.summary_fraction) + ")";
  });
  line("# Rounds", [](const QueryDiscoveryRow& r) {
    return std::to_string(r.rounds);
  });
  line("Saving%", [](const QueryDiscoveryRow& r) { return Percent(r.saving); });
  std::printf("Table 3: average cost of query discovery\n%s\n",
              table.ToString().c_str());
  std::printf(
      "Paper reference (XMark / TPC-H / MiMI): DF 75.35 / 74.95 / 50.27; "
      "BF 37.15 / 67.36 / 30.23; Best 11.90 / 18.41 / 10.38; "
      "w/ summary 6.65 / 12.05 / 3.90; saving 44.1%% / 34.5%% / 62.4%%.\n");
  return 0;
}
