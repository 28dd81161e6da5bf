// Regenerates paper Figure 9: impact of schema structure vs data
// distribution — fully data-driven (p=1), fully schema-driven (RC=1, I0=1)
// and the combined data-and-schema-driven (p=0.5) summarization.

#include <algorithm>
#include <cstdio>

#include "bench_util.h"
#include "common/parallel.h"
#include "common/string_util.h"
#include "eval/experiment.h"
#include "eval/table_printer.h"

using namespace ssum;

int main(int argc, char** argv) {
  bench::ParseThreadsOrExit(argc, argv, "fig9_structure_vs_data");
  std::vector<StructureVsDataRow> rows;
  for (DatasetKind kind :
       {DatasetKind::kXMark, DatasetKind::kTpch, DatasetKind::kMimi}) {
    auto bundle = LoadDataset(kind);
    if (!bundle.ok()) {
      std::fprintf(stderr, "failed to load %s: %s\n", DatasetName(kind),
                   bundle.status().ToString().c_str());
      return 1;
    }
    auto row = RunStructureVsDataRow(*bundle);
    if (!row.ok()) {
      std::fprintf(stderr, "failed on %s: %s\n", DatasetName(kind),
                   row.status().ToString().c_str());
      return 1;
    }
    rows.push_back(std::move(*row));
  }
  TablePrinter table(
      {"Strategy (avg cost)", "XMark", "TPC-H", "MiMI"});
  auto line = [&](const char* label, auto fn) {
    std::vector<std::string> cells{label};
    for (const StructureVsDataRow& r : rows) cells.push_back(fn(r));
    table.AddRow(cells);
  };
  line("Data driven (p=1)", [](const StructureVsDataRow& r) {
    return FormatDouble(r.data_driven, 2);
  });
  line("Schema driven (RC=1, I0=1)", [](const StructureVsDataRow& r) {
    return FormatDouble(r.schema_driven, 2);
  });
  line("Data-and-schema (p=0.5)", [](const StructureVsDataRow& r) {
    return FormatDouble(r.balanced, 2);
  });
  std::printf(
      "Figure 9: impact of schema structure and data distribution on query "
      "discovery cost\n%s\n",
      table.ToString().c_str());
  // Bar-chart view (one group per dataset, matching the paper's figure).
  double max_cost = 1;
  for (const StructureVsDataRow& r : rows) {
    max_cost = std::max({max_cost, r.data_driven, r.schema_driven, r.balanced});
  }
  auto bar = [&](double v) {
    int len = static_cast<int>(40.0 * v / max_cost + 0.5);
    return std::string(static_cast<size_t>(len), '#');
  };
  for (const StructureVsDataRow& r : rows) {
    std::printf("%s (size %zu)\n", r.dataset.c_str(), r.summary_size);
    std::printf("  data-only   %-7s %s\n",
                FormatDouble(r.data_driven, 2).c_str(),
                bar(r.data_driven).c_str());
    std::printf("  schema-only %-7s %s\n",
                FormatDouble(r.schema_driven, 2).c_str(),
                bar(r.schema_driven).c_str());
    std::printf("  combined    %-7s %s\n", FormatDouble(r.balanced, 2).c_str(),
                bar(r.balanced).c_str());
  }
  std::printf(
      "\nPaper reference: data-driven summarization works very poorly for "
      "XMark, schema-driven works very poorly for MiMI, and the combined "
      "data-and-schema-driven summary is effective on all three.\n");
  return 0;
}
