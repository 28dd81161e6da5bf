// Regenerates paper Figure 8: impact of summary size on query discovery
// cost (MiMI dataset, BalanceSummary, best-first exploration).

#include <cstdio>

#include "bench_util.h"
#include "common/parallel.h"
#include "common/string_util.h"
#include "eval/experiment.h"

using namespace ssum;

int main(int argc, char** argv) {
  bench::ParseThreadsOrExit(argc, argv, "fig8_summary_size");
  auto bundle = LoadDataset(DatasetKind::kMimi);
  if (!bundle.ok()) {
    std::fprintf(stderr, "MiMI load failed: %s\n",
                 bundle.status().ToString().c_str());
    return 1;
  }
  DiscoveryOracle oracle(bundle->schema);
  double no_summary = AverageDiscoveryCost(oracle, bundle->workload,
                                           TraversalStrategy::kBestFirst);
  const std::vector<size_t> sizes = {2,  3,  4,  5,  7,  9,  11, 13,
                                     15, 17, 20, 25, 30, 40, 60, 90};
  auto sweep = RunSizeSweep(*bundle, sizes);
  if (!sweep.ok()) {
    std::fprintf(stderr, "sweep failed: %s\n",
                 sweep.status().ToString().c_str());
    return 1;
  }
  std::printf(
      "Figure 8: impact of summary size on query discovery cost (MiMI)\n\n");
  std::printf("  %-6s %-10s %s\n", "size", "avg cost", "");
  double max_cost = no_summary;
  for (const SizeSweepPoint& p : *sweep) max_cost = std::max(max_cost, p.cost);
  for (const SizeSweepPoint& p : *sweep) {
    int bar = static_cast<int>(50.0 * p.cost / max_cost + 0.5);
    std::printf("  %-6zu %-10s %s\n", p.size, FormatDouble(p.cost, 2).c_str(),
                std::string(static_cast<size_t>(bar), '#').c_str());
  }
  std::printf("  (no summary, best-first: %s)\n\n",
              FormatDouble(no_summary, 2).c_str());
  std::printf(
      "Paper reference: cost is high for very small summaries (<5 "
      "elements), reaches its minimum plateau around sizes 9-17, then "
      "degrades back toward the full-schema cost as size grows.\n");
  return 0;
}
