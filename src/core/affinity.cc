#include "core/affinity.h"

namespace ssum {

Result<AffinityMatrix> AffinityMatrix::TryCompute(
    const SchemaGraph& graph, const EdgeMetrics& metrics,
    const AffinityOptions& options, const ParallelOptions& parallel) {
  const size_t n = graph.size();
  AffinityMatrix out;
  out.m_ = SquareMatrix(n, 0.0);
  WalkSearchOptions walk;
  walk.max_steps = options.max_steps;
  walk.divide_by_steps = true;
  // One CSR snapshot shared by all rows; lane blocks of kWalkLaneWidth
  // sources are the parallel unit (each row still has exactly one writer).
  const WalkPlan plan = WalkPlan::Build(graph, metrics.edge_affinity);
  const size_t blocks = (n + kWalkLaneWidth - 1) / kWalkLaneWidth;
  Status st = ParallelFor(
      0, blocks, /*grain=*/1,
      [&](size_t block) {
        const size_t begin = block * kWalkLaneWidth;
        const size_t count = std::min(kWalkLaneWidth, n - begin);
        ElementId sources[kWalkLaneWidth];
        std::span<double> rows[kWalkLaneWidth];
        for (size_t i = 0; i < count; ++i) {
          sources[i] = static_cast<ElementId>(begin + i);
          rows[i] = out.m_.RowSpan(begin + i);
        }
        MaxProductWalksBatch(plan, {sources, count}, walk, {rows, count});
        for (size_t i = 0; i < count; ++i) {
          rows[i][begin + i] = 1.0;  // Formula 2 special case
        }
      },
      parallel);
  SSUM_RETURN_NOT_OK(st);
  return out;
}

}  // namespace ssum
