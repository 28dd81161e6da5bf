#include "core/coverage.h"

namespace ssum {

EdgeFactors CoverageStepFactors(const SchemaGraph& graph,
                                const EdgeMetrics& metrics) {
  EdgeFactors factors(graph.size());
  for (ElementId u = 0; u < graph.size(); ++u) {
    const auto& nbrs = graph.neighbors(u);
    factors[u].resize(nbrs.size());
    for (size_t i = 0; i < nbrs.size(); ++i) {
      const ElementId v = nbrs[i].other;
      const uint32_t j = metrics.mirror[u][i];
      factors[u][i] = metrics.edge_affinity[u][i] * metrics.w[v][j];
    }
  }
  return factors;
}

Result<CoverageMatrix> CoverageMatrix::TryCompute(
    const SchemaGraph& graph, const Annotations& annotations,
    const EdgeMetrics& metrics, const CoverageOptions& options,
    const ParallelOptions& parallel) {
  const size_t n = graph.size();
  const EdgeFactors factors = CoverageStepFactors(graph, metrics);
  CoverageMatrix out;
  out.m_ = SquareMatrix(n, 0.0);
  WalkSearchOptions walk;
  walk.max_steps = options.max_steps;
  walk.divide_by_steps = false;
  // Batched engine writes straight into the matrix rows; the cardinality
  // scaling runs in place afterwards (same per-entry product as the scalar
  // path, so the matrix stays bit-identical).
  const WalkPlan plan = WalkPlan::Build(graph, factors);
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
          std::span<double> dst = rows[i];
          for (size_t t = 0; t < n; ++t) {
            dst[t] *= static_cast<double>(
                annotations.card(static_cast<ElementId>(t)));
          }
          dst[begin + i] = static_cast<double>(annotations.card(
              static_cast<ElementId>(begin + i)));  // special case
        }
      },
      parallel);
  SSUM_RETURN_NOT_OK(st);
  return out;
}

}  // namespace ssum
