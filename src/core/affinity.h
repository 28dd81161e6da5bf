#pragma once

#include "common/parallel.h"
#include "common/result.h"
#include "core/path_engine.h"
#include "schema/schema_graph.h"
#include "stats/annotate.h"

namespace ssum {

struct AffinityOptions {
  /// Walk-length bound for the max-product search (see path_engine.h).
  uint32_t max_steps = 16;
};

/// Dense all-pairs element affinity (paper Formula 2):
///
///   A(a->b) = max over paths of (1/steps) * prod 1/RC(e_{j-1} -> e_j)
///   A(a->a) = 1
///
/// Per-edge affinities are capped at 1 (DESIGN.md interpretation notes), the
/// division uses the number of *steps* (edges) on the path — the reading
/// consistent with the paper's bidder/open_auction worked example.
class AffinityMatrix {
 public:
  /// A(from -> to).
  double At(ElementId from, ElementId to) const { return m_.At(from, to); }

  size_t size() const { return m_.size(); }

  /// Underlying dense storage (for byte-level determinism checks).
  const SquareMatrix& matrix() const { return m_; }

  /// Each source row is an independent MaxProductWalks, so rows are computed
  /// in parallel per `parallel`; any thread count yields bit-identical
  /// matrices (each row has exactly one writer, no reduction). An expired
  /// `parallel.deadline` aborts between row blocks with kDeadlineExceeded.
  static Result<AffinityMatrix> TryCompute(const SchemaGraph& graph,
                                           const EdgeMetrics& metrics,
                                           const AffinityOptions& options = {},
                                           const ParallelOptions& parallel = {});

  /// Wraps an externally produced matrix — the warm-start path of the
  /// snapshot store (src/store), which decodes the bit-identical matrix a
  /// previous TryCompute() persisted. Callers are responsible for the
  /// provenance; the cache keys it by schema/statistics/options.
  static AffinityMatrix FromMatrix(SquareMatrix m) {
    AffinityMatrix a;
    a.m_ = std::move(m);
    return a;
  }

 private:
  SquareMatrix m_;
};

}  // namespace ssum
