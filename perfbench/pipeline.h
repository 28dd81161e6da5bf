// Stage-by-stage replay of a summarizer context and the method-level checks
// the workloads run on their outputs.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "core/summarize.h"

namespace perfbench {

class Report;

struct StageTimes {
  double edge_metrics_ms = 0;
  double importance_ms = 0;
  double affinity_ms = 0;
  double coverage_ms = 0;
  double dominance_ms = 0;
};

/// Recomputes the context's pipeline one public call at a time (edge
/// metrics, importance, affinity, coverage, dominance) with the context's
/// own options, timing each, and checks every product is bit-identical to
/// what the context holds. Returns an empty string when all match.
std::string ReplayStages(const ssum::SummarizerContext& ctx,
                         StageTimes* times);

/// Re-evaluates Theorem 1 on the coverage matrix for every (non-root
/// extended ancestor, non-root element) pair, from the benchmark's own
/// ancestor walk, and checks that exactly the pairs meeting it are reported
/// (in any order), and that `dominated` and `candidates` follow from them.
std::string CheckTheorem1(const ssum::SummarizerContext& ctx);

/// The MaxImportance summary must select the k most important non-root
/// elements, ties broken by ascending id.
std::string CheckTopImportance(const ssum::SummarizerContext& ctx, size_t k,
                               const ssum::SchemaSummary& summary);

/// Formula 1 preserves total importance: it stays the total cardinality.
std::string CheckImportanceConserved(const ssum::SummarizerContext& ctx);

/// Theorem 1 tests the dominance pass makes: sum over non-root elements of
/// their non-root extended ancestors.
uint64_t DominancePairsTested(const ssum::SchemaGraph& graph);

/// Bytes held by the context's two all-pairs matrices, in MiB.
double MatrixMiB(const ssum::SummarizerContext& ctx);

/// Named samples reported as medians.
class Samples {
 public:
  void Add(const std::string& name, double value);
  void MediansInto(Report* report) const;

 private:
  std::map<std::string, std::vector<double>> series_;
};

/// Reports the median of each core stage over `runs`.
void SetStageMedians(const std::vector<StageTimes>& runs, Report* report);

}  // namespace perfbench
