// Stage-by-stage replay of the summarizer context and the method-level
// output checks shared by the workloads.
#include "pipeline.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>
#include <utility>

#include "core/dominance.h"
#include "harness.h"

namespace perfbench {

namespace {

bool BitEqual(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool BitEqualRows(const std::vector<std::vector<double>>& a,
                  const std::vector<std::vector<double>>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!BitEqual(a[i], b[i])) return false;
  }
  return true;
}

template <class M>
bool BitEqualMatrix(const M& a, const M& b) {
  if (a.size() != b.size()) return false;
  const size_t n = a.size();
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      const double x = a.At(i, j);
      const double y = b.At(i, j);
      if (std::memcmp(&x, &y, sizeof(double)) != 0) return false;
    }
  }
  return true;
}

double MsSince(double t0) { return (NowSeconds() - t0) * 1e3; }

}  // namespace

std::string ReplayStages(const ssum::SummarizerContext& ctx,
                         StageTimes* times) {
  const ssum::SchemaGraph& graph = ctx.graph();
  const ssum::Annotations& annotations = ctx.annotations();
  const ssum::SummarizeOptions& options = ctx.options();

  double t0 = NowSeconds();
  ssum::EdgeMetrics metrics = ssum::EdgeMetrics::Compute(graph, annotations);
  times->edge_metrics_ms = MsSince(t0);
  if (!BitEqualRows(metrics.rc, ctx.metrics().rc) ||
      !BitEqualRows(metrics.w, ctx.metrics().w) ||
      !BitEqualRows(metrics.edge_affinity, ctx.metrics().edge_affinity)) {
    return "replayed edge metrics differ from the context's";
  }

  t0 = NowSeconds();
  ssum::ImportanceResult importance = ssum::ComputeImportance(
      graph, annotations, metrics, options.importance);
  times->importance_ms = MsSince(t0);
  if (!BitEqual(importance.importance, ctx.importance().importance)) {
    return "replayed importance differs from the context's";
  }

  t0 = NowSeconds();
  auto affinity = ssum::AffinityMatrix::TryCompute(
      graph, metrics, options.affinity, options.parallel);
  times->affinity_ms = MsSince(t0);
  if (!affinity.ok()) return "affinity: " + affinity.status().ToString();
  if (!BitEqualMatrix(*affinity, ctx.affinity())) {
    return "replayed affinity matrix differs from the context's";
  }

  t0 = NowSeconds();
  auto coverage = ssum::CoverageMatrix::TryCompute(
      graph, annotations, metrics, options.coverage, options.parallel);
  times->coverage_ms = MsSince(t0);
  if (!coverage.ok()) return "coverage: " + coverage.status().ToString();
  if (!BitEqualMatrix(*coverage, ctx.coverage())) {
    return "replayed coverage matrix differs from the context's";
  }

  t0 = NowSeconds();
  ssum::DominanceResult dominance =
      ssum::ComputeDominance(graph, annotations, *coverage);
  times->dominance_ms = MsSince(t0);
  const ssum::DominanceResult& want = ctx.dominance();
  bool same_pairs = dominance.pairs.size() == want.pairs.size();
  for (size_t i = 0; same_pairs && i < want.pairs.size(); ++i) {
    same_pairs = dominance.pairs[i].dominator == want.pairs[i].dominator &&
                 dominance.pairs[i].dominated == want.pairs[i].dominated;
  }
  if (!same_pairs || dominance.dominated != want.dominated ||
      dominance.candidates != want.candidates) {
    return "replayed dominance result differs from the context's";
  }
  return "";
}

namespace {

/// Elements reachable from `e` over structural-parent and referrer ->
/// referee edges (the paper's extended ancestors), excluding `e`; as a
/// flag per element.
std::vector<bool> ExtendedAncestorSet(const ssum::SchemaGraph& graph,
                                      ssum::ElementId e) {
  std::vector<bool> seen(graph.size(), false);
  std::vector<ssum::ElementId> stack = {e};
  while (!stack.empty()) {
    const ssum::ElementId cur = stack.back();
    stack.pop_back();
    auto visit = [&](ssum::ElementId x) {
      if (x != ssum::kInvalidElement && x != e && !seen[x]) {
        seen[x] = true;
        stack.push_back(x);
      }
    };
    visit(graph.parent(cur));
    for (const ssum::Neighbor& nbr : graph.neighbors(cur)) {
      if (!nbr.is_structural && nbr.forward) visit(nbr.other);
    }
  }
  return seen;
}

/// Theorem 1 for (e1 dominates e2) on the coverage matrix: +1 when it
/// holds, -1 when it does not, 0 when a side of an inequality is within
/// rounding of the other, where a different summation order may decide
/// either way.
int Theorem1(const ssum::SummarizerContext& ctx, ssum::ElementId e1,
             ssum::ElementId e2) {
  const ssum::CoverageMatrix& cov = ctx.coverage();
  const size_t n = ctx.graph().size();
  const ssum::ElementId root = ctx.graph().root();
  // E = elements e2 covers more than e1 does; C1, C2 their coverage sums.
  double c1 = 0;
  double c2 = 0;
  for (ssum::ElementId e = 0; e < n; ++e) {
    if (e == root) continue;
    if (cov.At(e2, e) > cov.At(e1, e)) {
      c1 += cov.At(e1, e);
      c2 += cov.At(e2, e);
    }
  }
  // e_c: the element other than e1 that covers e1 most. On a tie with e2
  // both inequalities are the same one, so which maximum is taken does not
  // matter.
  ssum::ElementId ec = ssum::kInvalidElement;
  double ec_cov = -1.0;
  for (ssum::ElementId e = 0; e < n; ++e) {
    if (e == e1 || e == root) continue;
    if (cov.At(e, e1) > ec_cov) {
      ec = e;
      ec_cov = cov.At(e, e1);
    }
  }
  const double card1 = static_cast<double>(ctx.annotations().card(e1));
  const double delta = c2 - c1;
  double margin = card1 - cov.At(e2, e1) - delta;
  if (ec != ssum::kInvalidElement && ec != e2) {
    margin = std::min(margin, card1 - ec_cov - delta);
  }
  const double tolerance = 1e-9 * std::max({1.0, card1, c2});
  if (std::fabs(margin) <= tolerance) return 0;
  return margin > 0 ? 1 : -1;
}

}  // namespace

std::string CheckTheorem1(const ssum::SummarizerContext& ctx) {
  const ssum::SchemaGraph& graph = ctx.graph();
  const size_t n = graph.size();
  const ssum::ElementId root = graph.root();
  const ssum::DominanceResult& dom = ctx.dominance();
  std::set<std::pair<ssum::ElementId, ssum::ElementId>> reported;
  for (const ssum::DominancePair& p : dom.pairs) {
    const ssum::ElementId e1 = p.dominator;
    const ssum::ElementId e2 = p.dominated;
    if (e1 >= n || e2 >= n || e1 == e2 || e1 == root || e2 == root) {
      return "malformed dominance pair";
    }
    if (!reported.insert({e1, e2}).second) return "duplicate dominance pair";
  }
  // Every non-root extended ancestor of every non-root element is tested:
  // a pair is reported exactly when Theorem 1 holds for it.
  std::vector<bool> dominated(n, false);
  size_t matched = 0;
  for (ssum::ElementId e2 = 0; e2 < n; ++e2) {
    if (e2 == root) continue;
    const std::vector<bool> ancestors = ExtendedAncestorSet(graph, e2);
    for (ssum::ElementId e1 = 0; e1 < n; ++e1) {
      if (!ancestors[e1] || e1 == root) continue;
      const bool is_reported = reported.count({e1, e2}) != 0;
      matched += is_reported ? 1 : 0;
      const int holds = Theorem1(ctx, e1, e2);
      if (holds != 0 && is_reported != (holds > 0)) {
        return "pair (" + std::to_string(e1) + " dominates " +
               std::to_string(e2) + ") " +
               (is_reported ? "is reported but violates Theorem 1"
                            : "meets Theorem 1 but is not reported");
      }
      if (is_reported) dominated[e2] = true;
    }
  }
  if (matched != reported.size()) {
    return "a dominance pair is not an (extended ancestor, element) pair";
  }
  if (dominated != dom.dominated) return "dominated flags disagree with pairs";
  std::vector<ssum::ElementId> candidates;
  for (ssum::ElementId e = 0; e < n; ++e) {
    if (e != root && !dominated[e]) candidates.push_back(e);
  }
  if (candidates != dom.candidates) return "candidate set is not CS";
  return "";
}

std::string CheckTopImportance(const ssum::SummarizerContext& ctx, size_t k,
                               const ssum::SchemaSummary& summary) {
  const std::vector<double>& imp = ctx.importance().importance;
  std::vector<ssum::ElementId> ids;
  for (ssum::ElementId e = 0; e < imp.size(); ++e) {
    if (e != ctx.graph().root()) ids.push_back(e);
  }
  std::sort(ids.begin(), ids.end(), [&](ssum::ElementId a, ssum::ElementId b) {
    return imp[a] != imp[b] ? imp[a] > imp[b] : a < b;
  });
  ids.resize(std::min(k, ids.size()));
  if (ids != summary.abstract_elements) {
    return "MaxImportance selection is not the top-k of importance";
  }
  return "";
}

std::string CheckImportanceConserved(const ssum::SummarizerContext& ctx) {
  double total = 0;
  for (double v : ctx.importance().importance) total += v;
  const double want = ctx.annotations().TotalCard();
  if (!(std::fabs(total - want) <= 1e-6 * want)) {
    return "total importance " + std::to_string(total) +
           " != total cardinality " + std::to_string(want);
  }
  return "";
}

uint64_t DominancePairsTested(const ssum::SchemaGraph& graph) {
  uint64_t tested = 0;
  for (ssum::ElementId e = 0; e < graph.size(); ++e) {
    if (e == graph.root()) continue;
    for (ssum::ElementId anc : ssum::ExtendedAncestors(graph, e)) {
      if (anc != graph.root()) ++tested;
    }
  }
  return tested;
}

double MatrixMiB(const ssum::SummarizerContext& ctx) {
  const size_t doubles = ctx.affinity().matrix().data().size() +
                         ctx.coverage().matrix().data().size();
  return static_cast<double>(doubles * sizeof(double)) / (1024.0 * 1024.0);
}

void Samples::Add(const std::string& name, double value) {
  series_[name].push_back(value);
}

void Samples::MediansInto(Report* report) const {
  for (const auto& [name, values] : series_) {
    report->Set(name, Median(values));
  }
}

void SetStageMedians(const std::vector<StageTimes>& runs, Report* report) {
  Samples s;
  for (const StageTimes& t : runs) {
    s.Add("core.edge_metrics_ms", t.edge_metrics_ms);
    s.Add("core.importance_ms", t.importance_ms);
    s.Add("core.affinity_ms", t.affinity_ms);
    s.Add("core.coverage_ms", t.coverage_ms);
    s.Add("core.dominance_ms", t.dominance_ms);
  }
  s.MediansInto(report);
}

}  // namespace perfbench
