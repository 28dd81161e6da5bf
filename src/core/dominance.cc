#include "core/dominance.h"

#include <algorithm>
#include <bit>
#include <cstdint>

namespace ssum {

bool Dominates(const SchemaGraph& graph, const Annotations& annotations,
               const CoverageMatrix& coverage, ElementId e1, ElementId e2) {
  if (e1 == e2) return false;
  const size_t n = graph.size();
  // E, C1, C2 per Theorem 1.
  double c1 = 0;
  double c2 = 0;
  for (ElementId e = 0; e < n; ++e) {
    if (e == graph.root()) continue;
    const double by2 = coverage.At(e2, e);
    const double by1 = coverage.At(e1, e);
    if (by2 > by1) {
      c1 += by1;
      c2 += by2;
    }
  }
  // e_c: the element besides e1 with the highest coverage of e1.
  ElementId ec = kInvalidElement;
  double ec_cov = -1.0;
  for (ElementId e = 0; e < n; ++e) {
    if (e == e1 || e == graph.root()) continue;
    const double c = coverage.At(e, e1);
    if (c > ec_cov) {
      ec = e;
      ec_cov = c;
    }
  }
  const double card1 = static_cast<double>(annotations.card(e1));
  const double delta = c2 - c1;
  if (delta > card1 - coverage.At(e2, e1)) return false;
  if (ec != kInvalidElement && ec != e2) {
    if (delta > card1 - ec_cov) return false;
  }
  return true;
}

std::vector<ElementId> ExtendedAncestors(const SchemaGraph& graph,
                                         ElementId e) {
  // BFS over "parent-like" edges: structural parent, and referees of value
  // links where the current element is the referrer.
  std::vector<bool> seen(graph.size(), false);
  std::vector<ElementId> queue;
  std::vector<ElementId> out;
  auto push = [&](ElementId x) {
    if (x != kInvalidElement && !seen[x]) {
      seen[x] = true;
      queue.push_back(x);
      out.push_back(x);
    }
  };
  seen[e] = true;
  ElementId p = graph.parent(e);
  push(p);
  for (const Neighbor& nbr : graph.neighbors(e)) {
    if (!nbr.is_structural && nbr.forward) push(nbr.other);  // referee
  }
  for (size_t qi = 0; qi < queue.size(); ++qi) {
    ElementId cur = queue[qi];
    push(graph.parent(cur));
    for (const Neighbor& nbr : graph.neighbors(cur)) {
      if (!nbr.is_structural && nbr.forward) push(nbr.other);
    }
  }
  return out;
}

namespace {

/// Ancestor rows scanned together against one descendant row.
constexpr size_t kDominanceLanes = 4;

/// e_c of Theorem 1 for every element at once: ec[j] is the first element e
/// in ascending order (e != j, e != root) with the highest C(e->j), and
/// ec_cov[j] that coverage. One row-major pass over the matrix replaces a
/// strided column scan per Dominates call; each column still sees its
/// candidates in ascending e, so the strict `>` keeps the same maximum.
void CoveringElements(const CoverageMatrix& coverage, ElementId root,
                      std::vector<ElementId>* ec,
                      std::vector<double>* ec_cov) {
  const size_t n = coverage.size();
  ec->assign(n, kInvalidElement);
  ec_cov->assign(n, -1.0);
  for (ElementId e = 0; e < n; ++e) {
    if (e == root) continue;
    const double* row = coverage.matrix().Row(e);
    auto fold = [&](size_t begin, size_t end) {
      for (size_t j = begin; j < end; ++j) {
        if (row[j] > (*ec_cov)[j]) {
          (*ec_cov)[j] = row[j];
          (*ec)[j] = e;
        }
      }
    };
    fold(0, e);
    fold(e + 1, n);
  }
}

/// `take ? x : 0.0` without a branch: the comparison's mask keeps or clears
/// the bits of x (so a cleared value is exactly +0.0). GCC 12 compiles the
/// plain ternary in ScanLanes to a slower form: the dominance stage took
/// twice as long on a 2038-element schema at -O2.
inline double KeepIf(bool take, double x) {
  return std::bit_cast<double>(std::bit_cast<uint64_t>(x) &
                               -static_cast<uint64_t>(take));
}

/// Adds the E terms of Theorem 1 for e in [begin, end) to each lane's
/// (C1, C2): lane l compares ancestor row r1[l] with descendant row r2.
void ScanLanes(const double* r2, const double* const* r1, size_t begin,
               size_t end, double* c1, double* c2) {
  double s1[kDominanceLanes];
  double s2[kDominanceLanes];
  std::copy_n(c1, kDominanceLanes, s1);
  std::copy_n(c2, kDominanceLanes, s2);
  for (size_t e = begin; e < end; ++e) {
    const double by2 = r2[e];
    for (size_t l = 0; l < kDominanceLanes; ++l) {
      const double by1 = r1[l][e];
      const bool take = by2 > by1;
      s1[l] += KeepIf(take, by1);
      s2[l] += KeepIf(take, by2);
    }
  }
  std::copy_n(s1, kDominanceLanes, c1);
  std::copy_n(s2, kDominanceLanes, c2);
}

/// Theorem 1 for every extended ancestor of `e2` (root excluded), appending
/// each dominator to `out` in ancestor order. The E/C1/C2 scan runs over
/// e2's row and up to kDominanceLanes ancestor rows at once; each lane
/// keeps its own sums in ascending e, adding +0.0 where Dominates skips an
/// element. The sums start at +0.0 and never become -0.0, so adding +0.0
/// leaves their bits unchanged: every lane equals Dominates exactly.
void DominatorsOf(const SchemaGraph& graph, const Annotations& annotations,
                  const CoverageMatrix& coverage,
                  const std::vector<ElementId>& ec,
                  const std::vector<double>& ec_cov, ElementId e2,
                  std::vector<DominancePair>* out) {
  const size_t n = graph.size();
  const ElementId root = graph.root();
  std::vector<ElementId> ancestors = ExtendedAncestors(graph, e2);
  std::erase(ancestors, root);
  const double* r2 = coverage.matrix().Row(e2);
  for (size_t first = 0; first < ancestors.size(); first += kDominanceLanes) {
    const size_t lanes = std::min(kDominanceLanes, ancestors.size() - first);
    // Unused lanes scan e2's own row: by2 > by2 never holds.
    const double* r1[kDominanceLanes];
    for (size_t l = 0; l < kDominanceLanes; ++l) {
      r1[l] = l < lanes ? coverage.matrix().Row(ancestors[first + l]) : r2;
    }
    double c1[kDominanceLanes] = {};
    double c2[kDominanceLanes] = {};
    ScanLanes(r2, r1, 0, root, c1, c2);
    ScanLanes(r2, r1, root + 1, n, c1, c2);
    for (size_t l = 0; l < lanes; ++l) {
      const ElementId e1 = ancestors[first + l];
      const double card1 = static_cast<double>(annotations.card(e1));
      const double delta = c2[l] - c1[l];
      if (delta > card1 - r2[e1]) continue;
      if (ec[e1] != kInvalidElement && ec[e1] != e2 &&
          delta > card1 - ec_cov[e1]) {
        continue;
      }
      out->push_back({e1, e2});
    }
  }
}

}  // namespace

Result<DominanceResult> TryComputeDominance(const SchemaGraph& graph,
                                            const Annotations& annotations,
                                            const CoverageMatrix& coverage,
                                            const ParallelOptions& parallel) {
  SSUM_RETURN_NOT_OK(parallel.deadline.Check("dominance"));
  const size_t n = graph.size();
  std::vector<ElementId> ec;
  std::vector<double> ec_cov;
  CoveringElements(coverage, graph.root(), &ec, &ec_cov);
  // Descendants are independent: each chunk writes its own pair list, and
  // the lists are concatenated in chunk (= element) order, so `pairs` has
  // the serial order at any thread count.
  constexpr size_t kGrain = 16;
  std::vector<std::vector<DominancePair>> chunk_pairs(
      ParallelNumChunks(0, n, kGrain));
  SSUM_RETURN_NOT_OK(ParallelForChunked(
      0, n, kGrain,
      [&](size_t chunk, size_t begin, size_t end) {
        for (ElementId e = begin; e < end; ++e) {
          if (e == graph.root()) continue;
          DominatorsOf(graph, annotations, coverage, ec, ec_cov, e,
                       &chunk_pairs[chunk]);
        }
      },
      parallel));
  DominanceResult result;
  result.dominated.assign(n, false);
  for (const std::vector<DominancePair>& pairs : chunk_pairs) {
    for (const DominancePair& p : pairs) {
      result.pairs.push_back(p);
      result.dominated[p.dominated] = true;
    }
  }
  for (ElementId e = 0; e < n; ++e) {
    if (e == graph.root() || result.dominated[e]) continue;
    result.candidates.push_back(e);
  }
  return result;
}

DominanceResult ComputeDominance(const SchemaGraph& graph,
                                 const Annotations& annotations,
                                 const CoverageMatrix& coverage) {
  return TryComputeDominance(graph, annotations, coverage).ValueOrDie();
}

}  // namespace ssum
