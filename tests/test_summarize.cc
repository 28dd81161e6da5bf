#include <gtest/gtest.h>

#include <algorithm>

#include "core/metrics.h"
#include "core/summarize.h"
#include "datasets/registry.h"
#include "schema/schema_builder.h"
#include "stats/annotate.h"

namespace ssum {
namespace {

/// Three top-level entities with unequal weight plus attached detail.
struct Fixture {
  // Ids precede `schema`: Make() fills them during schema construction.
  ElementId big = 0, big_leaf = 0, mid = 0, mid_leaf = 0, small = 0,
            small_leaf = 0;
  SchemaGraph schema;
  Annotations ann;

  Fixture() : schema(Make(this)), ann(schema) {
    ann.set_card(schema.root(), 1);
    Set(big, 1000);
    Set(big_leaf, 3000);
    Set(mid, 300);
    Set(mid_leaf, 600);
    Set(small, 10);
    Set(small_leaf, 10);
  }

  void Set(ElementId e, uint64_t c) {
    ann.set_card(e, c);
    ann.set_structural_count(schema.parent_link(e), c);
  }

  static SchemaGraph Make(Fixture* f) {
    SchemaBuilder b("db");
    f->big = b.SetRcd(b.Root(), "big");
    f->big_leaf = b.SetSimple(f->big, "big_leaf");
    f->mid = b.SetRcd(b.Root(), "mid");
    f->mid_leaf = b.SetSimple(f->mid, "mid_leaf");
    f->small = b.SetRcd(b.Root(), "small");
    f->small_leaf = b.Simple(f->small, "small_leaf");
    return std::move(b).Build();
  }
};

TEST(SummarizeTest, MaxImportancePicksTopK) {
  Fixture f;
  auto context = SummarizerContext::Make(f.schema, f.ann).ValueOrDie();
  auto selected = SelectMaxImportance(context, 2);
  ASSERT_TRUE(selected.ok());
  EXPECT_EQ(selected->size(), 2u);
  const auto& imp = context.importance().importance;
  // Selected importances are >= any unselected non-root element's.
  double min_selected = 1e300;
  for (ElementId e : *selected) min_selected = std::min(min_selected, imp[e]);
  for (ElementId e = 1; e < f.schema.size(); ++e) {
    if (std::find(selected->begin(), selected->end(), e) != selected->end())
      continue;
    EXPECT_LE(imp[e], min_selected + 1e-9);
  }
  // Root never selected.
  EXPECT_EQ(std::find(selected->begin(), selected->end(), f.schema.root()),
            selected->end());
}

TEST(SummarizeTest, SizeValidation) {
  Fixture f;
  auto context = SummarizerContext::Make(f.schema, f.ann).ValueOrDie();
  EXPECT_FALSE(SelectMaxImportance(context, 0).ok());
  EXPECT_FALSE(SelectMaxImportance(context, f.schema.size()).ok());
  EXPECT_FALSE(SelectMaxCoverage(context, 0).ok());
  EXPECT_FALSE(SelectBalanced(context, 0).ok());
}

TEST(SummarizeTest, MaxCoverageTopsUpWhenCandidatesDoNotReachK) {
  Fixture f;
  // 7-element schema: for k=6 the non-dominated candidate set is smaller
  // than k, so the degenerate branch must top up with dominated elements —
  // cleanly, without touching the enumeration — in both modes.
  for (SummaryMode mode : {SummaryMode::kExact, SummaryMode::kApprox}) {
    SummarizeOptions opts;
    opts.mode = mode;
    auto context = SummarizerContext::Make(f.schema, f.ann, opts).ValueOrDie();
    ASSERT_LT(context.dominance().candidates.size(), 6u);
    auto selected = SelectMaxCoverage(context, 6);
    ASSERT_TRUE(selected.ok()) << SummaryModeName(mode);
    EXPECT_EQ(selected->size(), 6u);
    std::vector<ElementId> sorted = *selected;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end());
    EXPECT_EQ(std::find(selected->begin(), selected->end(), f.schema.root()),
              selected->end());
  }
}

TEST(SummarizeTest, ExactMaxCoverageBeatsOrMatchesGreedy) {
  Fixture f;
  SummarizeOptions exact_opts;
  exact_opts.max_coverage_enumeration_budget = 1000000;
  auto exact_ctx =
      SummarizerContext::Make(f.schema, f.ann, exact_opts).ValueOrDie();
  auto exact = SelectMaxCoverage(exact_ctx, 2);
  ASSERT_TRUE(exact.ok());

  SummarizeOptions greedy_opts;
  greedy_opts.max_coverage_enumeration_budget = 0;  // force greedy
  auto greedy_ctx =
      SummarizerContext::Make(f.schema, f.ann, greedy_opts).ValueOrDie();
  auto greedy = SelectMaxCoverage(greedy_ctx, 2);
  ASSERT_TRUE(greedy.ok());

  double exact_cov = CoverageOfSet(f.schema, exact_ctx.affinity(),
                                   exact_ctx.coverage(), *exact);
  double greedy_cov = CoverageOfSet(f.schema, greedy_ctx.affinity(),
                                    greedy_ctx.coverage(), *greedy);
  EXPECT_GE(exact_cov + 1e-9, greedy_cov);
}

/// The greedy MaxCoverage rule with every trial set scored from scratch by
/// CoverageOfSet: first maximum in candidate order wins each round.
std::vector<ElementId> GreedyOracle(const SummarizerContext& context,
                                    size_t k) {
  const std::vector<ElementId>& cands = context.dominance().candidates;
  std::vector<ElementId> chosen;
  for (size_t round = 0; round < k; ++round) {
    ElementId best = kInvalidElement;
    double best_cov = -1.0;
    for (ElementId c : cands) {
      if (std::find(chosen.begin(), chosen.end(), c) != chosen.end()) continue;
      std::vector<ElementId> trial = chosen;
      trial.push_back(c);
      const double cov = CoverageOfSet(context.graph(), context.affinity(),
                                       context.coverage(), trial);
      if (cov > best_cov) {
        best_cov = cov;
        best = c;
      }
    }
    if (best == kInvalidElement) break;
    chosen.push_back(best);
  }
  return chosen;
}

TEST(SummarizeTest, GreedyMaxCoverageMatchesCoverageOfSetOracle) {
  for (DatasetKind kind :
       {DatasetKind::kXMark, DatasetKind::kTpch, DatasetKind::kMimi}) {
    auto bundle = LoadDataset(kind, 0.02);
    ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();
    for (uint32_t threads : {1u, 8u}) {
      SummarizeOptions opts;
      opts.max_coverage_enumeration_budget = 0;  // force greedy
      opts.parallel.threads = threads;
      auto context = SummarizerContext::Make(bundle->schema,
                                             bundle->annotations, opts)
                         .ValueOrDie();
      for (size_t k : {1u, 4u, 10u}) {
        if (context.dominance().candidates.size() <= k) continue;
        auto selected = SelectMaxCoverage(context, k);
        ASSERT_TRUE(selected.ok()) << selected.status().ToString();
        EXPECT_EQ(*selected, GreedyOracle(context, k))
            << bundle->name << " t" << threads << " k=" << k;
      }
    }
  }
}

TEST(SummarizeTest, MaxCoverageAvoidsDominatedElements) {
  Fixture f;
  auto context = SummarizerContext::Make(f.schema, f.ann).ValueOrDie();
  auto selected = SelectMaxCoverage(context, 2);
  ASSERT_TRUE(selected.ok());
  const auto& dominated = context.dominance().dominated;
  // Candidates sufficed (the schema is larger than k), so no selected
  // element is dominated.
  if (context.dominance().candidates.size() >= 2) {
    for (ElementId e : *selected) EXPECT_FALSE(dominated[e]);
  }
}

TEST(SummarizeTest, BalancedSkipsDominatedDuplicates) {
  Fixture f;
  auto context = SummarizerContext::Make(f.schema, f.ann).ValueOrDie();
  auto selected = SelectBalanced(context, 3);
  ASSERT_TRUE(selected.ok());
  EXPECT_EQ(selected->size(), 3u);
  // No selected element may be dominated by another selected element.
  const auto& pairs = context.dominance().pairs;
  for (ElementId a : *selected) {
    for (ElementId b : *selected) {
      bool dominates = false;
      for (const DominancePair& p : pairs) {
        if (p.dominator == a && p.dominated == b) dominates = true;
      }
      EXPECT_FALSE(dominates) << f.schema.label(a) << " dominates "
                              << f.schema.label(b) << " within the summary";
    }
  }
}

TEST(SummarizeTest, FacadeProducesValidSummaries) {
  Fixture f;
  for (Algorithm alg : {Algorithm::kMaxImportance, Algorithm::kMaxCoverage,
                        Algorithm::kBalanceSummary}) {
    auto summary = Summarize(f.schema, f.ann, 2, alg);
    ASSERT_TRUE(summary.ok()) << AlgorithmName(alg);
    EXPECT_TRUE(ValidateSummary(*summary).ok()) << AlgorithmName(alg);
    EXPECT_EQ(summary->size(), 2u);
  }
}

TEST(SummarizeTest, AlgorithmNames) {
  EXPECT_STREQ(AlgorithmName(Algorithm::kMaxImportance), "MaxImportance");
  EXPECT_STREQ(AlgorithmName(Algorithm::kMaxCoverage), "MaxCoverage");
  EXPECT_STREQ(AlgorithmName(Algorithm::kBalanceSummary), "BalanceSummary");
}

TEST(SummarizeTest, DeterministicAcrossRuns) {
  Fixture f;
  auto s1 = Summarize(f.schema, f.ann, 3, Algorithm::kBalanceSummary);
  auto s2 = Summarize(f.schema, f.ann, 3, Algorithm::kBalanceSummary);
  ASSERT_TRUE(s1.ok() && s2.ok());
  EXPECT_EQ(s1->abstract_elements, s2->abstract_elements);
  EXPECT_EQ(s1->representative, s2->representative);
}

/// Thread-count invariance on the real datasets: the sharded exact
/// enumeration and the parallel kernels must reproduce the serial selection
/// exactly, element for element.
class SummarizeParallelTest : public ::testing::TestWithParam<DatasetKind> {};

TEST_P(SummarizeParallelTest, ExactMaxCoverageSetIsThreadCountInvariant) {
  auto bundle = LoadDataset(GetParam(), 0.05);
  ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();

  SummarizeOptions serial_opts;
  serial_opts.parallel.threads = 1;
  auto serial_ctx = SummarizerContext::Make(bundle->schema, bundle->annotations,
                                            serial_opts)
                        .ValueOrDie();
  SummarizeOptions parallel_opts;
  parallel_opts.parallel.threads = 8;
  auto parallel_ctx = SummarizerContext::Make(bundle->schema,
                                              bundle->annotations,
                                              parallel_opts)
                          .ValueOrDie();

  for (size_t k : {2u, 3u, 5u}) {
    auto serial = SelectMaxCoverage(serial_ctx, k);
    auto parallel = SelectMaxCoverage(parallel_ctx, k);
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    EXPECT_EQ(*serial, *parallel) << "k=" << k;
  }
}

TEST_P(SummarizeParallelTest, SummarizeIsThreadCountInvariant) {
  auto bundle = LoadDataset(GetParam(), 0.05);
  ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();

  for (Algorithm alg : {Algorithm::kMaxImportance, Algorithm::kMaxCoverage,
                        Algorithm::kBalanceSummary}) {
    SummarizeOptions serial_opts;
    serial_opts.parallel.threads = 1;
    SummarizeOptions parallel_opts;
    parallel_opts.parallel.threads = 8;
    auto serial = Summarize(bundle->schema, bundle->annotations, 8, alg,
                            serial_opts);
    auto parallel = Summarize(bundle->schema, bundle->annotations, 8, alg,
                              parallel_opts);
    ASSERT_TRUE(serial.ok()) << AlgorithmName(alg);
    ASSERT_TRUE(parallel.ok()) << AlgorithmName(alg);
    EXPECT_EQ(serial->abstract_elements, parallel->abstract_elements)
        << AlgorithmName(alg);
    EXPECT_EQ(serial->representative, parallel->representative)
        << AlgorithmName(alg);
  }
}

INSTANTIATE_TEST_SUITE_P(Datasets, SummarizeParallelTest,
                         ::testing::Values(DatasetKind::kXMark,
                                           DatasetKind::kTpch),
                         [](const auto& info) {
                           return info.param == DatasetKind::kXMark ? "XMark"
                                                                    : "Tpch";
                         });

TEST(SummarizeTest, ImportanceRatioGrowsWithK) {
  Fixture f;
  auto context = SummarizerContext::Make(f.schema, f.ann).ValueOrDie();
  double prev = 0;
  for (size_t k = 1; k <= 4; ++k) {
    auto summary = Summarize(context, k, Algorithm::kMaxImportance);
    ASSERT_TRUE(summary.ok());
    double ratio = SummaryImportanceRatio(
        f.schema, context.importance().importance, *summary);
    EXPECT_GE(ratio + 1e-12, prev);
    prev = ratio;
  }
  EXPECT_LE(prev, 1.0 + 1e-12);
}

}  // namespace
}  // namespace ssum
