// End-to-end regression guards for the headline reproduction results, run
// on scaled-down instances (RCs are scale-invariant, so the summaries and
// cost relationships match the full-scale benches).

#include <gtest/gtest.h>

#include <numeric>

#include "core/metrics.h"
#include "core/summarize.h"
#include "datasets/registry.h"
#include "eval/experiment.h"
#include "query/discovery.h"

namespace ssum {
namespace {

class HeadlineTest : public ::testing::TestWithParam<DatasetKind> {};

TEST_P(HeadlineTest, SummaryBeatsBestFirstAndScansAreWorse) {
  auto bundle = LoadDataset(GetParam(), 0.05);
  ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();
  auto row = RunQueryDiscoveryRow(*bundle);
  ASSERT_TRUE(row.ok()) << row.status().ToString();
  // Paper Table 3 shape: blind scans are much worse than the best-first
  // oracle, and the summary improves on best-first.
  EXPECT_GT(row->depth_first, row->best_first);
  EXPECT_GT(row->breadth_first, row->best_first);
  EXPECT_LT(row->with_summary, row->best_first);
  EXPECT_GT(row->saving, 0.1) << "summary saving collapsed";
}

TEST_P(HeadlineTest, EveryQueryCompletesUnderEveryStrategy) {
  auto bundle = LoadDataset(GetParam(), 0.05);
  ASSERT_TRUE(bundle.ok());
  DiscoveryOracle oracle(bundle->schema);
  auto context =
      SummarizerContext::Make(bundle->schema, bundle->annotations).ValueOrDie();
  auto summary = Summarize(context, bundle->paper_summary_size);
  ASSERT_TRUE(summary.ok());
  for (const QueryIntention& q : bundle->workload.queries) {
    for (TraversalStrategy s :
         {TraversalStrategy::kDepthFirst, TraversalStrategy::kBreadthFirst,
          TraversalStrategy::kBestFirst}) {
      EXPECT_TRUE(Discover(oracle, q, s).complete)
          << bundle->name << " " << q.name << " "
          << TraversalStrategyName(s);
    }
    EXPECT_TRUE(DiscoverWithSummary(oracle, *summary, q).complete)
        << bundle->name << " " << q.name;
  }
}

TEST_P(HeadlineTest, SummariesAreValidAndImportanceConserved) {
  auto bundle = LoadDataset(GetParam(), 0.05);
  ASSERT_TRUE(bundle.ok());
  auto context =
      SummarizerContext::Make(bundle->schema, bundle->annotations).ValueOrDie();
  for (Algorithm alg : {Algorithm::kMaxImportance, Algorithm::kMaxCoverage,
                        Algorithm::kBalanceSummary}) {
    auto summary = Summarize(context, bundle->paper_summary_size, alg);
    ASSERT_TRUE(summary.ok()) << AlgorithmName(alg);
    EXPECT_TRUE(ValidateSummary(*summary).ok()) << AlgorithmName(alg);
    double imp_ratio = SummaryImportanceRatio(
        bundle->schema, context.importance().importance, *summary);
    double cov_ratio = SummaryCoverageRatio(
        bundle->schema, bundle->annotations, context.coverage(), *summary);
    EXPECT_GT(imp_ratio, 0.0);
    EXPECT_LE(imp_ratio, 1.0 + 1e-9);
    EXPECT_GT(cov_ratio, 0.0);
    EXPECT_LE(cov_ratio, 1.0 + 1e-9);
  }
  const auto& imp = context.importance().importance;
  double total = std::accumulate(imp.begin(), imp.end(), 0.0);
  EXPECT_NEAR(total, bundle->annotations.TotalCard(),
              bundle->annotations.TotalCard() * 0.01);
}

INSTANTIATE_TEST_SUITE_P(AllDatasets, HeadlineTest,
                         ::testing::Values(DatasetKind::kXMark,
                                           DatasetKind::kTpch,
                                           DatasetKind::kMimi),
                         [](const auto& info) {
                           // gtest parameter names must be alphanumeric.
                           std::string name = DatasetName(info.param);
                           std::erase_if(name, [](char c) {
                             return !std::isalnum(static_cast<unsigned char>(c));
                           });
                           return name;
                         });

TEST(HeadlineShapeTest, DataDrivenCollapsesOnXMark) {
  // Figure 9's central claim.
  auto bundle = LoadDataset(DatasetKind::kXMark, 0.05);
  ASSERT_TRUE(bundle.ok());
  auto row = RunStructureVsDataRow(*bundle);
  ASSERT_TRUE(row.ok());
  EXPECT_GT(row->data_driven, row->balanced * 2)
      << "cardinality-only summarization should select text debris on XMark";
}

TEST(HeadlineShapeTest, XMarkImportanceRanking) {
  // Section 3.1: bidder is the most important element; person and the
  // (aggregated) item follow well ahead of the median element.
  auto bundle = LoadDataset(DatasetKind::kXMark, 0.05);
  ASSERT_TRUE(bundle.ok());
  ImportanceResult imp = ComputeImportance(bundle->schema,
                                           bundle->annotations);
  ASSERT_TRUE(imp.converged);
  std::vector<ElementId> ranked = imp.Ranked();
  ElementId top = ranked[0] == bundle->schema.root() ? ranked[1] : ranked[0];
  EXPECT_EQ(bundle->schema.label(top), "bidder");
  ElementId person = *bundle->schema.FindPath("site/people/person");
  double item_total = 0;
  for (ElementId e : bundle->schema.FindByLabel("item")) {
    item_total += imp.importance[e];
  }
  EXPECT_GT(imp.importance[top], imp.importance[person]);
  EXPECT_GT(imp.importance[top], item_total);
  // person and aggregate item are the next tier, within 2x of each other.
  EXPECT_LT(imp.importance[person], item_total * 2);
  EXPECT_LT(item_total, imp.importance[person] * 2);
}

TEST(HeadlineShapeTest, Figure8PlateauExists) {
  auto bundle = LoadDataset(DatasetKind::kMimi, 0.05);
  ASSERT_TRUE(bundle.ok());
  auto sweep = RunSizeSweep(*bundle, {2, 12, 90});
  ASSERT_TRUE(sweep.ok());
  // The mid-size summary beats both the tiny and the huge one.
  EXPECT_LT((*sweep)[1].cost, (*sweep)[0].cost);
  EXPECT_LT((*sweep)[1].cost, (*sweep)[2].cost);
}

}  // namespace
}  // namespace ssum
