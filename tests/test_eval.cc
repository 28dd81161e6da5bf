#include <gtest/gtest.h>

#include "eval/agreement.h"
#include "eval/experiment.h"
#include "eval/table_printer.h"

namespace ssum {
namespace {

TEST(AgreementTest, BasicOverlap) {
  std::vector<ElementId> a{1, 2, 3, 4, 5};
  std::vector<ElementId> b{3, 4, 5, 6, 7};
  EXPECT_DOUBLE_EQ(SummaryAgreement(a, b, 5), 0.6);
  EXPECT_DOUBLE_EQ(SummaryAgreement(a, a, 5), 1.0);
  EXPECT_DOUBLE_EQ(SummaryAgreement(a, {9, 10}, 5), 0.0);
  EXPECT_DOUBLE_EQ(SummaryAgreement(a, b, 0), 0.0);
}

TEST(AgreementTest, PanelIntersection) {
  ExpertPanel panel;
  panel.rankings = {{1, 2, 3, 4}, {2, 1, 5, 3}, {1, 2, 6, 7}};
  // size-2 summaries: {1,2}, {2,1}, {1,2} -> all agree on both.
  EXPECT_DOUBLE_EQ(PanelAgreement(panel, 2), 1.0);
  // size-4: common = {1,2,3} ∩ {..} -> {1,2,3} ∩ {1,2,6,7} = {1,2} -> 0.5.
  EXPECT_DOUBLE_EQ(PanelAgreement(panel, 4), 0.5);
  ExpertPanel empty;
  EXPECT_DOUBLE_EQ(PanelAgreement(empty, 3), 0.0);
}

TEST(AgreementTest, ConsensusMajority) {
  ExpertPanel panel;
  panel.rankings = {{1, 2, 3}, {1, 4, 5}, {2, 1, 6}};
  // size-3 votes: 1->3, 2->2, 3/4/5/6->1. Majority (>=2): {1, 2}.
  std::vector<ElementId> consensus = panel.Consensus(3);
  EXPECT_EQ(consensus.size(), 2u);
  EXPECT_NE(std::find(consensus.begin(), consensus.end(), 1u),
            consensus.end());
  EXPECT_NE(std::find(consensus.begin(), consensus.end(), 2u),
            consensus.end());
}

TEST(TablePrinterTest, AlignsAndSeparates) {
  TablePrinter t({"name", "value"});
  t.AddRow({"alpha", "1"});
  t.AddSeparator();
  t.AddRow({"b", "22222"});
  std::string out = t.ToString();
  EXPECT_NE(out.find("| alpha | 1     |"), std::string::npos);
  EXPECT_NE(out.find("| b     | 22222 |"), std::string::npos);
  EXPECT_NE(out.find("+======="), std::string::npos);
  // Short rows are padded.
  TablePrinter t2({"a", "b"});
  t2.AddRow({"only"});
  EXPECT_NE(t2.ToString().find("| only |"), std::string::npos);
}

TEST(TablePrinterTest, PercentFormat) {
  EXPECT_EQ(Percent(0.624), "62.4%");
  EXPECT_EQ(Percent(1.0), "100.0%");
  EXPECT_EQ(Percent(0.0), "0.0%");
}

TEST(ExperimentTest, RowsOnScaledDownDatasets) {
  // End-to-end smoke of the experiment runners on small instances.
  auto bundle = LoadDataset(DatasetKind::kXMark, 0.01);
  ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();
  auto row = RunQueryDiscoveryRow(*bundle);
  ASSERT_TRUE(row.ok()) << row.status().ToString();
  EXPECT_GT(row->depth_first, 0);
  EXPECT_GT(row->best_first, 0);
  EXPECT_GT(row->with_summary, 0);
  EXPECT_EQ(row->rounds, 20u);
  // The paper's headline ordering: DF worst, best-first much better,
  // summary better still.
  EXPECT_GT(row->depth_first, row->best_first);
  EXPECT_LT(row->with_summary, row->best_first);

  auto balance = RunBalanceRow(*bundle);
  ASSERT_TRUE(balance.ok());
  EXPECT_GT(balance->balance, 0);
  EXPECT_GT(balance->max_importance, 0);
  EXPECT_GT(balance->max_coverage, 0);

  auto sweep = RunSizeSweep(*bundle, {3, 5, 8});
  ASSERT_TRUE(sweep.ok());
  EXPECT_EQ(sweep->size(), 3u);

  auto svd = RunStructureVsDataRow(*bundle);
  ASSERT_TRUE(svd.ok());
  EXPECT_GT(svd->data_driven, 0);
  EXPECT_GT(svd->schema_driven, 0);
  EXPECT_GT(svd->balanced, 0);
}

TEST(ExperimentTest, EvaluateSummaryRejectsForeignSchema) {
  auto b1 = LoadDataset(DatasetKind::kXMark, 0.01);
  ASSERT_TRUE(b1.ok());
  auto context =
      SummarizerContext::Make(b1->schema, b1->annotations).ValueOrDie();
  auto summary = Summarize(context, 5);
  ASSERT_TRUE(summary.ok());
  auto cost = EvaluateSummaryCost(*b1, *summary);
  ASSERT_TRUE(cost.ok());
  EXPECT_GT(*cost, 0.0);
  auto b2 = LoadDataset(DatasetKind::kXMark, 0.01);
  ASSERT_TRUE(b2.ok());
  EXPECT_FALSE(EvaluateSummaryCost(*b2, *summary).ok());
}

}  // namespace
}  // namespace ssum
