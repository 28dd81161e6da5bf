#include <gtest/gtest.h>

#include "core/multilevel.h"
#include "core/summarize.h"
#include "datasets/xmark.h"
#include "query/discovery.h"
#include "stats/annotate.h"

namespace ssum {
namespace {

struct Fixture {
  XMarkDataset ds;
  Annotations ann;
  std::vector<SummaryLevel> levels;

  Fixture() : ds(Small()), ann(*AnnotateSchema(*ds.MakeStream())) {
    levels = *SummarizeMultiLevel(ds.schema(), ann, {16, 5});
  }

  static XMarkParams Small() {
    XMarkParams p;
    p.sf = 0.01;
    return p;
  }
};

TEST(MultiLevelDiscoveryTest, FindsEveryElement) {
  Fixture f;
  DiscoveryOracle oracle(f.ds.schema());
  for (ElementId target = 1; target < f.ds.schema().size(); ++target) {
    DiscoveryResult r =
        DiscoverWithMultiLevel(oracle, f.levels, {"q", {target}});
    EXPECT_TRUE(r.complete) << f.ds.schema().PathOf(target);
    EXPECT_LE(r.cost, f.ds.schema().size() + 32);
  }
}

TEST(MultiLevelDiscoveryTest, CompletesTheBenchmarkWorkload) {
  Fixture f;
  DiscoveryOracle oracle(f.ds.schema());
  Workload w = *f.ds.Queries();
  for (const QueryIntention& q : w.queries) {
    DiscoveryResult r = DiscoverWithMultiLevel(oracle, f.levels, q);
    EXPECT_TRUE(r.complete) << q.name;
  }
}

TEST(MultiLevelDiscoveryTest, CoarseScanIsShort) {
  // A query whose target group ranks first at both levels should cost only
  // a few units: the coarse scan narrows to one coarse group, the fine scan
  // to one fine group.
  Fixture f;
  DiscoveryOracle oracle(f.ds.schema());
  // Use the top coarse element's own representative as the target.
  ElementId top = f.levels[1].abstract_elements.front();
  DiscoveryResult r = DiscoverWithMultiLevel(oracle, f.levels, {"q", {top}});
  EXPECT_TRUE(r.complete);
  EXPECT_LE(r.cost, 3u);
}

TEST(MultiLevelDiscoveryTest, SingleLevelMatchesFlatSummary) {
  // With one level, multi-level discovery must coincide with the flat
  // summary-based discovery over the same selection.
  Fixture f;
  auto context = SummarizerContext::Make(f.ds.schema(), f.ann).ValueOrDie();
  auto summary = Summarize(context, 16);
  ASSERT_TRUE(summary.ok());
  SummaryLevel level;
  level.abstract_elements = summary->abstract_elements;
  level.representative = summary->representative;
  DiscoveryOracle oracle(f.ds.schema());
  Workload w = *f.ds.Queries();
  for (const QueryIntention& q : w.queries) {
    DiscoveryResult flat = DiscoverWithSummary(oracle, *summary, q);
    DiscoveryResult multi = DiscoverWithMultiLevel(oracle, {level}, q);
    EXPECT_EQ(flat.cost, multi.cost) << q.name;
    EXPECT_EQ(flat.complete, multi.complete) << q.name;
  }
}

}  // namespace
}  // namespace ssum
