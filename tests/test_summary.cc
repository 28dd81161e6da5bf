#include <gtest/gtest.h>

#include <algorithm>

#include "core/metrics.h"
#include "core/summarize.h"
#include "core/summary.h"
#include "schema/schema_builder.h"
#include "stats/annotate.h"

namespace ssum {
namespace {

/// Two entity clusters (auction-side, person-side) joined by a value link —
/// small enough to reason about groups by hand.
struct Fixture {
  // Ids precede `schema`: Make() fills them during schema construction.
  ElementId auctions = 0, auction = 0, bidder = 0, price = 0;
  ElementId people = 0, person = 0, name = 0, address = 0, street = 0;
  SchemaGraph schema;
  Annotations ann;

  Fixture() : schema(Make(this)), ann(schema) {
    ann.set_card(schema.root(), 1);
    Set(auctions, 1);
    Set(auction, 100);
    Set(bidder, 500);
    Set(price, 100);
    Set(people, 1);
    Set(person, 200);
    Set(name, 200);
    Set(address, 180);
    Set(street, 180);
    ann.set_value_count(0, 500);  // every bidder references a person
  }

  void Set(ElementId e, uint64_t c) {
    ann.set_card(e, c);
    ann.set_structural_count(schema.parent_link(e), c);
  }

  static SchemaGraph Make(Fixture* f) {
    SchemaBuilder b("site");
    f->auctions = b.Rcd(b.Root(), "auctions");
    f->auction = b.SetRcd(f->auctions, "auction");
    f->bidder = b.SetRcd(f->auction, "bidder");
    f->price = b.Simple(f->auction, "price");
    f->people = b.Rcd(b.Root(), "people");
    f->person = b.SetRcd(f->people, "person");
    f->name = b.Simple(f->person, "name");
    f->address = b.Rcd(f->person, "address");
    f->street = b.Simple(f->address, "street");
    b.Link(f->bidder, f->person);
    return std::move(b).Build();
  }
};

TEST(SummaryTest, BuildAssignsEveryElement) {
  Fixture f;
  auto context = SummarizerContext::Make(f.schema, f.ann).ValueOrDie();
  auto summary = BuildSummary(f.schema, context.affinity(), context.coverage(),
                              {f.auction, f.person});
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_TRUE(ValidateSummary(*summary).ok());
  EXPECT_EQ(summary->size(), 2u);
  EXPECT_TRUE(summary->IsAbstract(f.auction));
  EXPECT_FALSE(summary->IsAbstract(f.bidder));
  // Every non-root element is represented by one of the two groups.
  for (ElementId e = 1; e < f.schema.size(); ++e) {
    ElementId rep = summary->representative[e];
    EXPECT_TRUE(rep == f.auction || rep == f.person) << f.schema.label(e);
  }
  // Person-side details land in the person group.
  EXPECT_EQ(summary->representative[f.name], f.person);
  EXPECT_EQ(summary->representative[f.address], f.person);
  EXPECT_EQ(summary->representative[f.street], f.person);
  // price belongs with auction. bidder ties on affinity (exactly one
  // auction and one person per bidder => affinity 1 toward both) and the
  // coverage tie-break sends it to person — C(person->bidder) = 100 beats
  // C(auction->bidder) = 50 here, echoing the paper's footnote that the
  // information about a bidder lives at the person element.
  EXPECT_EQ(summary->representative[f.price], f.auction);
  EXPECT_EQ(summary->representative[f.bidder], f.person);
  // Group accessor agrees.
  std::vector<ElementId> group = summary->Group(f.person);
  EXPECT_NE(std::find(group.begin(), group.end(), f.name), group.end());
}

TEST(SummaryTest, AbstractLinksConsolidateCrossingEdges) {
  Fixture f;
  auto context = SummarizerContext::Make(f.schema, f.ann).ValueOrDie();
  SchemaSummary summary = *BuildSummary(f.schema, context.affinity(),
                                        context.coverage(),
                                        {f.auction, f.person});
  // bidder sits in the person group (see BuildAssignsEveryElement), so the
  // auction->bidder structural link crosses the groups while the
  // bidder->person value link is internal (hidden, Definition 2).
  bool saw_crossing = false;
  for (const AbstractLink& l : summary.links) {
    if (l.from == f.auction && l.to == f.person) {
      EXPECT_TRUE(l.has_structural);
      EXPECT_FALSE(l.has_value);
      saw_crossing = true;
    }
    EXPECT_NE(l.from, l.to);
  }
  EXPECT_TRUE(saw_crossing);
}

TEST(SummaryTest, ValueLinksSurfaceAsDashedAbstractLinks) {
  Fixture f;
  auto context = SummarizerContext::Make(f.schema, f.ann).ValueOrDie();
  // Select auction and address: bidder joins the auction group, person the
  // address group, so the bidder->person value link crosses.
  SchemaSummary summary = *BuildSummary(f.schema, context.affinity(),
                                        context.coverage(),
                                        {f.auction, f.address});
  EXPECT_EQ(summary.representative[f.bidder], f.auction);
  EXPECT_EQ(summary.representative[f.person], f.address);
  bool saw_value = false;
  for (const AbstractLink& l : summary.links) {
    if (l.from == f.auction && l.to == f.address && l.has_value) {
      saw_value = true;
    }
  }
  EXPECT_TRUE(saw_value);
}

TEST(SummaryTest, RejectsBadSelections) {
  Fixture f;
  auto context = SummarizerContext::Make(f.schema, f.ann).ValueOrDie();
  const auto& aff = context.affinity();
  const auto& cov = context.coverage();
  EXPECT_FALSE(BuildSummary(f.schema, aff, cov, {}).ok());
  EXPECT_FALSE(BuildSummary(f.schema, aff, cov, {f.schema.root()}).ok());
  EXPECT_FALSE(BuildSummary(f.schema, aff, cov, {f.person, f.person}).ok());
  EXPECT_FALSE(BuildSummary(f.schema, aff, cov, {9999}).ok());
}

TEST(SummaryTest, ValidateCatchesCorruption) {
  Fixture f;
  auto context = SummarizerContext::Make(f.schema, f.ann).ValueOrDie();
  SchemaSummary summary = *BuildSummary(f.schema, context.affinity(),
                                        context.coverage(),
                                        {f.auction, f.person});
  SchemaSummary broken = summary;
  broken.representative[f.name] = f.name;  // not an abstract element
  EXPECT_FALSE(ValidateSummary(broken).ok());
  broken = summary;
  broken.links.pop_back();
  EXPECT_FALSE(ValidateSummary(broken).ok());
  broken = summary;
  broken.representative[f.schema.root()] = f.person;
  EXPECT_FALSE(ValidateSummary(broken).ok());
}

TEST(SummaryTest, BuildFromAssignment) {
  Fixture f;
  std::vector<ElementId> rep(f.schema.size(), kInvalidElement);
  rep[f.schema.root()] = f.schema.root();
  for (ElementId e = 1; e < f.schema.size(); ++e) {
    rep[e] = f.schema.IsStructuralAncestor(f.people, e) ? f.person : f.auction;
  }
  rep[f.person] = f.person;
  rep[f.auction] = f.auction;
  auto summary =
      BuildSummaryFromAssignment(f.schema, {f.auction, f.person}, rep);
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_TRUE(ValidateSummary(*summary).ok());
  EXPECT_EQ(summary->representative[f.street], f.person);
}

TEST(SummaryTest, BuildFromAssignmentRejectsInconsistency) {
  Fixture f;
  std::vector<ElementId> rep(f.schema.size(), f.person);
  rep[f.schema.root()] = f.schema.root();
  rep[f.person] = f.person;
  // auction selected but mapped to person.
  rep[f.auction] = f.person;
  EXPECT_FALSE(
      BuildSummaryFromAssignment(f.schema, {f.auction, f.person}, rep).ok());
  // Assignment to a non-selected element.
  std::vector<ElementId> rep2(f.schema.size(), f.bidder);
  rep2[f.schema.root()] = f.schema.root();
  rep2[f.person] = f.person;
  EXPECT_FALSE(BuildSummaryFromAssignment(f.schema, {f.person}, rep2).ok());
}

TEST(MetricsTest, ImportanceRatioMatchesDefinition) {
  Fixture f;
  auto context = SummarizerContext::Make(f.schema, f.ann).ValueOrDie();
  SchemaSummary summary = *BuildSummary(f.schema, context.affinity(),
                                        context.coverage(),
                                        {f.auction, f.person});
  const auto& imp = context.importance().importance;
  double total = 0;
  for (double v : imp) total += v;
  double expected =
      (imp[f.schema.root()] + imp[f.auction] + imp[f.person]) / total;
  EXPECT_NEAR(SummaryImportanceRatio(f.schema, imp, summary), expected, 1e-12);
}

TEST(MetricsTest, CoverageRatioBounds) {
  Fixture f;
  auto context = SummarizerContext::Make(f.schema, f.ann).ValueOrDie();
  SchemaSummary summary = *BuildSummary(f.schema, context.affinity(),
                                        context.coverage(),
                                        {f.auction, f.person});
  double ratio =
      SummaryCoverageRatio(f.schema, f.ann, context.coverage(), summary);
  EXPECT_GT(ratio, 0.0);
  EXPECT_LE(ratio, 1.0 + 1e-9);
}

TEST(MetricsTest, MoreElementsMoreImportance) {
  Fixture f;
  auto context = SummarizerContext::Make(f.schema, f.ann).ValueOrDie();
  SchemaSummary small = *BuildSummary(f.schema, context.affinity(),
                                      context.coverage(), {f.person});
  SchemaSummary large = *BuildSummary(f.schema, context.affinity(),
                                      context.coverage(),
                                      {f.person, f.auction, f.bidder});
  const auto& imp = context.importance().importance;
  EXPECT_GT(SummaryImportanceRatio(f.schema, imp, large),
            SummaryImportanceRatio(f.schema, imp, small));
}

}  // namespace
}  // namespace ssum
