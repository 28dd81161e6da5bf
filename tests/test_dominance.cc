#include <gtest/gtest.h>

#include <algorithm>

#include "core/dominance.h"
#include "core/metrics.h"
#include "core/summarize.h"
#include "schema/schema_builder.h"
#include "stats/annotate.h"

namespace ssum {
namespace {

/// person -> profile -> interest* with one extra leaf (@category) under
/// interest — modeled after the paper's Figure 5 discussion.
struct Fixture {
  // Ids precede `schema`: Make() fills them during schema construction.
  ElementId person = 0, profile = 0, interest = 0, category = 0;
  SchemaGraph schema;
  Annotations ann;

  Fixture() : schema(Make(this)), ann(schema) {
    ann.set_card(schema.root(), 1);
    SetCard(person, 100);
    SetCard(profile, 100);    // RC(person->profile) = 1
    SetCard(interest, 400);   // RC(profile->interest) = 4
    SetCard(category, 400);   // RC(interest->@category) = 1
  }

  void SetCard(ElementId e, uint64_t c) {
    ann.set_card(e, c);
    ann.set_structural_count(schema.parent_link(e), c);
  }

  static SchemaGraph Make(Fixture* f) {
    SchemaBuilder b("root");
    f->person = b.SetRcd(b.Root(), "person");
    f->profile = b.Rcd(f->person, "profile");
    f->interest = b.SetRcd(f->profile, "interest");
    f->category = b.Attr(f->interest, "category");
    return std::move(b).Build();
  }
};

TEST(DominanceTest, AncestorDominatesTightlyCoupledLeaf) {
  Fixture f;
  EdgeMetrics metrics = EdgeMetrics::Compute(f.schema, f.ann);
  auto cov = CoverageMatrix::TryCompute(f.schema, f.ann, metrics).ValueOrDie();
  // @category's coverage profile is a strict subset of interest's:
  // every element @category covers well is covered at least as well by
  // interest, so interest dominates it (Theorem 1).
  EXPECT_TRUE(Dominates(f.schema, f.ann, cov, f.interest, f.category));
  // The much weaker leaf cannot dominate its ancestor.
  EXPECT_FALSE(Dominates(f.schema, f.ann, cov, f.category, f.interest));
  EXPECT_FALSE(Dominates(f.schema, f.ann, cov, f.interest, f.interest));
}

TEST(DominanceTest, ReplacementNeverLowersCoverage) {
  // The defining property of dominance: for any summary containing only the
  // dominated element, swapping in the dominator keeps or raises summary
  // coverage. Verified over all singleton summaries.
  Fixture f;
  auto context = SummarizerContext::Make(f.schema, f.ann).ValueOrDie();
  const CoverageMatrix& cov = context.coverage();
  for (ElementId e1 = 1; e1 < f.schema.size(); ++e1) {
    for (ElementId e2 = 1; e2 < f.schema.size(); ++e2) {
      if (e1 == e2) continue;
      if (!Dominates(f.schema, f.ann, cov, e1, e2)) continue;
      double with_dominated =
          CoverageOfSet(f.schema, context.affinity(), cov, {e2});
      double with_dominator =
          CoverageOfSet(f.schema, context.affinity(), cov, {e1});
      EXPECT_GE(with_dominator + 1e-9, with_dominated)
          << f.schema.label(e1) << " should dominate " << f.schema.label(e2);
    }
  }
}

TEST(DominanceTest, ExtendedAncestorsFollowRefereeLinks) {
  SchemaBuilder b("root");
  ElementId a = b.SetRcd(b.Root(), "a");
  ElementId b_elem = b.SetRcd(b.Root(), "b");
  ElementId c = b.SetRcd(b_elem, "c");
  b.Link(c, a);  // c references a: a acts as a parent of c
  SchemaGraph schema = std::move(b).Build();
  std::vector<ElementId> anc = ExtendedAncestors(schema, c);
  EXPECT_NE(std::find(anc.begin(), anc.end(), a), anc.end());
  EXPECT_NE(std::find(anc.begin(), anc.end(), b_elem), anc.end());
  EXPECT_NE(std::find(anc.begin(), anc.end(), schema.root()), anc.end());
  // a's ancestors do not include c (direction matters).
  std::vector<ElementId> anc_a = ExtendedAncestors(schema, a);
  EXPECT_EQ(std::find(anc_a.begin(), anc_a.end(), c), anc_a.end());
}

TEST(DominanceTest, ComputeDominanceProducesConsistentSets) {
  Fixture f;
  EdgeMetrics metrics = EdgeMetrics::Compute(f.schema, f.ann);
  auto cov = CoverageMatrix::TryCompute(f.schema, f.ann, metrics).ValueOrDie();
  DominanceResult result = ComputeDominance(f.schema, f.ann, cov);
  // Flags match pairs.
  std::vector<bool> expect(f.schema.size(), false);
  for (const DominancePair& p : result.pairs) {
    expect[p.dominated] = true;
    EXPECT_NE(p.dominator, p.dominated);
  }
  EXPECT_EQ(expect, result.dominated);
  // Candidates = non-dominated non-root elements.
  for (ElementId e : result.candidates) {
    EXPECT_NE(e, f.schema.root());
    EXPECT_FALSE(result.dominated[e]);
  }
  // @category is ancestor-dominated, so it must be pruned.
  EXPECT_TRUE(result.dominated[f.category]);
}

TEST(DominanceTest, CyclicValueLinksTerminate) {
  SchemaBuilder b("root");
  ElementId x = b.SetRcd(b.Root(), "x");
  ElementId y = b.SetRcd(b.Root(), "y");
  b.Link(x, y);
  b.Link(y, x);  // referee cycle
  SchemaGraph schema = std::move(b).Build();
  std::vector<ElementId> anc = ExtendedAncestors(schema, x);
  EXPECT_LE(anc.size(), schema.size());
  Annotations ann = Annotations::Uniform(schema);
  EdgeMetrics metrics = EdgeMetrics::Compute(schema, ann);
  auto cov = CoverageMatrix::TryCompute(schema, ann, metrics).ValueOrDie();
  DominanceResult result = ComputeDominance(schema, ann, cov);
  (void)result;  // must terminate
}

}  // namespace
}  // namespace ssum
