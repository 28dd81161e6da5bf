#include <gtest/gtest.h>

#include <algorithm>

#include "core/dominance.h"
#include "core/metrics.h"
#include "core/summarize.h"
#include "datasets/registry.h"
#include "datasets/scenario.h"
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
  DominanceResult result =
      TryComputeDominance(f.schema, f.ann, cov).ValueOrDie();
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
  EXPECT_TRUE(TryComputeDominance(schema, ann, cov).ok());  // terminates
}

/// Figure 6 lines 2-12 spelled out with the Theorem 1 spec: every non-root
/// extended ancestor of every non-root element, in element order.
DominanceResult PairwiseOracle(const SchemaGraph& graph,
                               const Annotations& ann,
                               const CoverageMatrix& cov) {
  DominanceResult want;
  want.dominated.assign(graph.size(), false);
  for (ElementId e = 0; e < graph.size(); ++e) {
    if (e == graph.root()) continue;
    for (ElementId anc : ExtendedAncestors(graph, e)) {
      if (anc == graph.root()) continue;
      if (Dominates(graph, ann, cov, anc, e)) {
        want.pairs.push_back({anc, e});
        want.dominated[e] = true;
      }
    }
  }
  for (ElementId e = 0; e < graph.size(); ++e) {
    if (e != graph.root() && !want.dominated[e]) want.candidates.push_back(e);
  }
  return want;
}

void ExpectMatchesOracle(const SchemaGraph& graph, const Annotations& ann,
                         const std::string& name) {
  EdgeMetrics metrics = EdgeMetrics::Compute(graph, ann);
  auto cov = CoverageMatrix::TryCompute(graph, ann, metrics).ValueOrDie();
  const DominanceResult want = PairwiseOracle(graph, ann, cov);
  EXPECT_FALSE(want.pairs.empty()) << name;
  for (uint32_t threads : {1u, 8u}) {
    ParallelOptions parallel;
    parallel.threads = threads;
    auto got = TryComputeDominance(graph, ann, cov, parallel);
    ASSERT_TRUE(got.ok()) << name << ": " << got.status().ToString();
    ASSERT_EQ(got->pairs.size(), want.pairs.size()) << name << " t" << threads;
    for (size_t i = 0; i < want.pairs.size(); ++i) {
      EXPECT_EQ(got->pairs[i].dominator, want.pairs[i].dominator)
          << name << " t" << threads << " pair " << i;
      EXPECT_EQ(got->pairs[i].dominated, want.pairs[i].dominated)
          << name << " t" << threads << " pair " << i;
    }
    EXPECT_EQ(got->dominated, want.dominated) << name << " t" << threads;
    EXPECT_EQ(got->candidates, want.candidates) << name << " t" << threads;
  }
}

TEST(DominanceTest, MatchesPairwiseTheorem1Oracle) {
  for (DatasetKind kind :
       {DatasetKind::kXMark, DatasetKind::kTpch, DatasetKind::kMimi}) {
    auto bundle = LoadDataset(kind, 0.02);
    ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();
    ExpectMatchesOracle(bundle->schema, bundle->annotations, bundle->name);
  }
  // Value links make referees extended ancestors (and can form cycles).
  ScenarioSpec spec;
  spec.name = "dominance-oracle";
  spec.seed = 5;
  spec.schema_elements = 150;
  spec.value_link_fraction = 0.2;
  spec.instance_units = 400;
  auto ds = ScenarioDataset::Make(spec);
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  auto ann = AnnotateSchemaSharded(*ds->MakeShardedSource());
  ASSERT_TRUE(ann.ok()) << ann.status().ToString();
  ExpectMatchesOracle(ds->schema(), *ann, spec.name);
}

TEST(DominanceTest, ExpiredDeadlineFailsWithoutPartialResult) {
  Fixture f;
  EdgeMetrics metrics = EdgeMetrics::Compute(f.schema, f.ann);
  auto cov = CoverageMatrix::TryCompute(f.schema, f.ann, metrics).ValueOrDie();
  for (uint32_t threads : {1u, 8u}) {
    ParallelOptions parallel;
    parallel.threads = threads;
    parallel.deadline = Deadline::After(0);
    auto result = TryComputeDominance(f.schema, f.ann, cov, parallel);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  }
}

}  // namespace
}  // namespace ssum
