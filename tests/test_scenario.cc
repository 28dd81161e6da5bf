#include "datasets/scenario.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>

#include "common/config.h"
#include "instance/conformance.h"
#include "instance/materialize.h"
#include "query/workload.h"
#include "schema/schema_io.h"
#include "stats/annotate.h"
#include "store/fingerprint.h"

namespace ssum {
namespace {

ScenarioSpec SmallSpec() {
  ScenarioSpec spec;
  spec.name = "small";
  spec.seed = 7;
  spec.schema_elements = 60;
  spec.entity_classes = 4;
  spec.max_depth = 6;
  spec.instance_units = 150;
  spec.queries = 10;
  return spec;
}

// --- config parser ---------------------------------------------------------

TEST(ConfigTest, ParsesKeysCommentsAndBlanks) {
  auto config = ConfigMap::Parse(
      "# header comment\n"
      "name: demo\n"
      "\n"
      "schema.elements: 42\n"
      "ratio: 0.25\n"
      "flag: true\n",
      "demo.scn");
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  EXPECT_EQ(config->GetString("name", ""), "demo");
  EXPECT_EQ(config->GetInt("schema.elements", 0), 42);
  EXPECT_DOUBLE_EQ(config->GetDouble("ratio", 0.0), 0.25);
  EXPECT_TRUE(config->GetBool("flag", false));
  EXPECT_EQ(config->GetInt("absent", 17), 17);
  EXPECT_TRUE(config->CheckAllKeysRead().ok());
}

TEST(ConfigTest, ErrorsCarryLineAndOffsetContext) {
  auto config = ConfigMap::Parse("name: ok\nbroken line\n", "case.scn");
  ASSERT_FALSE(config.ok());
  EXPECT_TRUE(config.status().IsParseError());
  // Source, 1-based line and byte offset of the offending line.
  EXPECT_NE(config.status().message().find("case.scn:2"), std::string::npos)
      << config.status().ToString();
  EXPECT_NE(config.status().message().find("byte 9"), std::string::npos)
      << config.status().ToString();
}

TEST(ConfigTest, DuplicateKeyNamesBothLines) {
  auto config = ConfigMap::Parse("a: 1\nb: 2\na: 3\n", "dup.scn");
  ASSERT_FALSE(config.ok());
  EXPECT_TRUE(config.status().IsParseError());
  EXPECT_NE(config.status().message().find("duplicate config key 'a'"),
            std::string::npos);
  EXPECT_NE(config.status().message().find("line 1"), std::string::npos);
  EXPECT_NE(config.status().message().find("dup.scn:3"), std::string::npos);
}

TEST(ConfigTest, RejectsMalformedKeysAndValues) {
  EXPECT_FALSE(ConfigMap::Parse("bad key!: 1\n", "t").ok());
  auto config = ConfigMap::Parse("n: notanumber\n", "t");
  ASSERT_TRUE(config.ok());
  auto v = config->GetInt("n");
  ASSERT_FALSE(v.ok());
  EXPECT_TRUE(v.status().IsInvalidArgument());
  EXPECT_NE(v.status().message().find("notanumber"), std::string::npos);
}

TEST(ConfigTest, ErrorPreviewsAreClippedAndEscaped) {
  // Parse errors quote the offending text, but only a bounded, printable
  // preview — a Status can travel over the serve wire, so it must never
  // carry a raw dump of the file it failed on.
  std::string line(200, 'x');
  line[0] = '\x01';
  auto config = ConfigMap::Parse(line + "\n", "t");
  ASSERT_FALSE(config.ok());
  const std::string msg = config.status().message();
  EXPECT_EQ(msg.find(line), std::string::npos);
  EXPECT_NE(msg.find("..."), std::string::npos) << msg;
  EXPECT_EQ(msg.find('\x01'), std::string::npos) << msg;
}

TEST(ConfigTest, UnreadKeysSurfaceInLineOrder) {
  auto config = ConfigMap::Parse("zz: 1\naa: 2\n", "t");
  ASSERT_TRUE(config.ok());
  auto unread = config->UnreadKeys();
  ASSERT_EQ(unread.size(), 2u);
  EXPECT_EQ(unread[0], "zz");  // line order, not lexicographic
  EXPECT_EQ(unread[1], "aa");
  EXPECT_FALSE(config->CheckAllKeysRead().ok());
}

// --- spec parsing ----------------------------------------------------------

TEST(ScenarioSpecTest, UnknownKeyIsRejectedWithLine) {
  auto spec = ParseScenarioSpecText(
      "name: typo\nschema.elemnts: 100\n", "typo.scn");
  ASSERT_FALSE(spec.ok());
  EXPECT_TRUE(spec.status().IsInvalidArgument());
  EXPECT_NE(spec.status().message().find("schema.elemnts"), std::string::npos);
  EXPECT_NE(spec.status().message().find("typo.scn:2"), std::string::npos)
      << spec.status().ToString();
}

TEST(ScenarioSpecTest, OutOfRangeValuesAreRejected) {
  EXPECT_FALSE(
      ParseScenarioSpecText("schema.max_depth: 1\n", "t").ok());
  EXPECT_FALSE(
      ParseScenarioSpecText("instance.unit_skew: pareto\n", "t").ok());
  EXPECT_FALSE(
      ParseScenarioSpecText("schema.simple_fraction: 1.5\n", "t").ok());
  EXPECT_FALSE(ParseScenarioSpecText("bench.tier: hourly\n", "t").ok());
  // strtod accepts "nan"/"inf"; validation must still refuse them.
  EXPECT_FALSE(ParseScenarioSpecText("workload.mean_size: nan\n", "t").ok());
  EXPECT_FALSE(ParseScenarioSpecText("workload.mean_size: inf\n", "t").ok());
}

TEST(ScenarioSpecTest, CanonicalSerializationRoundTrips) {
  ScenarioSpec spec = SmallSpec();
  spec.unit_skew = "zipf";
  spec.zipf_s = 1.4;
  std::string text = SerializeScenarioSpec(spec);
  auto reparsed = ParseScenarioSpecText(text, "<canonical>");
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(SerializeScenarioSpec(*reparsed), text);
  EXPECT_EQ(reparsed->name, "small");
  EXPECT_EQ(reparsed->unit_skew, "zipf");
}

TEST(ScenarioSpecTest, SeedsRoundTripOverTheFullUint64Range) {
  for (uint64_t seed : {uint64_t{17047933420626727101u}, UINT64_MAX}) {
    ScenarioSpec spec = SmallSpec();
    spec.seed = seed;
    spec.mutate_seed = seed;
    const std::string text = SerializeScenarioSpec(spec);
    auto reparsed = ParseScenarioSpecText(text, "<canonical>");
    ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
    EXPECT_EQ(reparsed->seed, seed);
    EXPECT_EQ(reparsed->mutate_seed, seed);
    EXPECT_EQ(SerializeScenarioSpec(*reparsed), text);
  }
  for (const char* bad : {"-1", "18446744073709551616"}) {
    auto spec = ParseScenarioSpecText(
        std::string("mutate.seed: ") + bad + "\n", "t");
    EXPECT_TRUE(spec.status().IsInvalidArgument()) << bad;
  }
}

TEST(ScenarioSpecTest, FingerprintStableAcrossRunsSensitiveToKnobs) {
  ScenarioSpec spec = SmallSpec();
  Fingerprint a = ScenarioFingerprint(spec);
  Fingerprint b = ScenarioFingerprint(spec);
  EXPECT_EQ(a, b);
  ScenarioSpec other = spec;
  other.seed = 8;
  EXPECT_FALSE(a == ScenarioFingerprint(other));
  other = spec;
  other.set_mean = 3.5;
  EXPECT_FALSE(a == ScenarioFingerprint(other));
}

// --- generation ------------------------------------------------------------

TEST(ScenarioDatasetTest, SameSeedBitIdenticalSchemaStreamWorkload) {
  ScenarioSpec spec = SmallSpec();
  auto a = ScenarioDataset::Make(spec);
  auto b = ScenarioDataset::Make(spec);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(SerializeSchema(a->schema()), SerializeSchema(b->schema()));

  auto da = DigestInstanceStream(*a->MakeStream());
  auto db = DigestInstanceStream(*b->MakeStream());
  ASSERT_TRUE(da.ok() && db.ok());
  EXPECT_EQ(*da, *db);

  auto ann_a = AnnotateSchema(*a->MakeStream());
  auto ann_b = AnnotateSchema(*b->MakeStream());
  ASSERT_TRUE(ann_a.ok() && ann_b.ok());
  EXPECT_EQ(*ann_a, *ann_b);

  auto wa = a->Queries(*ann_a);
  auto wb = b->Queries(*ann_b);
  ASSERT_TRUE(wa.ok() && wb.ok());
  EXPECT_EQ(SerializeWorkload(a->schema(), *wa),
            SerializeWorkload(b->schema(), *wb));
}

TEST(ScenarioDatasetTest, SeedChangesTheInstance) {
  ScenarioSpec spec = SmallSpec();
  ScenarioSpec other = spec;
  other.seed = 8;
  auto a = ScenarioDataset::Make(spec);
  auto b = ScenarioDataset::Make(other);
  ASSERT_TRUE(a.ok() && b.ok());
  auto da = DigestInstanceStream(*a->MakeStream());
  auto db = DigestInstanceStream(*b->MakeStream());
  ASSERT_TRUE(da.ok() && db.ok());
  EXPECT_FALSE(*da == *db);
}

TEST(ScenarioDatasetTest, ShardedAnnotationMatchesSerialAtAnyShardCount) {
  for (const char* skew : {"uniform", "zipf"}) {
    ScenarioSpec spec = SmallSpec();
    spec.unit_skew = skew;
    auto ds = ScenarioDataset::Make(spec);
    ASSERT_TRUE(ds.ok()) << ds.status().ToString();
    auto serial = AnnotateSchema(*ds->MakeStream());
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();
    auto source = ds->MakeShardedSource();
    EXPECT_EQ(source->NumUnits(), spec.instance_units);
    for (uint64_t shards : {1, 2, 7, 64}) {
      ShardedAnnotateOptions opts;
      opts.shards = shards;
      auto sharded = AnnotateSchemaSharded(*source, opts);
      ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
      EXPECT_EQ(*sharded, *serial) << skew << " shards=" << shards;
    }
  }
}

TEST(ScenarioDatasetTest, RespectsStructuralKnobs) {
  ScenarioSpec spec = SmallSpec();
  spec.schema_elements = 120;
  spec.max_depth = 5;
  spec.choice_fraction = 0.3;
  spec.simple_fraction = 0.4;
  auto ds = ScenarioDataset::Make(spec);
  ASSERT_TRUE(ds.ok());
  const SchemaGraph& g = ds->schema();
  EXPECT_GE(g.size(), spec.schema_elements);
  size_t choices = 0;
  for (ElementId e = 0; e < g.size(); ++e) {
    EXPECT_LE(g.depth(e), spec.max_depth);
    if (g.type(e).kind == TypeKind::kChoice) {
      ++choices;
      // Every Choice can instantiate a branch (conformance requires one).
      EXPECT_FALSE(g.children(e).empty()) << g.PathOf(e);
    }
  }
  EXPECT_GT(choices, 0u);
  // Entity classes are SetOf Rcd children of the root.
  ASSERT_EQ(g.children(g.root()).size(), spec.entity_classes);
  for (ElementId c : g.children(g.root())) {
    EXPECT_TRUE(g.type(c).set_of);
    EXPECT_EQ(g.type(c).kind, TypeKind::kRcd);
  }
}

TEST(ScenarioDatasetTest, InstancesConformToTheSchema) {
  ScenarioSpec spec = SmallSpec();
  spec.instance_units = 40;
  auto ds = ScenarioDataset::Make(spec);
  ASSERT_TRUE(ds.ok());
  auto tree = MaterializeToDataTree(*ds->MakeStream());
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  EXPECT_TRUE(CheckConformance(*tree).ok());
}

TEST(ScenarioDatasetTest, AnnotationTotalsMatchTheStream) {
  ScenarioSpec spec = SmallSpec();
  auto ds = ScenarioDataset::Make(spec);
  ASSERT_TRUE(ds.ok());
  CountingVisitor counter;
  ASSERT_TRUE(ds->MakeStream()->Accept(&counter).ok());
  auto ann = AnnotateSchema(*ds->MakeStream());
  ASSERT_TRUE(ann.ok());
  EXPECT_EQ(ann->TotalNodes(), counter.nodes());
  EXPECT_GT(counter.references(), 0u);
}

TEST(ScenarioDatasetTest, ZipfSkewsUnitsAcrossClasses) {
  ScenarioSpec spec = SmallSpec();
  spec.unit_skew = "zipf";
  spec.zipf_s = 1.5;
  auto ds = ScenarioDataset::Make(spec);
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->NumUnits(), spec.instance_units);
  // Class 0 holds the largest extent under zipf weights; compare its
  // cardinality against the last class through the annotations.
  auto ann = AnnotateSchema(*ds->MakeStream());
  ASSERT_TRUE(ann.ok());
  const auto& roots = ds->schema().children(ds->schema().root());
  EXPECT_GT(ann->card(roots.front()), ann->card(roots.back()));
}

TEST(ScenarioDatasetTest, LoadScenarioProducesAFullBundle) {
  ScenarioSpec spec = SmallSpec();
  auto bundle = LoadScenario(spec);
  ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();
  EXPECT_EQ(bundle->name, "scenario:small");
  EXPECT_EQ(bundle->paper_summary_size, spec.summary_k);
  EXPECT_EQ(bundle->workload.size(), spec.queries);
  EXPECT_GT(bundle->data_elements, spec.instance_units);
  EXPECT_EQ(bundle->annotations.num_elements(), bundle->schema.size());
}

}  // namespace
}  // namespace ssum
