#include <gtest/gtest.h>

#include "schema/dot_export.h"
#include "schema/schema_builder.h"
#include "schema/schema_graph.h"
#include "schema/schema_io.h"
#include "schema/type.h"
#include "schema/validate.h"
#include "temp_dir.h"

namespace ssum {
namespace {

SchemaGraph TinyAuction() {
  // A miniature of the paper's running example.
  SchemaBuilder b("site");
  ElementId people = b.Rcd(b.Root(), "people");
  ElementId person = b.SetRcd(people, "person");
  ElementId person_id = b.Attr(person, "id", AtomicKind::kId);
  b.Simple(person, "name");
  ElementId auctions = b.Rcd(b.Root(), "open_auctions");
  ElementId auction = b.SetRcd(auctions, "open_auction");
  ElementId bidder = b.SetRcd(auction, "bidder");
  ElementId bidder_person = b.Attr(bidder, "person", AtomicKind::kIdRef);
  b.Link(bidder, person, bidder_person, person_id);
  return std::move(b).Build();
}

TEST(TypeTest, RoundTrip) {
  for (const char* text :
       {"Rcd", "Choice", "SetOf Rcd", "SetOf Choice", "Simple(str)",
        "Simple(int)", "SetOf Simple(idref)", "Abstract Rcd",
        "Abstract SetOf Rcd"}) {
    ElementType t;
    ASSERT_TRUE(TypeFromString(text, &t)) << text;
    EXPECT_EQ(TypeToString(t), text);
  }
  ElementType t;
  EXPECT_FALSE(TypeFromString("Record", &t));
  EXPECT_FALSE(TypeFromString("Simple(bogus)", &t));
  EXPECT_FALSE(TypeFromString("SetOf", &t));
}

TEST(SchemaGraphTest, RootOnlyConstruction) {
  SchemaGraph g("db");
  EXPECT_EQ(g.size(), 1u);
  EXPECT_EQ(g.root(), 0u);
  EXPECT_EQ(g.label(g.root()), "db");
  EXPECT_EQ(g.parent(g.root()), kInvalidElement);
  EXPECT_EQ(g.depth(g.root()), 0u);
}

TEST(SchemaGraphTest, AddElementLinksParentAndChild) {
  SchemaGraph g("r");
  auto a = g.AddElement(g.root(), "a", ElementType::Rcd());
  ASSERT_TRUE(a.ok());
  auto b = g.AddElement(*a, "b", ElementType::Simple());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(g.parent(*b), *a);
  EXPECT_EQ(g.depth(*b), 2u);
  EXPECT_EQ(g.children(*a), std::vector<ElementId>{*b});
  ASSERT_EQ(g.structural_links().size(), 2u);
  EXPECT_EQ(g.structural_links()[g.parent_link(*b)].parent, *a);
  // Adjacency is mirrored.
  ASSERT_EQ(g.neighbors(*b).size(), 1u);
  EXPECT_EQ(g.neighbors(*b)[0].other, *a);
  EXPECT_FALSE(g.neighbors(*b)[0].forward);
}

TEST(SchemaGraphTest, RejectsBadElements) {
  SchemaGraph g("r");
  EXPECT_TRUE(g.AddElement(99, "x", ElementType::Rcd()).status()
                  .IsInvalidArgument());
  auto leaf = g.AddElement(g.root(), "leaf", ElementType::Simple());
  ASSERT_TRUE(leaf.ok());
  EXPECT_FALSE(g.AddElement(*leaf, "child", ElementType::Rcd()).ok());
  EXPECT_FALSE(g.AddElement(g.root(), "", ElementType::Rcd()).ok());
}

TEST(SchemaGraphTest, RejectsBadValueLinks) {
  SchemaGraph g = TinyAuction();
  ElementId person = *g.FindFirstByLabel("person");
  EXPECT_FALSE(g.AddValueLink(person, person).ok());  // self link
  EXPECT_FALSE(g.AddValueLink(person, 9999).ok());
  EXPECT_FALSE(g.AddValueLink(person, g.root(), 9999).ok());
}

TEST(SchemaGraphTest, PathsResolve) {
  SchemaGraph g = TinyAuction();
  auto person = g.FindPath("site/people/person");
  ASSERT_TRUE(person.ok());
  EXPECT_EQ(g.PathOf(*person), "site/people/person");
  // Root label prefix is optional.
  EXPECT_EQ(*g.FindPath("people/person"), *person);
  EXPECT_TRUE(g.FindPath("people/nobody").status().IsNotFound());
  EXPECT_EQ(*g.FindPath("site"), g.root());
}

TEST(SchemaGraphTest, FindByLabel) {
  SchemaGraph g = TinyAuction();
  EXPECT_EQ(g.FindByLabel("person").size(), 1u);
  EXPECT_EQ(g.FindByLabel("@person").size(), 1u);
  EXPECT_TRUE(g.FindFirstByLabel("missing").status().IsNotFound());
}

TEST(SchemaGraphTest, AncestryAndSubtree) {
  SchemaGraph g = TinyAuction();
  ElementId people = *g.FindPath("site/people");
  ElementId person = *g.FindPath("site/people/person");
  ElementId bidder = *g.FindFirstByLabel("bidder");
  EXPECT_TRUE(g.IsStructuralAncestor(people, person));
  EXPECT_TRUE(g.IsStructuralAncestor(g.root(), bidder));
  EXPECT_TRUE(g.IsStructuralAncestor(person, person));
  EXPECT_FALSE(g.IsStructuralAncestor(person, people));
  EXPECT_FALSE(g.IsStructuralAncestor(people, bidder));
  std::vector<ElementId> sub = g.Subtree(people);
  EXPECT_EQ(sub.size(), 4u);  // people, person, @id, name
  EXPECT_EQ(sub.front(), people);
}

TEST(SchemaGraphTest, ValueLinkSemanticEndpoints) {
  SchemaGraph g = TinyAuction();
  ASSERT_EQ(g.value_links().size(), 1u);
  const ValueLink& v = g.value_links()[0];
  EXPECT_EQ(g.label(v.referrer), "bidder");
  EXPECT_EQ(g.label(v.referee), "person");
  EXPECT_EQ(g.label(v.referrer_field), "@person");
  EXPECT_EQ(g.label(v.referee_field), "@id");
}

TEST(SchemaIoTest, RoundTrip) {
  SchemaGraph g = TinyAuction();
  std::string text = SerializeSchema(g);
  auto parsed = ParseSchema(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->size(), g.size());
  EXPECT_EQ(SerializeSchema(*parsed), text);
  for (ElementId e = 0; e < g.size(); ++e) {
    EXPECT_EQ(parsed->label(e), g.label(e));
    EXPECT_EQ(parsed->type(e), g.type(e));
    EXPECT_EQ(parsed->parent(e), g.parent(e));
  }
  EXPECT_EQ(parsed->value_links().size(), g.value_links().size());
}

TEST(SchemaIoTest, RejectsMalformedInput) {
  EXPECT_TRUE(ParseSchema("").status().IsParseError());
  EXPECT_TRUE(ParseSchema("bogus header\n").status().IsParseError());
  EXPECT_TRUE(ParseSchema("ssum-schema v1\n").status().IsParseError());
  EXPECT_TRUE(
      ParseSchema("ssum-schema v1\ne\t0\t-\tRcd\n").status().IsParseError());
  EXPECT_TRUE(ParseSchema("ssum-schema v1\ne\t1\t-\tRcd\troot\n")
                  .status()
                  .IsParseError());
  EXPECT_TRUE(ParseSchema("ssum-schema v1\nz\t0\t-\tRcd\troot\n")
                  .status()
                  .IsParseError());
  // Non-dense ids.
  EXPECT_FALSE(ParseSchema("ssum-schema v1\n"
                           "e\t0\t-\tRcd\troot\n"
                           "e\t5\t0\tRcd\tx\n")
                   .ok());
}

TEST(SchemaIoTest, FileRoundTrip) {
  SchemaGraph g = TinyAuction();
  std::string path = TestTempDir() + "/schema_roundtrip.ssg";
  ASSERT_TRUE(WriteSchemaFile(g, path).ok());
  auto loaded = ReadSchemaFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->size(), g.size());
  EXPECT_TRUE(ReadSchemaFile("/nonexistent/nope").status().code() ==
              StatusCode::kIoError);
}

TEST(ValidateTest, AcceptsWellFormed) {
  EXPECT_TRUE(ValidateSchemaGraph(TinyAuction()).ok());
  EXPECT_TRUE(ValidateSchemaGraph(TinyAuction(), /*strict=*/true).ok());
}

TEST(ValidateTest, StrictRejectsChildlessInterior) {
  SchemaGraph g("r");
  ASSERT_TRUE(g.AddElement(g.root(), "empty", ElementType::Rcd()).ok());
  EXPECT_TRUE(ValidateSchemaGraph(g).ok());
  EXPECT_TRUE(ValidateSchemaGraph(g, /*strict=*/true)
                  .IsFailedPrecondition());
}

TEST(ValidateTest, RejectsValueLinkOnRoot) {
  SchemaGraph g("r");
  ElementId a = *g.AddElement(g.root(), "a", ElementType::Rcd());
  ASSERT_TRUE(g.AddValueLink(a, g.root()).ok());  // graph API allows it...
  EXPECT_TRUE(ValidateSchemaGraph(g).IsFailedPrecondition());  // ...validation rejects
}

TEST(ValidateTest, RejectsCarrierOutsideSubtree) {
  SchemaGraph g("r");
  ElementId a = *g.AddElement(g.root(), "a", ElementType::Rcd());
  ElementId b = *g.AddElement(g.root(), "b", ElementType::Rcd());
  ElementId bf = *g.AddElement(b, "bf", ElementType::Simple());
  ASSERT_TRUE(g.AddValueLink(a, b, /*referrer_field=*/bf).ok());
  EXPECT_TRUE(ValidateSchemaGraph(g).IsFailedPrecondition());
}

TEST(DotExportTest, MarksConventions) {
  SchemaGraph g = TinyAuction();
  DotOptions opts;
  opts.graph_name = "tiny";
  std::string dot = ExportDot(g, opts);
  EXPECT_NE(dot.find("digraph \"tiny\""), std::string::npos);
  EXPECT_NE(dot.find("person*"), std::string::npos);      // SetOf marker
  EXPECT_NE(dot.find("[style=dashed]"), std::string::npos);  // value link
}

TEST(DotExportTest, DepthAndSimpleFilters) {
  SchemaGraph g = TinyAuction();
  DotOptions opts;
  opts.max_depth = 1;
  std::string dot = ExportDot(g, opts);
  EXPECT_EQ(dot.find("person"), std::string::npos);
  opts.max_depth = 0xffffffff;
  opts.hide_simple = true;
  dot = ExportDot(g, opts);
  EXPECT_EQ(dot.find("@id"), std::string::npos);
  EXPECT_NE(dot.find("person"), std::string::npos);
}

}  // namespace
}  // namespace ssum
