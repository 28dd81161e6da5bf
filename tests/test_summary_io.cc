#include <gtest/gtest.h>

#include "core/summarize.h"
#include "core/summary_io.h"
#include "datasets/mimi.h"
#include "stats/annotate.h"
#include "temp_dir.h"

namespace ssum {
namespace {

struct Fixture {
  MimiDataset ds;
  Annotations ann;
  SchemaSummary summary;

  Fixture() : ds(SmallParams()), ann(*AnnotateSchema(*ds.MakeStream())) {
    summary = *Summarize(ds.schema(), ann, 8);
  }

  static MimiParams SmallParams() {
    MimiParams p;
    p.scale = 0.002;
    return p;
  }
};

TEST(SummaryIoTest, RoundTrip) {
  Fixture f;
  std::string text = SerializeSummary(f.summary);
  auto parsed = ParseSummary(f.ds.schema(), text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->abstract_elements, f.summary.abstract_elements);
  EXPECT_EQ(parsed->representative, f.summary.representative);
  EXPECT_EQ(parsed->links.size(), f.summary.links.size());
  EXPECT_TRUE(ValidateSummary(*parsed).ok());
}

TEST(SummaryIoTest, RejectsMalformedInput) {
  Fixture f;
  const SchemaGraph& g = f.ds.schema();
  EXPECT_TRUE(ParseSummary(g, "").status().IsParseError());
  EXPECT_TRUE(ParseSummary(g, "bogus\n").status().IsParseError());
  EXPECT_TRUE(ParseSummary(g, "ssum-summary v1\na\t999999\n")
                  .status().IsParseError());
  EXPECT_TRUE(ParseSummary(g, "ssum-summary v1\nz\t1\n")
                  .status().IsParseError());
  // Total map missing -> rejected.
  EXPECT_FALSE(ParseSummary(g, "ssum-summary v1\na\t2\n").ok());
  // Map referencing non-abstract representative -> Definition 2 violation.
  std::string text = SerializeSummary(f.summary);
  std::string corrupted = text;
  size_t pos = corrupted.rfind("m\t");
  corrupted = corrupted.substr(0, pos);  // drop the last mapping line
  EXPECT_FALSE(ParseSummary(g, corrupted).ok());
}

TEST(SummaryIoTest, FileRoundTrip) {
  Fixture f;
  std::string path = TestTempDir() + "/summary.txt";
  ASSERT_TRUE(WriteSummaryFile(f.summary, path).ok());
  auto loaded = ReadSummaryFile(f.ds.schema(), path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->abstract_elements, f.summary.abstract_elements);
  EXPECT_FALSE(ReadSummaryFile(f.ds.schema(), "/no/such/file").ok());
}

TEST(SummaryIoTest, DotExportMentionsGroupsAndLinks) {
  Fixture f;
  std::string dot = ExportSummaryDot(f.summary, "mimi-summary");
  EXPECT_NE(dot.find("digraph \"mimi-summary\""), std::string::npos);
  // Every abstract element appears with its group size annotation.
  for (ElementId a : f.summary.abstract_elements) {
    EXPECT_NE(dot.find(f.ds.schema().label(a)), std::string::npos);
  }
  EXPECT_NE(dot.find("elements)"), std::string::npos);
  EXPECT_NE(dot.find("->"), std::string::npos);
}

}  // namespace
}  // namespace ssum
