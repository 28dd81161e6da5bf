// End-to-end tests of the `ssum` command-line tool, driving the real binary
// (path injected by CMake as SSUM_CLI_PATH).

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "temp_dir.h"

namespace ssum {
namespace {

std::string CliPath() { return SSUM_CLI_PATH; }

std::string TempPath(const std::string& name) {
  return TestTempDir() + "/" + name;
}

/// Runs the CLI with `args`, capturing stdout into *out; returns the exit
/// code (or -1 when the process could not run).
int RunCli(const std::string& args, std::string* out = nullptr) {
  std::string out_file = TempPath("cli_stdout.txt");
  std::string cmd = CliPath() + " " + args + " > " + out_file + " 2>/dev/null";
  int rc = std::system(cmd.c_str());
  if (out != nullptr) {
    std::ifstream in(out_file);
    std::ostringstream buf;
    buf << in.rdbuf();
    *out = buf.str();
  }
  return rc == -1 ? -1 : WEXITSTATUS(rc);
}

void WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::trunc);
  out << content;
}

constexpr const char* kXml = R"(<shop>
  <customer id="c1"><name>Ada</name></customer>
  <customer id="c2"><name>Bob</name></customer>
  <order id="o1" customer="c1"><total>10.5</total></order>
  <order id="o2" customer="c1"><total>7.5</total></order>
  <order id="o3" customer="c2"><total>1.0</total></order>
</shop>)";

TEST(CliTest, UsageOnBadInvocation) {
  EXPECT_EQ(RunCli(""), 2);
  EXPECT_EQ(RunCli("bogus-command"), 2);
  EXPECT_EQ(RunCli("summarize"), 2);  // missing arguments
}

TEST(CliTest, MalformedThreadsIsUsageError) {
  for (const char* threads : {"0", "-3", "abc"}) {
    EXPECT_EQ(RunCli(std::string("--threads ") + threads + " demo xmark -k 3"),
              2)
        << threads;
  }
  EXPECT_EQ(RunCli("demo xmark -k 3 --threads"), 2);  // missing value
}

TEST(CliTest, XmlPipeline) {
  std::string xml = TempPath("shop.xml");
  std::string ssg = TempPath("shop.ssg");
  std::string ann = TempPath("shop.ann");
  std::string summary = TempPath("shop.summary");
  WriteFile(xml, kXml);
  EXPECT_EQ(RunCli("infer " + xml + " -o " + ssg), 0);
  EXPECT_EQ(RunCli("annotate " + ssg + " " + xml + " -o " + ann), 0);
  EXPECT_EQ(RunCli("summarize " + ssg + " -k 2 -a " + ann + " -o " + summary),
            0);
  std::string discover_out;
  EXPECT_EQ(RunCli("discover " + ssg + " " + summary +
                       " shop/customer shop/customer/name",
                   &discover_out),
            0);
  EXPECT_NE(discover_out.find("with summary"), std::string::npos);
  EXPECT_NE(discover_out.find("XQuery skeleton"), std::string::npos);
}

TEST(CliTest, DotExport) {
  std::string xml = TempPath("shop2.xml");
  std::string ssg = TempPath("shop2.ssg");
  WriteFile(xml, kXml);
  ASSERT_EQ(RunCli("infer " + xml + " -o " + ssg), 0);
  std::string dot;
  EXPECT_EQ(RunCli("dot " + ssg, &dot), 0);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("customer"), std::string::npos);
  std::string shallow;
  EXPECT_EQ(RunCli("dot " + ssg + " --max-depth 1 --hide-simple", &shallow),
            0);
  EXPECT_LT(shallow.size(), dot.size());
}

TEST(CliTest, RelationalFromDdlAndCsv) {
  std::string sql = TempPath("shop.sql");
  WriteFile(sql,
            "CREATE TABLE customer (c_id INTEGER PRIMARY KEY, "
            "c_name VARCHAR(40));\n"
            "CREATE TABLE orders (o_id INTEGER PRIMARY KEY, o_cust INTEGER, "
            "FOREIGN KEY (o_cust) REFERENCES customer(c_id));\n");
  WriteFile(TempPath("customer.csv"), "c_id,c_name\n1,Ada\n2,Bob\n");
  WriteFile(TempPath("orders.csv"), "o_id,o_cust\n1,1\n2,1\n3,2\n4,2\n5,1\n");
  std::string out;
  EXPECT_EQ(RunCli("relational " + sql + " -k 2 --data " + TestTempDir(),
                   &out),
            0);
  EXPECT_NE(out.find("orders"), std::string::npos);
  EXPECT_NE(out.find("customer"), std::string::npos);
  // Uniform fallback also works.
  EXPECT_EQ(RunCli("relational " + sql + " -k 1"), 0);
  // Bad dialect rejected.
  EXPECT_NE(RunCli("relational " + sql + " -k 1 --dialect nope"), 0);
}

TEST(CliTest, ErrorsPropagateAsNonZeroExit) {
  EXPECT_NE(RunCli("infer /does/not/exist.xml"), 0);
  std::string bad = TempPath("bad.ssg");
  WriteFile(bad, "not a schema\n");
  EXPECT_NE(RunCli("summarize " + bad + " -k 3"), 0);
  EXPECT_NE(RunCli("demo unknown-dataset"), 0);
}

TEST(CliTest, DeadlineExceededExitsWithDedicatedCode) {
  std::string xml = TempPath("shop3.xml");
  std::string ssg = TempPath("shop3.ssg");
  WriteFile(xml, kXml);
  ASSERT_EQ(RunCli("infer " + xml + " -o " + ssg), 0);
  // A zero budget is already expired before any work starts: the command
  // must abort with the dedicated exit code, deterministically.
  EXPECT_EQ(RunCli("summarize " + ssg + " -k 2 --deadline-ms 0"), 5);
  EXPECT_EQ(RunCli("annotate " + ssg + " " + xml + " --deadline-ms 0"), 5);
  // A generous budget changes nothing about the result path.
  EXPECT_EQ(RunCli("summarize " + ssg + " -k 2 --deadline-ms 60000"), 0);
  // Malformed budgets are usage errors, not deadline errors.
  EXPECT_EQ(RunCli("summarize " + ssg + " -k 2 --deadline-ms -1"), 2);
  EXPECT_EQ(RunCli("summarize " + ssg + " -k 2 --deadline-ms"), 2);
}

TEST(CliTest, CacheVerifyQuarantinesCorruptContainers) {
  std::string xml = TempPath("shop4.xml");
  std::string ssg = TempPath("shop4.ssg");
  std::string cache_dir = TempPath("cli_cache");
  std::filesystem::remove_all(cache_dir);
  WriteFile(xml, kXml);
  ASSERT_EQ(RunCli("infer " + xml + " -o " + ssg), 0);
  ASSERT_EQ(
      RunCli("summarize " + ssg + " -k 2 --cache-dir " + cache_dir), 0);

  // Flip a byte in the middle of one installed container.
  std::string victim;
  for (const auto& e : std::filesystem::directory_iterator(cache_dir)) {
    if (e.path().extension() == ".ssb") {
      victim = e.path().string();
      break;
    }
  }
  ASSERT_FALSE(victim.empty()) << "summarize installed no containers";
  {
    std::ifstream in(victim, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    std::string bytes = buf.str();
    ASSERT_GT(bytes.size(), 40u);
    bytes[bytes.size() / 2] ^= 0x20;
    std::ofstream out(victim, std::ios::binary | std::ios::trunc);
    out << bytes;
  }

  // First verify: reports + quarantines the corrupt container, exit 3.
  std::string report;
  EXPECT_EQ(RunCli("cache verify --cache-dir " + cache_dir, &report), 3);
  EXPECT_NE(report.find("quarantined\t1"), std::string::npos) << report;
  EXPECT_FALSE(std::filesystem::exists(victim));

  // Second verify: the directory is clean again.
  EXPECT_EQ(RunCli("cache verify --cache-dir " + cache_dir, &report), 0);
  EXPECT_NE(report.find("corrupt\t0"), std::string::npos) << report;

  // The lifetime ledger remembers the quarantine.
  std::string stat;
  EXPECT_EQ(RunCli("cache stat --cache-dir " + cache_dir, &stat), 0);
  EXPECT_NE(stat.find("quarantined\t1"), std::string::npos) << stat;

  // A warm re-run recomputes the quarantined artifact and heals it.
  EXPECT_EQ(
      RunCli("summarize " + ssg + " -k 2 --cache-dir " + cache_dir), 0);
  EXPECT_EQ(RunCli("cache stat --cache-dir " + cache_dir, &stat), 0);
  EXPECT_NE(stat.find("healed\t"), std::string::npos) << stat;
}

}  // namespace
}  // namespace ssum
