#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>

#include "common/env.h"
#include "common/retry.h"
#include "core/summarize.h"
#include "instance/data_tree.h"
#include "schema/schema_builder.h"
#include "stats/annotate.h"
#include "store/codec.h"
#include "store/container.h"
#include "temp_dir.h"

namespace ssum {
namespace {

// Schema:   db -> auctions -> auction* -> bidder*
//           db -> persons -> person*
//           bidder --V--> person
struct Fixture {
  SchemaGraph schema;
  ElementId auctions, auction, bidder, persons, person;
  LinkId bids;

  Fixture() : schema(Build(this)) {}

  static SchemaGraph Build(Fixture* f) {
    SchemaBuilder b("db");
    f->auctions = b.Rcd(b.Root(), "auctions");
    f->auction = b.SetRcd(f->auctions, "auction");
    f->bidder = b.SetRcd(f->auction, "bidder");
    f->persons = b.Rcd(b.Root(), "persons");
    f->person = b.SetRcd(f->persons, "person");
    f->bids = b.Link(f->bidder, f->person);
    return std::move(b).Build();
  }

  Annotations MakeAnnotations() const {
    DataTree t(&schema);
    NodeId a_parent = *t.AddNode(t.root(), auctions);
    NodeId p_parent = *t.AddNode(t.root(), persons);
    NodeId p0 = *t.AddNode(p_parent, person);
    NodeId p1 = *t.AddNode(p_parent, person);
    NodeId a0 = *t.AddNode(a_parent, auction);
    NodeId a1 = *t.AddNode(a_parent, auction);
    for (int i = 0; i < 3; ++i) {
      NodeId bd = *t.AddNode(a0, bidder);
      EXPECT_TRUE(t.AddReference(bids, bd, i % 2 ? p1 : p0).ok());
    }
    NodeId bd = *t.AddNode(a1, bidder);
    EXPECT_TRUE(t.AddReference(bids, bd, p1).ok());
    auto ann = AnnotateSchema(t);
    EXPECT_TRUE(ann.ok()) << ann.status().ToString();
    return std::move(*ann);
  }
};

// ---------------------------------------------------------------------------
// Container basics
// ---------------------------------------------------------------------------

std::string MakeTwoSectionContainer() {
  ContainerWriter w(PayloadKind::kAnnotations);
  w.AddSection(7, "hello");
  w.AddSection(9, std::string("\x00\x01\x02", 3));
  return std::move(w).Finish();
}

TEST(ContainerTest, RoundTrip) {
  std::string bytes = MakeTwoSectionContainer();
  auto info = PeekContainer(bytes);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->format_version, kContainerFormatVersion);
  EXPECT_EQ(info->payload_kind,
            static_cast<uint32_t>(PayloadKind::kAnnotations));
  EXPECT_EQ(info->section_count, 2u);

  auto parsed = ParseContainer(bytes);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->sections.size(), 2u);
  EXPECT_EQ(parsed->sections[0].tag, 7u);
  EXPECT_EQ(parsed->sections[0].payload, "hello");
  EXPECT_EQ(parsed->sections[1].tag, 9u);
  EXPECT_EQ(parsed->sections[1].payload.size(), 3u);
  auto sec = parsed->Section(7);
  ASSERT_TRUE(sec.ok());
  EXPECT_EQ(*sec, "hello");
  EXPECT_TRUE(parsed->Section(42).status().IsNotFound());
}

TEST(ContainerTest, EmptyContainerRoundTrips) {
  std::string bytes = ContainerWriter(PayloadKind::kSummary).Finish();
  EXPECT_EQ(bytes.size(), kContainerHeaderSize + kContainerTrailerSize);
  auto parsed = ParseContainer(bytes);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(parsed->sections.empty());
}

TEST(ContainerTest, EveryByteFlipIsDetected) {
  std::string good = MakeTwoSectionContainer();
  for (size_t i = 0; i < good.size(); ++i) {
    for (unsigned char flip : {0x01, 0x80}) {
      std::string bad = good;
      bad[i] = static_cast<char>(static_cast<unsigned char>(bad[i]) ^ flip);
      auto parsed = ParseContainer(bad);
      ASSERT_FALSE(parsed.ok()) << "flip 0x" << std::hex << +flip
                                << " at byte " << std::dec << i
                                << " went undetected";
      const Status& s = parsed.status();
      // A flip may masquerade as truncation (size fields) or version skew
      // (header version bytes are only guarded by the header CRC... which
      // does cover them, so version bytes fail the CRC first). Every code
      // here is a non-crash, cache-miss classification.
      EXPECT_TRUE(s.IsDataLoss() || s.IsOutOfRange() ||
                  s.IsFailedPrecondition())
          << "byte " << i << ": " << s.ToString();
    }
  }
}

TEST(ContainerTest, EveryTruncationIsDetected) {
  std::string good = MakeTwoSectionContainer();
  for (size_t len = 0; len < good.size(); ++len) {
    auto parsed = ParseContainer(good.substr(0, len));
    ASSERT_FALSE(parsed.ok()) << "truncation to " << len << " accepted";
    const Status& s = parsed.status();
    EXPECT_TRUE(s.IsOutOfRange() || s.IsDataLoss())
        << "len " << len << ": " << s.ToString();
  }
  // Trailing garbage is also not a valid container.
  EXPECT_FALSE(ParseContainer(good + "x").ok());
}

TEST(ContainerTest, ForeignVersionPeeksButDoesNotParse) {
  ContainerWriter w(static_cast<uint32_t>(PayloadKind::kAnnotations),
                    /*format_version=*/kContainerFormatVersion + 7);
  w.AddSection(1, "future payload");
  std::string bytes = std::move(w).Finish();

  auto info = PeekContainer(bytes);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->format_version, kContainerFormatVersion + 7);

  auto parsed = ParseContainer(bytes);
  ASSERT_FALSE(parsed.ok());
  EXPECT_TRUE(parsed.status().IsFailedPrecondition())
      << parsed.status().ToString();
}

TEST(ContainerTest, BadMagicIsDataLoss) {
  std::string bytes = MakeTwoSectionContainer();
  bytes[0] = 'X';
  EXPECT_TRUE(PeekContainer(bytes).status().IsDataLoss());
  EXPECT_TRUE(ParseContainer(bytes).status().IsDataLoss());
}

TEST(ContainerTest, ErrorsCarryByteOffsets) {
  std::string good = MakeTwoSectionContainer();
  std::string bad = good;
  bad[kContainerHeaderSize + 4] ^= 0x01;  // first section's size field
  auto parsed = ParseContainer(bad);
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().ToString().find("byte"), std::string::npos)
      << parsed.status().ToString();
}

// ---------------------------------------------------------------------------
// Codecs
// ---------------------------------------------------------------------------

TEST(CodecTest, AnnotationsRoundTrip) {
  Fixture f;
  Annotations ann = f.MakeAnnotations();
  std::string bytes = EncodeAnnotations(ann);
  auto decoded = DecodeAnnotations(f.schema, bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(*decoded, ann);
  EXPECT_EQ(decoded->TotalNodes(), ann.TotalNodes());
}

TEST(CodecTest, AnnotationsShapeMismatchIsFailedPrecondition) {
  Fixture f;
  std::string bytes = EncodeAnnotations(f.MakeAnnotations());
  SchemaBuilder b("other");
  b.Rcd(b.Root(), "only-child");
  SchemaGraph other = std::move(b).Build();
  auto decoded = DecodeAnnotations(other, bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_TRUE(decoded.status().IsFailedPrecondition())
      << decoded.status().ToString();
}

TEST(CodecTest, SquareMatrixRoundTripsBitIdentically) {
  SquareMatrix m(5, 0.0);
  for (size_t r = 0; r < 5; ++r) {
    for (size_t c = 0; c < 5; ++c) {
      m.Set(r, c, 0.1 * static_cast<double>(r) -
                      3.7 * static_cast<double>(c) / 11.0);
    }
  }
  m.Set(2, 3, -0.0);
  std::string bytes = EncodeSquareMatrix(m);
  auto decoded = DecodeSquareMatrix(bytes, 5);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->size(), 5u);
  // Bit-identical, including the negative zero.
  EXPECT_EQ(0, std::memcmp(decoded->data().data(), m.data().data(),
                           m.data().size() * sizeof(double)));
}

TEST(CodecTest, SquareMatrixOrderMismatchIsFailedPrecondition) {
  std::string bytes = EncodeSquareMatrix(SquareMatrix(4, 1.0));
  EXPECT_TRUE(DecodeSquareMatrix(bytes, 5).status().IsFailedPrecondition());
  EXPECT_TRUE(DecodeSquareMatrix(bytes, 0).ok());  // 0 = accept any order
}

TEST(CodecTest, SummaryRoundTrip) {
  Fixture f;
  Annotations ann = f.MakeAnnotations();
  auto context = SummarizerContext::Make(f.schema, ann).ValueOrDie();
  auto summary = Summarize(context, 3);
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  std::string bytes = EncodeSummary(*summary);
  auto decoded = DecodeSummary(f.schema, bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->abstract_elements, summary->abstract_elements);
  EXPECT_EQ(decoded->representative, summary->representative);
  EXPECT_EQ(decoded->links.size(), summary->links.size());
}

TEST(CodecTest, SummaryForWrongSchemaFailsGracefully) {
  Fixture f;
  Annotations ann = f.MakeAnnotations();
  auto context = SummarizerContext::Make(f.schema, ann).ValueOrDie();
  auto summary = Summarize(context, 3);
  ASSERT_TRUE(summary.ok());
  std::string bytes = EncodeSummary(*summary);
  SchemaBuilder b("tiny");
  SchemaGraph tiny = std::move(b).Build();
  auto decoded = DecodeSummary(tiny, bytes);
  EXPECT_FALSE(decoded.ok());
}

// Corruption injection through the *codec* layer: every single-byte flip of
// every artifact kind must surface as a Status, never a crash. (Byte flips
// in section payloads are caught by the section CRC as DataLoss; flips in
// the envelope may classify as truncation or skew — all non-crash misses.)
template <typename DecodeFn>
void ExpectEveryFlipFails(const std::string& good, DecodeFn decode) {
  for (size_t i = 0; i < good.size(); ++i) {
    std::string bad = good;
    bad[i] = static_cast<char>(static_cast<unsigned char>(bad[i]) ^ 0x40);
    const Status s = decode(bad);
    ASSERT_FALSE(s.ok()) << "flip at byte " << i << " went undetected";
    EXPECT_TRUE(s.IsDataLoss() || s.IsOutOfRange() || s.IsFailedPrecondition())
        << "byte " << i << ": " << s.ToString();
  }
  for (size_t len = 0; len < good.size(); ++len) {
    const Status s = decode(good.substr(0, len));
    ASSERT_FALSE(s.ok()) << "truncation to " << len << " accepted";
  }
}

TEST(CodecTest, AnnotationsSurviveArbitraryCorruption) {
  Fixture f;
  std::string good = EncodeAnnotations(f.MakeAnnotations());
  ExpectEveryFlipFails(good, [&f](const std::string& bytes) {
    return DecodeAnnotations(f.schema, bytes).status();
  });
}

TEST(CodecTest, MatrixSurvivesArbitraryCorruption) {
  std::string good = EncodeSquareMatrix(SquareMatrix(3, 0.5));
  ExpectEveryFlipFails(good, [](const std::string& bytes) {
    return DecodeSquareMatrix(bytes, 3).status();
  });
}

TEST(CodecTest, SummarySurvivesArbitraryCorruption) {
  Fixture f;
  Annotations ann = f.MakeAnnotations();
  auto context = SummarizerContext::Make(f.schema, ann).ValueOrDie();
  auto summary = Summarize(context, 3);
  ASSERT_TRUE(summary.ok());
  std::string good = EncodeSummary(*summary);
  ExpectEveryFlipFails(good, [&f](const std::string& bytes) {
    return DecodeSummary(f.schema, bytes).status();
  });
}

// ---------------------------------------------------------------------------
// Atomic file I/O
// ---------------------------------------------------------------------------

TEST(ContainerTest, AtomicWriteReadBack) {
  std::string dir = TestTempDir();
  std::string path = dir + "/ssum_store_test.ssb";
  std::string bytes = MakeTwoSectionContainer();
  ASSERT_TRUE(AtomicWriteFile(path, bytes).ok());
  auto read = ReadFileBytes(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(*read, bytes);
  // Overwrite is atomic too.
  std::string bytes2 = ContainerWriter(PayloadKind::kSummary).Finish();
  ASSERT_TRUE(AtomicWriteFile(path, bytes2).ok());
  EXPECT_EQ(*ReadFileBytes(path), bytes2);
}

TEST(ContainerTest, ReadMissingFileIsNotFound) {
  auto read = ReadFileBytes(TestTempDir() + "/ssum_no_such_file.ssb");
  EXPECT_TRUE(read.status().IsNotFound()) << read.status().ToString();
}

// ---------------------------------------------------------------------------
// Crash-consistency sweep: fail AtomicWriteFile at *every* IO step and
// check the invariant — the final path holds the complete old bytes, the
// complete new bytes, or nothing. Never a torn container.
// ---------------------------------------------------------------------------

void ExpectOldNewOrMissing(const std::string& path, const std::string& old_b,
                           const std::string& new_b, const std::string& what) {
  auto read = ReadFileBytes(path);
  if (read.status().IsNotFound()) return;  // clean miss is legal
  ASSERT_TRUE(read.ok()) << what << ": " << read.status().ToString();
  EXPECT_TRUE(*read == old_b || *read == new_b)
      << what << " left " << read->size() << " unexpected bytes at the final "
      << "path (old=" << old_b.size() << "B new=" << new_b.size() << "B)";
}

TEST(CrashSweepTest, EveryFaultPointLeavesOldNewOrNothing) {
  const std::string old_bytes = MakeTwoSectionContainer();
  std::string new_bytes;
  {
    ContainerWriter w(PayloadKind::kAnnotations);
    w.AddSection(7, "replacement payload with different length");
    new_bytes = std::move(w).Finish();
  }

  // Trace one clean install to learn the op sequence, then replay it once
  // per op index with a permanent fault at that index (crash semantics:
  // every later op also fails, so no cleanup runs and tmp residue
  // survives — exactly what a power cut leaves behind).
  FaultInjectingEnv probe(Env::Default());
  {
    std::string dir = FreshTestSubdir("probe");
    ASSERT_TRUE(AtomicWriteFile(&probe, dir + "/k.ssb", new_bytes).ok());
  }
  const size_t fault_points = probe.total_ops();
  ASSERT_GE(fault_points, 6u);  // open write flush sync rename syncdir

  for (size_t crash_at = 0; crash_at < fault_points; ++crash_at) {
    const std::string what =
        "crash at op " + std::to_string(crash_at) + " (" +
        FaultOpName(probe.history()[crash_at]) + ")";
    for (bool preexisting : {false, true}) {
      std::string dir =
          FreshTestSubdir("at" + std::to_string(crash_at) +
                          (preexisting ? "_old" : "_fresh"));
      std::string path = dir + "/k.ssb";
      if (preexisting) {
        ASSERT_TRUE(AtomicWriteFile(path, old_bytes).ok());
      }
      FaultInjectingEnv env(Env::Default());
      env.FailAtOpIndex(crash_at, FaultKind::kEio);
      Status st = AtomicWriteFile(&env, path, new_bytes);
      EXPECT_TRUE(st.IsIoError()) << what << ": " << st.ToString();
      ExpectOldNewOrMissing(path, preexisting ? old_bytes : "", new_bytes,
                            what);
      // Whatever survived at the final path must be a parseable container
      // or absent — the reader never sees a torn write at the final path.
      auto read = ReadFileBytes(path);
      if (read.ok()) {
        EXPECT_TRUE(ParseContainer(*read).ok()) << what;
      }
    }
  }
}

TEST(CrashSweepTest, TornWritesNeverReachTheFinalPath) {
  const std::string old_bytes = MakeTwoSectionContainer();
  ContainerWriter w(PayloadKind::kAnnotations);
  w.AddSection(3, "torn sweep payload");
  const std::string new_bytes = std::move(w).Finish();

  // Tear the single data write at every byte offset. The torn prefix may
  // land in the *tmp* file, but rename never runs, so the final path keeps
  // the old artifact bit-identically.
  for (uint64_t keep = 0; keep <= new_bytes.size(); keep += 7) {
    std::string dir = FreshTestSubdir("torn" + std::to_string(keep));
    std::string path = dir + "/k.ssb";
    ASSERT_TRUE(AtomicWriteFile(path, old_bytes).ok());
    FaultInjectingEnv env(Env::Default());
    env.ScheduleFault({FaultOp::kWrite, 1, FaultKind::kTorn, keep,
                       /*transient=*/false});
    EXPECT_FALSE(AtomicWriteFile(&env, path, new_bytes).ok());
    auto read = ReadFileBytes(path);
    ASSERT_TRUE(read.ok()) << "keep=" << keep;
    EXPECT_EQ(*read, old_bytes) << "keep=" << keep;
  }
}

TEST(CrashSweepTest, TransientFaultsHealUnderRetry) {
  const std::string bytes = MakeTwoSectionContainer();
  // One transient fault per op kind of the install path: a single retry
  // must produce a bit-identical artifact.
  for (const char* spec :
       {"open#1=eio~", "write#1=eio~", "write#1=torn:5~", "flush#1=eio~",
        "sync#1=enospc~", "rename#1=eio~", "syncdir#1=eio~"}) {
    std::string dir = FreshTestSubdir(
        "heal_" + std::to_string(std::string(spec).find('#')) +
        std::string(spec).substr(0, 4));
    std::string path = dir + "/k.ssb";
    FaultInjectingEnv env(Env::Default());
    ASSERT_TRUE(env.LoadSchedule(spec).ok()) << spec;
    RetryPolicy policy;
    policy.sleeper = [](uint64_t) {};
    Status st = RunWithRetry(policy, "install", [&]() {
      return AtomicWriteFile(&env, path, bytes);
    });
    EXPECT_TRUE(st.ok()) << spec << ": " << st.ToString();
    auto read = ReadFileBytes(path);
    ASSERT_TRUE(read.ok()) << spec;
    EXPECT_EQ(*read, bytes) << spec;
  }
}

}  // namespace
}  // namespace ssum
