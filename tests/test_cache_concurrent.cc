// Concurrency contract of the ArtifactCache: N threads hammering
// overlapping fingerprints with lookups, installs, and counter flushes must
// neither race (this test runs under TSAN via the `parallel` label) nor
// lose counter increments — hits + misses across all threads must add up
// exactly, and the persistent counter file must never be torn even when
// several threads flush at once.

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "instance/data_tree.h"
#include "schema/schema_builder.h"
#include "stats/annotate.h"
#include "store/artifact_cache.h"
#include "store/fingerprint.h"
#include "temp_dir.h"

namespace ssum {
namespace {

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

  /// Annotations whose counts depend on `salt`, so distinct salts key (and
  /// round-trip) distinct artifacts.
  Annotations MakeAnnotations(uint64_t salt) const {
    DataTree t(&schema);
    NodeId a_parent = *t.AddNode(t.root(), auctions);
    NodeId p_parent = *t.AddNode(t.root(), persons);
    NodeId p0 = *t.AddNode(p_parent, person);
    NodeId p1 = *t.AddNode(p_parent, person);
    NodeId a0 = *t.AddNode(a_parent, auction);
    for (uint64_t i = 0; i < 2 + salt % 5; ++i) {
      NodeId bd = *t.AddNode(a0, bidder);
      EXPECT_TRUE(t.AddReference(bids, bd, i % 2 ? p1 : p0).ok());
    }
    auto ann = AnnotateSchema(t);
    EXPECT_TRUE(ann.ok()) << ann.status().ToString();
    return std::move(*ann);
  }
};

TEST(CacheConcurrentTest, OverlappingLookupsAndInstallsCountExactly) {
  Fixture f;
  ArtifactCache cache(FreshTestSubdir("overlap"));

  // A small keyspace shared by all threads, so lookups and installs of the
  // SAME fingerprint genuinely overlap, alongside per-thread private keys.
  constexpr int kThreads = 8;
  constexpr int kSharedKeys = 4;
  constexpr int kRoundsPerThread = 25;
  std::vector<Annotations> shared;
  std::vector<Fingerprint> shared_keys;
  for (int i = 0; i < kSharedKeys; ++i) {
    shared.push_back(f.MakeAnnotations(static_cast<uint64_t>(i)));
    shared_keys.push_back(FingerprintAnnotations(shared.back()));
  }

  std::atomic<uint64_t> observed_hits{0};
  std::atomic<uint64_t> observed_misses{0};
  std::atomic<uint64_t> attempted_installs{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRoundsPerThread; ++round) {
        const int i = (t + round) % kSharedKeys;
        auto got = cache.LoadAnnotations(f.schema, shared_keys[i]);
        if (got.has_value()) {
          observed_hits.fetch_add(1);
          // A hit must be a fully verified artifact, never a torn install.
          if (!(*got == shared[i])) failures.fetch_add(1);
        } else {
          observed_misses.fetch_add(1);
          if (!cache.StoreAnnotations(shared_keys[i], shared[i]).ok()) {
            failures.fetch_add(1);
          }
          attempted_installs.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();

  EXPECT_EQ(failures.load(), 0);
  CacheCounters counters = cache.session_counters();
  // Every lookup was either a hit or a miss, and the cache saw exactly the
  // ones this test issued — no lost or double-counted increments.
  EXPECT_EQ(counters.hits, observed_hits.load());
  EXPECT_EQ(counters.misses, observed_misses.load());
  EXPECT_EQ(counters.hits + counters.misses,
            static_cast<uint64_t>(kThreads) * kRoundsPerThread);
  EXPECT_EQ(counters.installs, attempted_installs.load());
  EXPECT_EQ(counters.corrupt, 0u);
  EXPECT_EQ(counters.mismatch, 0u);

  // After the stampede every shared key is durably present.
  for (int i = 0; i < kSharedKeys; ++i) {
    auto got = cache.LoadAnnotations(f.schema, shared_keys[i]);
    ASSERT_TRUE(got.has_value()) << "key " << i << " missing after stampede";
    EXPECT_EQ(*got, shared[i]);
  }
}

TEST(CacheConcurrentTest, ConcurrentFlushesNeverTearTheCounterFile) {
  Fixture f;
  const std::string dir = FreshTestSubdir("flush");

  constexpr int kThreads = 6;
  constexpr int kRoundsPerThread = 10;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  // Each thread drives its own cache instance on the SAME directory — the
  // multi-process shape (several CLI invocations sharing a cache), where
  // the persistent counter file is the only shared state.
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ArtifactCache cache(dir);
      for (int round = 0; round < kRoundsPerThread; ++round) {
        Annotations ann =
            f.MakeAnnotations(static_cast<uint64_t>(t * 100 + round));
        Fingerprint key = FingerprintAnnotations(ann);
        (void)cache.LoadAnnotations(f.schema, key);  // miss or hit, both fine
        if (!cache.StoreAnnotations(key, ann).ok()) failures.fetch_add(1);
        if (!cache.FlushCounters().ok()) failures.fetch_add(1);
        // The counter file must parse at every instant: atomic replace,
        // never an in-place partial write.
        auto persisted = cache.ReadPersistentCounters();
        if (!persisted.ok()) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);

  // The final persistent file is readable and saw a plausible history: at
  // least one flush per thread landed (interleaved read-modify-write can
  // legally lose increments across instances, torn bytes cannot happen).
  ArtifactCache reader(dir);
  auto persisted = reader.ReadPersistentCounters();
  ASSERT_TRUE(persisted.ok()) << persisted.status().ToString();
  EXPECT_GT(persisted->installs, 0u);
}

}  // namespace
}  // namespace ssum
