// Thread-count determinism for the batched walk engine: AffinityMatrix and
// CoverageMatrix (which now run lane blocks of MaxProductWalksBatch under
// ParallelFor) must produce byte-identical matrices at every thread count,
// and the batched kernel must reproduce the scalar walk bit for bit on the
// real evaluation schemas. Labeled `parallel` so the TSAN CI stage replays
// it under the race detector.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "core/affinity.h"
#include "core/coverage.h"
#include "core/path_engine.h"
#include "datasets/mimi.h"
#include "datasets/tpch.h"
#include "datasets/xmark.h"
#include "stats/annotate.h"

namespace ssum {
namespace {

struct SchemaUnderTest {
  std::string name;
  SchemaGraph schema;
  Annotations ann;
};

std::vector<SchemaUnderTest> EvaluationSchemas() {
  std::vector<SchemaUnderTest> out;
  {
    XMarkParams p;
    p.sf = 0.01;
    XMarkDataset ds(p);
    auto stream = ds.MakeStream();
    out.push_back({"XMark", ds.schema(), *AnnotateSchema(*stream)});
  }
  {
    TpchParams p;
    p.sf = 0.01;
    TpchDataset ds(p);
    auto stream = ds.MakeStream();
    out.push_back({"TPC-H", ds.schema(), *AnnotateSchema(*stream)});
  }
  {
    MimiParams p;
    p.scale = 0.01;
    MimiDataset ds(p);
    auto stream = ds.MakeStream();
    out.push_back({"MiMI", ds.schema(), *AnnotateSchema(*stream)});
  }
  return out;
}

bool SameBytes(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(WalkBatchTest, BatchedRowsMatchScalarOnEvaluationSchemas) {
  for (const SchemaUnderTest& s : EvaluationSchemas()) {
    const EdgeMetrics metrics = EdgeMetrics::Compute(s.schema, s.ann);
    const WalkPlan plan = WalkPlan::Build(s.schema, metrics.edge_affinity);
    const size_t n = s.schema.size();
    WalkSearchOptions walk;
    walk.divide_by_steps = true;

    std::vector<double> batched(n * n);
    std::vector<ElementId> sources(n);
    std::vector<std::span<double>> rows(n);
    for (ElementId src = 0; src < n; ++src) {
      sources[src] = src;
      rows[src] = {batched.data() + src * n, n};
    }
    MaxProductWalksBatch(plan, sources, walk, rows);

    for (ElementId src = 0; src < n; ++src) {
      const std::vector<double> ref =
          MaxProductWalks(s.schema, metrics.edge_affinity, src, walk);
      ASSERT_EQ(0, std::memcmp(batched.data() + src * n, ref.data(),
                               n * sizeof(double)))
          << s.name << " source " << src;
    }
  }
}

TEST(WalkBatchTest, AffinityMatrixIsThreadCountInvariant) {
  for (const SchemaUnderTest& s : EvaluationSchemas()) {
    const EdgeMetrics metrics = EdgeMetrics::Compute(s.schema, s.ann);
    ParallelOptions t1;
    t1.threads = 1;
    const auto ref = AffinityMatrix::TryCompute(s.schema, metrics, {}, t1);
    for (uint32_t threads : {2u, 8u}) {
      ParallelOptions tn;
      tn.threads = threads;
      const auto got = AffinityMatrix::TryCompute(s.schema, metrics, {}, tn);
      EXPECT_TRUE(SameBytes(got->matrix().data(), ref->matrix().data()))
          << s.name << " at " << threads << " threads";
    }
  }
}

TEST(WalkBatchTest, CoverageMatrixIsThreadCountInvariant) {
  for (const SchemaUnderTest& s : EvaluationSchemas()) {
    const EdgeMetrics metrics = EdgeMetrics::Compute(s.schema, s.ann);
    ParallelOptions t1;
    t1.threads = 1;
    const auto ref =
        CoverageMatrix::TryCompute(s.schema, s.ann, metrics, {}, t1);
    for (uint32_t threads : {2u, 8u}) {
      ParallelOptions tn;
      tn.threads = threads;
      const auto got =
          CoverageMatrix::TryCompute(s.schema, s.ann, metrics, {}, tn);
      EXPECT_TRUE(SameBytes(got->matrix().data(), ref->matrix().data()))
          << s.name << " at " << threads << " threads";
    }
  }
}

TEST(WalkBatchTest, RepeatedAndUnorderedSourcesAreIndependent) {
  // The batch API allows arbitrary source lists; each output row depends
  // only on its own source, not on its lane neighbors.
  MimiParams p;
  p.scale = 0.01;
  MimiDataset ds(p);
  auto stream = ds.MakeStream();
  const Annotations ann = *AnnotateSchema(*stream);
  const EdgeMetrics metrics = EdgeMetrics::Compute(ds.schema(), ann);
  const WalkPlan plan = WalkPlan::Build(ds.schema(), metrics.edge_affinity);
  const size_t n = ds.schema().size();
  WalkSearchOptions walk;
  walk.divide_by_steps = true;

  std::vector<ElementId> sources = {0, 5, 5, 3, 0, 9, 7, 5, 1, 2, 3};
  for (ElementId& s : sources) s = s % n;
  std::vector<double> out(sources.size() * n);
  std::vector<std::span<double>> rows(sources.size());
  for (size_t i = 0; i < sources.size(); ++i) {
    rows[i] = {out.data() + i * n, n};
  }
  MaxProductWalksBatch(plan, sources, walk, rows);
  for (size_t i = 0; i < sources.size(); ++i) {
    const std::vector<double> ref =
        MaxProductWalks(ds.schema(), metrics.edge_affinity, sources[i], walk);
    EXPECT_EQ(0, std::memcmp(rows[i].data(), ref.data(), n * sizeof(double)))
        << "batch slot " << i << " source " << sources[i];
  }
}

}  // namespace
}  // namespace ssum
