// Sharded-annotation benchmark: wall-clock speedup of AnnotateSchemaSharded
// versus thread count on XMark (sf 0.05 and 0.25), against the serial
// AnnotateSchema walk — and a hard determinism gate: the sharded pass must
// be exactly equal (every cardinality, structural and value counter) to the
// serial result for every thread count. A violated gate fails the run.
//
//   annotate_scaling [--json <path> | --gate-only] [--threads N]
//
// --json writes the machine-readable trajectory record consumed by
// bench/run_bench.sh (checked in as bench/BENCH_annotate.json).
// --gate-only runs the determinism gate plus two regression gates without
// writing JSON (the CI bench-sanity stage):
//   - no sharded configuration slower than 1.5x the serial walk;
//   - when the host has >= 8 hardware threads, >= 3x speedup at 8 threads
//     on XMark sf 0.25 (on smaller hosts the speedup is recorded, not
//     enforced — a 1-core runner cannot exhibit parallel speedup).

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "datasets/xmark.h"
#include "stats/annotate.h"

namespace {

using namespace ssum;
using namespace ssum::bench;

constexpr uint32_t kThreadCounts[] = {1, 2, 4, 8};
// One calibrated batch of about kTargetMs per measurement keeps the bench
// quick.
constexpr double kTargetMs = 60.0;
constexpr int kBatches = 1;
constexpr double kMaxSlowdown = 1.5;
constexpr double kRequiredSpeedupAt8 = 3.0;

struct ThreadPoint {
  uint32_t threads;
  double ms;
};

struct DatasetReport {
  double sf;
  uint64_t units;
  double serial_ms;  // the plain AnnotateSchema walk
  std::vector<ThreadPoint> points;
  bool deterministic = true;

  double Speedup(const ThreadPoint& p) const {
    return p.ms > 0 ? serial_ms / p.ms : 0.0;
  }
};

DatasetReport RunXmark(double sf, bool* deterministic_ok, bool* gates_ok) {
  XMarkParams params;
  params.sf = sf;
  XMarkDataset ds(params);
  std::unique_ptr<InstanceStream> stream = ds.MakeStream();
  std::unique_ptr<ShardedInstanceSource> source = ds.MakeShardedSource();

  DatasetReport report;
  report.sf = sf;
  report.units = source->NumUnits();

  const Annotations serial = *AnnotateSchema(*stream);
  report.serial_ms = MinOfBatchesMs(kTargetMs, kBatches, [&] {
    Annotations a = *AnnotateSchema(*stream);
    (void)a;
  });

  for (uint32_t t : kThreadCounts) {
    ShardedAnnotateOptions opts;
    opts.parallel.threads = t;
    Annotations last(ds.schema());
    report.points.push_back({t, MinOfBatchesMs(kTargetMs, kBatches, [&] {
      auto r = AnnotateSchemaSharded(*source, opts);
      if (r.ok()) last = std::move(*r);
    })});
    // Hard gate: the sharded result must equal the serial walk exactly.
    if (!(last == serial)) {
      report.deterministic = false;
      *deterministic_ok = false;
    }
    // Regression gate: no configuration pays more than kMaxSlowdown over
    // the serial walk (catches sharding overhead blowups on any host).
    if (report.points.back().ms > kMaxSlowdown * report.serial_ms) {
      std::fprintf(stderr,
                   "REGRESSION: sf %.2f threads=%u took %.3fms > %.1fx "
                   "serial %.3fms\n",
                   sf, t, report.points.back().ms, kMaxSlowdown,
                   report.serial_ms);
      *gates_ok = false;
    }
  }

  // Speedup gate, only meaningful on hosts with enough parallelism.
  if (HardwareThreadCount() >= 8 && sf >= 0.25) {
    const ThreadPoint& p8 = report.points.back();
    if (report.Speedup(p8) < kRequiredSpeedupAt8) {
      std::fprintf(stderr,
                   "REGRESSION: sf %.2f speedup at 8 threads %.2fx < %.1fx\n",
                   sf, report.Speedup(p8), kRequiredSpeedupAt8);
      *gates_ok = false;
    }
  }
  return report;
}

void PrintReport(const DatasetReport& r) {
  std::printf("XMark sf %.2f (%llu units)  serial %8.3fms\n", r.sf,
              static_cast<unsigned long long>(r.units), r.serial_ms);
  for (const ThreadPoint& p : r.points) {
    std::printf("  sharded t=%u %8.3fms (%.2fx)\n", p.threads, p.ms,
                r.Speedup(p));
  }
  std::printf("  %s\n", r.deterministic ? "deterministic" : "MISMATCH");
}

}  // namespace

int main(int argc, char** argv) {
  const BenchFlags flags = ParseBenchFlags(argc, argv, "annotate_scaling");

  std::printf("annotate scaling — %u hardware thread(s)\n\n",
              HardwareThreadCount());
  bool deterministic_ok = true;
  bool gates_ok = true;
  std::vector<DatasetReport> reports;
  for (double sf : {0.05, 0.25}) {
    reports.push_back(RunXmark(sf, &deterministic_ok, &gates_ok));
    PrintReport(reports.back());
    std::printf("\n");
  }
  if (!flags.json_path.empty()) {
    JsonRecord rec("annotate_scaling");
    rec.Field("deterministic", deterministic_ok).Open("datasets", '[');
    for (const DatasetReport& r : reports) {
      rec.Open("", '{')
          .Field("name", "XMark")
          .Field("sf", r.sf, 2)
          .Field("units", r.units)
          .Field("serial_ms", r.serial_ms)
          .Field("deterministic", r.deterministic)
          .Open("results", '[');
      for (const ThreadPoint& tp : r.points) {
        rec.Open("", '{')
            .Field("threads", tp.threads)
            .Field("ms", tp.ms)
            .Field("speedup", r.Speedup(tp), 3)
            .Close();
      }
      rec.Close().Close();
    }
    if (!rec.Write(flags.json_path)) return 1;
  }
  if (!deterministic_ok) {
    std::fprintf(stderr,
                 "DETERMINISM VIOLATION: sharded annotations diverged from "
                 "the serial pass\n");
    return 1;
  }
  if (!gates_ok) {
    std::fprintf(stderr, "BENCH GATE FAILED (see REGRESSION lines above)\n");
    return 1;
  }
  return 0;
}
