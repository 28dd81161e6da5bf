// Load generator for the summarization daemon (src/serve): starts an
// in-process SummarizeServer, hammers the warm `summarize` path from
// concurrent clients over real loopback sockets, and gates on the service
// contract the daemon exists for:
//
//   * warm summarize p99 < 5 ms and >= 500 QPS sustained at 8 concurrent
//     clients,
//   * every response bit-identical to the one-shot library pipeline (the
//     same bytes `ssum summarize -o` writes) for the same request,
//   * overload answers kUnavailable at the wire — never a hang or a
//     dropped connection,
//   * a request whose deadline_ms is smaller than a cold run aborts with
//     the deadline error while the server keeps serving.
//
//   serve_scaling [--json <path> | --gate-only] [--threads N] [--clients N]
//                 [--duration-ms N]
//
// --json writes the machine-readable record consumed by bench/run_bench.sh
// (checked in as bench/BENCH_serve.json). --gate-only shortens the load
// phase for CI and writes no record; the gates are identical. --clients and
// --duration-ms must be >= 1.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <climits>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/summarize.h"
#include "core/summary_io.h"
#include "datasets/registry.h"
#include "serve/client.h"
#include "serve/server.h"

namespace {

using namespace ssum;
using namespace ssum::bench;

constexpr double kDatasetScale = 0.05;  // ServeServerOptions default
constexpr double kMaxP99Ms = 5.0;
constexpr double kMinQps = 500.0;
const size_t kSummarySizes[] = {5, 10};

struct LoadResult {
  uint64_t requests = 0;
  double qps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  bool bit_identical = true;
};

ServeRequest SummarizeRequest(size_t k) {
  ServeRequest request;
  request.verb = ServeVerb::kSummarize;
  request.dataset = "xmark";
  request.k = k;
  return request;
}

/// The reference bytes: the one-shot library pipeline at the server's
/// scale, serialized exactly as the CLI writes them.
std::string ReferencePayload(size_t k) {
  auto bundle = LoadDataset(DatasetKind::kXMark, kDatasetScale, nullptr);
  if (!bundle.ok()) {
    std::fprintf(stderr, "LoadDataset failed: %s\n",
                 bundle.status().ToString().c_str());
    std::exit(1);
  }
  auto summary = Summarize(bundle->schema, bundle->annotations, k,
                           Algorithm::kBalanceSummary, SummarizeOptions{},
                           nullptr);
  if (!summary.ok()) {
    std::fprintf(stderr, "Summarize failed: %s\n",
                 summary.status().ToString().c_str());
    std::exit(1);
  }
  return SerializeSummary(*summary);
}

LoadResult RunLoad(const std::string& addr, int clients, int duration_ms,
                   const std::vector<std::string>& references) {
  std::vector<std::vector<double>> latencies(clients);
  std::atomic<bool> mismatch{false};
  std::atomic<bool> transport_failed{false};
  using clock = std::chrono::steady_clock;
  const auto start = clock::now();
  const auto stop_at = start + std::chrono::milliseconds(duration_ms);
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      auto client = ServeClient::Connect(addr);
      if (!client.ok()) {
        transport_failed.store(true);
        return;
      }
      size_t turn = static_cast<size_t>(c);
      while (clock::now() < stop_at) {
        const size_t which = turn++ % std::size(kSummarySizes);
        const auto t0 = clock::now();
        auto response = client->Call(SummarizeRequest(kSummarySizes[which]));
        const auto t1 = clock::now();
        if (!response.ok() || !response->ok()) {
          transport_failed.store(true);
          return;
        }
        if (response->payload != references[which]) mismatch.store(true);
        latencies[static_cast<size_t>(c)].push_back(
            std::chrono::duration<double, std::milli>(t1 - t0).count());
      }
      (void)client->Close();
    });
  }
  for (std::thread& t : threads) t.join();
  const double elapsed_s =
      std::chrono::duration<double>(clock::now() - start).count();

  LoadResult result;
  std::vector<double> all;
  for (const auto& per_client : latencies) {
    all.insert(all.end(), per_client.begin(), per_client.end());
  }
  result.requests = all.size();
  result.qps = elapsed_s > 0 ? static_cast<double>(all.size()) / elapsed_s : 0;
  result.bit_identical = !mismatch.load() && !transport_failed.load();
  if (!all.empty()) {
    std::sort(all.begin(), all.end());
    result.p50_ms = all[all.size() / 2];
    result.p99_ms = all[std::min(all.size() - 1, all.size() * 99 / 100)];
  }
  return result;
}

/// Overload: a 1-worker, 0-queue server (capacity 1) held busy by a stall
/// request must answer concurrent requests kUnavailable at the wire, and
/// the stalled request itself must still complete.
bool CheckOverload() {
  ServeServerOptions options;
  options.workers = 1;
  options.queue_depth = 0;
  {
    SummarizeServer server(std::move(options));
    if (Status s = server.Start(); !s.ok()) {
      std::fprintf(stderr, "overload server start failed: %s\n",
                   s.ToString().c_str());
      return false;
    }
    std::atomic<bool> stall_ok{false};
    std::thread staller([&] {
      auto client = ServeClient::Connect(server.address());
      if (!client.ok()) return;
      ServeRequest stall;
      stall.verb = ServeVerb::kHealth;
      stall.stall_ms = 400;
      auto response = client->Call(stall);
      stall_ok.store(response.ok() && response->ok());
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    int unavailable = 0;
    int malformed = 0;
    for (int i = 0; i < 4; ++i) {
      auto client = ServeClient::Connect(server.address());
      if (!client.ok()) {
        ++malformed;
        continue;
      }
      ServeRequest health;
      health.verb = ServeVerb::kHealth;
      auto response = client->Call(health);
      if (!response.ok()) {
        ++malformed;  // a hang or a drop would surface here
      } else if (response->status == StatusCode::kUnavailable) {
        ++unavailable;
      }
    }
    staller.join();
    server.Stop();
    if (malformed > 0) {
      std::fprintf(stderr,
                   "FAIL: %d overload responses were not well-formed frames\n",
                   malformed);
      return false;
    }
    if (unavailable == 0) {
      std::fprintf(stderr,
                   "FAIL: no request was shed with kUnavailable under "
                   "overload\n");
      return false;
    }
    if (!stall_ok.load()) {
      std::fprintf(stderr, "FAIL: the stalled request did not complete OK\n");
      return false;
    }
  }
  return true;
}

/// Deadline: a cold summarize with a budget far below a cold run must come
/// back as the wire deadline error, and the server must keep serving — the
/// same request without a deadline then succeeds.
bool CheckDeadline(const std::string& addr) {
  auto client = ServeClient::Connect(addr);
  if (!client.ok()) {
    std::fprintf(stderr, "deadline client connect failed\n");
    return false;
  }
  ServeRequest cold;
  cold.verb = ServeVerb::kSummarize;
  cold.dataset = "tpch";  // not loaded by the warm-path load phase
  cold.k = 5;
  cold.has_deadline = true;
  cold.deadline_ms = 0;
  auto expired = client->Call(cold);
  if (!expired.ok() ||
      expired->status != StatusCode::kDeadlineExceeded) {
    std::fprintf(stderr,
                 "FAIL: cold request with deadline_ms=0 did not return the "
                 "wire deadline error\n");
    return false;
  }
  ServeRequest health;
  health.verb = ServeVerb::kHealth;
  auto alive = client->Call(health);
  if (!alive.ok() || !alive->ok()) {
    std::fprintf(stderr, "FAIL: server stopped serving after a deadline\n");
    return false;
  }
  cold.has_deadline = false;
  auto completed = client->Call(cold);
  if (!completed.ok() || !completed->ok()) {
    std::fprintf(stderr,
                 "FAIL: the same request without a deadline failed: %s\n",
                 completed.ok() ? completed->message.c_str()
                                : completed.status().ToString().c_str());
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  int clients = 8;
  int duration_ms = 0;
  const BenchFlags flags =
      ParseBenchFlags(argc, argv, "serve_scaling",
                      {IntFlag("--clients", &clients, 1, kMaxThreads),
                       IntFlag("--duration-ms", &duration_ms, 1, INT_MAX)});
  if (duration_ms == 0) duration_ms = flags.gate_only ? 600 : 2500;

  std::printf("serve_scaling: %d clients, %d ms load phase\n", clients,
              duration_ms);

  std::vector<std::string> references;
  for (size_t k : kSummarySizes) references.push_back(ReferencePayload(k));

  const ScratchDir cache_dir("serve_bench");
  ServeServerOptions options;
  options.cache_dir = cache_dir.path();
  options.workers = 4;
  options.queue_depth = 64;
  options.max_connections = static_cast<uint32_t>(clients) + 8;
  SummarizeServer server(std::move(options));
  if (Status s = server.Start(); !s.ok()) {
    std::fprintf(stderr, "server start failed: %s\n", s.ToString().c_str());
    return 1;
  }

  // Warm-up: one request per summary size pays the cold pipeline once; the
  // timed phase below must then be pure warm-path (memo / summary cache).
  {
    auto client = ServeClient::Connect(server.address());
    if (!client.ok()) {
      std::fprintf(stderr, "warm-up connect failed\n");
      return 1;
    }
    for (size_t k : kSummarySizes) {
      auto response = client->Call(SummarizeRequest(k));
      if (!response.ok() || !response->ok()) {
        std::fprintf(stderr, "warm-up summarize failed\n");
        return 1;
      }
    }
  }

  const LoadResult load =
      RunLoad(server.address(), clients, duration_ms, references);
  std::printf("  %llu requests  %.0f QPS  p50 %.3f ms  p99 %.3f ms\n",
              static_cast<unsigned long long>(load.requests), load.qps,
              load.p50_ms, load.p99_ms);

  bool ok = true;
  if (!load.bit_identical) {
    std::fprintf(stderr,
                 "FAIL: a warm response differed from the one-shot pipeline "
                 "bytes (or a call failed)\n");
    ok = false;
  }
  if (load.p99_ms >= kMaxP99Ms) {
    std::fprintf(stderr, "FAIL: warm p99 %.3f ms is over the %.1f ms gate\n",
                 load.p99_ms, kMaxP99Ms);
    ok = false;
  }
  if (load.qps < kMinQps) {
    std::fprintf(stderr, "FAIL: %.0f QPS is under the %.0f QPS gate\n",
                 load.qps, kMinQps);
    ok = false;
  }

  const bool deadline_ok = CheckDeadline(server.address());
  ok = ok && deadline_ok;
  server.Stop();

  const bool overload_ok = CheckOverload();
  ok = ok && overload_ok;

  std::printf("  gates: identity %s, p99 %s, qps %s, deadline %s, overload "
              "%s\n",
              load.bit_identical ? "ok" : "FAIL",
              load.p99_ms < kMaxP99Ms ? "ok" : "FAIL",
              load.qps >= kMinQps ? "ok" : "FAIL", deadline_ok ? "ok" : "FAIL",
              overload_ok ? "ok" : "FAIL");

  if (!flags.json_path.empty()) {
    JsonRecord rec("serve_scaling");
    rec.Field("dataset", "XMark")
        .Field("scale", kDatasetScale, 2)
        .Field("clients", clients)
        .Field("duration_ms", duration_ms)
        .Field("requests", load.requests)
        .Field("qps", load.qps, 1)
        .Field("p50_ms", load.p50_ms)
        .Field("p99_ms", load.p99_ms)
        .Field("bit_identical", load.bit_identical)
        .Field("deadline_ok", deadline_ok)
        .Field("overload_ok", overload_ok)
        .Field("gate_max_p99_ms", kMaxP99Ms, 1)
        .Field("gate_min_qps", kMinQps, 1)
        .Field("ok", ok);
    if (!rec.Write(flags.json_path)) return 1;
  }
  return ok ? 0 : 1;
}
