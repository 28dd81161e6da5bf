// serve_warm_mix: an in-process SummarizeServer on loopback with a cache
// directory and a scenario directory answers every request shape once cold
// in setup; the timed phase is a closed loop of clients sending a seeded
// fixed mix of summarize and discover requests. Wire, admission, the
// summary memo and per-request SummaryFingerprint hashing do the work; the
// core layer does none per request.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <thread>

#include "core/summary_io.h"
#include "datasets/registry.h"
#include "datasets/scenario.h"
#include "harness.h"
#include "pipeline.h"
#include "query/discovery.h"
#include "serve/client.h"
#include "serve/server.h"

namespace perfbench {

namespace {

constexpr double kDatasetScale = 0.05;  // the daemon's default serve scale
constexpr int kSetupReps = 3;
constexpr double kTailPercentile = 90;
constexpr const char* kScenarioFile = "serve_scenario.scn";

// Weights of the round: how many times each summarize shape is sent per
// round (every discover shape is sent once). They are set so that
// summarize and discover requests are about equal in number (96 and 94),
// and so that the 2033-element scenario, whose per-request
// SummaryFingerprint hashing costs 0.5-0.6 ms against a ~0.2 ms round trip
// on the paper datasets, carries most of the round time (README: measured
// shares). A change to that hashing then moves throughput_ops_s by more
// than its bound.
constexpr uint32_t kScenarioSummarizeRepeats = 24;
constexpr uint32_t kPaperSummarizeRepeats = 2;

/// ~2k-element scenario in the style of comprehensive.scn with few units:
/// large enough that per-request fingerprint hashing shows, small enough
/// that its cold load stays a setup cost. The seed drives the mutation
/// layer (5% of the units redrawn), not the shape.
ssum::ScenarioSpec ScenarioSpec(uint64_t seed) {
  ssum::ScenarioSpec spec;
  spec.name = "serve_scenario";
  spec.seed = 101;
  spec.schema_elements = 2000;
  spec.entity_classes = 24;
  spec.max_depth = 12;
  spec.set_fraction = 0.28;
  spec.value_link_fraction = 0.08;
  spec.instance_units = 4000;
  spec.unit_skew = "zipf";
  spec.zipf_s = 1.2;
  spec.set_mean = 3.5;
  spec.queries = 40;
  spec.summary_k = 16;
  spec.tier = "full";
  spec.mutate_seed = MutateSeed(seed, 0x5E4E);
  spec.mutate_fraction = 0.05;
  spec.mutate_amplitude = 0.25;
  return spec;
}

struct Dataset {
  std::string name;   // wire dataset name
  std::string label;  // metric suffix
  ssum::DatasetBundle bundle;
};

struct Shape {
  ssum::ServeRequest request;
  size_t dataset = 0;    // index into the dataset list
  uint32_t repeats = 1;  // times sent per round
};

std::string ShapeKey(const ssum::ServeRequest& r) {
  return r.dataset + "|" + std::to_string(r.k) + "|" +
         std::to_string(static_cast<int>(r.algorithm)) + "|" +
         std::to_string(static_cast<int>(r.mode));
}

/// "key\tvalue\n" counters of a discover or metrics response.
std::map<std::string, uint64_t> ParseCounters(const std::string& text) {
  std::map<std::string, uint64_t> out;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    const size_t tab = line.find('\t');
    if (tab != std::string::npos) {
      out[line.substr(0, tab)] = std::strtoull(line.c_str() + tab + 1, nullptr, 10);
    }
    pos = eol + 1;
  }
  return out;
}

/// The distinct request shapes of one round. Per paper dataset: four
/// summarize shapes (three algorithms exact, MaxCoverage approximate), each
/// sent kPaperSummarizeRepeats times, and one discover request per workload
/// query; per scenario: three summarize shapes, each sent
/// kScenarioSummarizeRepeats times. The seed picks each k.
std::vector<Shape> BuildMix(const std::vector<Dataset>& datasets,
                            uint64_t seed) {
  std::mt19937_64 rng(MixSeed(seed, 0x313));
  std::vector<Shape> mix;
  auto summarize = [&](size_t d, ssum::Algorithm a, ssum::SummaryMode m,
                       uint64_t k) {
    Shape s;
    s.dataset = d;
    s.repeats = datasets[d].label == "scenario" ? kScenarioSummarizeRepeats
                                                : kPaperSummarizeRepeats;
    s.request.verb = ssum::ServeVerb::kSummarize;
    s.request.dataset = datasets[d].name;
    s.request.k = k;
    s.request.algorithm = a;
    s.request.mode = m;
    mix.push_back(std::move(s));
  };
  for (size_t d = 0; d < datasets.size(); ++d) {
    const bool scenario = datasets[d].label == "scenario";
    if (scenario) {
      summarize(d, ssum::Algorithm::kMaxImportance, ssum::SummaryMode::kExact,
                12 + rng() % 9);
      summarize(d, ssum::Algorithm::kBalanceSummary, ssum::SummaryMode::kExact,
                12 + rng() % 9);
      summarize(d, ssum::Algorithm::kMaxCoverage, ssum::SummaryMode::kApprox,
                12 + rng() % 9);
      continue;
    }
    summarize(d, ssum::Algorithm::kMaxImportance, ssum::SummaryMode::kExact,
              6 + rng() % 5);
    summarize(d, ssum::Algorithm::kMaxCoverage, ssum::SummaryMode::kExact,
              6 + rng() % 5);
    summarize(d, ssum::Algorithm::kBalanceSummary, ssum::SummaryMode::kExact,
              6 + rng() % 5);
    summarize(d, ssum::Algorithm::kMaxCoverage, ssum::SummaryMode::kApprox,
              6 + rng() % 5);
    const ssum::DatasetBundle& b = datasets[d].bundle;
    for (const ssum::QueryIntention& q : b.workload.queries) {
      Shape s;
      s.dataset = d;
      s.request.verb = ssum::ServeVerb::kDiscover;
      s.request.dataset = datasets[d].name;
      s.request.k = b.paper_summary_size - 1 + rng() % 3;
      s.request.algorithm = ssum::Algorithm::kBalanceSummary;
      for (ssum::ElementId e : q.elements) {
        s.request.paths.push_back(b.schema.PathOf(e));
      }
      mix.push_back(std::move(s));
    }
  }
  return mix;
}

/// 0 scenario summarize, 1 paper-dataset summarize, 2 discover.
int RequestClass(const Shape& s, size_t scenario_index) {
  if (s.request.verb == ssum::ServeVerb::kDiscover) return 2;
  return s.dataset == scenario_index ? 0 : 1;
}

struct Server {
  std::unique_ptr<TimingEnv> env;
  std::unique_ptr<ssum::SummarizeServer> server;
  std::string cache_dir;
};

struct ClientResult {
  std::vector<double> latency_ms;
  std::vector<double> traced_summarize_ms;
  std::vector<double> traced_discover_ms;
  std::vector<double> traced_ms;
  // Untimed-phase round-trip time by request class: scenario summarize,
  // paper-dataset summarize, discover.
  double class_ms[3] = {};
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> mismatches;
  double finished_untraced = 0;  // end of this client's untraced phase
};

}  // namespace

void RunServeWarmMix(const Args& args, Report* report) {
  Samples layer;

  // --- inputs: datasets in-process (their workloads give the discover
  // paths; they are also the reference the checks compare against) --------
  const std::string scenario_dir =
      args.work_dir + "/serve-scenarios-" + std::to_string(getpid());
  std::filesystem::remove_all(scenario_dir);
  std::filesystem::create_directories(scenario_dir);
  const ssum::ScenarioSpec scenario_spec = ScenarioSpec(args.seed);
  {
    std::ofstream out(scenario_dir + "/" + kScenarioFile);
    out << ssum::SerializeScenarioSpec(scenario_spec);
  }
  std::vector<Dataset> datasets;
  double load_s = 0;
  double loaded_nodes = 0;
  const std::pair<ssum::DatasetKind, const char*> kinds[] = {
      {ssum::DatasetKind::kXMark, "xmark"},
      {ssum::DatasetKind::kTpch, "tpch"},
      {ssum::DatasetKind::kMimi, "mimi"}};
  for (const auto& [kind, name] : kinds) {
    const double t0 = NowSeconds();
    auto b = ssum::LoadDataset(kind, kDatasetScale);
    load_s += NowSeconds() - t0;
    if (!b.ok()) {
      report->Fail("dataset: " + b.status().ToString());
      return;
    }
    loaded_nodes += static_cast<double>(b->data_elements);
    datasets.push_back({name, name, std::move(*b)});
  }
  {
    const double t0 = NowSeconds();
    auto b = ssum::LoadScenario(scenario_spec);
    load_s += NowSeconds() - t0;
    if (!b.ok()) {
      report->Fail("scenario: " + b.status().ToString());
      return;
    }
    loaded_nodes += static_cast<double>(b->data_elements);
    datasets.push_back({std::string("scenario:") + kScenarioFile, "scenario",
                        std::move(*b)});
  }
  layer.Add("stats.annotate_ms", load_s * 1e3);
  layer.Add("stats.annotate_nodes_per_s", loaded_nodes / load_s);
  const std::vector<Shape> mix = BuildMix(datasets, args.seed);

  // --- setup: cold daemon answers every request shape once, three times ----
  Server live;
  std::vector<double> setup_s;
  std::vector<std::string> cold_payload(mix.size());
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (live.server != nullptr) {
      live.server->Stop();
      live.server.reset();
      std::filesystem::remove_all(live.cache_dir);
      ReleaseFreedMemory();
    }
    live.cache_dir = args.work_dir + "/serve-cache-" +
                     std::to_string(getpid()) + "-" + std::to_string(rep);
    std::filesystem::remove_all(live.cache_dir);
    live.env = std::make_unique<TimingEnv>(ssum::Env::Default());
    const double t0 = NowSeconds();
    ssum::ServeServerOptions options;
    options.listen = "127.0.0.1:0";
    options.cache_dir = live.cache_dir;
    options.workers = kServeWorkers;
    options.dataset_scale = kDatasetScale;
    options.scenario_dir = scenario_dir;
    options.env = live.env.get();
    live.server = std::make_unique<ssum::SummarizeServer>(options);
    if (ssum::Status s = live.server->Start(); !s.ok()) {
      report->Fail("server start: " + s.ToString());
      return;
    }
    auto client = ssum::ServeClient::Connect(live.server->address());
    if (!client.ok()) {
      report->Fail("connect: " + client.status().ToString());
      return;
    }
    for (size_t i = 0; i < mix.size(); ++i) {
      auto resp = client->Call(mix[i].request);
      if (!resp.ok() || !resp->ok()) {
        report->Fail("cold request " + ShapeKey(mix[i].request) + " failed: " +
                     (resp.ok() ? resp->message : resp.status().ToString()));
        return;
      }
      if (rep > 0 && resp->payload != cold_payload[i]) {
        report->Fail("cold daemons disagree on " + ShapeKey(mix[i].request));
      }
      cold_payload[i] = std::move(resp->payload);
    }
    setup_s.push_back(NowSeconds() - t0);
    (void)client->Close();
  }
  const TimingEnv::Counters setup_io = live.env->Snapshot();

  // --- timed closed loop ----------------------------------------------------
  // Each client sends whole rounds of the mix, in its own seeded order, and
  // waits for every reply. Traced runs record per-verb spans in their second
  // half.
  const double loop_start = NowSeconds();
  const double end = loop_start + args.seconds;
  const double untraced_end = args.trace ? loop_start + args.seconds / 2 : end;
  const size_t scenario_index = datasets.size() - 1;
  std::vector<size_t> round_requests;  // shape index per request of a round
  for (size_t i = 0; i < mix.size(); ++i) {
    round_requests.insert(round_requests.end(), mix[i].repeats, i);
  }
  std::vector<ClientResult> results(kServeClients);
  std::vector<std::thread> threads;
  for (uint32_t c = 0; c < kServeClients; ++c) {
    threads.emplace_back([&, c] {
      ClientResult& r = results[c];
      auto client = ssum::ServeClient::Connect(live.server->address());
      if (!client.ok()) {
        r.mismatches.push_back("connect: " + client.status().ToString());
        return;
      }
      std::vector<size_t> order = round_requests;
      for (uint64_t round = 0;; ++round) {
        const double now = NowSeconds();
        const bool traced = now >= untraced_end;
        if (traced && r.finished_untraced == 0) r.finished_untraced = now;
        if (now >= end) break;
        std::mt19937_64 rng(MixSeed(args.seed, (uint64_t{c} << 32) | round));
        std::shuffle(order.begin(), order.end(), rng);
        for (size_t i : order) {
          ++r.attempted;
          const double t0 = NowSeconds();
          auto resp = client->Call(mix[i].request);
          const double ms = (NowSeconds() - t0) * 1e3;
          if (!resp.ok() || !resp->ok()) {
            ++r.failed;
            continue;
          }
          if (resp->payload != cold_payload[i] && r.mismatches.size() < 4) {
            r.mismatches.push_back("warm reply differs from the cold one for " +
                                   ShapeKey(mix[i].request));
          }
          if (!traced) {
            r.latency_ms.push_back(ms);
            r.class_ms[RequestClass(mix[i], scenario_index)] += ms;
            continue;
          }
          r.traced_ms.push_back(ms);
          (mix[i].request.verb == ssum::ServeVerb::kDiscover
               ? r.traced_discover_ms
               : r.traced_summarize_ms)
              .push_back(ms);
        }
      }
      (void)client->Close();
    });
  }
  for (std::thread& t : threads) t.join();

  std::vector<double> latency;
  std::vector<double> traced;
  std::vector<double> rtt_summarize;
  std::vector<double> rtt_discover;
  double loop_s = 0;
  double class_ms[3] = {};
  for (const ClientResult& r : results) {
    for (int c = 0; c < 3; ++c) class_ms[c] += r.class_ms[c];
    report->attempted += r.attempted;
    report->failed += r.failed;
    for (const std::string& m : r.mismatches) report->Fail(m);
    latency.insert(latency.end(), r.latency_ms.begin(), r.latency_ms.end());
    traced.insert(traced.end(), r.traced_ms.begin(), r.traced_ms.end());
    rtt_summarize.insert(rtt_summarize.end(), r.traced_summarize_ms.begin(),
                         r.traced_summarize_ms.end());
    rtt_discover.insert(rtt_discover.end(), r.traced_discover_ms.begin(),
                        r.traced_discover_ms.end());
    loop_s = std::max(loop_s, r.finished_untraced - loop_start);
  }

  std::map<std::string, uint64_t> server_metrics;
  {
    auto client = ssum::ServeClient::Connect(live.server->address());
    ssum::ServeRequest req;
    req.verb = ssum::ServeVerb::kMetrics;
    auto resp = client.ok() ? client->Call(req)
                            : ssum::Result<ssum::ServeResponse>(client.status());
    if (!resp.ok() || !resp->ok()) {
      report->Fail("metrics verb failed");
    } else {
      server_metrics = ParseCounters(resp->payload);
    }
    if (client.ok()) (void)client->Close();
  }
  live.server->Stop();
  live.server.reset();
  std::filesystem::remove_all(live.cache_dir);
  std::filesystem::remove_all(scenario_dir);
  ReleaseFreedMemory();

  // --- output checks (untimed): one-shot in-process reference -------------
  ssum::SummarizeOptions base_options;
  base_options.parallel.threads = kKernelThreads;
  std::map<std::string, ssum::SchemaSummary> reference;  // by shape key
  auto reference_summary =
      [&](const Shape& s) -> const ssum::SchemaSummary* {
    const std::string key = ShapeKey(s.request);
    auto it = reference.find(key);
    if (it != reference.end()) return &it->second;
    ssum::SummarizeOptions options = base_options;
    options.mode = s.request.mode;
    options.approx_epsilon = s.request.epsilon;
    const ssum::DatasetBundle& b = datasets[s.dataset].bundle;
    auto summary = ssum::Summarize(b.schema, b.annotations,
                                   static_cast<size_t>(s.request.k),
                                   s.request.algorithm, options);
    if (!summary.ok()) {
      report->Fail("reference summary " + key + ": " +
                   summary.status().ToString());
      return nullptr;
    }
    return &reference.emplace(key, std::move(*summary)).first->second;
  };
  std::vector<std::optional<ssum::DiscoveryOracle>> oracles(datasets.size());
  double cost_with_sum = 0;
  double cost_without_sum = 0;
  size_t discover_requests = 0;
  std::vector<double> discover_ms;
  for (size_t i = 0; i < mix.size(); ++i) {
    const Shape& s = mix[i];
    const ssum::SchemaSummary* summary = reference_summary(s);
    if (summary == nullptr) continue;
    if (s.request.verb == ssum::ServeVerb::kSummarize) {
      if (ssum::SerializeSummary(*summary) != cold_payload[i]) {
        report->Fail("daemon summary differs from the one-shot one for " +
                     ShapeKey(s.request));
      }
      continue;
    }
    const ssum::DatasetBundle& b = datasets[s.dataset].bundle;
    if (!oracles[s.dataset].has_value()) oracles[s.dataset].emplace(b.schema);
    auto intention = ssum::MakeIntention(b.schema, "serve", s.request.paths);
    if (!intention.ok()) {
      report->Fail("intention: " + intention.status().ToString());
      continue;
    }
    const double t0 = NowSeconds();
    const ssum::DiscoveryResult without = ssum::Discover(
        *oracles[s.dataset], *intention, ssum::TraversalStrategy::kBestFirst);
    const ssum::DiscoveryResult with =
        ssum::DiscoverWithSummary(*oracles[s.dataset], *summary, *intention);
    discover_ms.push_back((NowSeconds() - t0) * 1e3);
    auto got = ParseCounters(cold_payload[i]);
    if (got["cost_without_summary"] != without.cost ||
        got["cost_with_summary"] != with.cost ||
        got["complete"] != (with.complete ? 1u : 0u)) {
      report->Fail("daemon discovery costs differ from in-process ones for " +
                   ShapeKey(s.request));
    }
    cost_with_sum += static_cast<double>(got["cost_with_summary"]);
    cost_without_sum += static_cast<double>(got["cost_without_summary"]);
    ++discover_requests;
  }

  report->Set("setup_s", Median(setup_s));
  report->Set("latency_p50_ms", Median(latency));
  report->Set("latency_tail_ms", Percentile(latency, kTailPercentile));
  report->Set("throughput_ops_s", static_cast<double>(latency.size()) / loop_s);
  report->Set("peak_rss_mb", PeakRssMiB());
  report->Set("discovery_cost",
              cost_with_sum / static_cast<double>(std::max<size_t>(1, discover_requests)));
  const double round_ms = class_ms[0] + class_ms[1] + class_ms[2];
  std::fprintf(stderr,
               "serve_warm_mix: %zu requests per round, %zu timed, p50 %.3f "
               "ms, p%.0f %.3f ms (p95 %.3f, p99 %.3f), %.0f ops/s; share of "
               "round-trip time: scenario summarize %.1f%%, paper summarize "
               "%.1f%%, discover %.1f%%\n",
               round_requests.size(), latency.size(), Median(latency),
               kTailPercentile, Percentile(latency, kTailPercentile),
               Percentile(latency, 95), Percentile(latency, 99),
               static_cast<double>(latency.size()) / loop_s,
               100 * class_ms[0] / round_ms, 100 * class_ms[1] / round_ms,
               100 * class_ms[2] / round_ms);
  if (!args.trace) return;

  // --- per-layer figures ----------------------------------------------------
  layer.Add("trace.overhead_ms", Median(traced) - Median(latency));
  layer.Add("serve.rtt_summarize_ms", Median(rtt_summarize));
  layer.Add("serve.rtt_discover_ms", Median(rtt_discover));
  layer.Add("serve.server_p50_us", static_cast<double>(server_metrics["p50_us"]));
  layer.Add("serve.server_p99_us", static_cast<double>(server_metrics["p99_us"]));
  layer.Add("serve.keepalive_reused",
            static_cast<double>(server_metrics["keepalive_reused"]));
  layer.Add("store.hits", static_cast<double>(server_metrics["cache_hits"]));
  layer.Add("store.misses", static_cast<double>(server_metrics["cache_misses"]));
  layer.Add("store.installs", static_cast<double>(setup_io.renames));
  layer.Add("store.read_ms", static_cast<double>(setup_io.read_ns) / 1e6);
  layer.Add("store.write_ms", static_cast<double>(setup_io.write_ns) / 1e6);
  layer.Add("store.bytes_written_mb",
            static_cast<double>(setup_io.bytes_written) / (1024.0 * 1024.0));
  layer.Add("query.discover_ms", Median(discover_ms));
  layer.Add("query.discovery_cost_without",
            cost_without_sum /
                static_cast<double>(std::max<size_t>(1, discover_requests)));
  layer.Add("core.dominance_calls_per_op", 0);

  // Per-request daemon work, replayed in-process.
  for (const Dataset& d : datasets) {
    std::vector<double> ms;
    for (int i = 0; i < 21; ++i) {
      const double t0 = NowSeconds();
      (void)ssum::SummaryFingerprint(d.bundle.schema, d.bundle.annotations,
                                     ssum::SummarizeOptions{}, 10,
                                     ssum::Algorithm::kBalanceSummary);
      ms.push_back((NowSeconds() - t0) * 1e3);
    }
    layer.Add("serve.fingerprint_ms." + d.label, Median(ms));
  }
  {
    const Dataset& scenario = datasets.back();
    size_t largest = 0;
    for (size_t i = 0; i < mix.size(); ++i) {
      if (mix[i].dataset == datasets.size() - 1) largest = i;
    }
    std::vector<double> parse_ms;
    for (int i = 0; i < 21; ++i) {
      const double t0 = NowSeconds();
      auto parsed = ssum::ParseSummary(scenario.bundle.schema,
                                       cold_payload[largest]);
      parse_ms.push_back((NowSeconds() - t0) * 1e3);
      if (!parsed.ok()) report->Fail("scenario payload does not parse");
    }
    layer.Add("serve.parse_summary_ms", Median(parse_ms));
    ssum::ServeResponse response;
    response.payload = cold_payload[0];
    const std::string body = ssum::EncodeResponse(response);
    std::vector<double> codec_us;
    for (int i = 0; i < 1001; ++i) {
      const double t0 = NowSeconds();
      const std::string req = ssum::EncodeRequest(mix[0].request);
      auto decoded = ssum::DecodeResponse(body);
      codec_us.push_back((NowSeconds() - t0) * 1e6);
      if (req.empty() || !decoded.ok()) report->Fail("codec round trip failed");
    }
    layer.Add("serve.codec_us", Median(codec_us));

    // The scenario's exact context, stage by stage (setup cost of the
    // daemon's largest dataset).
    double t0 = NowSeconds();
    auto ctx = ssum::SummarizerContext::Make(scenario.bundle.schema,
                                             scenario.bundle.annotations,
                                             base_options);
    layer.Add("core.context_ms", (NowSeconds() - t0) * 1e3);
    if (!ctx.ok()) {
      report->Fail("scenario context: " + ctx.status().ToString());
    } else {
      StageTimes st;
      if (std::string err = ReplayStages(*ctx, &st); !err.empty()) {
        report->Fail(err);
      }
      SetStageMedians({st}, report);
      const size_t k = scenario.bundle.paper_summary_size;
      t0 = NowSeconds();
      (void)ssum::SelectMaxImportance(*ctx, k);
      layer.Add("core.select_importance_ms", (NowSeconds() - t0) * 1e3);
      t0 = NowSeconds();
      (void)ssum::SelectBalanced(*ctx, k);
      const double select_ms = (NowSeconds() - t0) * 1e3;
      layer.Add("core.select_balance_ms", select_ms);
      t0 = NowSeconds();
      (void)ssum::Summarize(*ctx, k, ssum::Algorithm::kBalanceSummary);
      layer.Add("core.assembly_ms", (NowSeconds() - t0) * 1e3 - select_ms);
      layer.Add("core.dominance_pairs_tested",
                static_cast<double>(DominancePairsTested(ctx->graph())));
      layer.Add("core.dominance_pairs",
                static_cast<double>(ctx->dominance().pairs.size()));
      layer.Add("core.candidates",
                static_cast<double>(ctx->dominance().candidates.size()));
      layer.Add("core.matrix_mb", MatrixMiB(*ctx));
    }
  }
  layer.MediansInto(report);
}

}  // namespace perfbench
