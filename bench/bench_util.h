// Shared harness of the gated bench binaries: clocks, flag parsing with the
// Release guard, per-run scratch directories, and the BENCH record writer.
//
// Every gated bench takes the same flags:
//
//   <bench> [--json PATH | --gate-only] [--threads N] [bench-specific flags]
//
// --json writes the bench's record (bench/run_bench.sh keeps them as
// bench/BENCH_*.json); --gate-only runs the gates and writes no record. An
// unknown flag or a malformed value prints the usage line and exits 2 before
// any work starts, and so does --json from a non-Release build: the
// checked-in trajectory never holds unoptimized numbers. The paper benches
// and perf_microbench take only --threads N, through the same parser.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/buildinfo.h"
#include "common/flags.h"
#include "common/parallel.h"
#include "common/string_util.h"
#include "core/path_engine.h"

namespace ssum::bench {

// ---------------------------------------------------------------------------
// Timing. Host noise only ever slows a run down, so repeated measurements
// keep their minimum.
// ---------------------------------------------------------------------------

/// Wall-clock milliseconds of one call.
template <typename Fn>
double OnceMs(const Fn& fn) {
  using clock = std::chrono::steady_clock;
  const auto t0 = clock::now();
  fn();
  return std::chrono::duration<double, std::milli>(clock::now() - t0).count();
}

/// Calls per batch so that one batch lasts about `target_ms`, calibrated
/// from one warm-up call (1 to 10000).
template <typename Fn>
int CalibrateReps(double target_ms, const Fn& fn) {
  const double once = OnceMs(fn);
  if (once >= target_ms) return 1;
  const int reps = static_cast<int>(target_ms / std::max(once, 1e-3)) + 1;
  return std::min(reps, 10000);
}

/// Per-call milliseconds of one batch of `reps` calls (the batch's mean).
template <typename Fn>
double BatchMs(int reps, const Fn& fn) {
  return OnceMs([&] {
           for (int i = 0; i < reps; ++i) fn();
         }) /
         reps;
}

/// Per-call milliseconds of the fastest of `batches` calibrated batches.
template <typename Fn>
double MinOfBatchesMs(double target_ms, int batches, const Fn& fn) {
  const int reps = CalibrateReps(target_ms, fn);
  double best = 0.0;
  for (int b = 0; b < batches; ++b) {
    const double ms = BatchMs(reps, fn);
    if (b == 0 || ms < best) best = ms;
  }
  return best;
}

/// Calibrated batches of `a` and `b` interleaved (A, B, A, B, ...), each
/// side's per-call minimum. Host-wide noise (frequency drift, a
/// co-scheduled process) then hits both sides alike instead of skewing
/// whichever ran during the slow window, which matters for a gated ratio.
template <typename FnA, typename FnB>
std::pair<double, double> MinOfBatchesPairMs(double target_ms, int batches,
                                             const FnA& a, const FnB& b) {
  const int reps_a = CalibrateReps(target_ms, a);
  const int reps_b = CalibrateReps(target_ms, b);
  double best_a = 0.0, best_b = 0.0;
  for (int batch = 0; batch < batches; ++batch) {
    const double ms_a = BatchMs(reps_a, a);
    const double ms_b = BatchMs(reps_b, b);
    if (batch == 0 || ms_a < best_a) best_a = ms_a;
    if (batch == 0 || ms_b < best_b) best_b = ms_b;
  }
  return {best_a, best_b};
}

/// Milliseconds of the fastest of `n` single calls.
template <typename Fn>
double MinOfNMs(int n, const Fn& fn) {
  double best = 0.0;
  for (int i = 0; i < n; ++i) {
    const double ms = OnceMs(fn);
    if (i == 0 || ms < best) best = ms;
  }
  return best;
}

// ---------------------------------------------------------------------------
// Flags.
// ---------------------------------------------------------------------------

struct BenchFlags {
  std::string json_path;  ///< --json; empty: write no record
  bool gate_only = false;
};

/// Parses bench `bench`'s command line, which takes no positional
/// arguments, against `flags` plus --threads, and applies --threads. An
/// error prints the reason and `usage` and exits 2.
inline void ParseFlagsOrExit(int argc, char** argv, const char* bench,
                             std::vector<Flag> flags,
                             const std::string& usage) {
  uint32_t threads = 0;
  flags.push_back(ThreadsFlag(&threads));
  const auto positional =
      ParseFlags(std::vector<std::string>(argv + 1, argv + argc), flags);
  std::string error;
  if (!positional.ok()) {
    error = positional.status().message();
  } else if (!positional->empty()) {
    error = "unexpected argument '" + positional->front() + "'";
  }
  if (!error.empty()) {
    std::fprintf(stderr, "%s: %s\n%s\n", bench, error.c_str(), usage.c_str());
    std::exit(2);
  }
  if (threads > 0) SetDefaultThreadCount(threads);
}

/// Parses the flags of a bench that takes only --threads N.
inline void ParseThreadsOrExit(int argc, char** argv, const char* bench) {
  ParseFlagsOrExit(argc, argv, bench, {},
                   std::string("usage: ") + bench + " [--threads N]");
}

/// Parses the flags of gated bench `bench`: --json, --gate-only and
/// --threads plus its own `extra` flags. See the top of this file for what
/// exits 2.
inline BenchFlags ParseBenchFlags(int argc, char** argv, const char* bench,
                                  std::vector<Flag> extra = {}) {
  std::string usage = std::string("usage: ") + bench +
                      " [--json PATH | --gate-only] [--threads N]";
  for (const Flag& flag : extra) {
    usage += " [" + flag.name + " " + flag.metavar + "]";
  }
  BenchFlags flags;
  extra.push_back(StringFlag("--json", &flags.json_path, "PATH"));
  extra.push_back(BoolFlag("--gate-only", &flags.gate_only));
  ParseFlagsOrExit(argc, argv, bench, std::move(extra), usage);
  if (flags.gate_only && !flags.json_path.empty()) {
    std::fprintf(stderr, "%s: --json and --gate-only are exclusive\n%s\n",
                 bench, usage.c_str());
    std::exit(2);
  }
  if (!flags.json_path.empty() && !IsReleaseBuild()) {
    std::fprintf(stderr,
                 "%s: refusing to emit gated JSON from a '%s' build; configure "
                 "with -DCMAKE_BUILD_TYPE=Release (bench/run_bench.sh does "
                 "this in build-bench/)\n",
                 bench, BuildType());
    std::exit(2);
  }
  return flags;
}

// ---------------------------------------------------------------------------
// Scratch directory.
// ---------------------------------------------------------------------------

/// A fresh directory under the system temp dir, unique to this run (so
/// concurrent runs never share a cache) and removed with everything in it
/// when the object goes out of scope.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag) {
    path_ = (std::filesystem::temp_directory_path() /
             ("ssum_" + tag + "_XXXXXX"))
                .string();
    if (mkdtemp(path_.data()) == nullptr) {
      std::fprintf(stderr, "cannot create scratch dir %s\n", path_.c_str());
      std::exit(1);
    }
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// ---------------------------------------------------------------------------
// BENCH record writer.
// ---------------------------------------------------------------------------

/// One BENCH record: a JSON object that opens with the header every record
/// carries (bench, build_type, hardware_threads). Members of the root object
/// and the elements of its arrays go one per line; deeper values stay
/// inline.
class JsonRecord {
 public:
  explicit JsonRecord(std::string_view bench) : out_(1, '{') {
    open_.push_back({'}', true});
    Field("bench", bench);
    Field("build_type", BuildType());
    Field("hardware_threads", HardwareThreadCount());
  }

  /// A double, printed with `decimals` digits after the point.
  JsonRecord& Field(std::string_view key, double v, int decimals = 4) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
    return Raw(key, buf);
  }
  template <typename T>
    requires std::is_integral_v<T>
  JsonRecord& Field(std::string_view key, T v) {
    return Raw(key, std::to_string(v));
  }
  JsonRecord& Field(std::string_view key, bool v) {
    return Raw(key, v ? "true" : "false");
  }
  JsonRecord& Field(std::string_view key, std::string_view v) {
    std::string quoted(1, '"');
    for (char c : v) {
      if (c == '"' || c == '\\') quoted += '\\';
      quoted += c;
    }
    quoted += '"';
    return Raw(key, quoted);
  }
  JsonRecord& Field(std::string_view key, const char* v) {
    return Field(key, std::string_view(v));
  }

  /// Opens an object ('{') or array ('[') as member `key`; an empty key
  /// opens an element of the enclosing array. Close() ends it.
  JsonRecord& Open(std::string_view key, char bracket) {
    Raw(key, std::string(1, bracket));
    open_.push_back({bracket == '{' ? '}' : ']', true});
    return *this;
  }
  JsonRecord& Close() {
    const auto [closer, empty] = open_.back();
    if (!empty && open_.size() <= 2) NewLine(open_.size() - 1);
    open_.pop_back();
    out_ += closer;
    return *this;
  }

  /// Closes what is still open and writes the record to `path`; false, with
  /// a message, when the file cannot be written.
  bool Write(const std::string& path) {
    while (!open_.empty()) Close();
    std::ofstream out(path, std::ios::trunc);
    out << out_ << '\n';
    out.close();
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return false;
    }
    std::fprintf(stderr, "JSON written to %s\n", path.c_str());
    return true;
  }

 private:
  JsonRecord& Raw(std::string_view key, const std::string& text) {
    auto& [closer, empty] = open_.back();
    if (!empty) out_ += ',';
    if (open_.size() <= 2) {
      NewLine(open_.size());
    } else if (!empty) {
      out_ += ' ';
    }
    empty = false;
    if (!key.empty()) {
      out_ += '"';
      out_ += key;
      out_ += "\": ";
    }
    out_ += text;
    return *this;
  }
  void NewLine(size_t depth) {
    out_ += '\n';
    out_.append(2 * depth, ' ');
  }

  std::string out_;
  struct Level {
    char closer;
    bool empty;
  };
  std::vector<Level> open_;
};

// ---------------------------------------------------------------------------
// Helpers more than one bench needs.
// ---------------------------------------------------------------------------

/// Byte equality of two matrices: what the bit-identity gates compare.
inline bool SameBytes(const SquareMatrix& a, const SquareMatrix& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.data().size() * sizeof(double)) == 0;
}

/// The largest k in [2, 8] below `candidates` whose full C(candidates, k)
/// enumeration fits `budget`, so an exact MaxCoverage at that k really is
/// the Figure 6 enumeration; 0 when no k qualifies.
inline size_t LargestEnumerableK(size_t candidates, uint64_t budget) {
  const auto binomial = [](uint64_t n, uint64_t k) {
    k = std::min(k, n - k);
    uint64_t r = 1;
    for (uint64_t i = 1; i <= k; ++i) r = r * (n - k + i) / i;
    return r;
  };
  size_t k = 0;
  for (size_t cand_k = 2; cand_k <= 8 && cand_k < candidates; ++cand_k) {
    if (binomial(candidates, cand_k) <= budget) k = cand_k;
  }
  return k;
}

}  // namespace ssum::bench
