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
// checked-in trajectory never holds unoptimized numbers.
#pragma once

#include <algorithm>
#include <chrono>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/buildinfo.h"
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

/// A bench-specific value flag, given as "--name V" or "--name=V".
struct ValueFlag {
  std::string name;     ///< "--sf"
  std::string metavar;  ///< placeholder in the usage line
  /// Stores a well-formed value; false rejects it.
  std::function<bool(std::string_view)> set;
};

/// A finite double strictly above `above`.
inline ValueFlag DoubleFlag(std::string name, double* out, double above) {
  return {std::move(name), "X", [out, above](std::string_view v) {
            const auto r = ParseDouble(v);
            if (!r.ok() || !std::isfinite(*r) || !(*r > above)) return false;
            *out = *r;
            return true;
          }};
}

/// An int of at least `at_least`.
inline ValueFlag IntFlag(std::string name, int* out, int at_least) {
  return {std::move(name), "N", [out, at_least](std::string_view v) {
            const auto r = ParseInt64(v);
            if (!r.ok() || *r < at_least || *r > INT_MAX) return false;
            *out = static_cast<int>(*r);
            return true;
          }};
}

/// A non-empty string.
inline ValueFlag StringFlag(std::string name, std::string metavar,
                            std::string* out) {
  return {std::move(name), std::move(metavar), [out](std::string_view v) {
            if (v.empty()) return false;
            *out = v;
            return true;
          }};
}

/// Parses the flags of bench `bench` (--threads is applied and removed
/// first). See the top of this file for what exits 2.
inline BenchFlags ParseBenchFlags(int argc, char** argv, const char* bench,
                                  std::vector<ValueFlag> extra = {}) {
  const Result<uint32_t> threads = ConsumeThreadsFlag(&argc, argv);
  BenchFlags flags;
  extra.insert(extra.begin(), StringFlag("--json", "PATH", &flags.json_path));
  const auto usage = [&](const std::string& error) {
    std::string line = std::string("usage: ") + bench +
                       " [--json PATH | --gate-only] [--threads N]";
    for (size_t i = 1; i < extra.size(); ++i) {
      line += " [" + extra[i].name + " " + extra[i].metavar + "]";
    }
    std::fprintf(stderr, "%s: %s\n%s\n", bench, error.c_str(), line.c_str());
    std::exit(2);
  };
  if (!threads.ok()) usage(threads.status().message());
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--gate-only") {
      flags.gate_only = true;
      continue;
    }
    const size_t eq = arg.find('=');
    const std::string_view name = arg.substr(0, eq);
    const auto flag =
        std::find_if(extra.begin(), extra.end(),
                     [&](const ValueFlag& f) { return f.name == name; });
    if (flag == extra.end()) usage("unknown flag '" + std::string(arg) + "'");
    std::string_view value;
    if (eq != std::string_view::npos) {
      value = arg.substr(eq + 1);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      usage("missing value for " + flag->name);
    }
    if (!flag->set(value)) {
      usage("bad value '" + std::string(value) + "' for " + flag->name);
    }
  }
  if (flags.gate_only && !flags.json_path.empty()) {
    usage("--json and --gate-only are exclusive");
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

/// Applies and removes --threads for a bench that takes no other harness
/// flags; a missing or bad value prints the reason and exits 2.
inline void ConsumeThreadsFlagOrExit(int* argc, char** argv) {
  if (const Result<uint32_t> threads = ConsumeThreadsFlag(argc, argv);
      !threads.ok()) {
    std::fprintf(stderr, "%s\n", threads.status().ToString().c_str());
    std::exit(2);
  }
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
