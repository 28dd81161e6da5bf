// Deterministic fallback driver for the fuzz harnesses.
//
// The container toolchain is gcc, which has no libFuzzer, so each harness
// links this main() instead of -fsanitize=fuzzer. It is not a coverage-guided
// fuzzer — it is a reproducible smoke fuzzer for CI:
//
//   1. replays every file in the corpus directories given as positional
//      arguments (the regression corpus under fuzz/corpus/), then
//   2. runs --iterations generated inputs from a seeded xorshift64* stream,
//      mixing three strategies: raw random bytes, mutations of random corpus
//      seeds (bit flips, truncations, splices, duplications), and
//      structure-aware assembly from a token dictionary covering the XML,
//      DDL, CSV and ssum text-format grammars.
//
// Same binary + same --seed => byte-identical input sequence, so a CI
// failure is reproducible locally with no corpus snapshot. With clang the
// harnesses build as real libFuzzer binaries and this file is not linked.
//
// Usage: fuzz_<target> [--iterations N] [--seed S] [--max-len N]
//                      [corpus-dir-or-file ...]

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "common/flags.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size);

namespace {

/// xorshift64* — deterministic across platforms, no <random> involvement.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed ? seed : 0x9e3779b97f4a7c15ull) {}

  uint64_t Next() {
    state_ ^= state_ >> 12;
    state_ ^= state_ << 25;
    state_ ^= state_ >> 27;
    return state_ * 0x2545f4914f6cdd1dull;
  }

  /// Uniform in [0, bound); bound must be nonzero.
  size_t Below(size_t bound) { return static_cast<size_t>(Next() % bound); }

 private:
  uint64_t state_;
};

/// Grammar fragments for the structure-aware strategy. One shared dictionary
/// serves all four harnesses; tokens outside a parser's grammar just become
/// malformed input, which is equally useful.
const char* const kDictionary[] = {
    // XML
    "<", ">", "</", "/>", "=", "\"", "'", "<?xml version=\"1.0\"?>", "?>",
    "<!--", "-->", "<![CDATA[", "]]>", "<!DOCTYPE", "[", "]",
    "&lt;", "&gt;", "&amp;", "&quot;", "&apos;", "&#65;", "&#x41;", "&",
    "<site>", "</site>", "<person id=\"p0\">", "</person>", "<a>", "</a>",
    // DDL
    "CREATE TABLE ", "PRIMARY KEY", "FOREIGN KEY ", " REFERENCES ",
    "INTEGER", "VARCHAR", "VARCHAR(79)", "DECIMAL(12,2)", "DATE",
    "NOT NULL", "UNIQUE", "DEFAULT 0", "(", ")", ",", ";", "--", "`", "\"x\"",
    // CSV
    "|", ",,", "\"\"", "\"a,b\"", "a,b,c", "1|x|2.5|",
    // ssum text formats
    "ssum-schema v1\n", "ssum-summary v1\n",
    "e\t0\t-\tRcd\tsite\n", "e\t1\t0\tSetOf Rcd\tperson\n",
    "v\t1\t2\t-\t-\n", "a\t2\n", "m\t3\t2\n", "\t", "-",
    // General
    "0", "1", "2", "7", "42", "4294967295", "-1", "65536", "\n", "\r\n",
    " ", "site", "person", "auction", "id", "name",
};

std::vector<std::string> LoadCorpus(const std::vector<std::string>& paths) {
  namespace fs = std::filesystem;
  std::vector<std::string> corpus;
  auto load_file = [&corpus](const fs::path& p) {
    std::ifstream in(p, std::ios::binary);
    if (!in) return;
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    corpus.push_back(std::move(bytes));
  };
  for (const std::string& arg : paths) {
    std::error_code ec;
    if (fs::is_directory(arg, ec)) {
      std::vector<fs::path> files;
      for (const auto& entry : fs::recursive_directory_iterator(arg, ec)) {
        if (entry.is_regular_file(ec)) files.push_back(entry.path());
      }
      // Directory iteration order is filesystem-dependent; sort so the
      // corpus (and therefore every derived mutation) is deterministic.
      std::sort(files.begin(), files.end());
      for (const auto& p : files) load_file(p);
    } else {
      load_file(arg);
    }
  }
  return corpus;
}

std::string RandomBytes(Rng& rng, size_t max_len) {
  std::string out(rng.Below(max_len + 1), '\0');
  for (char& c : out) c = static_cast<char>(rng.Next() & 0xff);
  return out;
}

std::string Mutate(Rng& rng, const std::vector<std::string>& corpus,
                   size_t max_len) {
  std::string out = corpus[rng.Below(corpus.size())];
  const size_t edits = 1 + rng.Below(8);
  for (size_t e = 0; e < edits; ++e) {
    switch (rng.Below(5)) {
      case 0:  // flip a byte
        if (!out.empty()) {
          out[rng.Below(out.size())] =
              static_cast<char>(rng.Next() & 0xff);
        }
        break;
      case 1:  // truncate
        if (!out.empty()) out.resize(rng.Below(out.size() + 1));
        break;
      case 2: {  // insert a dictionary token
        const char* tok =
            kDictionary[rng.Below(std::size(kDictionary))];
        out.insert(rng.Below(out.size() + 1), tok);
        break;
      }
      case 3: {  // splice with another corpus entry
        const std::string& other = corpus[rng.Below(corpus.size())];
        if (!other.empty()) {
          out.insert(rng.Below(out.size() + 1), other, 0,
                     rng.Below(other.size()) + 1);
        }
        break;
      }
      case 4:  // duplicate a slice of itself (nesting amplifier)
        if (!out.empty()) {
          size_t from = rng.Below(out.size());
          size_t len = rng.Below(out.size() - from) + 1;
          out.insert(rng.Below(out.size() + 1), out.substr(from, len));
        }
        break;
    }
    if (out.size() > max_len) out.resize(max_len);
  }
  return out;
}

std::string Assemble(Rng& rng, size_t max_len) {
  std::string out;
  const size_t tokens = 1 + rng.Below(64);
  for (size_t t = 0; t < tokens && out.size() < max_len; ++t) {
    if (rng.Below(8) == 0) {
      out.push_back(static_cast<char>(rng.Next() & 0xff));
    } else {
      out += kDictionary[rng.Below(std::size(kDictionary))];
    }
  }
  if (out.size() > max_len) out.resize(max_len);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  uint64_t iterations = 1000;
  uint64_t seed = 1;
  size_t max_len = 4096;
  bool help = false;
  const auto corpus_paths = ssum::ParseFlags(
      std::vector<std::string>(argv + 1, argv + argc),
      {ssum::IntFlag("--iterations", &iterations, 0, INT64_MAX),
       ssum::IntFlag("--seed", &seed, 0, INT64_MAX),
       // Bounded so that RandomBytes' max_len + 1 cannot wrap to 0.
       ssum::IntFlag("--max-len", &max_len, 0, int64_t{1} << 30),
       ssum::BoolFlag("--help", &help), ssum::BoolFlag("-h", &help)});
  const char* const usage =
      "usage: %s [--iterations N] [--seed S] [--max-len N] "
      "[corpus-dir-or-file ...]\n";
  if (!corpus_paths.ok()) {
    std::fprintf(stderr, "fuzz driver: %s\n",
                 corpus_paths.status().message().c_str());
    std::fprintf(stderr, usage, argv[0]);
    return 2;
  }
  if (help) {
    std::printf(usage, argv[0]);
    std::printf(
        "Replays the corpus, then runs N deterministic generated inputs\n"
        "(raw bytes, corpus mutations, dictionary assembly) through\n"
        "LLVMFuzzerTestOneInput. Same seed => same inputs.\n");
    return 0;
  }

  const std::vector<std::string> corpus = LoadCorpus(*corpus_paths);
  for (const std::string& input : corpus) {
    LLVMFuzzerTestOneInput(reinterpret_cast<const uint8_t*>(input.data()),
                           input.size());
  }

  Rng rng(seed);
  for (uint64_t i = 0; i < iterations; ++i) {
    std::string input;
    switch (rng.Below(corpus.empty() ? 2 : 4)) {
      case 0:
        input = RandomBytes(rng, max_len);
        break;
      case 1:
        input = Assemble(rng, max_len);
        break;
      default:
        input = Mutate(rng, corpus, max_len);
        break;
    }
    LLVMFuzzerTestOneInput(reinterpret_cast<const uint8_t*>(input.data()),
                           input.size());
  }
  std::printf("fuzz driver: %zu corpus inputs + %llu generated inputs, ok\n",
              corpus.size(), static_cast<unsigned long long>(iterations));
  return 0;
}
