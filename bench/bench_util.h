#ifndef CNED_BENCH_BENCH_UTIL_H_
#define CNED_BENCH_BENCH_UTIL_H_

// Shared workload construction for the experiment harnesses. Each bench
// binary reproduces one table or figure of the paper; sizes default to a
// laptop-friendly fraction of the paper's and scale with CNED_SCALE (see
// common/config.h). Set CNED_SCALE=10 to approach the paper's sizes.
// Also the serving benches' scratch directory, percentile and exactness
// helpers.

#include <stdlib.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "common/config.h"
#include "datasets/dataset.h"
#include "datasets/dictionary_gen.h"
#include "datasets/digit_contours.h"
#include "datasets/dna_gen.h"
#include "serve/router.h"

namespace cned::bench {

/// Spanish-like dictionary (paper: 86,062 words; default here: 2,000).
inline Dataset MakeDictionary(std::size_t count, std::uint64_t seed) {
  DictionaryOptions opt;
  opt.word_count = count;
  opt.seed = seed;
  return GenerateDictionary(opt);
}

/// DNA gene families (paper: 20,660 Listeria genes; default here: short
/// sequences so the cubic baselines stay tractable).
inline Dataset MakeGenes(std::size_t count, std::uint64_t seed,
                         double median_length = 60.0) {
  DnaOptions opt;
  opt.sequence_count = count;
  opt.family_count = count / 8 + 1;
  opt.seed = seed;
  opt.median_length = median_length;
  opt.log_sigma = 0.8;
  opt.min_length = 10;
  opt.max_length = static_cast<std::size_t>(median_length * 8);
  return GenerateDnaGenes(opt);
}

/// Handwritten-digit contour strings (paper: NIST SD3).
inline Dataset MakeDigits(std::size_t per_class, std::uint64_t seed) {
  DigitContourOptions opt;
  opt.per_class = per_class;
  opt.seed = seed;
  opt.width = 24;
  opt.height = 32;
  opt.distortion = 1.0;  // unnormalised scribes, as in the paper
  return GenerateDigitContours(opt);
}

/// Prints the standard bench banner.
inline void Banner(const std::string& title, const std::string& paper_ref) {
  std::cout << "==========================================================\n"
            << title << "\n"
            << "Reproduces: " << paper_ref << "\n"
            << "scale=" << Config::Scale() << " seed=" << Config::Seed()
            << "  (set CNED_SCALE / CNED_SEED to adjust)\n"
            << "==========================================================\n";
}

/// A fresh directory under /tmp (a serving snapshot's home), removed with
/// its contents on destruction. `path` is empty if creation failed.
struct TempDir {
  std::string path;
  TempDir() {
    char tmpl[] = "/tmp/cned_bench_XXXXXX";
    const char* p = mkdtemp(tmpl);
    if (p != nullptr) path = p;
  }
  ~TempDir() {
    if (!path.empty()) std::filesystem::remove_all(path);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
};

/// The p-quantile (p in [0, 1]) of `v` by nearest rank; 0 when empty.
inline double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t i =
      std::min(v.size() - 1,
               static_cast<std::size_t>(p * static_cast<double>(v.size())));
  return v[i];
}

/// True when a served answer is healthy (not partial, not shed, no missing
/// shard) and bit-identical to the in-process reference: neighbours,
/// distances AND QueryStats.
inline bool Identical(const ServeResult& got,
                      const std::vector<NeighborResult>& want,
                      const QueryStats& want_stats) {
  if (got.partial || got.shed || !got.missing_shards.empty() ||
      got.neighbors.size() != want.size() || !(got.stats == want_stats)) {
    return false;
  }
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (got.neighbors[i].index != want[i].index ||
        got.neighbors[i].distance != want[i].distance) {
      return false;
    }
  }
  return true;
}

}  // namespace cned::bench

#endif  // CNED_BENCH_BENCH_UTIL_H_
