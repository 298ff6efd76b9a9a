#ifndef CNED_TESTS_PIVOT_TABLE_REFERENCE_H_
#define CNED_TESTS_PIVOT_TABLE_REFERENCE_H_

// The LAESA preprocessing written the slow, obviously sequential way, for
// the suites that pin the one-pass row-parallel build to it bit for bit
// (pivot_selection_test, laesa_test, sharded_laesa_test).

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "datasets/dictionary_gen.h"
#include "distances/distance.h"

namespace cned {

struct ReferencePivotTable {
  std::vector<std::size_t> pivots;
  /// table[p * n + i] = d(prototypes[pivots[p]], prototypes[i]).
  std::vector<double> table;
};

/// Greedy max-min selection as one sequential loop that evaluates only the
/// entries it scans (skipping chosen pivots and their duplicates), then
/// every table entry recomputed one at a time, pivot first. `StoreT` needs
/// size() and operator[] (flat or sharded store).
template <typename StoreT>
ReferencePivotTable ReferenceMaxMinBuild(const StoreT& prototypes,
                                         const StringDistance& distance,
                                         std::size_t count,
                                         std::size_t first = 0) {
  const std::size_t n = prototypes.size();
  ReferencePivotTable ref;
  std::vector<double> min_dist(n, std::numeric_limits<double>::infinity());
  std::size_t current = first;
  ref.pivots.push_back(current);
  while (ref.pivots.size() < count) {
    std::size_t next = 0;
    double best = -1.0;
    for (std::size_t i = 0; i < n; ++i) {
      if (min_dist[i] == 0.0) continue;
      const double d = distance.Distance(prototypes[current], prototypes[i]);
      min_dist[i] = std::min(min_dist[i], d);
      if (min_dist[i] > best) {
        best = min_dist[i];
        next = i;
      }
    }
    if (best <= 0.0) break;
    min_dist[next] = 0.0;
    ref.pivots.push_back(next);
    current = next;
  }
  for (const std::size_t pivot : ref.pivots) {
    for (std::size_t i = 0; i < n; ++i) {
      ref.table.push_back(distance.Distance(prototypes[pivot], prototypes[i]));
    }
  }
  return ref;
}

/// True when the two arrays hold the same bytes (bit-identity, not ==).
inline bool SameBits(const double* a, const double* b, std::size_t n) {
  return std::memcmp(a, b, n * sizeof(double)) == 0;
}

/// A small dictionary with its first `copies` words appended again, so
/// max-min selection meets prototypes at distance 0 from a pivot.
inline std::vector<std::string> WordsWithDuplicates(std::size_t words,
                                                    std::size_t copies,
                                                    std::uint64_t seed) {
  DictionaryOptions opt;
  opt.word_count = words;
  opt.seed = seed;
  std::vector<std::string> protos = GenerateDictionary(opt).strings;
  for (std::size_t i = 0; i < copies; ++i) protos.push_back(protos[i]);
  return protos;
}

}  // namespace cned

#endif  // CNED_TESTS_PIVOT_TABLE_REFERENCE_H_
