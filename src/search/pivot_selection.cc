#include "search/pivot_selection.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string_view>

#include "common/parallel.h"

namespace cned {

namespace {

// Shared bodies: `StoreT` only needs size() and operator[] over the global
// index space, which both the flat and the sharded store provide — so both
// overloads compute the identical rows and pick the identical pivots on
// the same strings.
template <typename StoreT>
void FillRow(const StoreT& prototypes, const StringDistance& distance,
             std::size_t pivot, double* row) {
  const std::string_view s = prototypes[pivot];
  // One task per entry: the atomic work queue in ParallelFor balances the
  // load even when string lengths (and thus per-distance cost) vary
  // wildly. Every distance kernel is thread-safe (thread-local workspaces).
  ParallelFor(prototypes.size(), [&](std::size_t i) {
    row[i] = distance.Distance(s, prototypes[i]);
  });
}

template <typename StoreT>
std::vector<std::size_t> SelectPivotsMaxMinImpl(const StoreT& prototypes,
                                                const StringDistance& distance,
                                                std::size_t count,
                                                std::size_t first,
                                                const PivotRowSink& on_row) {
  const std::size_t n = prototypes.size();
  if (count > n) {
    throw std::invalid_argument("SelectPivotsMaxMin: count > prototypes");
  }
  if (first >= n) {
    throw std::invalid_argument("SelectPivotsMaxMin: first out of range");
  }
  std::vector<std::size_t> pivots;
  pivots.reserve(count);
  if (count == 0) return pivots;

  std::vector<double> min_dist(n, std::numeric_limits<double>::infinity());
  std::vector<double> row(n);
  std::size_t current = first;
  pivots.push_back(current);
  for (;;) {
    FillRow(prototypes, distance, current, row.data());
    if (on_row) on_row(row.data());
    if (pivots.size() == count) break;
    std::size_t next = 0;
    double best = -1.0;
    for (std::size_t i = 0; i < n; ++i) {
      if (min_dist[i] == 0.0) continue;  // already a pivot (or duplicate)
      min_dist[i] = std::min(min_dist[i], row[i]);
      if (min_dist[i] > best) {
        best = min_dist[i];
        next = i;
      }
    }
    if (best <= 0.0) break;  // all remaining prototypes coincide with pivots
    min_dist[next] = 0.0;
    pivots.push_back(next);
    current = next;
  }
  return pivots;
}

}  // namespace

std::vector<std::size_t> SelectPivotsMaxMin(const PrototypeStore& prototypes,
                                            const StringDistance& distance,
                                            std::size_t count,
                                            std::size_t first,
                                            const PivotRowSink& on_row) {
  return SelectPivotsMaxMinImpl(prototypes, distance, count, first, on_row);
}

std::vector<std::size_t> SelectPivotsMaxMin(
    const ShardedPrototypeStore& prototypes, const StringDistance& distance,
    std::size_t count, std::size_t first, const PivotRowSink& on_row) {
  return SelectPivotsMaxMinImpl(prototypes, distance, count, first, on_row);
}

std::vector<std::size_t> SelectPivotsMaxMin(
    const std::vector<std::string>& prototypes, const StringDistance& distance,
    std::size_t count, std::size_t first) {
  return SelectPivotsMaxMin(PrototypeStore(prototypes), distance, count,
                            first);
}

void FillPivotTableRow(const PrototypeStore& prototypes,
                       const StringDistance& distance, std::size_t pivot,
                       double* row) {
  FillRow(prototypes, distance, pivot, row);
}

std::vector<std::size_t> SelectPivotsRandom(std::size_t n_prototypes,
                                            std::size_t count, Rng& rng) {
  if (count > n_prototypes) {
    throw std::invalid_argument("SelectPivotsRandom: count > prototypes");
  }
  std::vector<std::size_t> all(n_prototypes);
  for (std::size_t i = 0; i < n_prototypes; ++i) all[i] = i;
  rng.Shuffle(all);
  all.resize(count);
  return all;
}

}  // namespace cned
