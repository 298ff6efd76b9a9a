#ifndef CNED_SEARCH_PIVOT_SELECTION_H_
#define CNED_SEARCH_PIVOT_SELECTION_H_

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "datasets/prototype_store.h"
#include "datasets/sharded_prototype_store.h"
#include "distances/distance.h"

namespace cned {

/// Receives one pivot-table row: row[i] = d(pivot, prototypes[i]) for
/// every prototype i. The row is valid only during the call.
using PivotRowSink = std::function<void(const double* row)>;

/// Greedy maximum-minimum-distance pivot (base prototype) selection, the
/// strategy of the LAESA paper (Micó, Oncina & Vidal 1994): start from
/// `first` and repeatedly add the prototype whose minimum distance to the
/// already-chosen pivots is largest. Returns up to `count` indices (fewer
/// once every remaining prototype coincides with a pivot).
///
/// Each chosen pivot's full distance row is computed once, row-parallel
/// (FillPivotTableRow), drives the choice of the next pivot, and is handed
/// to `on_row` in pivot order: the selection's rows ARE the LAESA pivot
/// table. Costs exactly (returned pivots) * |prototypes| distance
/// evaluations.
std::vector<std::size_t> SelectPivotsMaxMin(const PrototypeStore& prototypes,
                                            const StringDistance& distance,
                                            std::size_t count,
                                            std::size_t first = 0,
                                            const PivotRowSink& on_row = {});

/// Sharded overload over the global index space — identical selection and
/// rows to a flat store of the same strings (the sharded index's
/// bit-identity with the flat one starts here), without materialising a
/// flat copy.
std::vector<std::size_t> SelectPivotsMaxMin(
    const ShardedPrototypeStore& prototypes, const StringDistance& distance,
    std::size_t count, std::size_t first = 0, const PivotRowSink& on_row = {});

/// Convenience overload: packs `prototypes` into a temporary store.
std::vector<std::size_t> SelectPivotsMaxMin(
    const std::vector<std::string>& prototypes, const StringDistance& distance,
    std::size_t count, std::size_t first = 0);

/// One pivot-table row: row[i] = distance.Distance(prototypes[pivot],
/// prototypes[i]) for every i, pivot first (no symmetry shortcut — a
/// non-metric normalisation need not be symmetric to the last ulp), one
/// ParallelFor task per entry. |prototypes| distance evaluations.
void FillPivotTableRow(const PrototypeStore& prototypes,
                       const StringDistance& distance, std::size_t pivot,
                       double* row);

/// Uniform random pivots (the ablation baseline).
std::vector<std::size_t> SelectPivotsRandom(std::size_t n_prototypes,
                                            std::size_t count, Rng& rng);

}  // namespace cned

#endif  // CNED_SEARCH_PIVOT_SELECTION_H_
