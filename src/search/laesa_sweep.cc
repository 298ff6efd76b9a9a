#include "search/laesa_sweep.h"

#include <stdexcept>
#include <string>

namespace cned {

SweepCompactResult SeedSegmentFromRow(const StringDistance& distance,
                                      std::string_view query,
                                      const SweepSegment& seg,
                                      const double* row,
                                      std::size_t num_pivots, double bound,
                                      std::uint32_t* idx, double* lower) {
  const SweepKernels& kern = ActiveSweepKernels();
  distance.LengthLowerBounds(query.size(), seg.lengths, seg.size, lower);
  for (std::size_t p = 0; p < num_pivots; ++p) {
    QuantUpdateLowerDense(kern, seg.table, p, seg.size, row[p], lower);
  }
  // Masked slots go to +inf before the compaction (every row update is a
  // running max, so the order is immaterial), so a deleted prototype is
  // never admitted.
  if (seg.tombstones != nullptr) {
    ApplyTombstoneMask(seg.tombstones, seg.size, lower);
  }
  const auto base = static_cast<std::uint32_t>(seg.base);
  if (seg.rank != nullptr) {
    return kern.compact_seed(lower, seg.rank, seg.size, base, bound, idx,
                             lower);
  }
  // No pivot to skip (an insert delta): the seed compaction is the plain
  // eliminate-and-compact over the ascending ids, with the same keep rule
  // and the same minimal-bound survivor.
  FillIotaCountPivots(idx, nullptr, seg.size, base);
  return kern.eliminate_and_compact(idx, lower, seg.size,
                                    /*skip=*/0xFFFFFFFFu, bound);
}

double ApproximationSlack(double epsilon, const char* who) {
  if (!(epsilon >= 0.0)) {
    throw std::invalid_argument(std::string(who) +
                                ": epsilon must be >= 0");
  }
  return 1.0 + epsilon;
}

namespace laesa_sweep_internal {

SweepScratch& SegmentedScratch(std::size_t n, std::size_t segments) {
  SweepScratch& scratch = TlsSweepScratch();
  scratch.idx.resize(n);
  scratch.lower.resize(n);
  scratch.segment_live.resize(segments);
  scratch.segment_pass.resize(segments);
  return scratch;
}

}  // namespace laesa_sweep_internal
}  // namespace cned
