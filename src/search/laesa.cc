#include "search/laesa.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <istream>
#include <limits>
#include <ostream>
#include <stdexcept>
#include <string>

#include "common/binary_io.h"
#include "search/laesa_sweep.h"
#include "search/pivot_selection.h"
#include "search/sweep_kernel.h"

namespace cned {

Laesa::Laesa(PrototypeStoreRef prototypes, StringDistancePtr distance,
             std::size_t num_pivots, std::size_t first_pivot,
             TablePrecision table_precision)
    : prototypes_(prototypes),
      distance_(std::move(distance)),
      precision_(table_precision) {
  const std::size_t n = store().size();
  if (n == 0) {
    throw std::invalid_argument("Laesa: empty prototype set");
  }
  num_pivots = std::min(num_pivots, n);
  if (num_pivots == 0) {
    throw std::invalid_argument("Laesa: need at least one pivot");
  }
  CheckSweepPrototypeCount(n, "Laesa");
  // The selection's distance rows are the table: appended as each pivot
  // is chosen, never recomputed.
  pivot_dist_.reserve(num_pivots * n);
  pivots_ = SelectPivotsMaxMin(
      store(), *distance_, num_pivots, first_pivot, [&](const double* row) {
        pivot_dist_.insert(pivot_dist_.end(), row, row + n);
      });
  FinishTable();
}

Laesa::Laesa(PrototypeStoreRef prototypes, StringDistancePtr distance,
             std::vector<std::size_t> pivot_indices,
             TablePrecision table_precision)
    : prototypes_(prototypes),
      distance_(std::move(distance)),
      pivots_(std::move(pivot_indices)),
      precision_(table_precision) {
  const std::size_t n = store().size();
  if (n == 0) {
    throw std::invalid_argument("Laesa: empty prototype set");
  }
  if (pivots_.empty()) {
    throw std::invalid_argument("Laesa: need at least one pivot");
  }
  for (std::size_t p : pivots_) {
    if (p >= n) {
      throw std::invalid_argument("Laesa: pivot index out of range");
    }
  }
  CheckSweepPrototypeCount(n, "Laesa");
  pivot_dist_.resize(pivots_.size() * n);
  for (std::size_t p = 0; p < pivots_.size(); ++p) {
    FillPivotTableRow(store(), *distance_, pivots_[p],
                      pivot_dist_.data() + p * n);
  }
  FinishTable();
}

void Laesa::FinishTable() {
  const std::size_t n = store().size();
  pivot_rank_.assign(n, -1);
  for (std::size_t p = 0; p < pivots_.size(); ++p) {
    pivot_rank_[pivots_[p]] = static_cast<std::int32_t>(p);
  }
  preprocessing_computations_ =
      static_cast<std::uint64_t>(pivots_.size()) * n;
  if (precision_ != TablePrecision::kF64) {
    // Quantize row by row (round-down codes + per-row gap, table_quant.h)
    // and drop the exact table — the narrow codes ARE the index from here
    // on, so build, save, load and map all sweep the same bytes.
    const std::size_t width = TablePrecisionBytes(precision_);
    quant_table_.resize(pivots_.size() * n * width);
    row_meta_.resize(pivots_.size());
    for (std::size_t p = 0; p < pivots_.size(); ++p) {
      QuantRowEncoder enc;
      enc.Scan(pivot_dist_.data() + p * n, n);
      enc.Prepare(precision_);
      enc.Encode(pivot_dist_.data() + p * n, n,
                 quant_table_.data() + p * n * width);
      row_meta_[p] = enc.Finish();
    }
    pivot_dist_.clear();
    pivot_dist_.shrink_to_fit();
  }
}

// The flat index as the shared sweep sees it (search/laesa_sweep.h): one
// segment over the whole store.
struct Laesa::SweepLayout {
  const StringDistance& distance;
  const std::vector<std::size_t>& pivots;
  const std::int32_t* pivot_rank;
  std::size_t size;
  const PrototypeStore& store;
  QuantTableView table;
  const std::uint64_t* tombstones;

  std::size_t segment_count() const { return 1; }
  SweepSegment segment(std::size_t) const {
    return {0, size, store.lengths_data(), table, pivot_rank, tombstones};
  }
  std::size_t segment_of(std::size_t) const { return 0; }
  std::string_view view(std::size_t id) const { return store[id]; }
};

Laesa::SweepLayout Laesa::layout(const std::uint64_t* tombstones) const {
  return {*distance_, pivots_,      pivot_rank_.data(), store().size(),
          store(),    table_view(), tombstones};
}

SweepSegment Laesa::sweep_segment() const { return layout().segment(0); }

void Laesa::ComputePivotRow(std::string_view query, double* row,
                            QueryStats* stats) const {
  const PrototypeStore& protos = store();
  for (std::size_t p = 0; p < pivots_.size(); ++p) {
    row[p] = distance_->Distance(query, protos[pivots_[p]]);
  }
  if (stats != nullptr) {
    stats->distance_computations += pivots_.size();
    stats->pivot_computations += pivots_.size();
  }
}

NeighborResult Laesa::NearestWithPivotRow(std::string_view query,
                                          const double* row,
                                          QueryStats* stats) const {
  return LaesaRowSweep(layout(), query, 1, row, stats, nullptr).front();
}

std::vector<NeighborResult> Laesa::KNearestWithPivotRow(
    std::string_view query, std::size_t k, const double* row,
    QueryStats* stats) const {
  return LaesaRowSweep(layout(), query, k, row, stats, nullptr);
}

NeighborResult Laesa::Nearest(std::string_view query,
                              QueryStats* stats) const {
  return LaesaLazySweep(layout(), query, 1, /*slack=*/1.0, stats, nullptr)
      .front();
}

NeighborResult Laesa::NearestApprox(std::string_view query, double epsilon,
                                    QueryStats* stats) const {
  const double slack = ApproximationSlack(epsilon, "Laesa::NearestApprox");
  return LaesaLazySweep(layout(), query, 1, slack, stats, nullptr).front();
}

std::vector<NeighborResult> Laesa::KNearest(std::string_view query,
                                            std::size_t k,
                                            QueryStats* stats) const {
  return LaesaLazySweep(layout(), query, k, /*slack=*/1.0, stats, nullptr);
}

std::vector<NeighborResult> Laesa::KNearestMasked(
    std::string_view query, std::size_t k, const std::uint64_t* tombstones,
    QueryStats* stats) const {
  return LaesaLazySweep(layout(tombstones), query, k, /*slack=*/1.0, stats,
                        nullptr);
}

std::vector<NeighborResult> Laesa::RangeSearch(std::string_view query,
                                               double radius,
                                               QueryStats* stats) const {
  const PrototypeStore& protos = store();
  const std::size_t n = protos.size();
  const SweepKernels& kern = ActiveSweepKernels();
  SweepScratch& scratch = TlsSweepScratch();
  scratch.lower.resize(n);
  double* lower = scratch.lower.data();
  // Length-difference bounds seed the candidate filter for free, as in the
  // nearest-neighbour sweep.
  distance_->LengthLowerBounds(query.size(), protos.lengths_data(), n, lower);

  std::vector<NeighborResult> hits;
  std::uint64_t computations = 0, abandons = 0;

  // Phase 1: compute query-pivot distances, tighten every lower bound with
  // the pivot's contiguous table row (the dense streamed-max kernel). Pivot
  // distances stay exact: their full value feeds every candidate's lower
  // bound, which is worth far more than an abandoned evaluation saves.
  const QuantTableView view = table_view();
  for (std::size_t p = 0; p < pivots_.size(); ++p) {
    const std::size_t s = pivots_[p];
    const double d = distance_->Distance(query, protos[s]);
    ++computations;
    if (d <= radius) hits.push_back({s, d});
    QuantUpdateLowerDense(kern, view, p, n, d, lower);
  }
  // Phase 2: verify every surviving non-pivot (pivots were computed in
  // phase 1). Hits are inclusive (d <= radius), so the kernel bound is the
  // next representable value above the radius — an abandoned evaluation
  // then certifies d > radius.
  const double cap =
      std::nextafter(radius, std::numeric_limits<double>::infinity());
  for (std::size_t i = 0; i < n; ++i) {
    if (pivot_rank_[i] >= 0 || lower[i] > radius) continue;
    const double d = distance_->DistanceBounded(query, protos[i], cap);
    ++computations;
    if (d >= cap) {
      ++abandons;
    } else if (d <= radius) {
      hits.push_back({i, d});
    }
  }
  std::sort(hits.begin(), hits.end(), NeighborLess);
  if (stats != nullptr) {
    stats->distance_computations += computations;
    stats->bounded_abandons += abandons;
    stats->pivot_computations += pivots_.size();
  }
  return hits;
}

// Text format: "LAESA 1" is the original exact-table form, written for f64
// indexes exactly as before. Quantized indexes write "LAESA 2 <precision>"
// followed by the per-row decode meta (precision-17 doubles: round-trip
// exact) and the codes as integers — u8 values, f16 bit patterns, f32 bit
// patterns — so a text round-trip restores the codes bit for bit.
void Laesa::Save(std::ostream& out) const {
  const std::size_t n = store().size();
  const std::size_t entries = pivots_.size() * n;
  if (precision_ == TablePrecision::kF64) {
    out << "LAESA 1\n" << n << ' ' << pivots_.size() << '\n';
  } else {
    out << "LAESA 2 " << TablePrecisionName(precision_) << '\n'
        << n << ' ' << pivots_.size() << '\n';
  }
  for (std::size_t p : pivots_) out << p << ' ';
  out << '\n';
  out.precision(17);
  switch (precision_) {
    case TablePrecision::kF64: {
      const double* table = table_data();
      for (std::size_t t = 0; t < entries; ++t) out << table[t] << ' ';
      break;
    }
    case TablePrecision::kF32: {
      for (const QuantRowMeta* m = row_meta_data();
           m != row_meta_data() + pivots_.size(); ++m) {
        out << m->scale << ' ' << m->offset << ' ' << m->gap << '\n';
      }
      const float* codes = static_cast<const float*>(quant_data());
      for (std::size_t t = 0; t < entries; ++t) {
        std::uint32_t bits;
        std::memcpy(&bits, codes + t, sizeof(bits));
        out << bits << ' ';
      }
      break;
    }
    case TablePrecision::kF16: {
      for (const QuantRowMeta* m = row_meta_data();
           m != row_meta_data() + pivots_.size(); ++m) {
        out << m->scale << ' ' << m->offset << ' ' << m->gap << '\n';
      }
      const std::uint16_t* codes =
          static_cast<const std::uint16_t*>(quant_data());
      for (std::size_t t = 0; t < entries; ++t) out << codes[t] << ' ';
      break;
    }
    case TablePrecision::kU8: {
      for (const QuantRowMeta* m = row_meta_data();
           m != row_meta_data() + pivots_.size(); ++m) {
        out << m->scale << ' ' << m->offset << ' ' << m->gap << '\n';
      }
      const std::uint8_t* codes =
          static_cast<const std::uint8_t*>(quant_data());
      for (std::size_t t = 0; t < entries; ++t) {
        out << static_cast<unsigned>(codes[t]) << ' ';
      }
      break;
    }
  }
  out << '\n';
}

Laesa Laesa::Load(std::istream& in, PrototypeStoreRef prototypes,
                  StringDistancePtr distance) {
  std::string magic;
  int version = 0;
  in >> magic >> version;
  if (!in || magic != "LAESA" || (version != 1 && version != 2)) {
    throw std::runtime_error("Laesa::Load: bad header");
  }
  TablePrecision precision = TablePrecision::kF64;
  if (version == 2) {
    std::string name;
    in >> name;
    if (!in || !ParseTablePrecision(name, &precision) ||
        precision == TablePrecision::kF64) {
      throw std::runtime_error("Laesa::Load: bad table precision");
    }
  }
  std::size_t n = 0, np = 0;
  in >> n >> np;
  if (!in) throw std::runtime_error("Laesa::Load: bad header");
  if (n != prototypes->size()) {
    throw std::runtime_error("Laesa::Load: prototype count mismatch");
  }
  if (np == 0 || np > n) {
    throw std::runtime_error("Laesa::Load: bad pivot count");
  }
  Laesa index(InternalTag{}, prototypes, std::move(distance));
  index.precision_ = precision;
  index.pivots_.resize(np);
  for (std::size_t& p : index.pivots_) {
    in >> p;
    if (!in || p >= n) throw std::runtime_error("Laesa::Load: bad pivot");
  }
  CheckSweepPrototypeCount(n, "Laesa::Load");
  index.pivot_rank_.assign(n, -1);
  for (std::size_t p = 0; p < np; ++p) {
    index.pivot_rank_[index.pivots_[p]] = static_cast<std::int32_t>(p);
  }
  if (precision == TablePrecision::kF64) {
    index.pivot_dist_.resize(np * n);
    for (double& d : index.pivot_dist_) {
      in >> d;
      if (!in) throw std::runtime_error("Laesa::Load: truncated table");
    }
    return index;
  }
  index.row_meta_.resize(np);
  for (QuantRowMeta& m : index.row_meta_) {
    in >> m.scale >> m.offset >> m.gap;
    if (!in) throw std::runtime_error("Laesa::Load: truncated table");
  }
  const std::size_t width = TablePrecisionBytes(precision);
  index.quant_table_.resize(np * n * width);
  for (std::size_t t = 0; t < np * n; ++t) {
    std::uint32_t code = 0;
    in >> code;
    if (!in) throw std::runtime_error("Laesa::Load: truncated table");
    switch (precision) {
      case TablePrecision::kF32:
        std::memcpy(index.quant_table_.data() + t * 4, &code, 4);
        break;
      case TablePrecision::kF16: {
        const std::uint16_t h = static_cast<std::uint16_t>(code);
        std::memcpy(index.quant_table_.data() + t * 2, &h, 2);
        break;
      }
      default:
        index.quant_table_[t] = static_cast<unsigned char>(code);
        break;
    }
  }
  return index;
}

namespace {
constexpr char kLaesaMagic[8] = {'C', 'N', 'E', 'D', 'L', 'S', 'A', '1'};
constexpr std::uint32_t kLaesaVersion = 1;
// Version 2 adds quantized tables: counts gain the precision, and a 32-byte
// per-row QuantRowMeta section sits between the pivots and the (narrow)
// code table. f64 indexes keep writing version 1, byte-identical to every
// snapshot produced before quantization existed.
constexpr std::uint32_t kLaesaVersionQuant = 2;
}  // namespace

void Laesa::Save(const std::string& path) const {
  BinaryWriter writer(path);
  static_assert(sizeof(std::size_t) == sizeof(std::uint64_t),
                "64-bit pivot indices expected");
  if (precision_ == TablePrecision::kF64) {
    const std::uint64_t counts[2] = {store().size(), pivots_.size()};
    writer.Header(kLaesaMagic, kLaesaVersion, counts, 2);
    writer.Align();
    writer.Raw(pivots_.data(), pivots_.size() * sizeof(std::uint64_t));
    writer.Align();
    // Through the view, so a mapped index re-snapshots byte-identically.
    writer.Raw(table_data(),
               pivots_.size() * store().size() * sizeof(double));
    writer.Finish();
    return;
  }
  const std::uint64_t counts[3] = {store().size(), pivots_.size(),
                                   static_cast<std::uint64_t>(precision_)};
  writer.Header(kLaesaMagic, kLaesaVersionQuant, counts, 3);
  writer.Align();
  writer.Raw(pivots_.data(), pivots_.size() * sizeof(std::uint64_t));
  writer.Align();
  writer.Raw(row_meta_data(), pivots_.size() * sizeof(QuantRowMeta));
  writer.Align();
  writer.Raw(quant_data(), pivots_.size() * store().size() *
                               TablePrecisionBytes(precision_));
  writer.Finish();
}

Laesa Laesa::Load(const std::string& path, PrototypeStoreRef prototypes,
                  StringDistancePtr distance) {
  BinaryReader reader(path);
  std::uint32_t version = 0;
  const auto counts =
      reader.Header(kLaesaMagic, kLaesaVersion, kLaesaVersionQuant, &version);
  const std::uint64_t n = counts[0];
  const std::uint64_t np = counts[1];
  if (n != prototypes->size()) {
    throw std::runtime_error("Laesa::Load: prototype count mismatch");
  }
  if (np == 0 || np > n) {
    throw std::runtime_error("Laesa::Load: bad pivot count");
  }
  Laesa index(InternalTag{}, prototypes, std::move(distance));
  reader.RequireArray(np, sizeof(std::uint64_t));
  index.pivots_.resize(np);
  reader.Align();
  reader.Raw(index.pivots_.data(), np * sizeof(std::uint64_t));
  CheckSweepPrototypeCount(n, "Laesa::Load");
  index.pivot_rank_.assign(n, -1);
  for (std::size_t p = 0; p < np; ++p) {
    if (index.pivots_[p] >= n) {
      throw std::runtime_error("Laesa::Load: pivot index out of range");
    }
    index.pivot_rank_[index.pivots_[p]] = static_cast<std::int32_t>(p);
  }
  if (version == kLaesaVersion) {
    reader.RequireArray(np * n, sizeof(double));
    index.pivot_dist_.resize(np * n);
    reader.Align();
    reader.Raw(index.pivot_dist_.data(), np * n * sizeof(double));
    return index;
  }
  index.precision_ = CheckedTablePrecision(counts[2], "Laesa::Load");
  const std::size_t width = TablePrecisionBytes(index.precision_);
  reader.RequireArray(np, sizeof(QuantRowMeta));
  index.row_meta_.resize(np);
  reader.Align();
  reader.Raw(index.row_meta_.data(), np * sizeof(QuantRowMeta));
  reader.RequireArray(np * n, width);
  index.quant_table_.resize(np * n * width);
  reader.Align();
  reader.Raw(index.quant_table_.data(), np * n * width);
  return index;
}

Laesa Laesa::Map(const std::string& path, PrototypeStoreRef prototypes,
                 StringDistancePtr distance) {
  MappedReader reader(MappedFile::Open(path));
  std::uint32_t version = 0;
  const auto counts =
      reader.Header(kLaesaMagic, kLaesaVersion, kLaesaVersionQuant, &version);
  const std::uint64_t n = counts[0];
  const std::uint64_t np = counts[1];
  if (n != prototypes->size()) {
    throw std::runtime_error("Laesa::Map: prototype count mismatch");
  }
  if (np == 0 || np > n) {
    throw std::runtime_error("Laesa::Map: bad pivot count");
  }
  Laesa index(InternalTag{}, prototypes, std::move(distance));
  // The pivot index array is tiny (np entries); copying it keeps the
  // `pivots()` API. The table — the O(pivots x N) bulk — stays a view.
  const std::uint64_t* pivots = reader.Array<std::uint64_t>(np);
  index.pivots_.assign(pivots, pivots + np);
  CheckSweepPrototypeCount(n, "Laesa::Map");
  index.pivot_rank_.assign(n, -1);
  for (std::size_t p = 0; p < np; ++p) {
    if (index.pivots_[p] >= n) {
      throw std::runtime_error("Laesa::Map: pivot index out of range");
    }
    index.pivot_rank_[index.pivots_[p]] = static_cast<std::int32_t>(p);
  }
  // np <= n <= the live store's size, so np * n cannot overflow before
  // Array()'s own division-form extent check sees it.
  if (version == kLaesaVersion) {
    index.mapped_table_ = reader.Array<double>(np * n);
    index.mapping_ = reader.file();
    return index;
  }
  index.precision_ = CheckedTablePrecision(counts[2], "Laesa::Map");
  index.mapped_meta_ = reader.Array<QuantRowMeta>(np);
  // The code section is served zero-copy too: the sweep reads the narrow
  // elements straight off the page cache through the kernels' widening
  // loads.
  index.mapped_quant_ =
      reader.Section(np * n, TablePrecisionBytes(index.precision_));
  index.mapping_ = reader.file();
  return index;
}

}  // namespace cned
