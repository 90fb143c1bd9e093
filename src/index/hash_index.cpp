#include "index/hash_index.hpp"

#include <algorithm>

namespace manymap {

namespace {

using detail::bucket_hash;

std::size_t table_size_for(std::size_t keys) {
  std::size_t n = 16;
  while (n < keys * 2) n <<= 1;  // load factor <= 0.5
  return n;
}

/// Stable LSD radix sort of `mins` on the low `key_bits` bits of the key.
/// The scratch buffer is freed on return, before the caller allocates the
/// index tables, so it does not raise the build's peak memory.
void sort_by_key(std::vector<Minimizer>& mins, u32 key_bits) {
  constexpr u32 kDigitBits = 11;
  std::vector<Minimizer> scratch(mins.size());
  for (u32 shift = 0; shift < key_bits; shift += kDigitBits) {
    std::vector<std::size_t> start((std::size_t{1} << kDigitBits) + 1, 0);
    const auto digit = [&](const Minimizer& m) {
      return (m.key >> shift) & ((1u << kDigitBits) - 1);
    };
    for (const Minimizer& m : mins) ++start[digit(m) + 1];
    for (std::size_t d = 1; d < start.size(); ++d) start[d] += start[d - 1];
    for (const Minimizer& m : mins) scratch[start[digit(m)]++] = m;
    mins.swap(scratch);
  }
}

}  // namespace

MinimizerIndex MinimizerIndex::build(const Reference& ref, const SketchParams& params) {
  // Every contig sketches into one vector reserved up front: fresh pages
  // are a large share of the build time.
  std::vector<Minimizer> mins;
  mins.reserve(expected_minimizers(ref.total_length(), params));
  for (std::size_t cid = 0; cid < ref.num_contigs(); ++cid)
    sketch(ref.contig(cid).codes, static_cast<u32>(cid), params, mins);
  // Order by (key, rid, pos). The sketch emits strictly increasing
  // positions per contig, so mins are already in (rid, pos) order and a
  // stable sort on the key alone gives that order.
  sort_by_key(mins, 2 * params.k);

  MinimizerIndex idx;
  idx.params_ = params;
  for (std::size_t cid = 0; cid < ref.num_contigs(); ++cid)
    idx.contigs_.push_back({ref.contig(cid).name, ref.contig(cid).size()});
  idx.entries_.reserve(mins.size());

  // Count distinct keys and fill entries grouped by key.
  std::size_t distinct = 0;
  for (std::size_t i = 0; i < mins.size(); ++i) {
    if (i == 0 || mins[i].key != mins[i - 1].key) ++distinct;
    idx.entries_.push_back(IndexEntry{mins[i].rid, mins[i].pos, mins[i].strand_rev});
  }
  idx.num_keys_ = distinct;
  idx.buckets_.assign(table_size_for(distinct), Bucket{});

  const std::size_t mask = idx.buckets_.size() - 1;
  std::size_t i = 0;
  while (i < mins.size()) {
    std::size_t j = i;
    while (j < mins.size() && mins[j].key == mins[i].key) ++j;
    std::size_t slot = bucket_hash(mins[i].key) & mask;
    while (idx.buckets_[slot].key != ~0ULL) slot = (slot + 1) & mask;
    idx.buckets_[slot] = Bucket{mins[i].key, i, static_cast<u32>(j - i)};
    i = j;
  }
  return idx;
}

const MinimizerIndex::Bucket* MinimizerIndex::find_bucket(u64 key) const {
  if (buckets_.empty()) return nullptr;
  const std::size_t mask = buckets_.size() - 1;
  std::size_t slot = bucket_hash(key) & mask;
  for (std::size_t probes = 0; probes <= buckets_.size(); ++probes) {
    const Bucket& b = buckets_[slot];
    if (b.key == key) return &b;
    if (b.key == ~0ULL) return nullptr;
    slot = (slot + 1) & mask;
  }
  return nullptr;
}

std::span<const IndexEntry> MinimizerIndex::lookup(u64 key) const {
  const Bucket* b = find_bucket(key);
  if (b == nullptr) return {};
  return {entries_.data() + b->offset, b->count};
}

u32 MinimizerIndex::occurrence_cutoff(double frac) const {
  if (num_keys_ == 0) return 1;
  std::vector<u32> counts;
  counts.reserve(num_keys_);
  for (const auto& b : buckets_)
    if (b.key != ~0ULL) counts.push_back(b.count);
  const std::size_t drop = static_cast<std::size_t>(frac * static_cast<double>(counts.size()));
  const std::size_t pos = counts.size() > drop ? counts.size() - 1 - drop : 0;
  std::nth_element(counts.begin(), counts.begin() + static_cast<std::ptrdiff_t>(pos), counts.end());
  return std::max<u32>(counts[pos], 10);
}

u64 MinimizerIndex::memory_bytes() const {
  return buckets_.size() * sizeof(Bucket) + entries_.size() * sizeof(IndexEntry) +
         contigs_.size() * sizeof(ContigMeta);
}

MinimizerIndex MinimizerIndex::from_parts(SketchParams params, std::vector<ContigMeta> contigs,
                                          std::vector<Bucket> buckets,
                                          std::vector<IndexEntry> entries,
                                          std::size_t num_keys) {
  MinimizerIndex idx;
  idx.params_ = params;
  idx.contigs_ = std::move(contigs);
  idx.buckets_ = std::move(buckets);
  idx.entries_ = std::move(entries);
  idx.num_keys_ = num_keys;
  return idx;
}

}  // namespace manymap
