// Minimizer hash index over a reference (minimap2's mm_idx equivalent):
// minimizers of all contigs, sorted by key, addressed through an open-
// addressing hash table key -> (offset, count) into the sorted entry
// array. Frequent keys (repeats) can be masked at query time via a
// max-occurrence cutoff.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "index/minimizer.hpp"

namespace manymap {

namespace detail {
/// Finalizer-style bit mixer used to place keys in the open-addressing
/// bucket table. Shared with IndexView so the zero-copy on-disk table is
/// probed exactly like the in-memory one.
inline u64 bucket_hash(u64 x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}
}  // namespace detail

/// One reference hit of a minimizer key.
struct IndexEntry {
  u32 rid = 0;
  u32 pos = 0;             ///< last base of the k-mer on the reference
  bool strand_rev = false; ///< canonical k-mer was reverse strand on the ref

  friend bool operator==(const IndexEntry&, const IndexEntry&) = default;
};

struct ContigMeta {
  std::string name;
  u64 length = 0;
};

class MinimizerIndex {
 public:
  MinimizerIndex() = default;

  /// Build from a reference.
  static MinimizerIndex build(const Reference& ref, const SketchParams& params);

  /// All hits for a key (empty span if absent).
  std::span<const IndexEntry> lookup(u64 key) const;

  /// Start fetching the bucket where a lookup of `key` begins probing, so a
  /// lookup issued a few keys later finds it in cache. Changes nothing.
  void prefetch(u64 key) const {
    if (!buckets_.empty())
      __builtin_prefetch(&buckets_[detail::bucket_hash(key) & (buckets_.size() - 1)]);
  }

  /// Number of hits for a key (0 if absent).
  std::size_t occurrences(u64 key) const { return lookup(key).size(); }

  const SketchParams& params() const { return params_; }
  const std::vector<ContigMeta>& contigs() const { return contigs_; }
  std::size_t num_keys() const { return num_keys_; }
  std::size_t num_entries() const { return entries_.size(); }

  /// Occurrence threshold above which keys are considered repetitive; set
  /// from the top `frac` most frequent keys like minimap2's -f option.
  u32 occurrence_cutoff(double frac) const;

  /// Approximate resident size in bytes (Table 5 "Index Size").
  u64 memory_bytes() const;

  // --- serialization interface (used by index_io) ---
  struct Bucket {
    u64 key = ~0ULL;
    u64 offset = 0;
    u32 count = 0;
  };
  const std::vector<Bucket>& buckets() const { return buckets_; }
  const std::vector<IndexEntry>& entries() const { return entries_; }
  static MinimizerIndex from_parts(SketchParams params, std::vector<ContigMeta> contigs,
                                   std::vector<Bucket> buckets, std::vector<IndexEntry> entries,
                                   std::size_t num_keys);

 private:
  SketchParams params_{};
  std::vector<ContigMeta> contigs_;
  std::vector<Bucket> buckets_;       // open addressing, power-of-two size
  std::vector<IndexEntry> entries_;   // grouped by key
  std::size_t num_keys_ = 0;

  const Bucket* find_bucket(u64 key) const;
};

}  // namespace manymap
