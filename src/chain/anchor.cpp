#include "chain/anchor.hpp"

#include <bit>

#include "base/radix_sort.hpp"

namespace manymap {

namespace {

/// How many query minimizers ahead of its lookup a key's bucket is
/// prefetched: far enough to cover a DRAM miss on a large index.
constexpr std::size_t kPrefetchDistance = 16;

/// Per-thread buffers reused by every call on the thread. They grow to the
/// largest read seen (16 bytes per query minimizer plus 32 per anchor) and
/// are never shrunk, so the steady state allocates only the result.
struct AnchorScratch {
  std::vector<std::span<const IndexEntry>> hits;  ///< per query minimizer
  std::vector<Anchor> unsorted, sort_buffer;
};

/// (rid, rev, tpos) packed so that ascending keys give that order.
u64 packed_key(const Anchor& a) {
  return (static_cast<u64>(a.rid) << 33) | (static_cast<u64>(a.rev) << 32) | a.tpos;
}

}  // namespace

std::vector<Anchor> collect_anchors(const MinimizerIndex& index,
                                    const std::vector<Minimizer>& query_minimizers, u32 qlen,
                                    u32 max_occ) {
  static thread_local AnchorScratch scratch;
  const u32 k = index.params().k;
  const std::size_t m = query_minimizers.size();

  // Probe every minimizer's bucket with the bucket of the one
  // kPrefetchDistance ahead already in flight, and start fetching each
  // entry run for the emit pass below.
  std::span<const IndexEntry>* hits = grow_scratch(scratch.hits, m);
  std::size_t total = 0;
  for (std::size_t i = 0; i < m; ++i) {
    if (i + kPrefetchDistance < m) index.prefetch(query_minimizers[i + kPrefetchDistance].key);
    hits[i] = index.lookup(query_minimizers[i].key);
    if (hits[i].size() > max_occ) hits[i] = {};
    if (!hits[i].empty()) __builtin_prefetch(hits[i].data());
    total += hits[i].size();
  }
  if (total == 0) return {};

  // Forward-strand anchors fill the buffer from the front in minimizer
  // order, reverse-strand ones from the back, so reading front to back
  // gives forward hits in ascending qpos, then reverse hits in ascending
  // qpos (a reverse anchor's qpos falls as the minimizer's position rises).
  // The stable sort on (rid, rev, tpos) below keeps that qpos order among
  // equal keys, which completes the (rid, rev, tpos, qpos) order.
  Anchor* unsorted = grow_scratch(scratch.unsorted, total);
  std::size_t fwd = 0, rev = total;
  u32 rids = 0;  // OR of every hit's rid: bounds the sort key's width
  for (std::size_t i = 0; i < m; ++i) {
    const Minimizer& qm = query_minimizers[i];
    // The k-mer that ends at qm.pos on the forward query ends at
    // qlen-1 - (qm.pos - (k-1)) on the reverse-complemented query.
    const u32 rev_qpos = qlen - 1 - (qm.pos - (k - 1));
    for (const IndexEntry& h : hits[i]) {
      rids |= h.rid;
      // Same canonical strand on both sides -> forward match; otherwise
      // the query matches the reference on the reverse strand.
      if (h.strand_rev == qm.strand_rev)
        unsorted[fwd++] = Anchor{h.rid, h.pos, qm.pos, false};
      else
        unsorted[--rev] = Anchor{h.rid, h.pos, rev_qpos, true};
    }
  }

  const Anchor* sorted = radix_sort(unsorted, grow_scratch(scratch.sort_buffer, total), total,
                                    33 + static_cast<u32>(std::bit_width(rids)), packed_key);
  return std::vector<Anchor>(sorted, sorted + total);
}

}  // namespace manymap
