// Anchors: minimizer matches between a query and the reference (§3.1).
// Reverse-strand hits are expressed in the coordinates of the reverse-
// complemented query so that chaining always sees co-linear coordinates.
#pragma once

#include <vector>

#include "index/hash_index.hpp"

namespace manymap {

struct Anchor {
  u32 rid = 0;
  u32 tpos = 0;  ///< reference position of the k-mer's last base
  u32 qpos = 0;  ///< query position of the k-mer's last base (on the
                 ///< strand that matches the reference forward strand)
  bool rev = false;

  friend bool operator==(const Anchor&, const Anchor&) = default;
};

/// Match query minimizers against the index. Keys with more than
/// `max_occ` occurrences are skipped (repeat masking). `qlen` is needed to
/// flip coordinates for reverse-strand anchors. Result is sorted by
/// (rid, rev, tpos, qpos) — the order chaining requires; no two anchors
/// compare equal, so the order is unique. Lookups are prefetched ahead and
/// the anchors radix-sorted in per-thread scratch that grows to the
/// largest read and is reused, so a steady-state call allocates only the
/// returned vector.
std::vector<Anchor> collect_anchors(const MinimizerIndex& index,
                                    const std::vector<Minimizer>& query_minimizers, u32 qlen,
                                    u32 max_occ);

}  // namespace manymap
