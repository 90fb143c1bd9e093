// Minimizer seeding (Roberts et al. 2004), as used by minimap2 (§3.1):
// from every window of w consecutive k-mers, the one with the smallest
// (invertible) hash over its canonical strand is selected. Canonical
// hashing makes the minimizer set strand-symmetric, which is how the
// mapper detects reverse-complement alignments.
#pragma once

#include <vector>

#include "sequence/sequence.hpp"

namespace manymap {

struct Minimizer {
  u64 key = 0;    ///< invertible hash of the canonical k-mer
  u32 pos = 0;    ///< position of the k-mer's LAST base in the sequence
  u32 rid = 0;    ///< sequence id (contig id for references, 0 for queries)
  bool strand_rev = false;  ///< canonical k-mer was the reverse complement

  friend bool operator==(const Minimizer&, const Minimizer&) = default;
};

struct SketchParams {
  u32 k = 15;  ///< k-mer size (<= 28 so 2k bits fit in u64 with headroom)
  u32 w = 10;  ///< window size
};

/// Thomas Wang's 64-bit invertible integer hash (minimap2's hash64).
u64 invertible_hash(u64 key, u64 mask);

/// Extract the minimizers of `seq` (codes). Windows containing N are
/// skipped. Returns minimizers ordered by position.
std::vector<Minimizer> sketch(const std::vector<u8>& seq, u32 rid, const SketchParams& p);

/// As above, appending to `out`, so several sequences can share one
/// vector reserved with expected_minimizers().
void sketch(const std::vector<u8>& seq, u32 rid, const SketchParams& p,
            std::vector<Minimizer>& out);

/// Capacity hint for the minimizers of `bases` bases: the expected density
/// 2 / (w + 1) plus a quarter, so random-like sequence never regrows.
inline std::size_t expected_minimizers(u64 bases, const SketchParams& p) {
  return static_cast<std::size_t>(bases * 5 / (2 * (static_cast<u64>(p.w) + 1)) + 16);
}

}  // namespace manymap
