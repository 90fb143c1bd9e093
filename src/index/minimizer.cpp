#include "index/minimizer.hpp"

#include <algorithm>

namespace manymap {

u64 invertible_hash(u64 key, u64 mask) {
  key = (~key + (key << 21)) & mask;
  key = key ^ (key >> 24);
  key = ((key + (key << 3)) + (key << 8)) & mask;
  key = key ^ (key >> 14);
  key = ((key + (key << 2)) + (key << 4)) & mask;
  key = key ^ (key >> 28);
  key = (key + (key << 31)) & mask;
  return key;
}

std::vector<Minimizer> sketch(const std::vector<u8>& seq, u32 rid, const SketchParams& p) {
  std::vector<Minimizer> out;
  out.reserve(expected_minimizers(seq.size(), p));
  sketch(seq, rid, p, out);
  return out;
}

void sketch(const std::vector<u8>& seq, u32 rid, const SketchParams& p,
            std::vector<Minimizer>& out) {
  MM_REQUIRE(p.k >= 4 && p.k <= 28, "k out of range");
  MM_REQUIRE(p.w >= 1 && p.w <= 256, "w out of range");
  const std::size_t n = seq.size();
  if (n < p.k) return;

  const u64 mask = (1ULL << (2 * p.k)) - 1;
  const u32 shift = 2 * (p.k - 1);

  // Ring buffer of the last w k-mer hashes (one per window slot).
  struct Slot {
    u64 hash = ~0ULL;
    u32 pos = 0;
    bool rev = false;
    bool valid = false;
  };
  std::vector<Slot> ring(p.w);
  // Ring index of the window minimum (smallest valid hash, ties broken by
  // the rightmost position, as minimap2 prefers fresh seeds); p.w while
  // the window holds no valid k-mer. The ring is rescanned only when the
  // slot holding the minimum is overwritten, as in minimap2's mm_sketch.
  u32 min_slot = p.w;
  u32 slot = 0;  // ring slot of position i (i % w)

  u64 fwd = 0, rev = 0;
  u32 kmer_span = 0;  // consecutive non-N bases accumulated
  Minimizer last_emitted{~0ULL, 0, 0, false};
  bool have_last = false;

  auto emit = [&](const Slot& s) {
    Minimizer m{s.hash, s.pos, rid, s.rev};
    if (!have_last || !(m == last_emitted)) {
      out.push_back(m);
      last_emitted = m;
      have_last = true;
    }
  };

  for (std::size_t i = 0; i < n; ++i) {
    const u8 b = seq[i];
    Slot cur;
    if (b < 4) {
      fwd = ((fwd << 2) | b) & mask;
      rev = (rev >> 2) | (static_cast<u64>(3 - b) << shift);
      ++kmer_span;
    } else {
      kmer_span = 0;  // N breaks every k-mer covering it
    }
    if (kmer_span >= p.k && fwd != rev) {  // skip palindromic k-mers (strand ambiguous)
      const bool use_rev = rev < fwd;
      cur.hash = invertible_hash(use_rev ? rev : fwd, mask);
      cur.pos = static_cast<u32>(i);
      cur.rev = use_rev;
      cur.valid = true;
    }
    ring[slot] = cur;
    if (slot == min_slot) {
      // The minimum left the window: rescan every slot.
      min_slot = p.w;
      for (u32 s = 0; s < p.w; ++s) {
        const Slot& c = ring[s];
        if (!c.valid) continue;
        if (min_slot == p.w || c.hash < ring[min_slot].hash ||
            (c.hash == ring[min_slot].hash && c.pos > ring[min_slot].pos)) {
          min_slot = s;
        }
      }
    } else if (cur.valid && (min_slot == p.w || cur.hash <= ring[min_slot].hash)) {
      min_slot = slot;  // the newest k-mer is the rightmost, so it wins ties
    }
    if (++slot == p.w) slot = 0;
    // A full window ends at every position i >= k-1 + w-1.
    if (i + 1 >= static_cast<std::size_t>(p.k) + p.w - 1 && min_slot != p.w) {
      emit(ring[min_slot]);
    }
  }
}

}  // namespace manymap
