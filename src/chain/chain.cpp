#include "chain/chain.hpp"

#include <algorithm>
#include <bit>

#include "base/radix_sort.hpp"

namespace manymap {

namespace {

i32 ilog2(u32 v) {
  i32 n = 0;
  while (v >>= 1) ++n;
  return n;
}

/// minimap2's gap cost between consecutive anchors whose diagonals differ
/// by dd = |dq - dt|.
i32 gap_cost(u32 dd, u32 seed_length) {
  if (dd == 0) return 0;
  return static_cast<i32>(0.01 * seed_length * dd) + (ilog2(dd) >> 1);
}

/// Largest dd the gap-cost table holds (256 KiB of i32); a wider band
/// computes the cost past it.
constexpr u32 kGapTableMaxDd = 1u << 16;

/// Per-thread buffers reused by every call on the thread. The per-anchor
/// ones grow to the largest input seen (25 bytes per anchor) and are never
/// shrunk; the gap table is refilled only when the parameters change.
struct ChainScratch {
  std::vector<i32> f, pred;
  std::vector<u8> used;
  std::vector<u64> tails, sort_buffer;
  std::vector<i32> gap;  ///< gap[dd] = gap_cost(dd, gap_seed_length)
  u32 gap_seed_length = 0;
};

/// The gap cost of every dd a link can have: dd <= bandwidth, and dd <=
/// max_dist since both dq and dt are.
const std::vector<i32>& gap_table(ChainScratch& s, const ChainParams& p) {
  const std::size_t size = std::min({p.bandwidth, p.max_dist, kGapTableMaxDd}) + std::size_t{1};
  if (s.gap.size() != size || s.gap_seed_length != p.seed_length) {
    s.gap.resize(size);
    for (std::size_t dd = 0; dd < size; ++dd)
      s.gap[dd] = gap_cost(static_cast<u32>(dd), p.seed_length);
    s.gap_seed_length = p.seed_length;
  }
  return s.gap;
}

}  // namespace

std::vector<Chain> chain_anchors(const std::vector<Anchor>& anchors, const ChainParams& p) {
  const std::size_t n = anchors.size();
  std::vector<Chain> chains;
  if (n == 0) return chains;
  static thread_local ChainScratch scratch;
  const std::vector<i32>& gap = gap_table(scratch, p);

  i32* f = grow_scratch(scratch.f, n);
  i32* pred = grow_scratch(scratch.pred, n);
  std::size_t group_start = 0;  // first anchor with anchors[i]'s (rid, rev)
  for (std::size_t i = 0; i < n; ++i) {
    const Anchor& ai = anchors[i];
    if (ai.rid != anchors[group_start].rid || ai.rev != anchors[group_start].rev) group_start = i;
    i32 best = static_cast<i32>(p.seed_length);
    i32 best_j = -1;
    u32 skipped = 0;
    // Anchors are sorted by (rid, rev), so none before group_start links.
    const std::size_t lo = std::max(i > p.max_iter ? i - p.max_iter : 0, group_start);
    for (std::size_t jj = i; jj-- > lo;) {
      const Anchor& aj = anchors[jj];
      if (aj.tpos >= ai.tpos) continue;  // must advance on target
      if (aj.qpos >= ai.qpos) continue;  // and on query
      const u32 dt = ai.tpos - aj.tpos;
      const u32 dq = ai.qpos - aj.qpos;
      if (dt > p.max_dist) break;  // sorted by tpos: dt only grows
      // qpos is NOT monotone in the look-back: a stray anchor (e.g. a
      // repeat hit that slipped past the occ mask) can sit at a nearby
      // tpos but a far-away qpos. Terminating on dq here would hide every
      // predecessor beyond the stray and split the chain mid-read.
      if (dq > p.max_dist) continue;
      const u32 dd = dq > dt ? dq - dt : dt - dq;
      if (dd > p.bandwidth) continue;
      const i32 match = static_cast<i32>(std::min<u32>(std::min(dq, dt), p.seed_length));
      const i32 cost = dd < gap.size() ? gap[dd] : gap_cost(dd, p.seed_length);
      const i32 cand = f[jj] + match - cost;
      if (cand > best) {
        best = cand;
        best_j = static_cast<i32>(jj);
        skipped = 0;
      } else if (++skipped > p.max_skip) {
        break;
      }
    }
    f[i] = best;
    pred[i] = best_j;
  }

  // Peel chains greedily from the tails that can score min_score, in the
  // order chain.hpp documents: f descending, then index ascending. Each
  // tail is packed as (f_max - f) above its index and radix-sorted.
  i32 f_max = p.min_score;
  std::size_t num_tails = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (f[i] < p.min_score) continue;
    f_max = std::max(f_max, f[i]);
    ++num_tails;
  }
  const u32 index_bits = static_cast<u32>(std::bit_width(n - 1));
  u64* tails = grow_scratch(scratch.tails, num_tails);
  for (std::size_t i = 0, t = 0; i < n; ++i)
    if (f[i] >= p.min_score) tails[t++] = (static_cast<u64>(f_max - f[i]) << index_bits) | i;
  const u64 f_span = static_cast<u64>(static_cast<i64>(f_max) - p.min_score);
  const u32 key_bits = index_bits + static_cast<u32>(std::bit_width(f_span));
  const u64* order = radix_sort(tails, grow_scratch(scratch.sort_buffer, num_tails), num_tails,
                                key_bits, [](u64 key) { return key; });

  u8* used = grow_scratch(scratch.used, n);
  std::fill_n(used, n, u8{0});
  const u64 index_mask = (u64{1} << index_bits) - 1;
  for (std::size_t t = 0; t < num_tails; ++t) {
    const std::size_t tail = order[t] & index_mask;
    if (used[tail]) continue;
    // Walk back until the start of the chain or an anchor already claimed
    // by a better chain; a truncated suffix only keeps its marginal score.
    std::size_t len = 0;
    i32 cur = static_cast<i32>(tail);
    for (; cur >= 0 && !used[cur]; cur = pred[cur], ++len) used[cur] = 1;
    const i32 score = f[tail] - (cur >= 0 ? f[cur] : 0);
    if (len < p.min_count || score < p.min_score) continue;
    Chain c;
    c.anchors.resize(len);
    cur = static_cast<i32>(tail);
    for (std::size_t at = len; at-- > 0; cur = pred[cur]) c.anchors[at] = anchors[cur];
    c.rid = c.anchors.front().rid;
    c.rev = c.anchors.front().rev;
    c.score = score;
    chains.push_back(std::move(c));
  }

  // Stable: equal-score chains keep peel order.
  std::stable_sort(chains.begin(), chains.end(),
                   [](const Chain& a, const Chain& b) { return a.score > b.score; });

  // Primary/secondary: a chain whose query interval overlaps a
  // better-scoring chain by more than `primary_overlap` is secondary.
  for (std::size_t i = 0; i < chains.size(); ++i) {
    chains[i].primary = true;
    const u32 s1 = chains[i].qstart(), e1 = chains[i].qend();
    for (std::size_t j = 0; j < i; ++j) {
      const u32 s2 = chains[j].qstart(), e2 = chains[j].qend();
      const u32 lo = std::max(s1, s2), hi = std::min(e1, e2);
      if (lo >= hi) continue;
      const double ov = static_cast<double>(hi - lo) /
                        static_cast<double>(std::min(e1 - s1, e2 - s2) + 1);
      if (ov > p.primary_overlap) {
        chains[i].primary = false;
        break;
      }
    }
  }
  return chains;
}

}  // namespace manymap
