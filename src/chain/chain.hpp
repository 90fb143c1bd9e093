// Co-linear chaining of anchors (minimap2's chaining DP, §3.1): find
// high-scoring chains of anchors with consistent diagonal movement;
// chains approximate the overlap between query and reference and are
// later refined by base-level alignment.
#pragma once

#include <vector>

#include "chain/anchor.hpp"

namespace manymap {

struct ChainParams {
  u32 seed_length = 15;       ///< k (anchor width used as match credit)
  u32 max_dist = 5000;        ///< max gap between consecutive anchors
  u32 bandwidth = 500;        ///< max |dt - dq| between consecutive anchors
  u32 max_iter = 50;          ///< predecessor search depth
  u32 max_skip = 25;          ///< heuristic early stop (minimap2 -p)
  u32 min_count = 3;          ///< min anchors per chain
  i32 min_score = 40;         ///< min chain score
  double primary_overlap = 0.5;  ///< query-overlap ratio marking secondaries
};

struct Chain {
  std::vector<Anchor> anchors;  ///< in increasing coordinate order
  i32 score = 0;
  u32 rid = 0;
  bool rev = false;
  bool primary = true;

  u32 tstart() const { return anchors.front().tpos; }
  u32 tend() const { return anchors.back().tpos; }
  u32 qstart() const { return anchors.front().qpos; }
  u32 qend() const { return anchors.back().qpos; }
};

/// Chain sorted anchors; returns chains sorted by score (descending) with
/// primary/secondary flags assigned by query-interval overlap.
std::vector<Chain> chain_anchors(const std::vector<Anchor>& anchors, const ChainParams& p);

}  // namespace manymap
