// Mapping presets, mirroring minimap2's -ax map-pb / map-ont option sets
// used in the paper's macro benchmarks (§5.1.3).
#pragma once

#include <optional>
#include <string_view>

#include "align/kernel_api.hpp"
#include "chain/chain.hpp"
#include "index/minimizer.hpp"

namespace manymap {

struct MapOptions {
  SketchParams sketch{15, 10};
  ChainParams chain{};
  ScoreParams scores{};
  /// Fraction of most-frequent minimizers to ignore (minimap2 -f).
  double occ_frac = 2e-4;
  /// Hard cap on per-key occurrences regardless of occ_frac.
  u32 max_occ_cap = 1000;
  /// DP layout/ISA used for base-level alignment.
  Layout layout = Layout::kManymap;
  Isa isa = Isa::kScalar;  ///< resolved to best_isa() by presets
  bool with_cigar = true;
  /// Flanking bases added around chain ends for the extension alignments.
  u32 end_bonus_window = 64;
  /// Report at most this many mappings per read: the top chain plus
  /// secondaries scoring at least 0.8x it (Mapper::map selects chains
  /// before aligning them).
  u32 max_mappings = 5;
  /// Static band half-width for the diff kernels (--band N);
  /// 0 (the default) is unbanded. A banded run is exact whenever the
  /// optimum stays in band; when a kernel flags band_hit the mapper reruns
  /// that call unbanded, so results never depend on the band.
  i32 band = 0;
  /// ksw2-style adaptive X-drop threshold (0 = off; only honored when
  /// band > 0). Retires band lanes whose score trails the diagonal best by
  /// more than zdrop, shrinking the live interval below the static band.
  i32 zdrop = 0;

  static MapOptions map_pb();
  static MapOptions map_ont();
};

// CLI-name parsing shared by every front end (manymap_cli, manymap_serve,
// examples), so presets/defaults live in exactly one place.

/// "map-pb" / "map-ont" -> preset; nullopt for unknown names.
std::optional<MapOptions> preset_by_name(std::string_view name);

/// Apply a --layout value ("minimap2" / "manymap"); false if unknown.
bool apply_layout_name(MapOptions& opt, std::string_view name);

/// Apply an --isa value ("scalar" / "sse2" / "avx2" / "avx512"); false if
/// the name is unknown or that kernel is unavailable on this CPU for the
/// currently selected layout.
bool apply_isa_name(MapOptions& opt, std::string_view name);

/// Apply a --band value: a well-formed integer in [0, INT32_MAX], where 0
/// means unbanded and N > 0 a static half-width. Negative, malformed, or
/// out-of-range text is a config error (false) — never a clamp.
bool apply_band_option(MapOptions& opt, std::string_view text);

/// Apply a --zdrop value: same validation as --band; 0 = adaptive X-drop
/// off. Only consulted by kernels when band > 0.
bool apply_zdrop_option(MapOptions& opt, std::string_view text);

// Strict CLI numeric parsing shared by the front ends: malformed text is
// a config error answered with a usage message, never a silent clamp, a
// partial parse ("2x" -> 2), or an uncaught std::stoll exception.

/// Well-formed base-10 integer (optional leading '-'); nullopt otherwise.
std::optional<i64> parse_int(std::string_view text);

/// As parse_int but additionally requires value > 0 — for option classes
/// where zero/negative is meaningless (threads, batch sizes, capacities,
/// sample rates, memory budgets).
std::optional<i64> parse_positive_int(std::string_view text);

/// Well-formed finite real >= 0 (rates and timeouts where 0 = disabled).
std::optional<double> parse_nonneg_double(std::string_view text);

}  // namespace manymap
