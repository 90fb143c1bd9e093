#include "core/options.hpp"

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <string>

namespace manymap {

MapOptions MapOptions::map_pb() {
  MapOptions o;
  o.sketch = SketchParams{15, 10};  // minimap2 map-pb: -k15 -w10 (HPC omitted)
  o.scores = ScoreParams::map_pb();
  o.chain.seed_length = o.sketch.k;
  o.isa = best_isa();
  return o;
}

MapOptions MapOptions::map_ont() {
  MapOptions o;
  o.sketch = SketchParams{15, 10};
  o.scores = ScoreParams::map_ont();
  o.chain.seed_length = o.sketch.k;
  o.isa = best_isa();
  return o;
}

std::optional<MapOptions> preset_by_name(std::string_view name) {
  if (name == "map-pb") return MapOptions::map_pb();
  if (name == "map-ont") return MapOptions::map_ont();
  return std::nullopt;
}

bool apply_layout_name(MapOptions& opt, std::string_view name) {
  if (name == "manymap") {
    opt.layout = Layout::kManymap;
  } else if (name == "minimap2") {
    opt.layout = Layout::kMinimap2;
  } else {
    return false;
  }
  return true;
}

bool apply_isa_name(MapOptions& opt, std::string_view name) {
  Isa isa;
  if (name == "scalar") isa = Isa::kScalar;
  else if (name == "sse2") isa = Isa::kSse2;
  else if (name == "avx2") isa = Isa::kAvx2;
  else if (name == "avx512") isa = Isa::kAvx512;
  else return false;
  if (get_diff_kernel(opt.layout, isa) == nullptr) return false;
  opt.isa = isa;
  return true;
}

bool apply_band_option(MapOptions& opt, std::string_view text) {
  const auto v = parse_int(text);
  if (!v || *v < 0 || *v > INT32_MAX) return false;
  opt.band = static_cast<i32>(*v);
  return true;
}

bool apply_zdrop_option(MapOptions& opt, std::string_view text) {
  const auto v = parse_int(text);
  if (!v || *v < 0 || *v > INT32_MAX) return false;
  opt.zdrop = static_cast<i32>(*v);
  return true;
}

std::optional<i64> parse_int(std::string_view text) {
  if (text.empty()) return std::nullopt;
  const std::string owned(text);  // strtoll needs NUL termination
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(owned.c_str(), &end, 10);
  if (errno == ERANGE || end != owned.c_str() + owned.size()) return std::nullopt;
  return static_cast<i64>(v);
}

std::optional<i64> parse_positive_int(std::string_view text) {
  const auto v = parse_int(text);
  if (!v || *v <= 0) return std::nullopt;
  return v;
}

std::optional<double> parse_nonneg_double(std::string_view text) {
  if (text.empty()) return std::nullopt;
  const std::string owned(text);
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(owned.c_str(), &end);
  if (errno == ERANGE || end != owned.c_str() + owned.size()) return std::nullopt;
  if (!std::isfinite(v) || v < 0.0) return std::nullopt;
  return v;
}

}  // namespace manymap
