// Common small utilities shared across manymap modules.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

namespace manymap {

using u8 = std::uint8_t;
using u16 = std::uint16_t;
using u32 = std::uint32_t;
using u64 = std::uint64_t;
using i8 = std::int8_t;
using i16 = std::int16_t;
using i32 = std::int32_t;
using i64 = std::int64_t;

/// Abort with a message. Used for unrecoverable internal invariant
/// violations; recoverable conditions return Status/std::optional instead.
[[noreturn]] inline void fatal(std::string_view msg, const char* file, int line) {
  std::fprintf(stderr, "manymap fatal: %.*s (%s:%d)\n", static_cast<int>(msg.size()),
               msg.data(), file, line);
  std::abort();
}

#define MM_REQUIRE(cond, msg)                          \
  do {                                                 \
    if (!(cond)) ::manymap::fatal((msg), __FILE__, __LINE__); \
  } while (0)

/// Round `x` up to a multiple of `align` (power of two not required).
constexpr u64 round_up(u64 x, u64 align) { return (x + align - 1) / align * align; }

/// Integer ceiling division.
constexpr u64 ceil_div(u64 a, u64 b) { return (a + b - 1) / b; }

/// Grows `v` to at least `n` elements and returns its data. It never
/// shrinks, so a reused scratch buffer stops allocating once it has held
/// the largest size asked of it.
template <class T>
T* grow_scratch(std::vector<T>& v, std::size_t n) {
  if (v.size() < n) v.resize(n);
  return v.data();
}

}  // namespace manymap
