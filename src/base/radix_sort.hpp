// Stable LSD radix sort on an unsigned key of up to 64 bits, 11 bits per
// pass, as minimap2 radix-sorts its packed anchors. The index build
// (minimizers by key), anchor collection (anchors by packed rid, strand
// and reference position) and the chain peel (tails by packed score and
// index) all sort with it.
#pragma once

#include <array>
#include <cstddef>
#include <utility>

#include "base/common.hpp"

namespace manymap {

/// Stably sorts the `n` items at `items` by `key(item)`, which must be
/// below 2^key_bits. `scratch` has room for `n` items and is the other half
/// of a ping-pong buffer. One pass counts every digit; a digit that all
/// keys share then costs no pass, so inputs whose keys agree in their high
/// bits sort in fewer passes. Returns the buffer that holds the sorted
/// items: `items` after an even number of passes, `scratch` after an odd
/// one. The counts live on the stack (up to 48 KiB); no heap is touched.
template <class T, class KeyFn>
T* radix_sort(T* items, T* scratch, std::size_t n, u32 key_bits, KeyFn key) {
  constexpr u32 kDigitBits = 11;
  constexpr std::size_t kRadix = std::size_t{1} << kDigitBits;
  constexpr u64 kMask = kRadix - 1;
  constexpr u32 kMaxDigits = (64 + kDigitBits - 1) / kDigitBits;
  MM_REQUIRE(key_bits <= 64, "radix_sort: key wider than 64 bits");
  MM_REQUIRE(n <= UINT32_MAX, "radix_sort: more than 2^32 - 1 items");
  const u32 digits = (key_bits + kDigitBits - 1) / kDigitBits;
  if (n < 2 || digits == 0) return items;

  // Only the first `digits` rows are used; each is zeroed before counting.
  std::array<std::array<u32, kRadix>, kMaxDigits> count;
  for (u32 d = 0; d < digits; ++d) count[d].fill(0);
  for (std::size_t i = 0; i < n; ++i) {
    const u64 k = key(items[i]);
    for (u32 d = 0; d < digits; ++d) ++count[d][(k >> (d * kDigitBits)) & kMask];
  }
  const u64 first = key(items[0]);
  for (u32 d = 0; d < digits; ++d) {
    const u32 shift = d * kDigitBits;
    std::array<u32, kRadix>& next = count[d];
    if (next[(first >> shift) & kMask] == n) continue;  // every key shares this digit
    u32 start = 0;
    for (u32& c : next) start += std::exchange(c, start);
    for (std::size_t i = 0; i < n; ++i) scratch[next[(key(items[i]) >> shift) & kMask]++] = items[i];
    std::swap(items, scratch);
  }
  return items;
}

}  // namespace manymap
