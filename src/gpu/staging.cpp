#include "gpu/staging.hpp"

#include <cstring>

#include "fault/fault.hpp"

namespace manymap {
namespace gpu {

StagingArea::StagingArea(u64 total_bytes, u32 num_streams)
    : buffer_(total_bytes), pool_(total_bytes, num_streams), live_(pool_.num_streams(), 0) {}

std::optional<StagingArea::Slot> StagingArea::stage(u32 stream, const u8* data,
                                                    u64 bytes) {
  const auto slots = stage_pair(stream, data, bytes, nullptr, 0);
  if (!slots) return std::nullopt;
  return slots->first;
}

std::optional<std::pair<StagingArea::Slot, StagingArea::Slot>> StagingArea::stage_pair(
    u32 stream, const u8* first, u64 first_bytes, const u8* second, u64 second_bytes) {
  std::lock_guard lock(mu_);
  if (MM_INJECT_FAIL("gpu.stage_oom")) {
    ++stage_failures_;
    return std::nullopt;
  }
  // One reservation for both slices; the second starts at the pool's
  // 16-byte granule past the first, as two allocations would place it.
  const u64 second_at = round_up(first_bytes, 16);
  const std::optional<u64> offset = pool_.allocate(stream, second_at + second_bytes);
  if (!offset) {
    ++stage_failures_;
    return std::nullopt;
  }
  auto fill = [&](u64 at, const u8* data, u64 bytes) {
    Slot slot;
    slot.stream = stream;
    slot.offset = at;
    slot.bytes = bytes;
    slot.host = buffer_.data() + at;
    if (bytes > 0) std::memcpy(buffer_.data() + at, data, bytes);
    staged_bytes_ += bytes;
    return slot;
  };
  ++live_[stream];
  return std::pair{fill(*offset, first, first_bytes),
                   fill(*offset + second_at, second, second_bytes)};
}

void StagingArea::release(u32 stream) {
  std::lock_guard lock(mu_);
  MM_REQUIRE(live_[stream] > 0, "staging release without a live reservation");
  if (--live_[stream] == 0) pool_.reset(stream);
}

u64 StagingArea::bytes_in_use(u32 stream) const {
  std::lock_guard lock(mu_);
  return pool_.bytes_in_use(stream);
}

u64 StagingArea::staged_bytes() const {
  std::lock_guard lock(mu_);
  return staged_bytes_;
}

u64 StagingArea::stage_failures() const {
  std::lock_guard lock(mu_);
  return stage_failures_;
}

}  // namespace gpu
}  // namespace manymap
