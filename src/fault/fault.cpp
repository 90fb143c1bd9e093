#include "fault/fault.hpp"

#include <algorithm>
#include <thread>

namespace manymap {
namespace fault {
namespace {

// xorshift64* — same generator family the verify fuzzer uses; one
// independent stream per armed spec so adding a spec never perturbs the
// firing pattern of the others.
u64 splitmix(u64 x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

u64 xorshift_next(u64& s) {
  s ^= s >> 12;
  s ^= s << 25;
  s ^= s >> 27;
  return s * 0x2545f4914f6cdd1dULL;
}

u64 hash_str(const std::string& s) {
  u64 h = 0xcbf29ce484222325ULL;  // FNV-1a
  for (char c : s) h = (h ^ static_cast<u8>(c)) * 0x100000001b3ULL;
  return h;
}

bool site_matches(const std::string& pattern, const char* site) {
  if (!pattern.empty() && pattern.back() == '*')
    return std::string_view(site).substr(0, pattern.size() - 1) ==
           std::string_view(pattern).substr(0, pattern.size() - 1);
  return pattern == site;
}

// Sleep in short slices so FaultPlan::cancel() unblocks stalled threads
// promptly instead of holding shutdown hostage for the full delay.
void cancellable_sleep(const FaultPlan& plan, std::chrono::milliseconds delay) {
  const auto until = std::chrono::steady_clock::now() + delay;
  while (!plan.cancelled() && std::chrono::steady_clock::now() < until)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
}

}  // namespace

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kError: return "error";
    case FaultKind::kSlow: return "slow";
    case FaultKind::kStall: return "stall";
  }
  return "?";
}

FaultPlan::FaultPlan(u64 seed) : seed_(seed ? seed : 0x6d616e79ULL) {}

void FaultPlan::arm(FaultSpec spec) {
  MM_REQUIRE(spec.one_in >= 1, "FaultSpec::one_in must be >= 1");
  std::lock_guard<std::mutex> lock(mu_);
  Armed a;
  a.rng = splitmix(seed_ ^ hash_str(spec.site) ^
                   (static_cast<u64>(spec.kind) << 56));
  if (a.rng == 0) a.rng = 0x9e3779b9ULL;
  a.spec = std::move(spec);
  armed_.push_back(std::move(a));
}

std::optional<FaultSpec> FaultPlan::on_visit(const char* site) {
  visits_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  for (Armed& a : armed_) {
    if (!site_matches(a.spec.site, site)) continue;
    if (a.spec.max_fires != 0 && a.fired >= a.spec.max_fires) return std::nullopt;
    const bool fire = xorshift_next(a.rng) % a.spec.one_in == 0;
    if (!fire) return std::nullopt;
    ++a.fired;
    fires_.fetch_add(1, std::memory_order_relaxed);
    return a.spec;
  }
  return std::nullopt;
}

const std::vector<std::string>& known_sites() {
  static const std::vector<std::string> kSites = {
      "align.dirs.spill",        // streamed dirs block handoff to a spill sink
      "align.dirs.spill_io",     // temp-file spill read/write
      "align.dp.alloc",          // DP workspace allocation (kernel arena growth)
      "gpu.launch",              // device kernel launch (offload subsystem)
      "gpu.stage_oom",           // pinned-style host staging allocation
      "index.corrupt",           // forced checksum mismatch after validation
      "index.io.open",           // structured loader open (native error path)
      "index.io.short_read",     // structured loader header read (native error path)
      "index.load.mmap",         // mmap-backed index load
      "index.load.stream",       // streamed index load
      "index.save",              // index serialization
      "index.save.write",        // crash window between tmp write and publish
      "io.file.read",            // whole-file read
      "io.file.write",           // whole-file write
      "io.mmap.open",            // MappedFile::open (native bool failure)
      "service.queue.delay",     // scheduler -> batch queue handoff (delay only)
      "service.worker.compute",  // worker per-request compute
      "simt.pool.alloc",         // SIMT memory pool (native nullopt failure)
  };
  return kSites;
}

namespace detail {

std::atomic<FaultPlan*> g_plan{nullptr};

void inject_slow(FaultPlan* plan, const char* site) {
  auto fired = plan->on_visit(site);
  if (!fired) return;
  switch (fired->kind) {
    case FaultKind::kError:
      throw FaultInjected(site);
    case FaultKind::kSlow:
    case FaultKind::kStall:
      cancellable_sleep(*plan, fired->delay);
      return;
  }
}

bool inject_fail_slow(FaultPlan* plan, const char* site) {
  auto fired = plan->on_visit(site);
  if (!fired) return false;
  switch (fired->kind) {
    case FaultKind::kError:
      return true;
    case FaultKind::kSlow:
    case FaultKind::kStall:
      cancellable_sleep(*plan, fired->delay);
      return false;
  }
  return false;
}

void inject_delay_slow(FaultPlan* plan, const char* site) {
  auto fired = plan->on_visit(site);
  if (fired && fired->kind != FaultKind::kError)
    cancellable_sleep(*plan, fired->delay);
}

}  // namespace detail

void install_plan(FaultPlan* plan) {
  detail::g_plan.store(plan, std::memory_order_release);
}

FaultPlan* current_plan() {
  return detail::g_plan.load(std::memory_order_acquire);
}

}  // namespace fault
}  // namespace manymap
