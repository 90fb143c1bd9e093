// manymap_chaos — seeded fault schedules against the alignment service.
//
//   manymap_chaos [--seeds N] [--first-seed S] [--oracle] [--verbose]
//
// Each seed deterministically derives a fault plan (worker exceptions,
// slow/stalled compute, DP allocation failures, queue delays), a small
// randomized service configuration (shards, workers, batch linger,
// watchdog, breaker) and a request mix (submit vs submit_wait, with and
// without deadlines), then asserts the robustness contract. Every eighth
// seed is a SPILL STORM: the memory budget is squeezed until every
// path-mode kernel streams its direction bytes through a spill sink, and the
// align.dirs.spill / align.dirs.spill_io fault sites are battered on top —
// the degradation ladder must still deliver terminal statuses. Every
// fourth seed is a GPU STORM: device offload is enabled (placement loosened
// so the workload actually reaches the device) while the gpu.launch and
// gpu.stage_oom fault sites force device failures — the CPU fallback and
// the exactly-once batch-remainder re-queue must keep every seed green.
// Every eighth seed (offset 5, overlapping neither storm above) is an
// INDEX STORM: the service starts with an asynchronously loaded index
// while the index.io.open / index.io.short_read / index.corrupt fault
// sites batter the load path — traffic admitted during warm-up answers
// the retriable INDEX_WARMING status, a hot reload is kicked mid-traffic,
// and once the faults clear the index must publish and serve kOk. The
// contract:
//
//   1. every submitted request resolves exactly once with a terminal
//      status (kOk / kRejected / kTimedOut / kFailed / kIndexWarming) —
//      no hang, no broken promise, no crash;
//   2. the metrics ledger balances: submitted == accepted + rejected and
//      accepted == completed + timed_out + failed + warming;
//   3. after the plan is cancelled, a clean request answers kOk — faults
//      never wedge the service.
//
// With --oracle, every kOk response — including degraded ones — is
// additionally replayed through the live differential oracle
// (verify_sample_every = 1): a fourth contract requires zero oracle
// divergences per seed, and across the run at least one *degraded*
// response must have been audited (verified_degraded > 0) — chaos must
// prove graceful degradation correct, not merely survive it.
//
// Exit status: 0 when every seed upholds the contract, 1 otherwise.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <future>
#include <string>
#include <vector>

#include "core/mapper.hpp"
#include "fault/fault.hpp"
#include "index/index_io.hpp"
#include "service/service.hpp"
#include "simulate/genome.hpp"
#include "simulate/read_sim.hpp"

namespace manymap {
namespace {

/// xorshift64* — independent of base/random so schedules stay stable.
struct ChaosRng {
  u64 s;
  explicit ChaosRng(u64 seed) : s(seed ? seed : 0x6368616f73ULL) {}
  u64 next() {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s * 0x2545f4914f6cdd1dULL;
  }
  u64 below(u64 n) { return next() % n; }
  i64 range(i64 lo, i64 hi) { return lo + static_cast<i64>(below(static_cast<u64>(hi - lo + 1))); }
};

struct SeedReport {
  bool ok = true;
  std::string failure;
  // Live-oracle accounting for --oracle mode, accumulated by main().
  u64 verified = 0;
  u64 verified_degraded = 0;
  u64 degraded_seen = 0;  ///< degraded/streamed/score-only kOk responses

  void fail(const std::string& why) {
    if (ok) failure = why;
    ok = false;
  }
};

/// One chaos round: build a service, arm a fault plan, push a request mix
/// through it, check the contract, then prove the service recovers.
/// `stall_floor_ms` is calibrated from measured serial compute so the
/// watchdog never declares a legitimately slow environment (TSan, loaded
/// CI) stalled.
SeedReport run_seed(u64 seed, const Reference& ref, const std::vector<Sequence>& reads,
                    const std::string& index_path, i64 stall_floor_ms, bool oracle,
                    bool verbose) {
  SeedReport rep;
  ChaosRng rng(seed * 0x9e3779b97f4a7c15ULL + 1);

  ServiceConfig cfg;
  cfg.map = MapOptions::map_pb();
  if (oracle) {
    // Live-oracle auditing of every kOk response, degraded ones included.
    cfg.verify_sample_every = 1;
    cfg.verify_max_cells = 8'000'000;
  }
  cfg.shards = static_cast<u32>(rng.range(1, 2));
  cfg.workers_per_shard = static_cast<u32>(rng.range(1, 3));
  cfg.ingress_capacity = static_cast<std::size_t>(rng.range(8, 32));
  cfg.batch.max_batch_size = static_cast<u32>(rng.range(2, 8));
  // Half the seeds run the default work-conserving scheduler (no linger),
  // half linger 200-2000 us; one draw keeps every other seed draw stable.
  const i64 delay_draw = rng.range(0, 3600);
  cfg.batch.max_delay = std::chrono::microseconds(delay_draw < 1800 ? 0 : delay_draw - 1600);
  cfg.watchdog.poll = std::chrono::milliseconds(20);
  cfg.watchdog.stall_timeout =
      std::chrono::milliseconds(std::max<i64>(rng.range(150, 250), stall_floor_ms));
  cfg.breaker.failure_threshold = 4;
  cfg.breaker.window = std::chrono::milliseconds(500);
  cfg.breaker.cooldown = std::chrono::milliseconds(200);

  // Spill-storm seeds: a memory budget tight enough that every path-mode
  // kernel streams its dirs through a spill sink, plus faults on the spill
  // handoff and file I/O sites. Exercises the full degradation ladder
  // (resident -> streamed -> fallback) under injected spill failures.
  const bool spill_storm = seed % 8 == 0;
  if (spill_storm) {
    cfg.mem.shard_budget_bytes = u64{8} << 20;
    cfg.mem.resident_request_bytes = u64{32} << 10;
    cfg.mem.score_only_above_bytes = u64{1} << 30;
  }

  // GPU-storm seeds: device offload enabled with a loose placement policy
  // (the workload's short reads must actually reach the device) and a tiny
  // staging area, then forced launch and staging failures on top. The
  // fallback ladder — stage_oom -> CPU segment, launch failure -> CPU +
  // exactly-once remainder re-queue — must keep every response terminal.
  const bool gpu_storm = seed % 4 == 0;
  if (gpu_storm) {
    cfg.gpu.enabled = true;
    cfg.gpu.batch.num_streams = static_cast<u32>(rng.range(1, 4));
    cfg.gpu.batch.staging_bytes = u64{64} << 10;
    cfg.gpu.batch.placement.min_reads = 1;
    cfg.gpu.batch.placement.min_mean_read_len = 200;
    cfg.gpu.batch.placement.max_length_cv = 2.0;
    // The simulated device *executes* lanes through the cycle-accurate
    // interpreter (~25x native wall time), so a per-item heartbeat that is
    // honest on the CPU looks stalled on the device path. Scale the stall
    // timeout accordingly (stall-fault delays below derive from it, so
    // injected stalls still outlast the watchdog); CPU-calibrated takeover
    // timing stays covered by the three quarters of seeds without gpu.
    cfg.watchdog.stall_timeout *= 25;
  }
  // Index-storm seeds: serve from an asynchronously loaded index (saved
  // once by main) with the load path under fault fire. Warm-up answers
  // INDEX_WARMING until an attempt survives; retries use a fast capped
  // backoff so the seed stays quick.
  const bool index_storm = seed % 8 == 5 && !index_path.empty();
  if (index_storm) {
    cfg.index.load_path = index_path;
    cfg.index.max_attempts = 8;
    cfg.index.backoff_initial = std::chrono::milliseconds(5);
    cfg.index.backoff_cap = std::chrono::milliseconds(40);
  }

  // The live oracle replays every sampled mapping through a reference DP
  // inside worker compute — roughly an order of magnitude over bare
  // mapping. Widen the watchdog so auditing is never mistaken for a stall.
  // The gpu-storm x25 already clears the audit overhead; the factors must
  // not stack, or injected stalls become unrecoverable inside the 60 s
  // future-resolution contract.
  if (oracle && !gpu_storm) cfg.watchdog.stall_timeout *= 10;

  // Fault schedule: 1-4 specs drawn from the site catalog. Stalls are kept
  // rare and bounded (one firing, ~1-2x the watchdog timeout) so a round
  // exercises takeover/respawn without dominating wall time.
  fault::FaultPlan plan(seed);
  const u32 nspecs = static_cast<u32>(rng.range(1, 4));
  for (u32 i = 0; i < nspecs; ++i) {
    fault::FaultSpec spec;
    switch (rng.below(5)) {
      case 0:
        spec.site = "service.worker.compute";
        spec.kind = fault::FaultKind::kError;
        spec.one_in = static_cast<u32>(rng.range(3, 8));
        break;
      case 1:
        spec.site = "service.worker.compute";
        spec.kind = fault::FaultKind::kSlow;
        spec.one_in = static_cast<u32>(rng.range(4, 10));
        spec.delay = std::chrono::milliseconds(rng.range(5, 20));
        break;
      case 2:
        spec.site = "service.worker.compute";
        spec.kind = fault::FaultKind::kStall;
        spec.one_in = static_cast<u32>(rng.range(10, 20));
        spec.max_fires = 1;
        spec.delay = std::chrono::milliseconds(
            cfg.watchdog.stall_timeout.count() * rng.range(3, 6) / 2);
        break;
      case 3:
        spec.site = "align.dp.alloc";
        spec.kind = fault::FaultKind::kError;
        spec.one_in = static_cast<u32>(rng.range(2, 6));
        break;
      default:
        spec.site = "service.queue.delay";
        spec.kind = fault::FaultKind::kSlow;
        spec.one_in = static_cast<u32>(rng.range(2, 5));
        spec.delay = std::chrono::milliseconds(rng.range(1, 10));
        break;
    }
    plan.arm(spec);
  }
  if (spill_storm) {
    fault::FaultSpec spill;
    spill.site = "align.dirs.spill";
    spill.kind = fault::FaultKind::kError;
    spill.one_in = static_cast<u32>(rng.range(4, 12));
    plan.arm(spill);
    fault::FaultSpec io;
    io.site = "align.dirs.spill_io";
    io.kind = fault::FaultKind::kError;
    io.one_in = static_cast<u32>(rng.range(16, 64));
    plan.arm(io);
  }
  if (gpu_storm) {
    fault::FaultSpec launch;
    launch.site = "gpu.launch";
    launch.kind = fault::FaultKind::kError;
    launch.one_in = static_cast<u32>(rng.range(3, 10));
    plan.arm(launch);
    fault::FaultSpec oom;
    oom.site = "gpu.stage_oom";
    oom.kind = fault::FaultKind::kError;
    oom.one_in = static_cast<u32>(rng.range(2, 8));
    plan.arm(oom);
  }
  if (index_storm) {
    for (const char* site : {"index.io.open", "index.io.short_read", "index.corrupt"}) {
      fault::FaultSpec spec;
      spec.site = site;
      spec.kind = fault::FaultKind::kError;
      spec.one_in = static_cast<u32>(rng.range(2, 5));
      plan.arm(spec);
    }
  }

  // The plan must be live BEFORE the service exists: index-storm seeds
  // begin their async index load in the constructor, and the load
  // attempts are exactly what the index.* sites are battering.
  const fault::ScopedPlan scoped(&plan);
  AlignmentService svc(ref, cfg);

  const std::size_t n = static_cast<std::size_t>(rng.range(24, 48));
  std::vector<std::future<MapResponse>> futures;
  futures.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    MapRequest req;
    req.id = i;
    req.read = reads[rng.below(reads.size())];
    if (rng.below(4) == 0)
      req.deadline = std::chrono::steady_clock::now() +
                     std::chrono::milliseconds(rng.range(1, 400) +
                                               (rng.below(2) ? stall_floor_ms : 0));
    futures.push_back(rng.below(3) == 0 ? svc.submit(std::move(req))
                                        : svc.submit_wait(std::move(req)));
    // Index storms also kick a hot reload mid-traffic: the faulted load
    // path must never disturb the index currently serving.
    if (index_storm && i == n / 2) svc.begin_index_reload(index_path);
  }

  // Contract 1: every future resolves with a terminal status. 60s is far
  // beyond any legitimate schedule — hitting it means a hang.
  u64 by_status[kRequestStatusCount] = {};
  for (std::size_t i = 0; i < futures.size(); ++i) {
    if (futures[i].wait_for(std::chrono::seconds(60)) != std::future_status::ready) {
      rep.fail("request " + std::to_string(i) + " hung (no terminal status in 60s)");
      plan.cancel();
      return rep;  // leak the future; joining would hang too
    }
    const MapResponse r = futures[i].get();
    by_status[static_cast<int>(r.status)]++;
    if (r.status == RequestStatus::kFailed && r.error.empty())
      rep.fail("kFailed response without an error string");
  }

  // Let in-flight watchdog bookkeeping settle, then stop injecting.
  plan.cancel();
  fault::install_plan(nullptr);

  // Index-storm recovery: the storm may have exhausted every load
  // attempt, leaving the service warming forever. With the faults gone a
  // fresh reload must succeed — begin_index_reload returning false just
  // means a prior reload is still draining its (now unfaulted) retries.
  if (index_storm && !svc.index_ready()) {
    for (int i = 0; i < 100 && !svc.wait_until_ready(std::chrono::milliseconds(600)); ++i)
      svc.begin_index_reload(index_path);
    if (!svc.index_ready()) {
      rep.fail("index storm: index never became ready after faults cleared");
      return rep;
    }
  }

  // Contract 3: a clean request after the storm answers kOk.
  MapRequest clean;
  clean.id = n;
  clean.read = reads[0];
  auto clean_fut = svc.submit_wait(std::move(clean));
  if (clean_fut.wait_for(std::chrono::seconds(60)) != std::future_status::ready) {
    rep.fail("post-chaos clean request hung");
    return rep;
  }
  const MapResponse clean_resp = clean_fut.get();
  if (clean_resp.status != RequestStatus::kOk)
    rep.fail(std::string("post-chaos clean request answered ") + to_string(clean_resp.status) +
             (clean_resp.error.empty() ? "" : " (" + clean_resp.error + ")"));

  svc.shutdown();

  // Contract 2: the metrics ledger balances.
  const MetricsSnapshot m = svc.metrics().snapshot();
  if (m.submitted != m.accepted + m.rejected)
    rep.fail("ledger: submitted != accepted + rejected");
  if (m.accepted != m.completed + m.timed_out + m.failed + m.warming_rejections)
    rep.fail("ledger: accepted != completed + timed_out + failed + warming");
  if (m.worker_stalls != m.worker_respawns)
    rep.fail("ledger: stalls != respawns");

  // Contract 4 (--oracle): the sampled responses passed the live oracle.
  rep.verified = m.verified;
  rep.verified_degraded = m.verified_degraded;
  rep.degraded_seen = m.degraded_responses + m.streamed_responses + m.mem_score_only;
  if (oracle && m.verify_divergences != 0)
    rep.fail("live oracle: " + std::to_string(m.verify_divergences) + " divergences");

  if (verbose)
    std::fprintf(stderr,
                 "[chaos] seed=%llu%s%s%s shards=%u workers=%u delay_us=%lld specs=%u "
                 "fires=%llu ok=%llu rejected=%llu timed_out=%llu failed=%llu warming=%llu "
                 "stalls=%llu%s%s\n",
                 static_cast<unsigned long long>(seed), spill_storm ? " [spill-storm]" : "",
                 gpu_storm ? " [gpu-storm]" : "", index_storm ? " [index-storm]" : "",
                 cfg.shards, cfg.workers_per_shard,
                 static_cast<long long>(cfg.batch.max_delay.count()), nspecs,
                 static_cast<unsigned long long>(plan.fires()),
                 static_cast<unsigned long long>(by_status[0]),
                 static_cast<unsigned long long>(by_status[1]),
                 static_cast<unsigned long long>(by_status[2]),
                 static_cast<unsigned long long>(by_status[3]),
                 static_cast<unsigned long long>(by_status[4]),
                 static_cast<unsigned long long>(m.worker_stalls),
                 rep.ok ? "" : " FAIL: ", rep.ok ? "" : rep.failure.c_str());
  return rep;
}

}  // namespace
}  // namespace manymap

int main(int argc, char** argv) {
  using namespace manymap;
  u64 seeds = 32, first_seed = 1;
  bool verbose = false;
  bool oracle = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "manymap_chaos: %s needs a value\n", arg.c_str());
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      std::fprintf(stderr,
                   "usage: manymap_chaos [--seeds N] [--first-seed S] [--oracle] [--verbose]\n"
                   "  --oracle  audit every kOk response (degraded included) with the live\n"
                   "            differential oracle; any divergence fails the seed\n");
      return 0;
    } else if (arg == "--oracle") {
      oracle = true;
    } else if (arg == "--seeds") {
      const char* v = value();
      if (v == nullptr) return 2;
      seeds = std::strtoull(v, nullptr, 10);
    } else if (arg == "--first-seed") {
      const char* v = value();
      if (v == nullptr) return 2;
      first_seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--verbose") {
      verbose = true;
    } else {
      std::fprintf(stderr, "manymap_chaos: unknown option '%s'\n", arg.c_str());
      return 2;
    }
  }

#if !MANYMAP_FAULT_INJECTION
  std::fprintf(stderr, "manymap_chaos: built without MANYMAP_FAULT_INJECTION; nothing to do\n");
  return 0;
#endif

  // One small shared workload; each seed draws its own request mix from it.
  GenomeParams gp;
  gp.total_length = 60'000;
  gp.seed = 7;
  const Reference ref = generate_genome(gp);
  ReadSimParams rp;
  rp.num_reads = 48;
  rp.seed = 8;
  rp.profile.max_length = 2'000;  // keep per-request compute small
  std::vector<Sequence> reads;
  for (auto& sr : ReadSimulator(ref, rp).simulate()) reads.push_back(std::move(sr.read));
  MM_REQUIRE(!reads.empty(), "simulation produced no reads");

  // Calibrate the watchdog floor to this machine: time serial compute on
  // the workload's longest reads and require the stall timeout to clear it
  // with a wide margin. Fixed wall-clock timeouts false-positive under
  // ThreadSanitizer (~10-20x slowdown) and on loaded CI runners — the
  // watchdog would shoot healthy workers and fail the clean request.
  // Index storms load from disk: save the workload's index once and let
  // every index-storm seed hammer the same file. Saved before any faults
  // are armed, so the on-disk image is pristine — every load failure in a
  // storm is injected, never real corruption.
  const std::string index_path =
      "/tmp/manymap_chaos_idx_" + std::to_string(static_cast<unsigned long>(::getpid())) +
      ".mmmi";
  {
    const MapOptions opt = MapOptions::map_pb();
    const MinimizerIndex idx = MinimizerIndex::build(ref, opt.sketch);
    MM_REQUIRE(save_index(index_path, idx), "failed to save chaos index image");
  }

  i64 stall_floor_ms = 0;
  {
    std::vector<const Sequence*> longest;
    for (const auto& r : reads) longest.push_back(&r);
    std::sort(longest.begin(), longest.end(),
              [](const Sequence* a, const Sequence* b) { return a->size() > b->size(); });
    const Mapper mapper(ref, MapOptions::map_pb());
    for (std::size_t i = 0; i < longest.size() && i < 3; ++i) {
      const auto t0 = std::chrono::steady_clock::now();
      (void)mapper.map(*longest[i]);
      const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
      stall_floor_ms = std::max<i64>(stall_floor_ms, ms * 8);
    }
    if (verbose)
      std::fprintf(stderr, "[chaos] calibrated watchdog stall floor: %lld ms\n",
                   static_cast<long long>(stall_floor_ms));
  }

  u64 failures = 0;
  u64 total_verified = 0;
  u64 total_verified_degraded = 0;
  u64 total_degraded_seen = 0;
  for (u64 i = 0; i < seeds; ++i) {
    const u64 seed = first_seed + i;
    const SeedReport rep = run_seed(seed, ref, reads, index_path, stall_floor_ms, oracle, verbose);
    total_verified += rep.verified;
    total_verified_degraded += rep.verified_degraded;
    total_degraded_seen += rep.degraded_seen;
    if (!rep.ok) {
      ++failures;
      std::fprintf(stderr, "[chaos] seed %llu FAILED: %s\n",
                   static_cast<unsigned long long>(seed), rep.failure.c_str());
    }
  }
  std::remove(index_path.c_str());
  std::printf("manymap_chaos: %llu/%llu seeds upheld the robustness contract\n",
              static_cast<unsigned long long>(seeds - failures),
              static_cast<unsigned long long>(seeds));
  if (oracle) {
    std::printf("manymap_chaos: live oracle audited %llu responses (%llu degraded)\n",
                static_cast<unsigned long long>(total_verified),
                static_cast<unsigned long long>(total_verified_degraded));
    // Surviving chaos without ever auditing a degraded answer would leave
    // the degradation paths unverified — exactly the gap --oracle closes.
    if (total_degraded_seen > 0 && total_verified_degraded == 0) {
      std::fprintf(stderr,
                   "[chaos] FAILED: %llu degraded responses were served but none "
                   "were audited (verified_degraded == 0)\n",
                   static_cast<unsigned long long>(total_degraded_seen));
      ++failures;
    }
  }
  return failures == 0 ? 0 : 1;
}
