#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <future>
#include <thread>
#include <vector>

#include "base/random.hpp"
#include "core/paf.hpp"
#include "fault/fault.hpp"
#include "service/batch_scheduler.hpp"
#include "service/service.hpp"
#include "simulate/genome.hpp"
#include "simulate/read_sim.hpp"

namespace manymap {
namespace {

using namespace std::chrono_literals;

// One small deterministic workload shared by every test: a 80 kbp genome
// and short PacBio-noise reads (capped lengths keep the suite fast).
struct Workload {
  Reference ref;
  std::vector<Sequence> reads;
  std::vector<std::string> serial_paf;  ///< Mapper::map ground truth per read

  Workload() {
    GenomeParams gp;
    gp.total_length = 80'000;
    gp.num_contigs = 2;
    gp.seed = 1234;
    ref = generate_genome(gp);
    ReadSimParams rp;
    rp.num_reads = 120;
    rp.seed = 1235;
    rp.profile.log_mu = std::log(700.0);
    rp.profile.log_sigma = 0.5;
    rp.profile.min_length = 200;
    rp.profile.max_length = 2'500;
    for (auto& sr : ReadSimulator(ref, rp).simulate()) reads.push_back(std::move(sr.read));
    const Mapper mapper(ref, MapOptions::map_pb());
    for (const auto& r : reads) serial_paf.push_back(to_paf_block(mapper.map(r)));
  }
};

const Workload& workload() {
  static const Workload w;
  return w;
}

PendingRequest make_pending(u64 id, std::size_t len) {
  PendingRequest p;
  p.req.id = id;
  p.req.read.name = "r" + std::to_string(id);
  p.req.read.codes.assign(len, 0);
  p.enqueued = std::chrono::steady_clock::now();
  return p;
}

TEST(BatchScheduler, CoalescesBySizeAndSortsLongestFirst) {
  BoundedQueue<PendingRequest> ingress(64);
  for (u64 i = 0; i < 10; ++i) ingress.push(make_pending(i, 100 + (i * 37) % 500));
  ingress.close();
  BatchPolicy policy;
  policy.max_batch_size = 4;
  policy.longest_first = true;
  std::vector<RequestBatch> batches;
  const u64 n = BatchScheduler(ingress, policy).run(
      [&](RequestBatch&& b) { batches.push_back(std::move(b)); });
  ASSERT_EQ(n, 3u);
  ASSERT_EQ(batches.size(), 3u);
  EXPECT_EQ(batches[0].items.size(), 4u);
  EXPECT_EQ(batches[1].items.size(), 4u);
  EXPECT_EQ(batches[2].items.size(), 2u);
  u64 total = 0;
  for (std::size_t b = 0; b < batches.size(); ++b) {
    EXPECT_EQ(batches[b].id, b);
    total += batches[b].items.size();
    for (std::size_t i = 1; i < batches[b].items.size(); ++i)
      EXPECT_GE(batches[b].items[i - 1].req.read.size(), batches[b].items[i].req.read.size());
  }
  EXPECT_EQ(total, 10u);
}

TEST(BatchScheduler, FifoOrderWhenLongestFirstOff) {
  BoundedQueue<PendingRequest> ingress(64);
  for (u64 i = 0; i < 6; ++i) ingress.push(make_pending(i, 600 - i * 50));
  ingress.close();
  BatchPolicy policy;
  policy.max_batch_size = 100;
  policy.longest_first = false;
  std::vector<RequestBatch> batches;
  BatchScheduler(ingress, policy).run([&](RequestBatch&& b) { batches.push_back(std::move(b)); });
  ASSERT_EQ(batches.size(), 1u);
  for (std::size_t i = 0; i < batches[0].items.size(); ++i)
    EXPECT_EQ(batches[0].items[i].req.id, i);  // arrival order preserved
}

TEST(BatchScheduler, MaxDelayFlushesPartialBatch) {
  BoundedQueue<PendingRequest> ingress(64);
  BatchPolicy policy;
  policy.max_batch_size = 1000;  // size alone would never flush
  policy.max_delay = 5ms;
  BoundedQueue<std::size_t> flushed(16);
  std::thread scheduler([&] {
    BatchScheduler(ingress, policy).run(
        [&](RequestBatch&& b) { flushed.push(b.items.size()); });
  });
  ingress.push(make_pending(0, 100));
  ingress.push(make_pending(1, 100));
  // The partial batch must arrive on its own via the delay flush.
  const auto size = flushed.pop_for(5s);
  ASSERT_TRUE(size.has_value());
  EXPECT_EQ(*size, 2u);
  ingress.close();
  scheduler.join();
}

TEST(BatchScheduler, IdleWorkerTakesALoneRequestDespiteLinger) {
  BoundedQueue<PendingRequest> ingress(64);
  BatchPolicy policy;
  policy.max_batch_size = 1000;
  policy.max_delay = 1h;  // a timer-driven flush would hold the request this long
  BoundedQueue<std::size_t> flushed(16);
  std::thread scheduler([&] {
    BatchScheduler(ingress, policy)
        .run([&](RequestBatch&& b) { flushed.push(b.items.size()); }, [] { return true; });
  });
  ingress.push(make_pending(0, 100));
  const auto size = flushed.pop_for(60s);
  ingress.close();
  scheduler.join();
  ASSERT_TRUE(size.has_value());
  EXPECT_EQ(*size, 1u);
}

TEST(BatchScheduler, BusyWorkersGetWhatTheIngressHolds) {
  BoundedQueue<PendingRequest> ingress(64);
  for (u64 i = 0; i < 10; ++i) ingress.push(make_pending(i, 100));
  BatchPolicy policy;  // default: no linger
  policy.max_batch_size = 4;
  BoundedQueue<std::size_t> flushed(16);
  std::thread scheduler([&] {
    BatchScheduler(ingress, policy)
        .run([&](RequestBatch&& b) { flushed.push(b.items.size()); }, [] { return false; });
  });
  // The ingress stays open: the last partial batch must go out once the
  // ingress is empty, not when it closes.
  std::vector<std::size_t> sizes;
  for (std::size_t total = 0; total < 10;) {
    const auto size = flushed.pop_for(60s);
    if (!size) break;
    sizes.push_back(*size);
    total += *size;
  }
  ingress.close();
  scheduler.join();
  EXPECT_EQ(sizes, (std::vector<std::size_t>{4, 4, 2}));
}

TEST(Service, MatchesSerialMapperByteForByte) {
  const auto& w = workload();
  ServiceConfig cfg;
  cfg.shards = 2;
  cfg.workers_per_shard = 2;
  cfg.dispatch = ServiceConfig::Dispatch::kLeastLoaded;
  cfg.batch.max_batch_size = 8;
  AlignmentService svc(w.ref, cfg);
  std::vector<std::future<MapResponse>> futures;
  for (std::size_t i = 0; i < w.reads.size(); ++i) {
    MapRequest req;
    req.id = i;
    req.read = w.reads[i];
    futures.push_back(svc.submit_wait(std::move(req)));
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const MapResponse r = futures[i].get();
    EXPECT_EQ(r.status, RequestStatus::kOk);
    EXPECT_EQ(r.id, i);
    EXPECT_EQ(r.paf, w.serial_paf[i]) << "read " << i;
    EXPECT_LT(r.shard, cfg.shards);
    EXPECT_GE(r.batch_size, 1u);
  }
  svc.shutdown();
  const auto snap = svc.metrics().snapshot();
  EXPECT_EQ(snap.completed, w.reads.size());
  EXPECT_GT(snap.mean_batch_size, 1.0);  // burst traffic must coalesce
}

TEST(Service, IdleServiceAnswersALoneRequestWithoutLinger) {
  const auto& w = workload();
  ServiceConfig cfg;
  cfg.workers_per_shard = 2;
  cfg.batch.max_batch_size = 1000;
  cfg.batch.max_delay = 1h;  // opt-in linger: never applies while a worker idles
  AlignmentService svc(w.ref, cfg);
  MapRequest req;
  req.id = 7;
  req.read = w.reads[7];
  const MapResponse r = svc.map_sync(std::move(req));
  svc.shutdown();
  ASSERT_EQ(r.status, RequestStatus::kOk);
  EXPECT_EQ(r.paf, w.serial_paf[7]);
  EXPECT_EQ(r.batch_size, 1u);
  EXPECT_GE(r.batch_wait_ms, 0.0);
  EXPECT_GE(r.shard_wait_ms, 0.0);
  EXPECT_EQ(r.queue_ms, r.batch_wait_ms + r.shard_wait_ms);
}

TEST(Service, LongestFirstToggleBothMatchSerial) {
  const auto& w = workload();
  for (const bool longest_first : {true, false}) {
    ServiceConfig cfg;
    cfg.workers_per_shard = 2;
    cfg.batch.longest_first = longest_first;
    AlignmentService svc(w.ref, cfg);
    std::vector<std::future<MapResponse>> futures;
    for (std::size_t i = 0; i < 40; ++i) {
      MapRequest req;
      req.id = i;
      req.read = w.reads[i];
      futures.push_back(svc.submit_wait(std::move(req)));
    }
    for (std::size_t i = 0; i < futures.size(); ++i)
      EXPECT_EQ(futures[i].get().paf, w.serial_paf[i]) << "longest_first=" << longest_first;
  }
}

TEST(Service, RejectsWhenIngressFull) {
  const auto& w = workload();
  ServiceConfig cfg;
  cfg.workers_per_shard = 1;
  cfg.ingress_capacity = 1;  // admission-control bound under test
  cfg.shard_queue_capacity = 1;
  cfg.batch.max_batch_size = 1;
  AlignmentService svc(w.ref, cfg);
  std::vector<std::future<MapResponse>> futures;
  for (std::size_t i = 0; i < 100; ++i) {
    MapRequest req;
    req.id = i;
    req.read = w.reads[i % w.reads.size()];
    futures.push_back(svc.submit(std::move(req)));  // non-blocking admission
  }
  u64 ok = 0, rejected = 0;
  for (auto& f : futures) {
    const MapResponse r = f.get();
    if (r.status == RequestStatus::kOk) {
      ++ok;
      // Some short reads map nowhere: kOk with the serial answer, even empty.
      EXPECT_EQ(r.paf, w.serial_paf[r.id % w.reads.size()]) << "read " << r.id;
    } else {
      EXPECT_EQ(r.status, RequestStatus::kRejected);
      EXPECT_TRUE(r.mappings.empty());
      ++rejected;
    }
  }
  // A burst of 100 instant submits against a 1-slot queue and real compute
  // must shed load; the first request always gets in.
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(ok, 0u);
  EXPECT_EQ(ok + rejected, 100u);
  svc.shutdown();
  const auto snap = svc.metrics().snapshot();
  EXPECT_EQ(snap.rejected, rejected);
  EXPECT_EQ(snap.completed, ok);
}

TEST(Service, ShutdownDrainsInFlightRequests) {
  const auto& w = workload();
  ServiceConfig cfg;
  cfg.workers_per_shard = 2;
  cfg.ingress_capacity = 256;
  AlignmentService svc(w.ref, cfg);
  std::vector<std::future<MapResponse>> futures;
  for (std::size_t i = 0; i < 60; ++i) {
    MapRequest req;
    req.id = i;
    req.read = w.reads[i];
    futures.push_back(svc.submit_wait(std::move(req)));
  }
  svc.shutdown();  // must drain, not drop
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const MapResponse r = futures[i].get();
    EXPECT_EQ(r.status, RequestStatus::kOk);
    EXPECT_EQ(r.paf, w.serial_paf[i]);
  }
  // After shutdown, new submissions are answered kRejected immediately —
  // in both admission modes (the blocking path's push fails on the closed
  // queue and must leave the promise resolvable, not broken).
  MapRequest late;
  late.id = 999;
  late.read = w.reads[0];
  EXPECT_EQ(svc.submit(std::move(late)).get().status, RequestStatus::kRejected);
  MapRequest late_wait;
  late_wait.id = 1000;
  late_wait.read = w.reads[0];
  const MapResponse r = svc.submit_wait(std::move(late_wait)).get();
  EXPECT_EQ(r.status, RequestStatus::kRejected);
  EXPECT_EQ(r.id, 1000u);
}

TEST(Service, ExpiredDeadlineTimesOutWithoutCompute) {
  const auto& w = workload();
  ServiceConfig cfg;
  cfg.workers_per_shard = 1;
  AlignmentService svc(w.ref, cfg);
  std::vector<std::future<MapResponse>> futures;
  for (std::size_t i = 0; i < 20; ++i) {
    MapRequest req;
    req.id = i;
    req.read = w.reads[i];
    if (i % 2 == 0) req.deadline = std::chrono::steady_clock::now() - 1ms;  // already expired
    futures.push_back(svc.submit_wait(std::move(req)));
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const MapResponse r = futures[i].get();
    if (i % 2 == 0) {
      EXPECT_EQ(r.status, RequestStatus::kTimedOut);
      EXPECT_TRUE(r.mappings.empty());
      EXPECT_EQ(r.compute_ms, 0.0);  // never aligned
    } else {
      EXPECT_EQ(r.status, RequestStatus::kOk);
      EXPECT_EQ(r.paf, w.serial_paf[i]);
    }
  }
  svc.shutdown();
  EXPECT_EQ(svc.metrics().snapshot().timed_out, 10u);
}

TEST(Service, MetricsCountersAddUp) {
  const auto& w = workload();
  ServiceConfig cfg;
  cfg.workers_per_shard = 2;
  cfg.ingress_capacity = 4;
  AlignmentService svc(w.ref, cfg);
  std::vector<std::future<MapResponse>> futures;
  for (std::size_t i = 0; i < 80; ++i) {
    MapRequest req;
    req.id = i;
    req.read = w.reads[i];
    if (i % 10 == 3) req.deadline = std::chrono::steady_clock::now() - 1ms;
    // Mix admission modes so both rejects and completions can occur.
    futures.push_back(i % 2 ? svc.submit(std::move(req)) : svc.submit_wait(std::move(req)));
  }
  for (auto& f : futures) (void)f.get();
  svc.shutdown();
  const auto snap = svc.metrics().snapshot();
  EXPECT_EQ(snap.submitted, 80u);
  EXPECT_EQ(snap.submitted, snap.accepted + snap.rejected);
  // Every accepted request ends exactly one way: completed or timed out.
  EXPECT_EQ(snap.accepted, snap.completed + snap.timed_out);
  // Every accepted request rode in exactly one batch.
  EXPECT_EQ(snap.batched_requests, snap.accepted);
  EXPECT_GT(snap.batches, 0u);
  EXPECT_GE(snap.mean_batch_size, 1.0);
  if (snap.completed > 0) {
    EXPECT_GT(snap.latency_ms_mean, 0.0);
    EXPECT_GE(snap.latency_ms_p99, snap.latency_ms_p50);
  }
  const std::string report = snap.report();
  EXPECT_NE(report.find("submitted=80"), std::string::npos);
  EXPECT_NE(report.find("latency_ms"), std::string::npos);
}

TEST(Metrics, LatencyReservoirStaysBounded) {
  ServiceMetrics m;
  const u64 n = ServiceMetrics::kReservoirCapacity + 500;
  for (u64 i = 0; i < n; ++i) m.on_completed(static_cast<double>(i), static_cast<double>(i) / 2);
  const auto snap = m.snapshot();
  // The completion count is exact even though samples are windowed.
  EXPECT_EQ(snap.completed, n);
  // The ring holds exactly the most recent kReservoirCapacity samples, so
  // every retained latency is >= the first evicted value.
  EXPECT_GE(snap.latency_ms_p50, static_cast<double>(n - ServiceMetrics::kReservoirCapacity));
  EXPECT_GE(snap.latency_ms_p99, snap.latency_ms_p50);
}

TEST(Service, LiveVerifySamplingCountsInMetrics) {
  const auto& w = workload();
  ServiceConfig cfg;
  cfg.workers_per_shard = 2;
  cfg.verify_sample_every = 1;  // audit every kOk response
  AlignmentService svc(w.ref, cfg);
  std::vector<std::future<MapResponse>> futures;
  for (std::size_t i = 0; i < 30; ++i) {
    MapRequest req;
    req.id = i;
    req.read = w.reads[i];
    futures.push_back(svc.submit_wait(std::move(req)));
  }
  for (auto& f : futures) EXPECT_EQ(f.get().status, RequestStatus::kOk);
  svc.shutdown();
  const auto snap = svc.metrics().snapshot();
  // The production mapper must pass its own live audit.
  EXPECT_GT(snap.verified, 0u);
  EXPECT_EQ(snap.verify_divergences, 0u);
}

#if MANYMAP_FAULT_INJECTION

TEST(ServiceFault, WorkerComputeFaultYieldsStructuredFailed) {
  const auto& w = workload();
  fault::FaultPlan plan(21);
  fault::FaultSpec spec;
  spec.site = "service.worker.compute";
  spec.one_in = 1;
  spec.max_fires = 2;
  plan.arm(spec);
  ServiceConfig cfg;
  cfg.workers_per_shard = 1;
  AlignmentService svc(w.ref, cfg);
  const fault::ScopedPlan guard(&plan);
  std::vector<std::future<MapResponse>> futures;
  for (std::size_t i = 0; i < 10; ++i) {
    MapRequest req;
    req.id = i;
    req.read = w.reads[i];
    futures.push_back(svc.submit_wait(std::move(req)));
  }
  u64 failed = 0, ok = 0;
  for (auto& f : futures) {
    const MapResponse r = f.get();
    if (r.status == RequestStatus::kFailed) {
      ++failed;
      EXPECT_NE(r.error.find("service.worker.compute"), std::string::npos);
      EXPECT_TRUE(r.mappings.empty());
    } else {
      EXPECT_EQ(r.status, RequestStatus::kOk);
      ++ok;
    }
  }
  EXPECT_EQ(failed, 2u);  // exactly max_fires requests failed
  EXPECT_EQ(ok, 8u);
  svc.shutdown();
  const auto snap = svc.metrics().snapshot();
  EXPECT_EQ(snap.failed, 2u);
  EXPECT_EQ(snap.accepted, snap.completed + snap.timed_out + snap.failed);
}

TEST(ServiceFault, MidComputeDeadlineAnswersTimedOut) {
  const auto& w = workload();
  fault::FaultPlan plan(22);
  fault::FaultSpec spec;
  spec.site = "service.worker.compute";
  spec.kind = fault::FaultKind::kSlow;
  spec.one_in = 1;
  spec.delay = std::chrono::milliseconds(80);
  plan.arm(spec);
  ServiceConfig cfg;
  cfg.workers_per_shard = 1;
  AlignmentService svc(w.ref, cfg);
  const fault::ScopedPlan guard(&plan);
  // The deadline is alive at compute start but expires during the injected
  // slowdown — the cooperative checks inside Mapper::map must catch it.
  MapRequest req;
  req.id = 0;
  req.read = w.reads[0];
  req.deadline = std::chrono::steady_clock::now() + 20ms;
  const MapResponse r = svc.submit_wait(std::move(req)).get();
  EXPECT_EQ(r.status, RequestStatus::kTimedOut);
  EXPECT_TRUE(r.mappings.empty());
  svc.shutdown();
  EXPECT_EQ(svc.metrics().snapshot().timed_out, 1u);
}

TEST(ServiceFault, WatchdogFailsStalledBatchAndRespawnsWorker) {
  const auto& w = workload();
  fault::FaultPlan plan(23);
  fault::FaultSpec spec;
  spec.site = "service.worker.compute";
  spec.kind = fault::FaultKind::kStall;
  spec.one_in = 1;
  spec.max_fires = 1;
  spec.delay = std::chrono::milliseconds(1'500);
  plan.arm(spec);
  ServiceConfig cfg;
  cfg.shards = 1;
  cfg.workers_per_shard = 1;
  cfg.watchdog.poll = 10ms;
  cfg.watchdog.stall_timeout = 100ms;
  AlignmentService svc(w.ref, cfg);
  const fault::ScopedPlan guard(&plan);

  // The first wave rides one batch into the stall; the watchdog must fail
  // it (not hang) well before the 1.5s sleep ends.
  std::vector<std::future<MapResponse>> futures;
  for (std::size_t i = 0; i < 4; ++i) {
    MapRequest req;
    req.id = i;
    req.read = w.reads[i];
    futures.push_back(svc.submit_wait(std::move(req)));
  }
  u64 failed = 0, ok = 0;
  for (auto& f : futures) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(30)), std::future_status::ready);
    const MapResponse r = f.get();
    if (r.status == RequestStatus::kFailed) {
      ++failed;
      EXPECT_NE(r.error.find("stalled"), std::string::npos);
    } else {
      EXPECT_EQ(r.status, RequestStatus::kOk);
      ++ok;
    }
  }
  EXPECT_GT(failed, 0u);  // at least the stalled request

  // The respawned worker serves new traffic while the stalled thread is
  // still sleeping (max_fires=1 keeps the replacement clean).
  MapRequest after;
  after.id = 100;
  after.read = w.reads[0];
  const MapResponse r = svc.submit_wait(std::move(after)).get();
  EXPECT_EQ(r.status, RequestStatus::kOk);
  EXPECT_EQ(r.paf, w.serial_paf[0]);

  plan.cancel();  // wake the stalled thread so shutdown is fast
  svc.shutdown();
  const auto snap = svc.metrics().snapshot();
  EXPECT_EQ(snap.worker_stalls, 1u);
  EXPECT_EQ(snap.worker_respawns, 1u);
  EXPECT_EQ(snap.accepted, snap.completed + snap.timed_out + snap.failed);
}

// Regression (shutdown vs watchdog respawn): shutdown while a stalled
// thread is still sleeping must join the respawned worker AND the retired
// stalled thread, and submits after shutdown stay kRejected. Runs under
// TSan via the `service` label.
TEST(ServiceFault, ShutdownJoinsRespawnedWorkersAndRejectsAfter) {
  const auto& w = workload();
  fault::FaultPlan plan(24);
  fault::FaultSpec spec;
  spec.site = "service.worker.compute";
  spec.kind = fault::FaultKind::kStall;
  spec.one_in = 1;
  spec.max_fires = 1;
  spec.delay = std::chrono::milliseconds(800);
  plan.arm(spec);
  ServiceConfig cfg;
  cfg.shards = 1;
  cfg.workers_per_shard = 1;
  cfg.watchdog.poll = 10ms;
  cfg.watchdog.stall_timeout = 80ms;
  AlignmentService svc(w.ref, cfg);
  const fault::ScopedPlan guard(&plan);

  MapRequest req;
  req.id = 0;
  req.read = w.reads[0];
  auto fut = svc.submit_wait(std::move(req));
  ASSERT_EQ(fut.wait_for(std::chrono::seconds(30)), std::future_status::ready);
  EXPECT_EQ(fut.get().status, RequestStatus::kFailed);  // watchdog takeover

  // Shut down while the stalled thread is (likely) still in its sleep.
  svc.shutdown();
  EXPECT_EQ(svc.metrics().snapshot().worker_respawns, 1u);

  MapRequest late;
  late.id = 1;
  late.read = w.reads[0];
  EXPECT_EQ(svc.submit(std::move(late)).get().status, RequestStatus::kRejected);
  MapRequest late_wait;
  late_wait.id = 2;
  late_wait.read = w.reads[0];
  EXPECT_EQ(svc.submit_wait(std::move(late_wait)).get().status, RequestStatus::kRejected);
}

TEST(ServiceFault, BreakerShedsToScoreOnlyThenRecovers) {
  const auto& w = workload();
  fault::FaultPlan plan(25);
  fault::FaultSpec spec;
  spec.site = "service.worker.compute";
  spec.one_in = 1;
  spec.max_fires = 2;
  plan.arm(spec);
  ServiceConfig cfg;
  cfg.workers_per_shard = 1;
  cfg.breaker.failure_threshold = 2;
  cfg.breaker.window = std::chrono::seconds(10);
  cfg.breaker.cooldown = std::chrono::milliseconds(300);
  AlignmentService svc(w.ref, cfg);
  const fault::ScopedPlan guard(&plan);

  // Two injected failures open the breaker.
  for (u64 i = 0; i < 2; ++i) {
    MapRequest req;
    req.id = i;
    req.read = w.reads[i];
    EXPECT_EQ(svc.submit_wait(std::move(req)).get().status, RequestStatus::kFailed);
  }
  // While open, responses are served degraded: kOk, score-only mappings.
  MapRequest deg;
  deg.id = 10;
  deg.read = w.reads[0];
  const MapResponse d = svc.submit_wait(std::move(deg)).get();
  EXPECT_EQ(d.status, RequestStatus::kOk);
  EXPECT_TRUE(d.degraded);
  ASSERT_FALSE(d.mappings.empty());
  EXPECT_TRUE(d.mappings[0].cigar.empty());  // no CIGAR pass in degraded mode

  // After the cooldown the breaker closes and full service resumes.
  std::this_thread::sleep_for(500ms);
  MapRequest full;
  full.id = 11;
  full.read = w.reads[0];
  const MapResponse f = svc.submit_wait(std::move(full)).get();
  EXPECT_EQ(f.status, RequestStatus::kOk);
  EXPECT_FALSE(f.degraded);
  EXPECT_EQ(f.paf, w.serial_paf[0]);

  svc.shutdown();
  const auto snap = svc.metrics().snapshot();
  EXPECT_GE(snap.breaker_opened, 1u);
  EXPECT_GE(snap.degraded_responses, 1u);
  EXPECT_FALSE(snap.degraded_now);
}

// The breaker rows are read from the breaker when the snapshot is taken,
// so they follow its state between requests: an open breaker reads open
// before any request sees it, an expired cooldown reads closed while the
// service idles, and an episode no request observed is still counted.
TEST(ServiceFault, BreakerMetricsReadTheBreakerBetweenRequests) {
  const auto& w = workload();
  ServiceConfig cfg;
  cfg.workers_per_shard = 1;
  cfg.breaker.failure_threshold = 2;
  cfg.breaker.window = std::chrono::seconds(10);
  cfg.breaker.cooldown = std::chrono::milliseconds(300);
  auto fail_twice = [&](AlignmentService& svc) {
    for (u64 i = 0; i < 2; ++i) {
      MapRequest req;
      req.id = i;
      req.read = w.reads[i];
      EXPECT_EQ(svc.submit_wait(std::move(req)).get().status, RequestStatus::kFailed);
    }
  };
  fault::FaultSpec spec;
  spec.site = "service.worker.compute";
  spec.one_in = 1;
  spec.max_fires = 2;

  {  // Two failures, snapshot, one degraded request, idle past the cooldown.
    fault::FaultPlan plan(25);
    plan.arm(spec);
    AlignmentService svc(w.ref, cfg);
    const fault::ScopedPlan guard(&plan);
    fail_twice(svc);
    const auto open = svc.metrics().snapshot();
    EXPECT_EQ(open.breaker_opened, 1u);
    EXPECT_TRUE(open.degraded_now);
    MapRequest deg;
    deg.id = 10;
    deg.read = w.reads[0];
    EXPECT_TRUE(svc.submit_wait(std::move(deg)).get().degraded);
    std::this_thread::sleep_for(500ms);
    EXPECT_FALSE(svc.metrics().snapshot().degraded_now);
    svc.shutdown();
  }
  {  // Two failures, idle past the cooldown, one full-service request.
    fault::FaultPlan plan(25);
    plan.arm(spec);
    AlignmentService svc(w.ref, cfg);
    const fault::ScopedPlan guard(&plan);
    fail_twice(svc);
    std::this_thread::sleep_for(500ms);
    MapRequest full;
    full.id = 11;
    full.read = w.reads[0];
    EXPECT_FALSE(svc.submit_wait(std::move(full)).get().degraded);
    const auto snap = svc.metrics().snapshot();
    EXPECT_EQ(snap.breaker_opened, 1u);
    EXPECT_FALSE(snap.degraded_now);
    svc.shutdown();
  }
}

TEST(ServiceFault, FallbackLadderKeepsResponsesByteIdentical) {
  const auto& w = workload();
  fault::FaultPlan plan(26);
  fault::FaultSpec spec;
  spec.site = "align.dp.alloc";
  spec.one_in = 1;
  spec.max_fires = 4;  // a few kernel attempts fail; the ladder absorbs them
  plan.arm(spec);
  ServiceConfig cfg;
  cfg.workers_per_shard = 1;
  AlignmentService svc(w.ref, cfg);
  const fault::ScopedPlan guard(&plan);
  std::vector<std::future<MapResponse>> futures;
  for (std::size_t i = 0; i < 8; ++i) {
    MapRequest req;
    req.id = i;
    req.read = w.reads[i];
    futures.push_back(svc.submit_wait(std::move(req)));
  }
  u32 deepest = 0;
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const MapResponse r = futures[i].get();
    // The ladder changes HOW the answer is computed, never WHAT: every
    // response stays byte-identical to the serial mapper.
    EXPECT_EQ(r.status, RequestStatus::kOk);
    EXPECT_EQ(r.paf, w.serial_paf[i]) << "read " << i;
    deepest = std::max(deepest, r.timings.deepest_fallback_rung);
  }
  EXPECT_GT(deepest, 0u);  // some request actually climbed
  svc.shutdown();
  const auto snap = svc.metrics().snapshot();
  EXPECT_EQ(snap.failed, 0u);  // faults were absorbed below the service layer
  EXPECT_GT(snap.kernel_retries, 0u);
}

TEST(ServiceFault, ChaosMiniEveryRequestTerminalAndServiceRecovers) {
  const auto& w = workload();
  fault::FaultPlan plan(27);
  fault::FaultSpec err;
  err.site = "service.worker.compute";
  err.one_in = 3;
  plan.arm(err);
  fault::FaultSpec alloc;
  alloc.site = "align.dp.alloc";
  alloc.one_in = 4;
  plan.arm(alloc);
  fault::FaultSpec delay;
  delay.site = "service.queue.delay";
  delay.kind = fault::FaultKind::kSlow;
  delay.one_in = 2;
  delay.delay = 2ms;
  plan.arm(delay);

  ServiceConfig cfg;
  cfg.shards = 2;
  cfg.workers_per_shard = 2;
  cfg.ingress_capacity = 16;
  cfg.breaker.failure_threshold = 4;
  cfg.breaker.cooldown = 100ms;
  AlignmentService svc(w.ref, cfg);
  {
    const fault::ScopedPlan guard(&plan);
    std::vector<std::future<MapResponse>> futures;
    for (std::size_t i = 0; i < 40; ++i) {
      MapRequest req;
      req.id = i;
      req.read = w.reads[i];
      if (i % 5 == 0) req.deadline = std::chrono::steady_clock::now() + 200ms;
      futures.push_back(i % 3 ? svc.submit_wait(std::move(req)) : svc.submit(std::move(req)));
    }
    for (auto& f : futures) {
      ASSERT_EQ(f.wait_for(std::chrono::seconds(60)), std::future_status::ready);
      (void)f.get();  // any terminal status is fine; no hang, no broken promise
    }
    plan.cancel();
  }

  // Post-chaos, a clean request must answer kOk — wait out the breaker
  // cooldown first so the response is full-fidelity, not degraded.
  std::this_thread::sleep_for(300ms);
  MapRequest clean;
  clean.id = 1000;
  clean.read = w.reads[0];
  const MapResponse r = svc.submit_wait(std::move(clean)).get();
  EXPECT_EQ(r.status, RequestStatus::kOk);
  EXPECT_EQ(r.paf, w.serial_paf[0]);

  svc.shutdown();
  const auto snap = svc.metrics().snapshot();
  EXPECT_EQ(snap.submitted, snap.accepted + snap.rejected);
  EXPECT_EQ(snap.accepted, snap.completed + snap.timed_out + snap.failed);
}

#endif  // MANYMAP_FAULT_INJECTION

// ---- memory budget: footprint-aware admission and the degradation ladder.

TEST(ServiceMemory, TightBudgetStreamsDirsByteIdentically) {
  const auto& w = workload();
  ServiceConfig cfg;
  cfg.shards = 1;
  cfg.workers_per_shard = 2;
  // Resident threshold far below any request estimate: every path-mode
  // kernel must stream its dirs, and the PAF must not change by one byte.
  cfg.mem.shard_budget_bytes = u64{8} << 20;
  cfg.mem.resident_request_bytes = u64{32} << 10;
  cfg.mem.score_only_above_bytes = u64{1} << 40;  // never score-only
  AlignmentService svc(w.ref, cfg);
  std::vector<std::future<MapResponse>> futures;
  for (std::size_t i = 0; i < 40; ++i) {
    MapRequest req;
    req.id = i;
    req.read = w.reads[i];
    futures.push_back(svc.submit_wait(std::move(req)));
  }
  u64 streamed = 0;
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const MapResponse r = futures[i].get();
    ASSERT_EQ(r.status, RequestStatus::kOk);
    EXPECT_EQ(r.paf, w.serial_paf[i]) << "read " << i;
    EXPECT_GT(r.est_dirs_bytes, 0u);
    if (r.degrade == DegradeLevel::kStreamedDirs) {
      ++streamed;
      EXPECT_GT(r.timings.streamed_kernels, 0u);
    }
  }
  EXPECT_GT(streamed, 0u);
  svc.shutdown();
  const auto snap = svc.metrics().snapshot();
  EXPECT_EQ(snap.streamed_responses, streamed);
  EXPECT_GT(snap.dirs_spilled_bytes, 0u);
  EXPECT_EQ(snap.mem_score_only, 0u);
}

TEST(ServiceMemory, OverBudgetRequestsDegradeToScoreOnly) {
  const auto& w = workload();
  ServiceConfig cfg;
  cfg.shards = 1;
  cfg.workers_per_shard = 1;
  // Everything sits above the score-only rung: responses stay kOk but drop
  // the CIGAR, and the ladder takes precedence over streaming.
  cfg.mem.shard_budget_bytes = u64{8} << 20;
  cfg.mem.resident_request_bytes = u64{32} << 10;
  cfg.mem.score_only_above_bytes = 1;
  AlignmentService svc(w.ref, cfg);
  std::vector<std::future<MapResponse>> futures;
  for (std::size_t i = 0; i < 12; ++i) {
    MapRequest req;
    req.id = i;
    req.read = w.reads[i];
    futures.push_back(svc.submit_wait(std::move(req)));
  }
  for (auto& f : futures) {
    const MapResponse r = f.get();
    ASSERT_EQ(r.status, RequestStatus::kOk);
    EXPECT_EQ(r.degrade, DegradeLevel::kScoreOnly);
    EXPECT_EQ(r.paf.find("cg:Z"), std::string::npos);
  }
  svc.shutdown();
  const auto snap = svc.metrics().snapshot();
  EXPECT_EQ(snap.mem_score_only, 12u);
  EXPECT_EQ(snap.streamed_responses, 0u);
}

TEST(ServiceMemory, ShardBudgetRedirectsCountAndPreserveResults) {
  const auto& w = workload();
  ServiceConfig cfg;
  cfg.shards = 2;
  cfg.workers_per_shard = 1;
  cfg.batch.max_batch_size = 4;
  // A 1-byte shard budget puts every batch over budget at dispatch: each
  // one redirects to the shard with the least outstanding dirs bytes.
  // Results must stay byte-identical — gating reorders, never corrupts.
  cfg.mem.shard_budget_bytes = 1;
  cfg.mem.resident_request_bytes = u64{1} << 40;
  cfg.mem.score_only_above_bytes = u64{1} << 40;
  AlignmentService svc(w.ref, cfg);
  std::vector<std::future<MapResponse>> futures;
  for (std::size_t i = 0; i < 24; ++i) {
    MapRequest req;
    req.id = i;
    req.read = w.reads[i];
    futures.push_back(svc.submit_wait(std::move(req)));
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const MapResponse r = futures[i].get();
    ASSERT_EQ(r.status, RequestStatus::kOk);
    EXPECT_EQ(r.paf, w.serial_paf[i]) << "read " << i;
  }
  svc.shutdown();
  const auto snap = svc.metrics().snapshot();
  EXPECT_GT(snap.budget_redirects, 0u);
}

TEST(ServiceMemory, IdleWorkersTrimTheirArenas) {
  const auto& w = workload();
  ServiceConfig cfg;
  cfg.shards = 1;
  cfg.workers_per_shard = 1;
  cfg.idle_trim.enabled = true;
  cfg.idle_trim.after_idle = 20ms;
  cfg.idle_trim.retain_bytes = 1 << 10;
  AlignmentService svc(w.ref, cfg);
  MapRequest req;
  req.id = 0;
  req.read = w.reads[0];
  ASSERT_EQ(svc.submit_wait(std::move(req)).get().status, RequestStatus::kOk);
  // Let the idle timeout fire a few times; the first one past the batch
  // must release the arena down to retain_bytes and count a trim.
  std::this_thread::sleep_for(150ms);
  const auto idle_snap = svc.metrics().snapshot();
  EXPECT_GT(idle_snap.arena_trims, 0u);
  // A request after the trim rebuilds the workspace transparently.
  MapRequest again;
  again.id = 1;
  again.read = w.reads[1];
  const MapResponse r = svc.submit_wait(std::move(again)).get();
  EXPECT_EQ(r.status, RequestStatus::kOk);
  EXPECT_EQ(r.paf, w.serial_paf[1]);
  svc.shutdown();
}

TEST(Metrics, SparseReservoirPercentilesAreObservedSamples) {
  // Nearest-rank on sparse reservoirs: the reported percentile must be a
  // latency some request actually experienced, not an interpolated blend.
  ServiceMetrics one;
  one.on_completed(7.5, 1.0);
  auto snap = one.snapshot();
  EXPECT_DOUBLE_EQ(snap.latency_ms_p50, 7.5);
  EXPECT_DOUBLE_EQ(snap.latency_ms_p99, 7.5);

  ServiceMetrics two;
  two.on_completed(100.0, 1.0);
  two.on_completed(1.0, 1.0);
  snap = two.snapshot();
  EXPECT_DOUBLE_EQ(snap.latency_ms_p50, 1.0);
  // Interpolation would report 98.02 here; the observed tail is 100.
  EXPECT_DOUBLE_EQ(snap.latency_ms_p99, 100.0);

  ServiceMetrics many;
  for (int i = 1; i <= 99; ++i) many.on_completed(static_cast<double>(i), 1.0);
  snap = many.snapshot();
  EXPECT_DOUBLE_EQ(snap.latency_ms_p50, 50.0);
  EXPECT_DOUBLE_EQ(snap.latency_ms_p99, 99.0);
}

// ---- metrics registry: every table row reaches the snapshot and report.

// Bumps a stored row to `v` through the registry entry point for its
// kind, exercising that kind's rule, and returns `v`. Rows owned by
// another component or derived are not bumped and return 0.
template <Metric m>
u64 bump_row(ServiceMetrics& metrics, u64 v) {
  if constexpr (kind_of(m) == MetricKind::kCounter) {
    metrics.add<m>(v / 2);
    metrics.add<m>(v - v / 2);  // counts sum
  } else if constexpr (kind_of(m) == MetricKind::kGauge) {
    metrics.observe<m>(v + 5);
    metrics.observe<m>(v);  // the latest value wins
  } else if constexpr (kind_of(m) == MetricKind::kPeak) {
    metrics.observe<m>(v);
    metrics.observe<m>(v - 1);  // the peak holds
  } else {
    return 0;
  }
  return v;
}

std::string value_text(u64 v) { return std::to_string(v); }
std::string value_text(bool v) { return v ? "1" : "0"; }
std::string value_text(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

/// True when `report` holds the whole token `name=text`.
bool has_token(const std::string& report, const char* name, const std::string& text) {
  const std::string tok = " " + std::string(name) + "=" + text;
  for (std::size_t at = report.find(tok); at != std::string::npos;
       at = report.find(tok, at + 1)) {
    const std::size_t after = at + tok.size();
    if (after == report.size() || report[after] == ' ' || report[after] == '\n') return true;
  }
  return false;
}

TEST(Metrics, EveryTableRowReachesSnapshotAndReport) {
  // Breaker rows: opened three times, open now (cooldown one hour).
  BreakerConfig bc;
  bc.failure_threshold = 1;
  bc.cooldown = std::chrono::hours(1);
  CircuitBreaker breaker(bc);
  const auto now = std::chrono::steady_clock::now();
  breaker.on_failure(now - 3h);
  ASSERT_FALSE(breaker.degraded(now - 2h));  // cooldown elapsed: closes
  breaker.on_failure(now - 2h);
  ASSERT_FALSE(breaker.degraded(now - 1h));
  breaker.on_failure(now);

  // GPU rows, each at a distinct value: 5 offloaded and 6 CPU placements;
  // 2 device segments, 3 staging fallbacks and 4 segments under the launch
  // cutoff (7 host segments); one flush.
  gpu::GpuBatchConfig gc;
  gc.num_streams = 2;
  gc.staging_bytes = 1'024;  // 512 per stream: a 300 + 300 base segment overflows
  gc.min_gpu_cells = 1'000;
  gpu::GpuBatchMapper offload(gc);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(offload.place({2'000, 2'000, 2'000, 2'000}).offload);
  for (int i = 0; i < 6; ++i) ASSERT_FALSE(offload.place({}).offload);
  Rng rng(77);
  std::vector<u8> t(300), q(300);
  for (auto& b : t) b = rng.base();
  for (auto& b : q) b = rng.base();
  auto segment = [&](i32 len) {
    DiffArgs a;
    a.target = t.data();
    a.tlen = len;
    a.query = q.data();
    a.qlen = len;
    return offload.align_segment(a, 0).on_device;
  };
  for (int i = 0; i < 2; ++i) ASSERT_TRUE(segment(200));
  for (int i = 0; i < 3; ++i) ASSERT_FALSE(segment(300));
  for (int i = 0; i < 4; ++i) ASSERT_FALSE(segment(20));
  offload.flush();
  const gpu::GpuBatchStats g = offload.stats();

  ServiceMetrics metrics(&breaker, &offload);
  MetricsSnapshot want;
  u64 row = 0;
#define BUMP_ROW(name, type, kind, group, doc) \
  ++row;                                        \
  want.name = static_cast<type>(bump_row<Metric::name>(metrics, 100 * row + 7));
  MANYMAP_SERVICE_METRICS(BUMP_ROW)
#undef BUMP_ROW
  metrics.on_completed(10.0, 4.0);
  metrics.on_completed(30.0, 6.0);
  want.completed += 2;
  want.mean_batch_size =
      static_cast<double>(want.batched_requests) / static_cast<double>(want.batches);
  want.latency_ms_mean = 20.0;
  want.latency_ms_p50 = 10.0;
  want.latency_ms_p99 = 30.0;
  want.compute_ms_mean = 5.0;
  want.breaker_opened = 3;
  want.degraded_now = true;
  want.gpu_offload_batches = 5;
  want.gpu_cpu_batches = 6;
  want.gpu_device_kernels = 2;
  want.gpu_host_segments = 7;
  want.gpu_staged_bytes = 2 * 400;  // a segment that does not fit stages nothing
  want.gpu_stage_fallbacks = 3;
  want.gpu_launch_failures = 0;
  want.gpu_device_seconds = g.occupancy.device_seconds;
  want.gpu_occupancy = g.occupancy.occupancy();
  want.gpu_stream_utilization = g.occupancy.stream_utilization();
  EXPECT_GT(g.occupancy.device_seconds, 0.0);
  EXPECT_GT(g.occupancy.occupancy(), 0.0);
  EXPECT_GT(g.occupancy.stream_utilization(), 0.0);

  const MetricsSnapshot snap = metrics.snapshot();
  const std::string report = snap.report();
#define CHECK_ROW(name, type, kind, group, doc)                            \
  EXPECT_EQ(snap.name, want.name) << #name;                                \
  EXPECT_TRUE(has_token(report, #name, value_text(want.name))) << #name << "\n" << report;
  MANYMAP_SERVICE_METRICS(CHECK_ROW)
#undef CHECK_ROW
}

TEST(Metrics, ConcurrentAddsOnOneCounterAreExact) {
  ServiceMetrics metrics;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t)
    threads.emplace_back([&metrics] {
      for (int i = 0; i < 10'000; ++i) metrics.add<Metric::verified>();
    });
  // Snapshots taken while the adders run never go backwards.
  u64 seen = 0;
  for (int i = 0; i < 100; ++i) {
    const u64 now = metrics.snapshot().verified;
    EXPECT_GE(now, seen);
    seen = now;
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(metrics.snapshot().verified, 40'000u);
}

TEST(Metrics, IndexAndGpuLinesPrintOnlyWhenNonzero) {
  ServiceMetrics metrics;
  std::string report = metrics.snapshot().report();
  EXPECT_TRUE(has_token(report, "fallback_scalar", "0")) << report;  // always printed
  EXPECT_EQ(report.find("index_"), std::string::npos) << report;
  EXPECT_EQ(report.find("gpu_"), std::string::npos) << report;

  metrics.add<Metric::warming_rejections>();
  report = metrics.snapshot().report();
  EXPECT_TRUE(has_token(report, "index_reloads", "0")) << report;
  EXPECT_TRUE(has_token(report, "warming_rejections", "1")) << report;
  EXPECT_EQ(report.find("gpu_"), std::string::npos) << report;

  metrics.add<Metric::gpu_requeued_batches>();
  report = metrics.snapshot().report();
  EXPECT_TRUE(has_token(report, "gpu_offload_batches", "0")) << report;
  EXPECT_TRUE(has_token(report, "gpu_requeued_batches", "1")) << report;
}

}  // namespace
}  // namespace manymap
