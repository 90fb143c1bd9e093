// The always-on alignment service: many concurrent clients submit
// MapRequests; a scheduler thread coalesces them into batches in arrival
// order; one worker pool aligns them against an immutable MinimizerIndex
// snapshot (hot-swappable via begin_index_reload — workers snapshot once
// per batch); every request resolves a future with a MapResponse.
//
//   AlignmentService svc(ref, cfg);                 // index built once
//   auto fut = svc.submit({id, read, deadline});    // non-blocking admission
//   MapResponse r = fut.get();                      // kOk / kRejected / kTimedOut
//   svc.shutdown();                                 // drains in-flight work
//
// Threading model (all connected by BoundedQueues):
//
//   clients --submit--> [ingress queue] --scheduler--> [batch queue]
//   --workers--> promise fulfilment
//
// The scheduler is work-conserving: while a worker waits on an empty
// batch queue, each request goes straight to it as a batch of one;
// otherwise a batch takes what the ingress already holds (up to
// max_batch_size), so batches grow only while the batch queue backs up.
// A worker serves its batch item by item, so order inside a batch cannot
// balance work across workers; the paper's longest-first sort (§4.4.4)
// lives in src/pipeline, where compute_batch splits one batch across
// threads. MapResponse splits the wait at the hand-off (batch_wait_ms,
// shard_wait_ms).
//
// Admission control happens at the ingress queue: submit() uses try_push
// and answers kRejected immediately when the queue is full, so a saturated
// service sheds load instead of blocking callers without bound
// (submit_wait() opts back into blocking for offline replay). Deadlines
// are enforced at compute start AND cooperatively inside Mapper::map
// (between the seed/chain/align stages), so a slow alignment answers
// kTimedOut instead of blowing past its deadline unboundedly.
//
// Graceful degradation (this file + breaker.hpp + align/fallback.hpp):
//  - worker exceptions become structured kFailed responses, never broken
//    promises — every submitted request resolves exactly once;
//  - a watchdog detects workers stuck in compute past stall_bound(cfg),
//    fails their in-flight batch with kFailed, and respawns the worker
//    (retired threads are joined at shutdown);
//  - a circuit breaker opens on sustained failure and sheds to score-only
//    alignment (no CIGAR pass) until a cooldown elapses;
//  - kernel failures climb the fallback ladder (SIMD -> scalar -> banded
//    reference) transparently, with the answering rung recorded;
//  - verify_sample_every > 0 replays a sample of kOk responses through the
//    differential oracle (verify/oracle.cpp) and counts divergences.
#pragma once

#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/aligner.hpp"
#include "gpu/batch_mapper.hpp"
#include "service/batch_scheduler.hpp"
#include "service/breaker.hpp"
#include "service/metrics.hpp"
#include "service/request.hpp"

namespace manymap {

struct ServiceConfig {
  MapOptions map = MapOptions::map_pb();
  /// Worker threads, all serving the one batch queue and sharing the one
  /// immutable index (Mapper::map is const). Named for the sharded pool
  /// it replaced; perfbench/ sets this field by name.
  u32 workers_per_shard = 2;
  std::size_t ingress_capacity = 64;      ///< admission-control bound
  std::size_t shard_queue_capacity = 4;   ///< batches buffered for the workers
  BatchPolicy batch{};
  bool paf_with_cigar = false;  ///< append cg:Z: tags to response PAF

  /// Watchdog: detects workers stuck in compute for longer than
  /// stall_bound(*this), fails their in-flight batch, respawns the worker.
  struct WatchdogConfig {
    std::chrono::milliseconds poll{100};
    /// Must exceed the worst-case legitimate compute time of one request
    /// on the CPU path without live audits; stall_bound() scales it for
    /// the work the rest of the config adds.
    std::chrono::milliseconds stall_timeout{10'000};
  };
  WatchdogConfig watchdog{};

  /// Circuit breaker driving degraded (score-only) mode; see breaker.hpp.
  BreakerConfig breaker{};

  /// Footprint-aware memory budget (the degradation ladder: resident dirs
  /// -> streamed dirs -> score-only). Per-request cost estimates come from
  /// estimate_dirs_bytes (the worst single kernel of a Mapper::map call);
  /// each rung is independently disabled by 0.
  struct MemoryConfig {
    /// Per-request resident dirs ceiling: a request estimated above it is
    /// served with streamed dirs (MapCall::dirs_budget_bytes = this), so
    /// its peak resident direction bytes stay bounded while finished
    /// blocks spill; answers carry DegradeLevel::kStreamedDirs.
    u64 resident_request_bytes = 0;
    /// Hard footprint cap: requests estimated above it skip the CIGAR
    /// pass entirely (score-only, DegradeLevel::kScoreOnly) — even the
    /// spilled volume would be unreasonable to produce.
    u64 score_only_above_bytes = 0;
  };
  MemoryConfig mem{};

  /// Idle-arena trimming: a worker that has seen no batch for
  /// `after_idle` trims its DP arena down to `retain_bytes`, so a quiet
  /// service releases its warm-path memory (the next batch re-grows it;
  /// results are unaffected — the arena is pure scratch).
  struct IdleTrimConfig {
    std::chrono::milliseconds after_idle{500};
    u64 retain_bytes = u64{1} << 20;
  };
  IdleTrimConfig idle_trim{};

  /// Device offload: when enabled every worker is GPU-capable. Per popped
  /// batch the placement policy (gpu/placement.hpp) keeps short/skewed
  /// batches on the plain CPU path and routes long uniform batches through
  /// the simulated device — score-mode DP on the device from per-stream
  /// staged host buffers, path completion on the host, bit-identical
  /// responses. Device failures fall back to the CPU; a mid-batch launch
  /// failure re-queues the unclaimed remainder as a cpu_only batch exactly
  /// once (no drops, no duplicates).
  struct GpuConfig {
    bool enabled = false;
    gpu::GpuBatchConfig batch{};
  };
  GpuConfig gpu{};

  /// Async index loading / hot reload. When `load_path` is set (and no
  /// prebuilt index is supplied) the service accepts traffic immediately:
  /// requests are admitted while the index loads in the background and
  /// answered with the retriable kIndexWarming status until the first
  /// load validates and publishes. begin_index_reload() swaps in a
  /// replacement index the same way mid-traffic; a load that fails
  /// validation (corrupt file, wrong reference) NEVER replaces the
  /// serving index — the old one keeps serving and the attempt retries
  /// on a capped exponential backoff.
  struct IndexConfig {
    std::string load_path;         ///< MMMI file to load asynchronously at startup
    bool verify_checksums = true;  ///< per-section checksum verification on load
    u32 max_attempts = 5;          ///< load attempts per (re)load request
    std::chrono::milliseconds backoff_initial{50};  ///< delay after the first failure
    std::chrono::milliseconds backoff_cap{2000};    ///< backoff ceiling
  };
  IndexConfig index{};

  /// When > 0, every Nth kOk response is replayed through the differential
  /// oracle (verify/oracle.cpp); divergences are logged and counted in
  /// ServiceMetrics.
  u64 verify_sample_every = 0;
  /// Cap on t_span*q_span for the exact reference replay of a sampled
  /// mapping (the reference DP is O(cells) int64 memory).
  u64 verify_max_cells = 4'000'000;
};

/// The watchdog's stall bound: `watchdog.stall_timeout` sized to the work
/// the config adds to one request. The simulated device runs its lanes
/// through a cycle-accurate interpreter (~25x native wall time), and a
/// live audit replays sampled mappings through a reference DP (~10x). The
/// device factor already clears the audit overhead, so they never stack.
std::chrono::milliseconds stall_bound(const ServiceConfig& cfg);

class AlignmentService {
 public:
  /// Builds the index in the constructor; `ref` must outlive the service.
  AlignmentService(const Reference& ref, ServiceConfig cfg);
  /// Uses a prebuilt/loaded index (it must describe `ref`).
  AlignmentService(const Reference& ref, MinimizerIndex index, ServiceConfig cfg);
  ~AlignmentService();  ///< implies shutdown()

  AlignmentService(const AlignmentService&) = delete;
  AlignmentService& operator=(const AlignmentService&) = delete;

  /// Non-blocking admission: if the ingress queue is full (or the service
  /// is shut down) the returned future resolves immediately with
  /// kRejected. Thread-safe; callable from any number of client threads.
  std::future<MapResponse> submit(MapRequest req);

  /// Blocking admission: waits for ingress room instead of rejecting.
  /// For offline trace replay and tests; deadlines still apply.
  std::future<MapResponse> submit_wait(MapRequest req);

  /// Convenience: submit_wait + get.
  MapResponse map_sync(MapRequest req) { return submit_wait(std::move(req)).get(); }

  /// Stops admission, drains every queued request through the workers,
  /// and joins all threads. Idempotent.
  void shutdown();

  const ServiceMetrics& metrics() const { return metrics_; }
  /// The currently published mapper. Requires index_ready(); aborts while
  /// the index is still warming. The returned reference stays valid for
  /// the service's lifetime even across hot reloads (superseded mappers
  /// are retained, not freed — reloads are rare and bounded).
  const Mapper& mapper() const;
  const ServiceConfig& config() const { return cfg_; }

  /// True once a validated index has been published (requests stop being
  /// answered kIndexWarming).
  bool index_ready() const;
  /// Blocks until the index is ready (or the service shuts down).
  /// timeout <= 0 waits without bound. Returns index_ready().
  bool wait_until_ready(
      std::chrono::milliseconds timeout = std::chrono::milliseconds{0}) const;
  /// Starts an asynchronous (re)load of the MMMI file at `path`. Traffic
  /// keeps flowing against the current index; the replacement is swapped
  /// in atomically only after it loads, checksums, and matches the
  /// serving reference. Returns false if a reload is already in flight
  /// or the service is shut down.
  bool begin_index_reload(const std::string& path);

 private:
  /// Claim/resolve state shared between one worker thread and the
  /// watchdog. The worker claims items and resolves promises only under
  /// `mu`; when the watchdog takes a batch over (`taken_over`), the worker
  /// discards its in-flight result and exits — the watchdog has already
  /// resolved the unresolved items with kFailed.
  struct WorkerState {
    std::mutex mu;
    std::shared_ptr<RequestBatch> batch;  ///< null while idle
    std::size_t next = 0;                 ///< first unclaimed item
    std::size_t done = 0;                 ///< resolved items (prefix)
    bool taken_over = false;
    std::atomic<bool> busy{false};
    std::atomic<i64> heartbeat_ns{0};  ///< steady_clock epoch of last progress
  };

  struct WorkerHandle {
    std::thread thread;
    std::shared_ptr<WorkerState> state;
  };

  void start();
  void scheduler_loop();
  void worker_loop(std::shared_ptr<WorkerState> state);
  void watchdog_loop();
  std::future<MapResponse> admit(MapRequest req, bool blocking);
  /// Per-batch device-offload context a worker threads through serve_one
  /// when the placement policy routed the batch to the device. `mapper` is
  /// the shared GpuBatchMapper; `stream` is this worker's staging stream.
  /// `launch_failed` latches sticky on the first device launch failure so
  /// the rest of the request finishes host-side, and signals the worker to
  /// re-queue the unclaimed remainder of the batch; `used_device` records
  /// whether any segment of the *current request* ran on the device
  /// (reset per serve_one call; drives MapResponse::on_device).
  struct GpuServe {
    gpu::GpuBatchMapper* mapper = nullptr;
    u32 stream = 0;
    bool launch_failed = false;
    bool used_device = false;
  };

  /// Compute one response (never throws; failures become kFailed).
  /// Records no terminal metrics — see account(). `mapper` is the batch's
  /// index snapshot (nullptr while warming: answers kIndexWarming).
  /// `arena` is the calling worker's reusable DP workspace (steady-state
  /// alignments do not allocate); nullptr falls back to the thread-shared
  /// arena. `gpu` non-null routes score-mode DP through the device.
  MapResponse serve_one(PendingRequest& p, const RequestBatch& batch, const Mapper* mapper,
                        detail::KernelArena* arena, GpuServe* gpu = nullptr);
  /// Terminal metrics/breaker accounting, called once at promise resolution.
  void account(const PendingRequest& p, const MapResponse& resp);
  void maybe_verify_live(const MapRequest& req, const MapResponse& resp,
                         const Mapper& mapper);
  /// RCU read side: the mapper serving new batches right now (null while
  /// the initial async load is still warming).
  std::shared_ptr<const Mapper> mapper_snapshot() const;
  /// RCU write side: swap the serving mapper; retains the superseded one
  /// in mapper_history_ so mapper()'s returned reference never dangles.
  void publish_mapper(std::shared_ptr<const Mapper> m);
  /// Body of the reload thread: bounded attempts with capped backoff;
  /// publishes on success, keeps the current index on failure.
  void reload_loop(std::string path);

  ServiceConfig cfg_;
  const Reference& ref_;
  /// RCU-style hot-swappable mapper. Workers snapshot once per batch (a
  /// shared_ptr copy under mapper_mu_) so a reload mid-batch never
  /// invalidates in-flight compute; history retains every published
  /// mapper for the service lifetime (reloads are rare and bounded, and
  /// it keeps the reference-returning mapper() accessor safe).
  mutable std::mutex mapper_mu_;
  mutable std::condition_variable ready_cv_;  ///< signalled on first publish
  std::shared_ptr<const Mapper> mapper_;      ///< guarded by mapper_mu_
  std::vector<std::shared_ptr<const Mapper>> mapper_history_;  ///< guarded by mapper_mu_
  std::thread reload_thread_;               ///< guarded by reload_mu_
  std::mutex reload_mu_;                    ///< serializes begin_index_reload
  std::atomic<bool> reload_active_{false};  ///< cleared by the reload thread itself
  std::mutex backoff_mu_;                   ///< backoff sleep interruptible at shutdown
  std::condition_variable reload_cv_;
  CircuitBreaker breaker_;
  /// Shared device-offload subsystem (null unless cfg_.gpu.enabled). One
  /// mapper serves every worker; workers are assigned staging streams
  /// round-robin at spawn via gpu_stream_next_.
  std::unique_ptr<gpu::GpuBatchMapper> gpu_;
  std::atomic<u32> gpu_stream_next_{0};
  /// Declared after breaker_ and gpu_, whose state it reads at snapshot time.
  ServiceMetrics metrics_;

  BoundedQueue<PendingRequest> ingress_;
  BoundedQueue<RequestBatch> batches_;  ///< scheduler -> workers
  std::mutex workers_mu_;               ///< guards workers_ and retired_
  std::vector<WorkerHandle> workers_;
  std::vector<std::thread> retired_;  ///< stalled threads, joined at shutdown
  std::thread scheduler_;
  std::thread watchdog_;
  std::atomic<bool> stopped_{false};
  std::atomic<u64> ok_responses_{0};  ///< drives verify sampling
  std::mutex watchdog_mu_;
  std::condition_variable watchdog_cv_;
  bool watchdog_stop_ = false;  ///< guarded by watchdog_mu_
};

}  // namespace manymap
