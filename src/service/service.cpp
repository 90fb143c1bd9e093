#include "service/service.hpp"

#include <cstdio>

#include "align/arena.hpp"
#include "base/timer.hpp"
#include "fault/fault.hpp"
#include "index/index_io.hpp"
#include "service/index_reload.hpp"
#include "verify/verify.hpp"

namespace manymap {

const char* to_string(RequestStatus s) {
  switch (s) {
    case RequestStatus::kOk: return "OK";
    case RequestStatus::kRejected: return "REJECTED";
    case RequestStatus::kTimedOut: return "TIMED_OUT";
    case RequestStatus::kFailed: return "FAILED";
    case RequestStatus::kIndexWarming: return "INDEX_WARMING";
  }
  return "?";
}

const char* to_string(DegradeLevel d) {
  switch (d) {
    case DegradeLevel::kNone: return "NONE";
    case DegradeLevel::kStreamedDirs: return "STREAMED_DIRS";
    case DegradeLevel::kScoreOnly: return "SCORE_ONLY";
  }
  return "?";
}

namespace {

// Kernel/DP coordinates are i32; no read beyond this is alignable.
constexpr u64 kMaxReadBases = static_cast<u64>(INT32_MAX);

double ms_since(std::chrono::steady_clock::time_point t0,
                std::chrono::steady_clock::time_point t1) {
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

i64 now_ns() {
  return std::chrono::steady_clock::now().time_since_epoch().count();
}

/// One shared offload subsystem for every worker (null unless enabled),
/// built with the service. Kernel resolution (host fallback rung) happens
/// here, so a misconfigured layout fails at construction, not mid-request.
std::unique_ptr<gpu::GpuBatchMapper> make_gpu(const ServiceConfig::GpuConfig& cfg) {
  return cfg.enabled ? std::make_unique<gpu::GpuBatchMapper>(cfg.batch) : nullptr;
}

/// Splits a request's wait at its batch's hand-off; queue_ms is the sum.
void stamp_waits(MapResponse& resp, const PendingRequest& p, const RequestBatch& batch,
                 std::chrono::steady_clock::time_point until) {
  resp.batch_wait_ms = ms_since(p.enqueued, batch.handed_off);
  resp.shard_wait_ms = ms_since(batch.handed_off, until);
  resp.queue_ms = resp.batch_wait_ms + resp.shard_wait_ms;
}

}  // namespace

std::chrono::milliseconds stall_bound(const ServiceConfig& cfg) {
  if (cfg.gpu.enabled) return cfg.watchdog.stall_timeout * 25;
  if (cfg.verify_sample_every > 0) return cfg.watchdog.stall_timeout * 10;
  return cfg.watchdog.stall_timeout;
}

AlignmentService::AlignmentService(const Reference& ref, ServiceConfig cfg)
    : cfg_(cfg),
      ref_(ref),
      breaker_(cfg.breaker),
      gpu_(make_gpu(cfg.gpu)),
      metrics_(&breaker_, gpu_.get()),
      ingress_(cfg.ingress_capacity),
      batches_(cfg.shard_queue_capacity) {
  if (cfg_.index.load_path.empty()) {
    // Classic synchronous construction: the index is built before the
    // first request can be admitted.
    publish_mapper(std::make_shared<const Mapper>(ref, cfg_.map));
    start();
  } else {
    // Async warm-up: accept traffic immediately (answered kIndexWarming)
    // while the MMMI file loads and validates in the background.
    start();
    begin_index_reload(cfg_.index.load_path);
  }
}

AlignmentService::AlignmentService(const Reference& ref, MinimizerIndex index, ServiceConfig cfg)
    : cfg_(cfg),
      ref_(ref),
      breaker_(cfg.breaker),
      gpu_(make_gpu(cfg.gpu)),
      metrics_(&breaker_, gpu_.get()),
      ingress_(cfg.ingress_capacity),
      batches_(cfg.shard_queue_capacity) {
  publish_mapper(std::make_shared<const Mapper>(ref, std::move(index), cfg_.map));
  start();
}

AlignmentService::~AlignmentService() { shutdown(); }

std::shared_ptr<const Mapper> AlignmentService::mapper_snapshot() const {
  std::lock_guard lock(mapper_mu_);
  return mapper_;
}

void AlignmentService::publish_mapper(std::shared_ptr<const Mapper> m) {
  {
    std::lock_guard lock(mapper_mu_);
    mapper_ = m;
    mapper_history_.push_back(std::move(m));
  }
  ready_cv_.notify_all();
}

const Mapper& AlignmentService::mapper() const {
  const auto snap = mapper_snapshot();
  MM_REQUIRE(snap != nullptr, "service index still warming; wait_until_ready() first");
  // Safe to deref-and-return: mapper_history_ keeps every published
  // mapper alive for the service's lifetime.
  return *snap;
}

bool AlignmentService::index_ready() const { return mapper_snapshot() != nullptr; }

bool AlignmentService::wait_until_ready(std::chrono::milliseconds timeout) const {
  std::unique_lock lock(mapper_mu_);
  const auto ready = [this] {
    return mapper_ != nullptr || stopped_.load(std::memory_order_relaxed);
  };
  if (timeout.count() <= 0)
    ready_cv_.wait(lock, ready);
  else
    ready_cv_.wait_for(lock, timeout, ready);
  return mapper_ != nullptr;
}

bool AlignmentService::begin_index_reload(const std::string& path) {
  std::lock_guard lock(reload_mu_);
  if (stopped_.load(std::memory_order_relaxed)) return false;
  if (reload_active_.load(std::memory_order_acquire)) return false;  // one at a time
  // The previous reload thread (if any) has finished its work — only the
  // thread itself clears reload_active_, as its final act — so this join
  // returns immediately and never deadlocks.
  if (reload_thread_.joinable()) reload_thread_.join();
  reload_active_.store(true, std::memory_order_release);
  reload_thread_ = std::thread([this, path] { reload_loop(path); });
  return true;
}

void AlignmentService::reload_loop(std::string path) {
  const ServiceConfig::IndexConfig& icfg = cfg_.index;
  const u32 attempts = icfg.max_attempts > 0 ? icfg.max_attempts : 1;
  for (u32 attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      // Capped exponential backoff between attempts; interruptible so
      // shutdown never waits out a long delay.
      const auto delay = reload_backoff(attempt - 1, icfg.backoff_initial, icfg.backoff_cap);
      std::unique_lock lock(backoff_mu_);
      reload_cv_.wait_for(lock, delay,
                          [this] { return stopped_.load(std::memory_order_relaxed); });
    }
    if (stopped_.load(std::memory_order_relaxed)) break;
    std::string failure;
    try {
      IndexLoadOptions opt;
      opt.verify_checksums = icfg.verify_checksums;
      IndexLoadResult res = try_load_index_mmap(path, opt);
      metrics_.add<Metric::index_checksum_bytes_verified>(res.checksum_bytes_verified);
      if (!res.ok()) {
        failure = res.message;
      } else {
        // A structurally valid index can still describe the wrong genome;
        // swapping it in would silently map reads to the wrong contigs.
        const std::string mismatch = index_matches_reference(ref_, res.index);
        if (!mismatch.empty()) {
          failure = "index '" + path + "' does not match the serving reference: " + mismatch;
        } else {
          publish_mapper(std::make_shared<const Mapper>(ref_, std::move(res.index), cfg_.map));
          metrics_.add<Metric::index_reloads>();
          reload_active_.store(false, std::memory_order_release);
          return;
        }
      }
    } catch (const std::exception& e) {
      failure = e.what();
    } catch (...) {
      failure = "unknown exception while loading index";
    }
    metrics_.add<Metric::index_reload_failures>();
    std::fprintf(stderr, "[index] load attempt %u/%u failed: %s\n", attempt + 1, attempts,
                 failure.c_str());
  }
  // Gave up (or shutting down): the previously published index — if there
  // is one — keeps serving; a warming service keeps answering
  // kIndexWarming until a later begin_index_reload succeeds.
  reload_active_.store(false, std::memory_order_release);
}

void AlignmentService::start() {
  MM_REQUIRE(cfg_.workers_per_shard > 0, "service needs workers");
  {
    std::lock_guard lock(workers_mu_);  // the watchdog scans this vector
    for (u32 w = 0; w < cfg_.workers_per_shard; ++w) {
      auto state = std::make_shared<WorkerState>();
      state->heartbeat_ns.store(now_ns(), std::memory_order_relaxed);
      workers_.push_back({std::thread([this, state] { worker_loop(state); }), state});
    }
  }
  watchdog_ = std::thread([this] { watchdog_loop(); });
  scheduler_ = std::thread([this] { scheduler_loop(); });
}

std::future<MapResponse> AlignmentService::admit(MapRequest req, bool blocking) {
  metrics_.add<Metric::submitted>();
  // Oversize guard: kernel/DP coordinates are i32, so a read beyond
  // kMaxReadBases can never be aligned; before the footprint math went
  // u64 end-to-end, a multi-GiB read also wrapped the u32 estimate and
  // sneaked under the memory ladder. Answer a structured kFailed at
  // admission instead of letting a worker discover it the hard way.
  if (req.read.size() > kMaxReadBases) {
    metrics_.add<Metric::failed>();
    std::promise<MapResponse> done;
    auto fut = done.get_future();
    MapResponse resp;
    resp.id = req.id;
    resp.status = RequestStatus::kFailed;
    resp.error = "read length exceeds the maximum alignable size";
    done.set_value(std::move(resp));
    return fut;
  }
  PendingRequest p{std::move(req), {}, std::chrono::steady_clock::now()};
  auto fut = p.promise.get_future();
  const u64 depth = ingress_.size();
  metrics_.observe<Metric::queue_depth_last>(depth);
  metrics_.observe<Metric::queue_depth_peak>(depth);
  const bool admitted = blocking ? ingress_.push(std::move(p)) : ingress_.try_push(std::move(p));
  if (admitted) {
    metrics_.add<Metric::accepted>();
  } else {
    // Both push paths leave `p` intact on failure (full or closed), so the
    // promise is still ours to resolve with a rejection.
    metrics_.add<Metric::rejected>();
    MapResponse resp;
    resp.id = p.req.id;
    resp.status = RequestStatus::kRejected;
    p.promise.set_value(std::move(resp));
  }
  return fut;
}

std::future<MapResponse> AlignmentService::submit(MapRequest req) {
  return admit(std::move(req), /*blocking=*/false);
}

std::future<MapResponse> AlignmentService::submit_wait(MapRequest req) {
  return admit(std::move(req), /*blocking=*/true);
}

void AlignmentService::scheduler_loop() {
  BatchScheduler scheduler(ingress_, cfg_.batch);
  scheduler.run(
      [this](RequestBatch&& batch) {
        MM_INJECT_DELAY("service.queue.delay");
        batches_.push(std::move(batch));  // blocking: backpressure
      },
      [this] { return batches_.idle_consumers() > 0; });
  // Ingress is closed and fully drained: let the workers run dry.
  batches_.close();
}

MapResponse AlignmentService::serve_one(PendingRequest& p, const RequestBatch& batch,
                                        const Mapper* mapper, detail::KernelArena* arena,
                                        GpuServe* gpu) {
  MapResponse resp;
  resp.id = p.req.id;
  resp.batch_id = batch.id;
  resp.batch_size = static_cast<u32>(batch.items.size());
  const auto compute_start = std::chrono::steady_clock::now();
  stamp_waits(resp, p, batch, compute_start);
  if (p.req.deadline && compute_start > *p.req.deadline) {
    resp.status = RequestStatus::kTimedOut;
    return resp;
  }
  // Warming: the async index load has not published yet. Retriable by
  // contract — the request was admitted and answered, never dropped.
  if (mapper == nullptr) {
    resp.status = RequestStatus::kIndexWarming;
    resp.error = "index warming; retry";
    return resp;
  }
  // Degraded mode: while the breaker is open, shed the base-level CIGAR
  // pass (the expensive stage) and serve chain-derived mappings.
  const bool degraded = breaker_.degraded(compute_start);
  resp.degraded = degraded;
  // Memory-budget ladder: estimate the request's worst-case resident dirs
  // footprint and pick the cheapest rung that honours the budget —
  // resident dirs, streamed dirs, or score-only for pathological sizes.
  resp.est_dirs_bytes = estimate_dirs_bytes(cfg_.map, p.req.read.size());
  const bool mem_score_only = cfg_.mem.score_only_above_bytes > 0 &&
                              resp.est_dirs_bytes > cfg_.mem.score_only_above_bytes;
  const bool stream_dirs = !mem_score_only && cfg_.mem.resident_request_bytes > 0 &&
                           resp.est_dirs_bytes > cfg_.mem.resident_request_bytes;
  try {
    MM_INJECT("service.worker.compute");
    WallTimer t;
    MapCall call;
    call.timings = &resp.timings;
    call.deadline = p.req.deadline;
    call.score_only = degraded || mem_score_only;
    call.arena = arena;
    if (stream_dirs) call.dirs_budget_bytes = cfg_.mem.resident_request_bytes;
    // Device offload: route every DP segment of this request through the
    // batch mapper. The override bypasses the CPU fallback ladder by
    // contract — GpuBatchMapper owns failure recovery (every device-side
    // failure answers via the host kernel, bit-identically). A launch
    // failure latches `launch_failed` so the rest of this request finishes
    // host-side and the worker re-queues the remaining batch items.
    std::function<AlignResult(const DiffArgs&)> dev_kernel;
    if (gpu != nullptr && gpu->mapper != nullptr) {
      gpu->used_device = false;  // per-request: drives resp.on_device below
      dev_kernel = [gpu](const DiffArgs& a) {
        if (gpu->launch_failed) return gpu->mapper->host_align(a);
        auto seg = gpu->mapper->align_segment(a, gpu->stream);
        if (seg.launch_failed) gpu->launch_failed = true;
        if (seg.on_device) gpu->used_device = true;
        return seg.result;
      };
      call.kernel_override = &dev_kernel;
    }
    resp.mappings = mapper->map(p.req.read, call);
    if (call.score_only) resp.degrade = DegradeLevel::kScoreOnly;
    else if (resp.timings.streamed_kernels > 0) resp.degrade = DegradeLevel::kStreamedDirs;
    resp.paf = to_paf_block(resp.mappings, cfg_.paf_with_cigar && !call.score_only);
    resp.compute_ms = t.millis();
    resp.status = RequestStatus::kOk;
    if (gpu != nullptr && gpu->used_device) {
      resp.on_device = true;
      metrics_.add<Metric::gpu_requests>();
    }
    maybe_verify_live(p.req, resp, *mapper);
  } catch (const MapDeadlineExceeded&) {
    resp.status = RequestStatus::kTimedOut;
    resp.error = "deadline exceeded during compute";
  } catch (const std::exception& e) {
    resp.status = RequestStatus::kFailed;
    resp.error = e.what();
  } catch (...) {
    resp.status = RequestStatus::kFailed;
    resp.error = "unknown worker exception";
  }
  return resp;
}

// Terminal accounting for a worker-resolved response. Called exactly once
// per request, at promise-resolution time — NOT inside serve_one — so an
// item the watchdog already failed (and counted) is never double-counted
// when the stalled worker finishes its doomed compute.
void AlignmentService::account(const PendingRequest& p, const MapResponse& resp) {
  switch (resp.status) {
    case RequestStatus::kOk:
      metrics_.on_completed(ms_since(p.enqueued, std::chrono::steady_clock::now()),
                            resp.compute_ms);
      // The kernel ladder's deepest rung and retries, plus band_hit reruns.
      if (resp.timings.deepest_fallback_rung >= 2) metrics_.add<Metric::fallback_banded>();
      else if (resp.timings.deepest_fallback_rung == 1) metrics_.add<Metric::fallback_scalar>();
      metrics_.add<Metric::kernel_retries>(resp.timings.kernel_retries);
      metrics_.add<Metric::band_fallbacks>(resp.timings.band_fallbacks);
      if (resp.degraded) metrics_.add<Metric::degraded_responses>();
      if (resp.degrade == DegradeLevel::kStreamedDirs) {
        metrics_.add<Metric::streamed_responses>();
        metrics_.add<Metric::dirs_spilled_bytes>(resp.timings.dirs_spilled_bytes);
      } else if (resp.degrade == DegradeLevel::kScoreOnly && !resp.degraded) {
        metrics_.add<Metric::mem_score_only>();
      }
      break;
    case RequestStatus::kTimedOut:
      metrics_.add<Metric::timed_out>();
      break;
    case RequestStatus::kFailed:
      metrics_.add<Metric::failed>();
      breaker_.on_failure(std::chrono::steady_clock::now());
      break;
    case RequestStatus::kRejected:
      break;  // counted at admission
    case RequestStatus::kIndexWarming:
      // Not a failure (no breaker pressure): the service is healthy, the
      // index just has not finished loading. Counted so operators can see
      // how much traffic arrived before warm-up completed.
      metrics_.add<Metric::warming_rejections>();
      break;
  }
}

void AlignmentService::maybe_verify_live(const MapRequest& req, const MapResponse& resp,
                                         const Mapper& mapper) {
  if (cfg_.verify_sample_every == 0) return;
  const u64 n = ok_responses_.fetch_add(1, std::memory_order_relaxed);
  if (n % cfg_.verify_sample_every != 0) return;
  // Degraded responses are sampled like any other kOk answer — graceful
  // degradation is verified, not just survived. Streamed answers carry
  // full CIGARs and replay through the complete live oracle; score-only
  // answers (breaker open or footprint cap) have no path to rescore, so
  // they route to the span-sanity audit instead of being silently skipped.
  const bool degraded_resp = resp.degraded || resp.degrade != DegradeLevel::kNone;
  const std::vector<u8> rc = reverse_complement(req.read.codes);
  for (const Mapping& m : resp.mappings) {
    verify::LiveMapping lm;
    lm.contig = &mapper.reference().contig(m.rid).codes;
    lm.tstart = m.tstart;
    lm.tend = m.tend;
    lm.query = m.rev ? &rc : &req.read.codes;
    lm.qstart = m.rev ? m.qlen - m.qend : m.qstart;
    lm.qend = m.rev ? m.qlen - m.qstart : m.qend;
    lm.score = m.score;
    lm.cigar = &m.cigar;
    const auto check =
        m.cigar.empty()
            ? verify::check_live_spans(lm)
            : verify::check_live_mapping(lm, cfg_.map.scores, cfg_.verify_max_cells);
    metrics_.add<Metric::verified>();
    if (degraded_resp) metrics_.add<Metric::verified_degraded>();
    if (!check.ok) {
      metrics_.add<Metric::verify_divergences>();
      std::fprintf(stderr, "[verify] request %llu read %s: %s\n",
                   static_cast<unsigned long long>(resp.id), req.read.name.c_str(),
                   check.failure.c_str());
    }
  }
}

void AlignmentService::worker_loop(std::shared_ptr<WorkerState> state) {
  // One DP arena per worker thread, reused across every request this
  // worker ever serves: after warm-up the alignment hot path is
  // allocation-free. Dies with the worker (a respawned worker warms its
  // own), so a batch takeover never shares buffers across threads.
  detail::KernelArena arena;
  // Every worker is GPU-capable when offload is enabled and takes a
  // staging stream round-robin at spawn. Workers beyond the stream count
  // (and a respawned worker whose stalled predecessor still runs) share a
  // stream's partition, which resets only when its last staged segment is
  // released (StagingArea::release).
  const u32 gpu_stream =
      gpu_ ? gpu_stream_next_.fetch_add(1, std::memory_order_relaxed) % cfg_.gpu.batch.num_streams
           : 0;
  for (;;) {
    // Deadline-aware pop so a quiet worker can release its DP memory:
    // every idle interval without a batch trims the arena down to the
    // retained floor (a no-op once already trimmed — no metric spam).
    std::optional<RequestBatch> popped;
    for (;;) {
      popped = batches_.pop_for(cfg_.idle_trim.after_idle);
      if (popped || batches_.closed()) break;
      if (arena.trim(cfg_.idle_trim.retain_bytes) > 0) metrics_.add<Metric::arena_trims>();
    }
    if (!popped) return;
    auto batch = std::make_shared<RequestBatch>(std::move(*popped));
    // Index snapshot, once per batch: a hot reload published mid-batch
    // takes effect at the NEXT batch, so every item of this one is served
    // against the same index (null while the initial load is warming).
    const std::shared_ptr<const Mapper> mapper_snap = mapper_snapshot();
    metrics_.add<Metric::batches>();
    metrics_.add<Metric::batched_requests>(batch->items.size());
    state->heartbeat_ns.store(now_ns(), std::memory_order_relaxed);
    {
      std::lock_guard lock(state->mu);
      state->batch = batch;
      state->next = 0;
      state->done = 0;
      state->taken_over = false;
    }
    state->busy.store(true, std::memory_order_release);
    // Placement: the length distribution of the popped batch decides CPU
    // vs device. A re-queued remainder (cpu_only) never re-offloads — that
    // both honours the failed device and bounds the re-queue to once.
    GpuServe gpu_ctx;
    GpuServe* gpu_serve = nullptr;
    if (gpu_ != nullptr && !batch->cpu_only) {
      std::vector<u32> lens;
      lens.reserve(batch->items.size());
      for (const auto& p : batch->items) lens.push_back(static_cast<u32>(p.req.read.size()));
      // Banded batches cost O(band) device cells per diagonal and offload
      // earlier.
      if (gpu_->place(lens, cfg_.map.band).offload) {
        gpu_ctx.mapper = gpu_.get();
        gpu_ctx.stream = gpu_stream;
        gpu_serve = &gpu_ctx;
      }
    }
    bool lost_batch = false;
    for (;;) {
      std::size_t idx;
      {
        std::lock_guard lock(state->mu);
        if (state->taken_over) {
          lost_batch = true;
          break;
        }
        if (state->next >= batch->items.size()) {
          state->batch = nullptr;
          break;
        }
        idx = state->next++;
      }
      state->heartbeat_ns.store(now_ns(), std::memory_order_relaxed);
      PendingRequest& p = batch->items[idx];
      // compute outside the lock
      MapResponse resp = serve_one(p, *batch, mapper_snap.get(), &arena, gpu_serve);
      std::optional<RequestBatch> requeue;
      {
        std::lock_guard lock(state->mu);
        if (state->taken_over) {
          // The watchdog already answered this item (and the rest of the
          // batch) with kFailed while we were stuck; discard our result.
          lost_batch = true;
          break;
        }
        account(p, resp);
        p.promise.set_value(std::move(resp));
        state->done = idx + 1;
        // Device launch failure: pull the unclaimed remainder out of the
        // batch (under the same lock the watchdog and the claim loop use,
        // so no item is dropped or duplicated) and hand it back to the
        // batch queue as a cpu_only batch. Exactly once: gpu_serve is
        // cleared below and the remainder can never re-offload.
        if (gpu_serve != nullptr && gpu_ctx.launch_failed &&
            state->next < batch->items.size()) {
          RequestBatch rest;
          rest.id = batch->id;
          rest.handed_off = batch->handed_off;
          rest.cpu_only = true;
          rest.items.reserve(batch->items.size() - state->next);
          for (std::size_t i = state->next; i < batch->items.size(); ++i)
            rest.items.push_back(std::move(batch->items[i]));
          batch->items.resize(state->next);
          requeue = std::move(rest);
        }
      }
      if (gpu_serve != nullptr && gpu_ctx.launch_failed) gpu_serve = nullptr;
      if (requeue) {
        metrics_.add<Metric::gpu_requeued_batches>();
        // try_push, never push: this worker is one of the queue's own
        // consumers, so blocking on a full queue could deadlock the pool.
        if (!batches_.try_push(std::move(*requeue))) {
          // Queue full (or closing): serve the remainder inline on the CPU
          // path. These items left the shared batch under the lock above,
          // so they are owned solely by this worker — no taken_over
          // consultation applies to them.
          for (auto& rp : requeue->items) {
            MapResponse rr = serve_one(rp, *requeue, mapper_snap.get(), &arena, nullptr);
            account(rp, rr);
            rp.promise.set_value(std::move(rr));
          }
        }
      }
    }
    state->busy.store(false, std::memory_order_release);
    // Settle the device model once per offloaded batch: replay the
    // accumulated launches through the occupancy tracker.
    if (gpu_ctx.mapper != nullptr) gpu_->flush();
    if (lost_batch) return;  // we were replaced; the respawn serves on
  }
}

void AlignmentService::watchdog_loop() {
  const auto bound = stall_bound(cfg_);
  for (;;) {
    {
      std::unique_lock lock(watchdog_mu_);
      watchdog_cv_.wait_for(lock, cfg_.watchdog.poll, [this] { return watchdog_stop_; });
      if (watchdog_stop_) return;
    }
    const auto now = std::chrono::steady_clock::now();
    std::lock_guard workers_lock(workers_mu_);
    for (auto& handle : workers_) {
      WorkerState& st = *handle.state;
      if (!st.busy.load(std::memory_order_acquire)) continue;
      const auto beat = std::chrono::steady_clock::time_point(
          std::chrono::steady_clock::duration(st.heartbeat_ns.load(std::memory_order_relaxed)));
      if (now - beat < bound) continue;

      // Stalled: take the batch over and fail every unresolved item. The
      // worker checks `taken_over` under st.mu before resolving anything,
      // so each promise is set exactly once.
      std::shared_ptr<RequestBatch> batch;
      std::size_t from = 0;
      {
        std::lock_guard lock(st.mu);
        if (st.taken_over || st.batch == nullptr) continue;
        st.taken_over = true;
        batch = st.batch;
        st.batch = nullptr;
        from = st.done;
        for (std::size_t i = from; i < batch->items.size(); ++i) {
          PendingRequest& p = batch->items[i];
          MapResponse resp;
          resp.id = p.req.id;
          resp.batch_id = batch->id;
          resp.batch_size = static_cast<u32>(batch->items.size());
          resp.status = RequestStatus::kFailed;
          resp.error = "worker stalled; batch failed by watchdog";
          stamp_waits(resp, p, *batch, now);
          p.promise.set_value(std::move(resp));
          metrics_.add<Metric::failed>();
          breaker_.on_failure(now);
        }
      }
      metrics_.add<Metric::worker_stalls>();

      // Retire the stuck thread (joined at shutdown; stalls are finite) and
      // respawn a fresh worker so the pool keeps its capacity.
      retired_.push_back(std::move(handle.thread));
      auto fresh = std::make_shared<WorkerState>();
      fresh->heartbeat_ns.store(now_ns(), std::memory_order_relaxed);
      handle.state = fresh;
      handle.thread = std::thread([this, fresh] { worker_loop(fresh); });
      metrics_.add<Metric::worker_respawns>();
    }
  }
}

void AlignmentService::shutdown() {
  if (stopped_.exchange(true)) return;
  // Wake wait_until_ready() blockers and the reload thread's backoff
  // sleep (locking each mutex pairs the notify with the predicate check,
  // closing the lost-wakeup window), then retire the reload thread before
  // tearing down the serving pipeline.
  { std::lock_guard lock(mapper_mu_); }
  ready_cv_.notify_all();
  { std::lock_guard lock(backoff_mu_); }
  reload_cv_.notify_all();
  {
    std::lock_guard lock(reload_mu_);
    if (reload_thread_.joinable()) reload_thread_.join();
  }
  ingress_.close();   // no new admissions; queued requests still served
  scheduler_.join();  // flushes the final partial batch, closes the batch queue
  // Stop the watchdog BEFORE joining workers so no respawn races the
  // join below; in-flight batches still drain (stalls are finite).
  {
    std::lock_guard lock(watchdog_mu_);
    watchdog_stop_ = true;
  }
  watchdog_cv_.notify_all();
  watchdog_.join();
  std::lock_guard lock(workers_mu_);
  for (auto& handle : workers_)
    if (handle.thread.joinable()) handle.thread.join();
  for (auto& t : retired_)
    if (t.joinable()) t.join();
}

}  // namespace manymap
