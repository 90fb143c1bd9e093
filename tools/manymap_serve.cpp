// manymap_serve — replay a request trace against the always-on alignment
// service and print its metrics report.
//
//   manymap_serve [options]
//
// Workload (all deterministic for a given --seed):
//   --ref <ref.fa>         reference FASTA (default: simulated genome)
//   --reads-file <fa|fq>   reads to replay (default: simulated reads)
//   --length N             simulated genome length (default 400000)
//   --reads N              simulated read count (default 2000)
//   --platform pacbio|nanopore   simulated error/length profile
//   --seed S               trace seed (default 42)
// Service config:
//   --preset map-pb|map-ont  --layout minimap2|manymap  --isa <name>
//   --band B               kernel band half-width (default 0 = unbanded)
//   --zdrop Z              adaptive X-drop threshold (0 = off)
//   --workers N            worker threads, one pool (default 4)
//   --queue-capacity N     ingress queue bound (default 64)
//   --batch-size N         max requests per compute batch, served in
//                          arrival order (default 16)
//   --batch-delay-us N     linger for fuller batches while no worker is idle
//                          (default 0 = no linger: hand batches off at once)
//   --deadline-ms F        per-request deadline, 0 = none (default 0)
// Replay:
//   --rate R               Poisson arrivals/sec; 0 = burst (default 0)
//   --admission block|reject   full-queue behaviour (default block)
//   --verify               audit live: sample kOk responses through the
//                          differential oracle while serving, then check
//                          responses == serial Mapper::map; exit 1 on any
//                          divergence or mismatch
//   --verify-sample N      sample every Nth kOk response (default 16)
//   --paf                  print the PAF of every OK response (trace order)
//   --mem-budget-mb M      dirs memory budget: requests whose estimated
//                          direction-byte footprint exceeds M/4 MiB run with
//                          streamed dirs (spill sinks), past 16*M MiB they
//                          are served score-only
//   --gpu                  enable device offload: the placement policy
//                          routes long uniform batches through the simulated
//                          SIMT device (score-mode DP on device, path on
//                          host); responses stay bit-identical to CPU-only
//   --gpu-streams N        host staging streams for --gpu (default 8)
// Index persistence:
//   --index-save PATH      build the index, save it atomically to PATH
//                          (MMMI v2, checksummed), and serve from it
//   --index-load PATH      serve with an async-loaded index: traffic is
//                          accepted immediately and answered INDEX_WARMING
//                          until PATH validates; the replay resubmits
//                          warming responses until served
//   --index-verify PATH    standalone: load PATH through all three load
//                          paths (stream/mmap/view), require bit-identical
//                          agreement, print a summary, exit 0/1 (no serving)
//
// All numeric options are validated: counts must be positive integers,
// --deadline-ms/--rate/--batch-delay-us non-negative; violations answer
// with usage().
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "base/timer.hpp"
#include "core/paf.hpp"
#include "index/index_io.hpp"
#include "sequence/fasta.hpp"
#include "service/service.hpp"
#include "simulate/genome.hpp"
#include "simulate/read_sim.hpp"

namespace manymap {
namespace {

struct ArgList {
  std::map<std::string, std::string> options;
  bool has(const std::string& k) const { return options.count(k) > 0; }
  std::string get(const std::string& k, const std::string& dflt) const {
    const auto it = options.find(k);
    return it == options.end() ? dflt : it->second;
  }
};

/// Fetch an option as a strictly positive integer; zero/negative or
/// malformed values are reported (the caller answers with usage()).
std::optional<i64> positive_opt(const ArgList& args, const std::string& key, i64 dflt) {
  if (!args.has(key)) return dflt;
  const auto v = parse_positive_int(args.get(key, ""));
  if (!v)
    std::fprintf(stderr, "manymap_serve: --%s needs a positive integer, got '%s'\n",
                 key.c_str(), args.get(key, "").c_str());
  return v;
}

/// Fetch an option as a non-negative integer (seeds, delays; 0 = none).
std::optional<i64> nonneg_int_opt(const ArgList& args, const std::string& key, i64 dflt) {
  if (!args.has(key)) return dflt;
  const auto v = parse_int(args.get(key, ""));
  if (!v || *v < 0) {
    std::fprintf(stderr, "manymap_serve: --%s needs a non-negative integer, got '%s'\n",
                 key.c_str(), args.get(key, "").c_str());
    return std::nullopt;
  }
  return v;
}

/// Fetch an option as a non-negative real (rates/timeouts; 0 = disabled).
std::optional<double> nonneg_double_opt(const ArgList& args, const std::string& key,
                                        double dflt) {
  if (!args.has(key)) return dflt;
  const auto v = parse_nonneg_double(args.get(key, ""));
  if (!v)
    std::fprintf(stderr, "manymap_serve: --%s needs a non-negative number, got '%s'\n",
                 key.c_str(), args.get(key, "").c_str());
  return v;
}

/// Parses `--flag` / `--option value` pairs. Returns nullopt (after printing
/// the offending token) on anything unknown or malformed, so main can fall
/// through to usage() instead of aborting.
std::optional<ArgList> parse_args(int argc, char** argv, const std::vector<std::string>& flags,
                                  const std::vector<std::string>& valued) {
  ArgList out;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "manymap_serve: unexpected argument '%s'\n", arg.c_str());
      return std::nullopt;
    }
    const std::string key = arg.substr(2);
    if (std::find(flags.begin(), flags.end(), key) != flags.end()) {
      out.options[key] = "1";
    } else if (std::find(valued.begin(), valued.end(), key) != valued.end()) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "manymap_serve: option --%s missing its value\n", key.c_str());
        return std::nullopt;
      }
      out.options[key] = argv[++i];
    } else {
      std::fprintf(stderr, "manymap_serve: unknown option --%s\n", key.c_str());
      return std::nullopt;
    }
  }
  return out;
}

int usage() {
  std::fprintf(stderr,
               "usage: manymap_serve [--ref f.fa] [--reads-file f.fq] [--length N] [--reads N]\n"
               "  [--platform pacbio|nanopore] [--seed S] [--preset map-pb|map-ont]\n"
               "  [--layout minimap2|manymap] [--isa name] [--workers N] [--queue-capacity N]\n"
               "  [--batch-size N] [--batch-delay-us N] [--deadline-ms F] [--rate R]\n"
               "  [--admission block|reject] [--verify] [--verify-sample N] [--paf]\n"
               "  [--mem-budget-mb M] [--gpu] [--gpu-streams N]\n"
               "  [--index-save PATH] [--index-load PATH] [--index-verify PATH]\n"
               "  [--band B (0 = unbanded)] [--zdrop Z (0 = off)]\n"
               "numeric options must be positive integers (--deadline-ms/--rate accept 0 =\n"
               "disabled); --batch-delay-us is how long a partial batch lingers for more\n"
               "requests while no worker is idle (default 0 = no linger);\n"
               "--mem-budget-mb M streams the dirs of requests estimated above M/4 MiB\n"
               "and serves those above 16*M MiB score-only;\n"
               "--gpu offloads long uniform batches to the simulated device (bit-identical)\n");
  return 2;
}

}  // namespace
}  // namespace manymap

int main(int argc, char** argv) {
  using namespace manymap;
  const std::vector<std::string> flags{"verify", "paf", "gpu", "help"};
  const std::vector<std::string> valued{
      "ref",      "reads-file", "length",         "reads",      "platform",
      "seed",     "preset",     "layout",         "isa",        "workers",
      "queue-capacity", "batch-size", "batch-delay-us",
      "deadline-ms", "rate",    "admission",      "verify-sample", "mem-budget-mb",
      "gpu-streams", "band",    "zdrop",          "index-save", "index-load",
      "index-verify"};
  const auto parsed = parse_args(argc - 1, argv + 1, flags, valued);
  if (!parsed) return usage();
  if (parsed->has("help")) {
    usage();
    return 0;
  }
  const ArgList& args = *parsed;

  // Standalone index verification: no serving, no workload.
  if (args.has("index-verify")) {
    const std::string path = args.get("index-verify", "");
    if (path.empty()) return usage();
    IndexLoadResult st = try_load_index_stream(path);
    IndexLoadResult mm = try_load_index_mmap(path);
    IndexViewResult vw = try_load_index_view(path);
    bool ok = true;
    const auto complain = [&](const char* loader, const std::string& msg) {
      std::fprintf(stderr, "[index-verify] %s: %s\n", loader, msg.c_str());
      ok = false;
    };
    if (!st.ok()) complain("stream", st.message);
    if (!mm.ok()) complain("mmap", mm.message);
    if (!vw.ok()) complain("view", vw.message);
    if (ok) {
      const std::string a = serialize_index(st.index);
      const std::string b = serialize_index(mm.index);
      const std::string c = serialize_index(vw.view.materialize());
      if (a != b) complain("mmap", "loaded state differs from the stream loader's");
      if (a != c) complain("view", "materialized state differs from the stream loader's");
    }
    if (ok)
      std::printf(
          "[index-verify] OK: %s — k=%u w=%u, %zu contigs, %zu keys, %zu entries, "
          "%llu checksummed bytes, all three load paths bit-identical\n",
          path.c_str(), st.index.params().k, st.index.params().w, st.index.contigs().size(),
          st.index.num_keys(), st.index.num_entries(),
          static_cast<unsigned long long>(mm.checksum_bytes_verified));
    return ok ? 0 : 1;
  }
  if (args.has("index-save") && args.has("index-load")) {
    std::fprintf(stderr, "manymap_serve: --index-save and --index-load are exclusive\n");
    return usage();
  }

  // Strict numeric validation up front: every count must be positive,
  // rates/timeouts/delays non-negative; anything else answers with usage.
  const auto seed_opt = nonneg_int_opt(args, "seed", 42);
  const auto length_opt = positive_opt(args, "length", 400'000);
  const auto reads_opt = positive_opt(args, "reads", 2000);
  const auto workers_opt = positive_opt(args, "workers", 4);
  const auto queue_cap_opt = positive_opt(args, "queue-capacity", 64);
  const auto batch_size_opt = positive_opt(args, "batch-size", 16);
  const auto batch_delay_opt = nonneg_int_opt(args, "batch-delay-us", 0);
  const auto verify_sample_opt = positive_opt(args, "verify-sample", 16);
  const auto mem_budget_opt = positive_opt(args, "mem-budget-mb", 0);
  const auto gpu_streams_opt = positive_opt(args, "gpu-streams", 8);
  const auto deadline_opt = nonneg_double_opt(args, "deadline-ms", 0.0);
  const auto rate_opt = nonneg_double_opt(args, "rate", 0.0);
  if (!seed_opt || !length_opt || !reads_opt || !workers_opt || !queue_cap_opt ||
      !batch_size_opt || !batch_delay_opt || !verify_sample_opt || !mem_budget_opt ||
      !gpu_streams_opt || !deadline_opt || !rate_opt)
    return usage();
  const u64 seed = static_cast<u64>(*seed_opt);

  // 1. Workload: reference + reads, loaded or simulated (fixed seed).
  Reference ref;
  if (args.has("ref")) {
    for (auto& c : read_sequence_file(args.get("ref", ""))) ref.add(std::move(c));
  } else {
    GenomeParams gp;
    gp.total_length = static_cast<u64>(*length_opt);
    gp.seed = seed;
    ref = generate_genome(gp);
  }
  std::vector<Sequence> reads;
  if (args.has("reads-file")) {
    reads = read_sequence_file(args.get("reads-file", ""));
  } else {
    ReadSimParams rp;
    rp.profile = args.get("platform", "pacbio") == "nanopore" ? ErrorProfile::nanopore()
                                                              : ErrorProfile::pacbio();
    rp.num_reads = static_cast<u32>(*reads_opt);
    rp.seed = seed + 1;
    for (auto& sr : ReadSimulator(ref, rp).simulate()) reads.push_back(std::move(sr.read));
  }
  MM_REQUIRE(!reads.empty(), "no reads to replay");

  // 2. Service config from the shared option names.
  ServiceConfig cfg;
  const auto preset = preset_by_name(args.get("preset", "map-pb"));
  MM_REQUIRE(preset.has_value(), "bad --preset");
  cfg.map = *preset;
  MM_REQUIRE(apply_layout_name(cfg.map, args.get("layout", "manymap")), "bad --layout");
  if (args.has("isa"))
    MM_REQUIRE(apply_isa_name(cfg.map, args.get("isa", "")), "bad --isa or unavailable");
  if (args.has("band") && !apply_band_option(cfg.map, args.get("band", ""))) {
    std::fprintf(stderr, "manymap_serve: --band needs an integer >= 0 (0 = unbanded), got '%s'\n",
                 args.get("band", "").c_str());
    return usage();
  }
  if (args.has("zdrop") && !apply_zdrop_option(cfg.map, args.get("zdrop", ""))) {
    std::fprintf(stderr, "manymap_serve: --zdrop needs an integer >= 0 (0 = off), got '%s'\n",
                 args.get("zdrop", "").c_str());
    return usage();
  }
  cfg.workers_per_shard = static_cast<u32>(*workers_opt);
  cfg.ingress_capacity = static_cast<std::size_t>(*queue_cap_opt);
  cfg.batch.max_batch_size = static_cast<u32>(*batch_size_opt);
  cfg.batch.max_delay = std::chrono::microseconds(*batch_delay_opt);
  if (args.has("verify")) cfg.verify_sample_every = static_cast<u64>(*verify_sample_opt);
  if (args.has("mem-budget-mb")) {
    // One knob drives the whole ladder: a request may hold at most a
    // quarter of the M MiB budget resident (above that it streams dirs),
    // and anything estimated past 16x the budget is served score-only.
    const u64 budget = static_cast<u64>(*mem_budget_opt) << 20;
    cfg.mem.resident_request_bytes = budget / 4;
    cfg.mem.score_only_above_bytes = budget * 16;
  }
  if (args.has("gpu")) {
    cfg.gpu.enabled = true;
    cfg.gpu.batch.layout = cfg.map.layout;
    cfg.gpu.batch.num_streams = static_cast<u32>(*gpu_streams_opt);
  }
  if (args.has("index-save")) {
    // Build, publish atomically, then serve from the saved file — the
    // replay below proves the round trip end to end.
    const std::string path = args.get("index-save", "");
    if (path.empty()) return usage();
    const MinimizerIndex idx = MinimizerIndex::build(ref, cfg.map.sketch);
    const u64 bytes = save_index(path, idx);
    std::fprintf(stderr, "[manymap_serve] index saved: %s (%llu bytes, %zu keys); serving from it\n",
                 path.c_str(), static_cast<unsigned long long>(bytes), idx.num_keys());
    cfg.index.load_path = path;
  } else if (args.has("index-load")) {
    cfg.index.load_path = args.get("index-load", "");
    if (cfg.index.load_path.empty()) return usage();
  }

  // 3. Arrival schedule: exponential inter-arrival gaps (Poisson process)
  //   at --rate req/s; rate 0 degenerates to a burst at t=0.
  const double rate = *rate_opt;
  Rng arrivals(seed + 2);
  std::vector<double> arrive_at(reads.size(), 0.0);
  if (rate > 0.0) {
    double t = 0.0;
    for (auto& a : arrive_at) {
      t += -std::log(1.0 - arrivals.uniform01()) / rate;
      a = t;
    }
  }
  const double deadline_ms = *deadline_opt;
  const bool blocking = args.get("admission", "block") != "reject";

  // 4. Replay the trace.
  AlignmentService svc(ref, cfg);
  std::vector<std::future<MapResponse>> futures;
  futures.reserve(reads.size());
  WallTimer wall;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < reads.size(); ++i) {
    if (rate > 0.0)
      std::this_thread::sleep_until(
          t0 + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                   std::chrono::duration<double>(arrive_at[i])));
    MapRequest req;
    req.id = i;
    req.read = reads[i];
    if (deadline_ms > 0.0)
      req.deadline = std::chrono::steady_clock::now() +
                     std::chrono::microseconds(static_cast<i64>(deadline_ms * 1000.0));
    futures.push_back(blocking ? svc.submit_wait(std::move(req)) : svc.submit(std::move(req)));
  }
  std::vector<MapResponse> responses;
  responses.reserve(futures.size());
  for (auto& f : futures) responses.push_back(f.get());
  // Warming resubmits: INDEX_WARMING answers are retriable by contract.
  // Once the async load publishes, replay them so the trace completes;
  // if the load permanently failed they stay warming in the final stats.
  u64 warming_resubmits = 0;
  if (!cfg.index.load_path.empty()) {
    const bool ready = svc.wait_until_ready(std::chrono::milliseconds(60'000));
    for (std::size_t i = 0; ready && i < responses.size(); ++i) {
      if (responses[i].status != RequestStatus::kIndexWarming) continue;
      ++warming_resubmits;
      MapRequest req;
      req.id = i;
      req.read = reads[i];
      if (deadline_ms > 0.0)
        req.deadline = std::chrono::steady_clock::now() +
                       std::chrono::microseconds(static_cast<i64>(deadline_ms * 1000.0));
      responses[i] = svc.map_sync(std::move(req));
    }
    if (warming_resubmits > 0)
      std::fprintf(stderr, "[manymap_serve] resubmitted %llu INDEX_WARMING responses after warm-up\n",
                   static_cast<unsigned long long>(warming_resubmits));
  }
  svc.shutdown();
  const double wall_s = wall.seconds();

  // 5. Report. Throughput counts answered (kOk) requests only, as
  //   bench_service_throughput and perfbench do: a rejected, timed-out or
  //   failed request was not served.
  const auto snap = svc.metrics().snapshot();
  std::fputs(snap.report().c_str(), stderr);
  const auto ok = static_cast<std::size_t>(
      std::count_if(responses.begin(), responses.end(),
                    [](const MapResponse& r) { return r.status == RequestStatus::kOk; }));
  std::fprintf(stderr,
               "[manymap_serve] %zu requests, %zu ok in %.3fs (%.0f ok req/s) — %u worker(s), "
               "batch<=%u delay=%lldus\n",
               reads.size(), ok, wall_s, static_cast<double>(ok) / wall_s,
               cfg.workers_per_shard, cfg.batch.max_batch_size,
               static_cast<long long>(cfg.batch.max_delay.count()));

  if (args.has("paf"))
    for (const auto& r : responses)
      if (r.status == RequestStatus::kOk) std::cout << r.paf;

  // 6. Optional verification: live oracle sampling happened while serving
  //   (cfg.verify_sample_every); on top of it, the service must be a
  //   behaviour-preserving wrapper around Mapper::map — byte-identical PAF
  //   per request.
  if (args.has("verify")) {
    if (!svc.index_ready()) {
      std::fprintf(stderr, "[manymap_serve] verify: FAIL (index never became ready)\n");
      return 1;
    }
    u64 mismatches = 0, unverifiable = 0;
    for (std::size_t i = 0; i < responses.size(); ++i) {
      if (responses[i].status != RequestStatus::kOk) {
        ++unverifiable;
        continue;
      }
      const auto serial = svc.mapper().map(reads[i]);
      if (to_paf_block(serial, cfg.paf_with_cigar) != responses[i].paf) ++mismatches;
    }
    std::fprintf(stderr,
                 "[manymap_serve] verify: %s (%llu mismatches, %llu not-OK skipped; live "
                 "oracle sampled=%llu divergences=%llu)\n",
                 mismatches == 0 && snap.verify_divergences == 0 ? "OK" : "FAIL",
                 static_cast<unsigned long long>(mismatches),
                 static_cast<unsigned long long>(unverifiable),
                 static_cast<unsigned long long>(snap.verified),
                 static_cast<unsigned long long>(snap.verify_divergences));
    if (mismatches != 0 || snap.verify_divergences != 0) return 1;
  }
  return 0;
}
