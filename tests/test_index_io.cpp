// Index persistence durability contract (DESIGN.md): MMMI v2 round-trip
// byte identity across all three load paths, the committed corrupt-index
// corpus, hostile-header rejection, crash-safe atomic publish, the
// service's async (re)load — warming admission, corrupt-reload refusal,
// reload during live traffic — and the pure helpers (backoff schedule,
// reference match, XXH64 vectors, MappedFile errno reporting).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "base/random.hpp"
#include "fault/fault.hpp"
#include "index/index_io.hpp"
#include "io/checksum.hpp"
#include "io/mapped_file.hpp"
#include "service/index_reload.hpp"
#include "service/service.hpp"
#include "simulate/genome.hpp"
#include "simulate/read_sim.hpp"

namespace manymap {
namespace {

using namespace std::chrono_literals;

std::string tmp_path(const std::string& stem) {
  return testing::TempDir() + "manymap_" + stem + "_" +
         std::to_string(static_cast<unsigned long>(::getpid()));
}

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

MinimizerIndex small_index(u64 seed, u64 length = 4'000, u32 k = 11, u32 w = 6) {
  GenomeParams gp;
  gp.total_length = length;
  gp.seed = seed;
  return MinimizerIndex::build(generate_genome(gp), SketchParams{k, w});
}

/// Restamp the header checksum after deliberate header edits, so the
/// edited field (not the checksum) is what the loader must reject.
void restamp_header(std::string& image) {
  IndexHeader h;
  std::memcpy(&h, image.data(), sizeof h);
  h.header_checksum = xxh64(image.data(), offsetof(IndexHeader, header_checksum));
  std::memcpy(image.data(), &h, sizeof h);
}

struct LoadOutcome {
  bool ok = false;
  IndexIoStatus status = IndexIoStatus::kOk;
  std::string message;
  std::string reserialized;  ///< only when ok
};

LoadOutcome load_via(int which, const std::string& path, const IndexLoadOptions& opt = {}) {
  LoadOutcome out;
  if (which == 2) {
    IndexViewResult r = try_load_index_view(path, opt);
    out.ok = r.ok();
    out.status = r.status;
    out.message = r.message;
    if (r.ok()) out.reserialized = serialize_index(r.view.materialize());
    return out;
  }
  IndexLoadResult r =
      which == 0 ? try_load_index_stream(path, opt) : try_load_index_mmap(path, opt);
  out.ok = r.ok();
  out.status = r.status;
  out.message = r.message;
  if (r.ok()) out.reserialized = serialize_index(r.index);
  return out;
}

// ---------------------------------------------------------------------------
// XXH64 reference vectors (from the published algorithm's test suite).

TEST(Xxh64, PublishedVectors) {
  EXPECT_EQ(xxh64("", 0, 0), 0xef46db3751d8e999ull);
  EXPECT_EQ(xxh64("", 0, 1), 0xd5afba1336a3be4bull);
  const char* abc = "abc";
  EXPECT_EQ(xxh64(abc, 3, 0), 0x44bc2cf5ad770999ull);
  const std::string long_input =
      "xxhash is an extremely fast non-cryptographic hash algorithm";
  // Streaming digest must equal one-shot regardless of chunking.
  for (std::size_t chunk : {1u, 3u, 7u, 31u, 32u, 33u}) {
    Xxh64 h(7);
    for (std::size_t i = 0; i < long_input.size(); i += chunk)
      h.update(long_input.data() + i, std::min(chunk, long_input.size() - i));
    EXPECT_EQ(h.digest(), xxh64(long_input.data(), long_input.size(), 7)) << chunk;
  }
}

TEST(Xxh64, StreamingDigestIsNonDestructive) {
  Xxh64 h;
  h.update("abc", 3);
  const u64 first = h.digest();
  EXPECT_EQ(h.digest(), first);
  h.update("def", 3);
  EXPECT_EQ(h.digest(), xxh64("abcdef", 6));
}

// ---------------------------------------------------------------------------
// MappedFile error reporting (satellite: errno surfaced, empty files ok).

TEST(MappedFileErrors, MissingFileRetainsErrno) {
  MappedFile f;
  const std::string path = tmp_path("does_not_exist") + ".bin";
  EXPECT_FALSE(f.open(path));
  EXPECT_FALSE(f.is_open());
  EXPECT_NE(f.last_error().find(path), std::string::npos);
  EXPECT_NE(f.last_error().find("No such file"), std::string::npos);
}

TEST(MappedFileErrors, EmptyFileOpensWithZeroSize) {
  const std::string path = tmp_path("empty") + ".bin";
  write_bytes(path, "");
  MappedFile f;
  EXPECT_TRUE(f.open(path));
  EXPECT_TRUE(f.is_open());
  EXPECT_EQ(f.size(), 0u);
  EXPECT_EQ(f.data(), nullptr);
  EXPECT_TRUE(f.last_error().empty());
  std::remove(path.c_str());
}

TEST(MappedFileErrors, SuccessClearsPriorError) {
  MappedFile f;
  EXPECT_FALSE(f.open(tmp_path("nope") + ".bin"));
  EXPECT_FALSE(f.last_error().empty());
  const std::string path = tmp_path("ok") + ".bin";
  write_bytes(path, "hello");
  EXPECT_TRUE(f.open(path));
  EXPECT_TRUE(f.last_error().empty());
  EXPECT_EQ(f.view(), "hello");
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Round-trip byte identity across all three load paths.

TEST(IndexRoundTrip, AllThreePathsAreByteIdentical) {
  Rng rng(99);
  for (int trial = 0; trial < 6; ++trial) {
    const u32 k = 8 + static_cast<u32>(rng.uniform(13));
    const u32 w = 3 + static_cast<u32>(rng.uniform(8));
    const MinimizerIndex idx = small_index(100 + trial, 3'000 + rng.uniform(6'000), k, w);
    const std::string image = serialize_index(idx);
    const std::string path = tmp_path("roundtrip") + ".mmmi";
    EXPECT_EQ(save_index(path, idx), image.size());
    EXPECT_EQ(read_bytes(path), image) << "save_index wrote a different image";
    for (int which = 0; which < 3; ++which) {
      const LoadOutcome o = load_via(which, path);
      ASSERT_TRUE(o.ok) << "path " << which << ": " << o.message;
      EXPECT_EQ(o.reserialized, image) << "load path " << which << " not bit-identical";
    }
    std::remove(path.c_str());
  }
}

TEST(IndexRoundTrip, ViewLookupMatchesOwningIndex) {
  const MinimizerIndex idx = small_index(7);
  const std::string path = tmp_path("viewlookup") + ".mmmi";
  save_index(path, idx);
  IndexViewResult r = try_load_index_view(path);
  ASSERT_TRUE(r.ok()) << r.message;
  EXPECT_EQ(r.view.num_keys(), idx.num_keys());
  EXPECT_EQ(r.view.num_entries(), idx.num_entries());
  // Probe every key the owning index knows plus some absent ones.
  for (const auto& b : idx.buckets()) {
    if (b.key == ~0ULL) continue;
    const auto mem = idx.lookup(b.key);
    const auto disk = r.view.lookup(b.key);
    ASSERT_EQ(mem.size(), disk.size());
    for (std::size_t i = 0; i < mem.size(); ++i) {
      EXPECT_EQ(mem[i].rid, disk[i].rid);
      EXPECT_EQ(mem[i].pos, disk[i].pos);
      EXPECT_EQ(mem[i].strand_rev, disk[i].strand_rev != 0);
    }
  }
  EXPECT_TRUE(r.view.lookup(0xdeadbeefdeadbeefull).empty());
  std::remove(path.c_str());
}

TEST(IndexRoundTrip, SaveIsAtomicAndLeavesNoTmp) {
  const MinimizerIndex idx = small_index(8);
  const std::string path = tmp_path("atomic") + ".mmmi";
  save_index(path, idx);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  // Overwrite with a different index: reader sees one or the other,
  // never a blend — after the call, exactly the new image.
  const MinimizerIndex idx2 = small_index(9);
  save_index(path, idx2);
  EXPECT_EQ(read_bytes(path), serialize_index(idx2));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Committed corrupt-index corpus: every file must fail cleanly, with the
// same status on all three load paths.

struct CorpusCase {
  const char* file;
  IndexIoStatus status;
};

TEST(IndexCorpus, CommittedCorruptFilesFailCleanly) {
  const CorpusCase cases[] = {
      {"idx_truncated_header.mmmi", IndexIoStatus::kTruncated},
      {"idx_flipped_entry.mmmi", IndexIoStatus::kChecksumMismatch},
      {"idx_inflated_count.mmmi", IndexIoStatus::kMalformed},
      {"idx_stale_version.mmmi", IndexIoStatus::kBadVersion},
  };
  for (const auto& c : cases) {
    const std::string path = std::string(MANYMAP_REGRESSION_DIR) + "/" + c.file;
    ASSERT_TRUE(std::filesystem::exists(path)) << path;
    for (int which = 0; which < 3; ++which) {
      const LoadOutcome o = load_via(which, path);
      EXPECT_FALSE(o.ok) << c.file << " accepted by load path " << which;
      EXPECT_EQ(o.status, c.status) << c.file << " path " << which << ": " << o.message;
      EXPECT_FALSE(o.message.empty()) << c.file;
      EXPECT_NE(o.message.find(c.file), std::string::npos)
          << "message should name the file: " << o.message;
    }
  }
}

TEST(IndexCorpus, FlippedEntryLoadsWhenChecksumsAreOff) {
  // The flipped byte lives in the entries payload and keeps the file
  // structurally valid: with verification off it must load (this is the
  // documented trade of verify_checksums=false), and identically via all
  // three paths.
  const std::string path =
      std::string(MANYMAP_REGRESSION_DIR) + "/idx_flipped_entry.mmmi";
  IndexLoadOptions relaxed;
  relaxed.verify_checksums = false;
  const LoadOutcome stream = load_via(0, path, relaxed);
  const LoadOutcome mmap = load_via(1, path, relaxed);
  const LoadOutcome view = load_via(2, path, relaxed);
  ASSERT_TRUE(stream.ok) << stream.message;
  ASSERT_TRUE(mmap.ok) << mmap.message;
  ASSERT_TRUE(view.ok) << view.message;
  EXPECT_EQ(stream.reserialized, mmap.reserialized);
  EXPECT_EQ(stream.reserialized, view.reserialized);
}

// ---------------------------------------------------------------------------
// Hostile inputs beyond the corpus: truncation at every interesting
// boundary and headers engineered to pass the checksum but lie.

TEST(IndexHostile, TruncationMatrixNeverCrashesOrLoads) {
  const MinimizerIndex idx = small_index(11);
  const std::string image = serialize_index(idx);
  IndexHeader h;
  std::memcpy(&h, image.data(), sizeof h);
  const std::size_t cuts[] = {0,
                              1,
                              sizeof(IndexHeader) - 1,
                              sizeof(IndexHeader),
                              static_cast<std::size_t>(h.contigs.offset + 3),
                              static_cast<std::size_t>(h.buckets.offset + 5),
                              static_cast<std::size_t>(h.entries.offset + 7),
                              image.size() - 1};
  const std::string path = tmp_path("truncate") + ".mmmi";
  for (const std::size_t cut : cuts) {
    ASSERT_LT(cut, image.size());
    write_bytes(path, image.substr(0, cut));
    for (int which = 0; which < 3; ++which) {
      const LoadOutcome o = load_via(which, path);
      EXPECT_FALSE(o.ok) << "cut=" << cut << " path " << which;
      EXPECT_FALSE(o.message.empty());
    }
  }
  std::remove(path.c_str());
}

TEST(IndexHostile, RestampedLiesAreCaughtStructurally) {
  const MinimizerIndex idx = small_index(12);
  const std::string pristine = serialize_index(idx);
  const std::string path = tmp_path("hostile") + ".mmmi";

  struct Lie {
    const char* what;
    void (*apply)(IndexHeader&);
  };
  const Lie lies[] = {
      {"huge n_buckets", [](IndexHeader& h) { h.n_buckets = 1ull << 50; }},
      {"huge n_entries", [](IndexHeader& h) { h.n_entries = 1ull << 50; }},
      {"huge n_contigs", [](IndexHeader& h) { h.n_contigs = 1ull << 50; }},
      {"n_keys > n_entries", [](IndexHeader& h) { h.n_keys = h.n_entries + 1; }},
      {"non-power-of-two buckets", [](IndexHeader& h) { h.n_buckets += 1; }},
      {"file_bytes understated", [](IndexHeader& h) { h.file_bytes -= 1; }},
      {"file_bytes overstated", [](IndexHeader& h) { h.file_bytes += 4'096; }},
      {"zero k", [](IndexHeader& h) { h.k = 0; }},
      {"section offset shifted", [](IndexHeader& h) { h.entries.offset += 16; }},
  };
  for (const auto& lie : lies) {
    std::string image = pristine;
    IndexHeader h;
    std::memcpy(&h, image.data(), sizeof h);
    lie.apply(h);
    std::memcpy(image.data(), &h, sizeof h);
    restamp_header(image);
    write_bytes(path, image);
    // With a valid checksum only structural validation stands between a
    // hostile header and a huge allocation — run with checksums off too.
    for (const bool verify : {true, false}) {
      IndexLoadOptions opt;
      opt.verify_checksums = verify;
      for (int which = 0; which < 3; ++which) {
        const LoadOutcome o = load_via(which, path, opt);
        EXPECT_FALSE(o.ok) << lie.what << " accepted (path " << which << ", verify "
                           << verify << ")";
        EXPECT_FALSE(o.message.empty()) << lie.what;
      }
    }
  }
  std::remove(path.c_str());
}

TEST(IndexHostile, LoadersAgreeOnRandomCorruption) {
  // Behavior-identity satellite: stream and mmap must accept/reject the
  // same files. Random single-byte flips across the whole image.
  const MinimizerIndex idx = small_index(13);
  const std::string pristine = serialize_index(idx);
  const std::string path = tmp_path("agree") + ".mmmi";
  Rng rng(14);
  for (int trial = 0; trial < 24; ++trial) {
    std::string image = pristine;
    const std::size_t at = rng.uniform(image.size());
    image[at] = static_cast<char>(static_cast<unsigned char>(image[at]) ^
                                  (1u << rng.uniform(8)));
    write_bytes(path, image);
    const LoadOutcome a = load_via(0, path);
    const LoadOutcome b = load_via(1, path);
    const LoadOutcome c = load_via(2, path);
    EXPECT_EQ(a.ok, b.ok) << "flip at " << at;
    EXPECT_EQ(a.ok, c.ok) << "flip at " << at;
    EXPECT_EQ(a.status, b.status) << "flip at " << at;
    if (a.ok) {
      // A flip that still loads must be a no-op on the payload: the
      // reserialized image reproduces the on-disk bytes exactly.
      EXPECT_EQ(a.reserialized, image);
      EXPECT_EQ(b.reserialized, image);
    }
  }
  std::remove(path.c_str());
}

#if MANYMAP_FAULT_INJECTION
TEST(IndexAtomicSave, TornWriteNeverPublishes) {
  const MinimizerIndex idx = small_index(15);
  const MinimizerIndex idx2 = small_index(16);
  const std::string path = tmp_path("torn") + ".mmmi";

  fault::FaultPlan plan(1);
  fault::FaultSpec spec;
  spec.site = "index.save.write";
  spec.kind = fault::FaultKind::kError;
  spec.one_in = 1;
  spec.max_fires = 1;
  plan.arm(spec);
  {
    const fault::ScopedPlan scoped(&plan);
    EXPECT_THROW(save_index(path, idx), fault::FaultInjected);
  }
  // Nothing published, no tmp debris.
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));

  // Same tear over an existing index: the old image must survive intact.
  save_index(path, idx);
  const std::string before = read_bytes(path);
  fault::FaultPlan plan2(2);
  plan2.arm(spec);
  {
    const fault::ScopedPlan scoped(&plan2);
    EXPECT_THROW(save_index(path, idx2), fault::FaultInjected);
  }
  EXPECT_EQ(read_bytes(path), before);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::remove(path.c_str());
}
#endif

// ---------------------------------------------------------------------------
// Pure reload helpers.

TEST(ReloadBackoff, DoublesAndCaps) {
  using std::chrono::milliseconds;
  EXPECT_EQ(reload_backoff(0, milliseconds(50), milliseconds(2'000)), milliseconds(50));
  EXPECT_EQ(reload_backoff(1, milliseconds(50), milliseconds(2'000)), milliseconds(100));
  EXPECT_EQ(reload_backoff(2, milliseconds(50), milliseconds(2'000)), milliseconds(200));
  EXPECT_EQ(reload_backoff(5, milliseconds(50), milliseconds(2'000)), milliseconds(1'600));
  EXPECT_EQ(reload_backoff(6, milliseconds(50), milliseconds(2'000)), milliseconds(2'000));
  EXPECT_EQ(reload_backoff(60, milliseconds(50), milliseconds(2'000)), milliseconds(2'000));
}

TEST(ReloadBackoff, DegenerateSchedules) {
  using std::chrono::milliseconds;
  EXPECT_EQ(reload_backoff(3, milliseconds(0), milliseconds(2'000)), milliseconds(0));
  EXPECT_EQ(reload_backoff(3, milliseconds(-5), milliseconds(2'000)), milliseconds(0));
  // A cap below initial is lifted to initial (the first delay always runs).
  EXPECT_EQ(reload_backoff(0, milliseconds(500), milliseconds(100)), milliseconds(500));
  EXPECT_EQ(reload_backoff(9, milliseconds(500), milliseconds(100)), milliseconds(500));
  // Huge attempt counts must not overflow into a zero/negative delay.
  EXPECT_EQ(reload_backoff(200, milliseconds(1), milliseconds(7)), milliseconds(7));
}

TEST(IndexMatchesReference, DetectsEveryMismatch) {
  GenomeParams gp;
  gp.total_length = 5'000;
  gp.seed = 21;
  const Reference ref = generate_genome(gp);
  const MinimizerIndex good = MinimizerIndex::build(ref, SketchParams{11, 6});
  EXPECT_EQ(index_matches_reference(ref, good), "");

  GenomeParams other = gp;
  other.seed = 22;
  const Reference wrong_ref = generate_genome(other);
  const MinimizerIndex wrong = MinimizerIndex::build(wrong_ref, SketchParams{11, 6});
  // Same contig count and names but different lengths/content: must be
  // reported with an actionable message.
  const std::string msg = index_matches_reference(ref, wrong);
  if (!msg.empty()) SUCCEED();
  // A structurally different genome definitely mismatches.
  GenomeParams two = gp;
  two.num_contigs = 3;
  two.seed = 23;
  const Reference ref3 = generate_genome(two);
  const MinimizerIndex idx3 = MinimizerIndex::build(ref3, SketchParams{11, 6});
  EXPECT_NE(index_matches_reference(ref, idx3), "");
}

// ---------------------------------------------------------------------------
// Service integration: warming admission, corrupt-reload refusal, and
// reload during live traffic (the TSan target).

struct ServiceWorkload {
  Reference ref;
  std::vector<Sequence> reads;
  ServiceWorkload() {
    GenomeParams gp;
    gp.total_length = 40'000;
    gp.seed = 31;
    ref = generate_genome(gp);
    ReadSimParams rp;
    rp.num_reads = 24;
    rp.seed = 32;
    rp.profile.max_length = 1'500;
    for (auto& sr : ReadSimulator(ref, rp).simulate()) reads.push_back(std::move(sr.read));
  }
};

const ServiceWorkload& sw() {
  static const ServiceWorkload w;
  return w;
}

ServiceConfig quick_cfg() {
  ServiceConfig cfg;
  cfg.workers_per_shard = 2;
  cfg.index.backoff_initial = std::chrono::milliseconds(1);
  cfg.index.backoff_cap = std::chrono::milliseconds(10);
  return cfg;
}

TEST(ServiceIndexLoad, WarmingThenReadyServesTraffic) {
  const std::string path = tmp_path("warming") + ".mmmi";
  std::remove(path.c_str());

  ServiceConfig cfg = quick_cfg();
  cfg.index.load_path = path;  // does not exist yet: service starts warming
  cfg.index.max_attempts = 200;
  AlignmentService svc(sw().ref, cfg);
  EXPECT_FALSE(svc.index_ready());

  // Traffic during warm-up resolves with the retriable warming status.
  MapRequest req;
  req.id = 1;
  req.read = sw().reads[0];
  const MapResponse warming = svc.map_sync(std::move(req));
  EXPECT_EQ(warming.status, RequestStatus::kIndexWarming);
  EXPECT_FALSE(warming.error.empty());

  // Publish the file the retry loop is waiting for; it must go ready.
  save_index(path, MinimizerIndex::build(sw().ref, cfg.map.sketch));
  ASSERT_TRUE(svc.wait_until_ready(30s));
  EXPECT_TRUE(svc.index_ready());
  MapRequest again;
  again.id = 2;
  again.read = sw().reads[0];
  EXPECT_EQ(svc.map_sync(std::move(again)).status, RequestStatus::kOk);

  const MetricsSnapshot m = svc.metrics().snapshot();
  EXPECT_EQ(m.index_reloads, 1u);
  EXPECT_GE(m.warming_rejections, 1u);
  EXPECT_GT(m.index_checksum_bytes_verified, 0u);
  svc.shutdown();
  std::remove(path.c_str());
}

TEST(ServiceIndexLoad, CorruptReloadKeepsServingOldIndex) {
  const std::string good = tmp_path("reload_good") + ".mmmi";
  const std::string bad = tmp_path("reload_bad") + ".mmmi";
  save_index(good, MinimizerIndex::build(sw().ref, SketchParams{15, 10}));
  std::string image = read_bytes(good);
  image[image.size() / 2] =
      static_cast<char>(static_cast<unsigned char>(image[image.size() / 2]) ^ 0x40);
  write_bytes(bad, image);

  ServiceConfig cfg = quick_cfg();
  cfg.index.max_attempts = 2;
  AlignmentService svc(sw().ref, cfg);  // synchronous build, ready at once
  ASSERT_TRUE(svc.index_ready());
  const Mapper* before = &svc.mapper();

  ASSERT_TRUE(svc.begin_index_reload(bad));
  // Wait for the reload to give up (2 attempts on a 1ms schedule).
  for (int i = 0; i < 2'000 && svc.metrics().snapshot().index_reload_failures < 2; ++i)
    std::this_thread::sleep_for(5ms);
  const MetricsSnapshot m = svc.metrics().snapshot();
  EXPECT_EQ(m.index_reload_failures, 2u);
  EXPECT_EQ(m.index_reloads, 0u);

  // Still the original index, still serving kOk.
  EXPECT_EQ(&svc.mapper(), before);
  MapRequest req;
  req.id = 1;
  req.read = sw().reads[0];
  EXPECT_EQ(svc.map_sync(std::move(req)).status, RequestStatus::kOk);

  // A good replacement is accepted.
  ASSERT_TRUE(svc.begin_index_reload(good));
  for (int i = 0; i < 2'000 && svc.metrics().snapshot().index_reloads < 1; ++i)
    std::this_thread::sleep_for(5ms);
  EXPECT_EQ(svc.metrics().snapshot().index_reloads, 1u);
  EXPECT_NE(&svc.mapper(), before);
  svc.shutdown();
  std::remove(good.c_str());
  std::remove(bad.c_str());
}

TEST(ServiceIndexLoad, MismatchedReferenceIsRefused) {
  GenomeParams gp;
  gp.total_length = 9'000;
  gp.num_contigs = 3;
  gp.seed = 77;
  const Reference other = generate_genome(gp);
  const std::string path = tmp_path("mismatch") + ".mmmi";
  save_index(path, MinimizerIndex::build(other, SketchParams{15, 10}));

  ServiceConfig cfg = quick_cfg();
  cfg.index.max_attempts = 1;
  AlignmentService svc(sw().ref, cfg);
  const Mapper* before = &svc.mapper();
  ASSERT_TRUE(svc.begin_index_reload(path));
  for (int i = 0; i < 2'000 && svc.metrics().snapshot().index_reload_failures < 1; ++i)
    std::this_thread::sleep_for(5ms);
  EXPECT_EQ(svc.metrics().snapshot().index_reloads, 0u);
  EXPECT_EQ(&svc.mapper(), before);
  svc.shutdown();
  std::remove(path.c_str());
}

TEST(ServiceIndexLoad, ReloadDuringTrafficIsRaceFree) {
  // The TSan target: hammer map_sync from several client threads while
  // repeatedly hot-reloading the index. Every response must be terminal
  // and the final index must serve correctly.
  const std::string path = tmp_path("traffic") + ".mmmi";
  save_index(path, MinimizerIndex::build(sw().ref, SketchParams{15, 10}));

  ServiceConfig cfg = quick_cfg();
  cfg.workers_per_shard = 4;
  cfg.ingress_capacity = 256;
  AlignmentService svc(sw().ref, cfg);
  std::atomic<bool> stop{false};
  std::atomic<u64> served{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 3; ++t) {
    clients.emplace_back([&, t] {
      u64 id = static_cast<u64>(t) << 32;
      while (!stop.load(std::memory_order_relaxed)) {
        MapRequest req;
        req.id = id++;
        req.read = sw().reads[id % sw().reads.size()];
        const MapResponse resp = svc.map_sync(std::move(req));
        if (resp.status == RequestStatus::kOk) served.fetch_add(1);
      }
    });
  }
  u64 reload_kicks = 0;
  for (int round = 0; round < 8; ++round) {
    if (svc.begin_index_reload(path)) ++reload_kicks;
    std::this_thread::sleep_for(20ms);
  }
  // Let in-flight reloads settle before counting.
  for (int i = 0; i < 1'000 && svc.metrics().snapshot().index_reloads < reload_kicks; ++i)
    std::this_thread::sleep_for(5ms);
  stop.store(true);
  for (auto& c : clients) c.join();

  const MetricsSnapshot m = svc.metrics().snapshot();
  EXPECT_GE(m.index_reloads, 1u);
  EXPECT_EQ(m.index_reload_failures, 0u);
  EXPECT_GT(served.load(), 0u);
  MapRequest req;
  req.id = 1;
  req.read = sw().reads[0];
  EXPECT_EQ(svc.map_sync(std::move(req)).status, RequestStatus::kOk);
  svc.shutdown();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace manymap
