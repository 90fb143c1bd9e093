#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <thread>
#include <algorithm>

#include "base/random.hpp"
#include "pipeline/affinity.hpp"
#include "pipeline/batch.hpp"
#include "pipeline/pipeline.hpp"
#include "pipeline/queue.hpp"

namespace manymap {
namespace {

std::vector<Sequence> make_reads(u32 n, u32 base_len = 10) {
  std::vector<Sequence> reads;
  for (u32 i = 0; i < n; ++i) {
    Sequence s;
    s.name = "r" + std::to_string(i);
    s.codes.assign(base_len + (i % 7) * 3, static_cast<u8>(i % 4));
    reads.push_back(std::move(s));
  }
  return reads;
}

TEST(Batch, SplitsByBases) {
  auto batches = make_batches(make_reads(10, 100), 250);
  EXPECT_GT(batches.size(), 1u);
  u64 total = 0;
  for (std::size_t i = 0; i < batches.size(); ++i) {
    EXPECT_EQ(batches[i].id, i);
    total += batches[i].reads.size();
    if (i + 1 < batches.size()) {
      EXPECT_LE(batches[i].total_bases(), 250u + 118u);
    }
  }
  EXPECT_EQ(total, 10u);
}

TEST(Batch, SingleOversizeReadStillBatched) {
  std::vector<Sequence> reads;
  Sequence big;
  big.name = "big";
  big.codes.assign(10'000, 0);
  reads.push_back(big);
  const auto batches = make_batches(std::move(reads), 100);
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0].reads.size(), 1u);
}

TEST(Batch, SortLongestFirst) {
  ReadBatch b;
  b.reads = make_reads(9, 10);
  sort_longest_first(b);
  for (std::size_t i = 1; i < b.reads.size(); ++i)
    EXPECT_GE(b.reads[i - 1].size(), b.reads[i].size());
}

TEST(Batch, VectorSourceDrains) {
  auto src = vector_source(make_batches(make_reads(5), 1'000'000));
  EXPECT_TRUE(src().has_value());
  EXPECT_FALSE(src().has_value());
}

TEST(Queue, FifoSingleThread) {
  BoundedQueue<int> q(4);
  EXPECT_TRUE(q.push(1));
  EXPECT_TRUE(q.push(2));
  EXPECT_EQ(q.pop(), 1);
  EXPECT_EQ(q.pop(), 2);
  q.close();
  EXPECT_FALSE(q.pop().has_value());
}

TEST(Queue, CloseUnblocksConsumer) {
  BoundedQueue<int> q(2);
  std::thread consumer([&] {
    const auto v = q.pop();
    EXPECT_FALSE(v.has_value());
  });
  q.close();
  consumer.join();
}

TEST(Queue, TryPushFailsWhenFullOrClosed) {
  BoundedQueue<int> q(2);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  int lost = 3;
  EXPECT_FALSE(q.try_push(std::move(lost)));  // full: no blocking
  EXPECT_EQ(lost, 3);                         // item untouched on failure
  EXPECT_EQ(q.pop(), 1);
  EXPECT_TRUE(q.try_push(3));
  q.close();
  EXPECT_FALSE(q.try_push(4));
  EXPECT_TRUE(q.closed());
  // close() drains the remainder before nullopt, as with blocking push.
  EXPECT_EQ(q.pop(), 2);
  EXPECT_EQ(q.pop(), 3);
  EXPECT_FALSE(q.pop().has_value());
}

TEST(Queue, PushOnClosedLeavesItemIntact) {
  BoundedQueue<std::unique_ptr<int>> q(1);  // move-only element type
  q.close();
  auto item = std::make_unique<int>(7);
  EXPECT_FALSE(q.push(std::move(item)));
  // The failed push must not consume the item: callers (e.g. service
  // admission racing shutdown) still need it to build a rejection.
  ASSERT_TRUE(item);
  EXPECT_EQ(*item, 7);
}

TEST(Queue, PopForTimesOutThenSucceeds) {
  BoundedQueue<int> q(2);
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(q.pop_for(std::chrono::milliseconds(20)).has_value());
  EXPECT_GE(std::chrono::steady_clock::now() - t0, std::chrono::milliseconds(19));
  EXPECT_FALSE(q.closed());  // nullopt came from the timeout, not close()
  q.push(7);
  EXPECT_EQ(q.pop_for(std::chrono::seconds(5)), 7);
}

TEST(Queue, PopForUnblocksOnCloseAndOnPush) {
  BoundedQueue<int> q(2);
  std::thread waiter([&] {
    EXPECT_EQ(q.pop_for(std::chrono::seconds(30)), 9);   // woken by push
    EXPECT_FALSE(q.pop_for(std::chrono::seconds(30)));   // woken by close
    EXPECT_TRUE(q.closed());
  });
  q.push(9);
  q.close();
  waiter.join();
}

TEST(Queue, TryPopNeverBlocks) {
  BoundedQueue<int> q(2);
  EXPECT_FALSE(q.try_pop().has_value());
  q.push(3);
  EXPECT_EQ(q.try_pop(), 3);
  q.push(4);
  q.close();
  EXPECT_EQ(q.try_pop(), 4);  // close() still drains
  EXPECT_FALSE(q.try_pop().has_value());
}

TEST(Queue, IdleConsumersCountsUnservedWaiters) {
  BoundedQueue<int> q(4);
  EXPECT_EQ(q.idle_consumers(), 0u);  // nobody waiting
  std::thread taker([&] { EXPECT_EQ(q.pop(), 1); });  // one item, then leaves
  while (q.idle_consumers() == 0) std::this_thread::yield();
  EXPECT_EQ(q.idle_consumers(), 1u);  // blocked in pop()
  q.push(1);
  // Whether or not the taker has woken yet, the item is its: not idle.
  EXPECT_EQ(q.idle_consumers(), 0u);
  taker.join();
  std::thread waiter([&] { EXPECT_FALSE(q.pop().has_value()); });  // woken by close
  while (q.idle_consumers() == 0) std::this_thread::yield();
  q.close();
  EXPECT_EQ(q.idle_consumers(), 0u);
  waiter.join();
}

TEST(Queue, ProducerConsumerStress) {
  BoundedQueue<int> q(3);
  constexpr int kN = 2000;
  std::atomic<long long> sum{0};
  std::thread producer([&] {
    for (int i = 1; i <= kN; ++i) q.push(i);
    q.close();
  });
  std::thread consumer([&] {
    for (;;) {
      const auto v = q.pop();
      if (!v) return;
      sum += *v;
    }
  });
  producer.join();
  consumer.join();
  EXPECT_EQ(sum, static_cast<long long>(kN) * (kN + 1) / 2);
}

TEST(Affinity, CompactPacksCores) {
  const AffinityConfig cfg{64, 4};
  EXPECT_EQ(assign_core(AffinityStrategy::kCompact, 0, cfg), 0u);
  EXPECT_EQ(assign_core(AffinityStrategy::kCompact, 3, cfg), 0u);
  EXPECT_EQ(assign_core(AffinityStrategy::kCompact, 4, cfg), 1u);
  EXPECT_EQ(cores_used(AffinityStrategy::kCompact, 16, cfg), 4u);
  EXPECT_EQ(max_threads_per_core(AffinityStrategy::kCompact, 16, cfg), 4u);
}

TEST(Affinity, ScatterSpreadsCores) {
  const AffinityConfig cfg{64, 4};
  EXPECT_EQ(assign_core(AffinityStrategy::kScatter, 0, cfg), 0u);
  EXPECT_EQ(assign_core(AffinityStrategy::kScatter, 1, cfg), 1u);
  EXPECT_EQ(assign_core(AffinityStrategy::kScatter, 64, cfg), 0u);
  EXPECT_EQ(cores_used(AffinityStrategy::kScatter, 16, cfg), 16u);
  EXPECT_EQ(max_threads_per_core(AffinityStrategy::kScatter, 16, cfg), 1u);
}

TEST(Affinity, OptimizedReservesIoCore) {
  const AffinityConfig cfg{64, 4};
  // Compute threads never land on the reserved last core.
  for (u32 t = 0; t < 256; ++t)
    EXPECT_NE(assign_core(AffinityStrategy::kOptimized, t, cfg), 63u);
  EXPECT_EQ(io_core(AffinityStrategy::kOptimized, cfg), 63u);
  EXPECT_EQ(cores_used(AffinityStrategy::kOptimized, 63, cfg), 63u);
  // Same spread as scatter below the reserved core.
  EXPECT_EQ(assign_core(AffinityStrategy::kOptimized, 5, cfg),
            assign_core(AffinityStrategy::kScatter, 5, cfg));
}

TEST(Affinity, OptimizedEqualsScatterWhenFewThreads) {
  // Paper §5.3.2: for thread counts <= cores-1 scatter and optimized give
  // the same assignment.
  const AffinityConfig cfg{64, 4};
  for (u32 t = 0; t < 63; ++t)
    EXPECT_EQ(assign_core(AffinityStrategy::kOptimized, t, cfg),
              assign_core(AffinityStrategy::kScatter, t, cfg));
}

TEST(Affinity, SingleCoreDegenerate) {
  const AffinityConfig cfg{1, 4};
  EXPECT_EQ(assign_core(AffinityStrategy::kOptimized, 7, cfg), 0u);
  EXPECT_EQ(io_core(AffinityStrategy::kOptimized, cfg), 0u);
}

TEST(Schedule, MakespanSingleWorkerIsSum) {
  EXPECT_DOUBLE_EQ(list_schedule_makespan({1.0, 2.0, 3.0}, 1), 6.0);
}

TEST(Schedule, MakespanPerfectSplit) {
  EXPECT_DOUBLE_EQ(list_schedule_makespan({2.0, 2.0, 2.0, 2.0}, 4), 2.0);
  EXPECT_DOUBLE_EQ(list_schedule_makespan({2.0, 2.0, 2.0, 2.0}, 2), 4.0);
}

TEST(Schedule, LongestFirstAlmostAlwaysHelps) {
  // LPT (longest first) has a 4/3-OPT guarantee vs 2-OPT for arbitrary
  // orders; it is not pointwise dominant, but on random instances it must
  // win or tie the overwhelming majority of the time and never lose badly
  // — the §4.4.4 sorting argument.
  Rng rng(404);
  int wins = 0, total = 0;
  for (int it = 0; it < 20; ++it) {
    std::vector<double> costs(50);
    for (auto& c : costs) c = rng.uniform01() * rng.uniform01() * 10;
    auto sorted = costs;
    std::sort(sorted.rbegin(), sorted.rend());
    for (const u32 workers : {2u, 5u, 13u}) {
      const double lpt = list_schedule_makespan(sorted, workers);
      const double arbitrary = list_schedule_makespan(costs, workers);
      EXPECT_LE(lpt, arbitrary * 1.34);  // never worse than the LPT bound
      wins += lpt <= arbitrary + 1e-12;
      ++total;
    }
  }
  EXPECT_GE(wins * 10, total * 8);  // >=80% wins-or-ties
}

TEST(Schedule, StragglerExample) {
  // One huge read arriving last idles every other worker: sorting fixes it.
  std::vector<double> costs(16, 1.0);
  costs.push_back(16.0);  // the straggler, at the END
  const double unsorted = list_schedule_makespan(costs, 16);
  auto sorted = costs;
  std::sort(sorted.rbegin(), sorted.rend());
  const double lpt = list_schedule_makespan(sorted, 16);
  EXPECT_DOUBLE_EQ(unsorted, 17.0);
  EXPECT_DOUBLE_EQ(lpt, 16.0);
}

TEST(Affinity, PinCurrentThreadSmoke) {
  // Pinning to CPU 0 should succeed on any Linux host; the call must not
  // crash for out-of-range cores either (it wraps into the valid set).
  EXPECT_TRUE(pin_current_thread(0));
  (void)pin_current_thread(100'000);
}

class PipelineBothKinds : public ::testing::TestWithParam<bool> {};

TEST_P(PipelineBothKinds, ProcessesAllReadsInOrder) {
  const bool manymap_kind = GetParam();
  auto batches = make_batches(make_reads(23, 50), 300);
  const std::size_t n_batches = batches.size();
  auto src = vector_source(std::move(batches));
  ComputeFn compute = [](const Sequence& s) { return s.name + ":" + std::to_string(s.size()); };
  std::vector<u64> delivered_ids;
  u64 lines = 0;
  OutputSink sink = [&](u64 id, const std::vector<std::string>& out) {
    delivered_ids.push_back(id);
    lines += out.size();
    for (const auto& l : out) EXPECT_FALSE(l.empty());
  };
  PipelineOptions opt;
  opt.compute_threads = 3;
  opt.sort_longest_first = manymap_kind;
  const auto stats = manymap_kind ? run_manymap_pipeline(src, compute, sink, opt)
                                  : run_minimap2_pipeline(src, compute, sink, opt);
  EXPECT_EQ(stats.reads, 23u);
  EXPECT_EQ(stats.batches, n_batches);
  EXPECT_EQ(lines, 23u);
  // Batches delivered in id order regardless of completion order.
  for (std::size_t i = 0; i < delivered_ids.size(); ++i) EXPECT_EQ(delivered_ids[i], i);
}

TEST_P(PipelineBothKinds, EmptyInput) {
  const bool manymap_kind = GetParam();
  auto src = vector_source({});
  ComputeFn compute = [](const Sequence&) { return std::string("x"); };
  OutputSink sink = [](u64, const std::vector<std::string>&) { FAIL(); };
  PipelineOptions opt;
  const auto stats = manymap_kind ? run_manymap_pipeline(src, compute, sink, opt)
                                  : run_minimap2_pipeline(src, compute, sink, opt);
  EXPECT_EQ(stats.reads, 0u);
}

INSTANTIATE_TEST_SUITE_P(Kinds, PipelineBothKinds, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? std::string("manymap") : std::string("minimap2");
                         });

}  // namespace
}  // namespace manymap
