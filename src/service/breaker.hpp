// Circuit breaker for the alignment service's degraded mode.
//
// Worker failures (kFailed responses, watchdog takeovers) feed
// on_failure(); when `failure_threshold` failures land inside `window`
// the breaker opens and the service degrades to score-only alignment
// (no base-level CIGAR pass — the most expensive stage) until `cooldown`
// has elapsed, then closes and retries full service. Sustained failure
// keeps re-opening it. ServiceMetrics reads times_opened() and open_at()
// whenever a snapshot is taken, so the metrics never lag the breaker.
#pragma once

#include <chrono>
#include <deque>
#include <mutex>

#include "base/common.hpp"

namespace manymap {

struct BreakerConfig {
  u32 failure_threshold = 8;  ///< failures within `window` that open the breaker
  std::chrono::milliseconds window{1000};
  std::chrono::milliseconds cooldown{500};  ///< open duration before retrying
};

class CircuitBreaker {
 public:
  explicit CircuitBreaker(BreakerConfig cfg) : cfg_(cfg) {}

  void on_failure(std::chrono::steady_clock::time_point now) {
    std::lock_guard lock(mu_);
    failures_.push_back(now);
    prune(now);
    if (!open_ && failures_.size() >= cfg_.failure_threshold) {
      open_ = true;
      opened_at_ = now;
      ++times_opened_;
    }
  }

  /// True while the breaker is open (degraded mode). Closes itself once
  /// the cooldown elapses.
  bool degraded(std::chrono::steady_clock::time_point now) {
    std::lock_guard lock(mu_);
    if (open_ && now - opened_at_ >= cfg_.cooldown) {
      open_ = false;
      failures_.clear();  // a clean slate for the retry
    }
    return open_;
  }

  /// Read-only view for metrics: open and still inside its cooldown. A
  /// breaker whose cooldown has run out reads closed even before the next
  /// degraded() call resets it.
  bool open_at(std::chrono::steady_clock::time_point now) const {
    std::lock_guard lock(mu_);
    return open_ && now - opened_at_ < cfg_.cooldown;
  }

  u64 times_opened() const {
    std::lock_guard lock(mu_);
    return times_opened_;
  }

 private:
  void prune(std::chrono::steady_clock::time_point now) {
    while (!failures_.empty() && now - failures_.front() > cfg_.window)
      failures_.pop_front();
  }

  BreakerConfig cfg_;
  mutable std::mutex mu_;
  std::deque<std::chrono::steady_clock::time_point> failures_;
  bool open_ = false;
  std::chrono::steady_clock::time_point opened_at_{};
  u64 times_opened_ = 0;
};

}  // namespace manymap
