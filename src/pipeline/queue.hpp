// Bounded MPMC queue used to connect pipeline stages.
#pragma once

#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>

#include "base/common.hpp"

namespace manymap {

template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity) : capacity_(capacity) {
    MM_REQUIRE(capacity > 0, "queue capacity must be positive");
  }

  /// Blocks while full. Returns false if the queue was closed; on failure
  /// `item` is left untouched so the caller can still resolve it (e.g. a
  /// close() racing a blocking submit must not eat the request's promise).
  bool push(T&& item) {
    std::unique_lock lock(mu_);
    not_full_.wait(lock, [&] { return items_.size() < capacity_ || closed_; });
    if (closed_) return false;
    items_.push_back(std::move(item));
    not_empty_.notify_one();
    return true;
  }

  /// Copying overload for lvalue arguments (copyable T only).
  bool push(const T& item) { return push(T(item)); }

  /// Non-blocking push for admission control: fails instead of waiting.
  /// Returns false when the queue is full or closed; on failure `item` is
  /// left untouched so the caller can respond (e.g. with REJECTED).
  bool try_push(T&& item) {
    std::lock_guard lock(mu_);
    if (closed_ || items_.size() >= capacity_) return false;
    items_.push_back(std::move(item));
    not_empty_.notify_one();
    return true;
  }

  /// Blocks while empty. Empty optional means closed-and-drained.
  std::optional<T> pop() {
    std::unique_lock lock(mu_);
    ++waiting_;
    not_empty_.wait(lock, [&] { return !items_.empty() || closed_; });
    --waiting_;
    return take_front();
  }

  /// Non-blocking pop: empty optional when nothing is queued right now.
  std::optional<T> try_pop() {
    std::lock_guard lock(mu_);
    return take_front();
  }

  /// Deadline-aware pop: waits at most `timeout`. Empty optional means
  /// either the timeout expired with the queue still empty, or
  /// closed-and-drained — disambiguate with closed() (no push can succeed
  /// after close, so closed()+nullopt implies drained for good).
  template <typename Rep, typename Period>
  std::optional<T> pop_for(std::chrono::duration<Rep, Period> timeout) {
    std::unique_lock lock(mu_);
    ++waiting_;
    not_empty_.wait_for(lock, timeout, [&] { return !items_.empty() || closed_; });
    --waiting_;
    return take_front();
  }

  /// No more pushes; consumers drain the remainder then see nullopt.
  void close() {
    std::lock_guard lock(mu_);
    closed_ = true;
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  /// Consumers blocked in pop()/pop_for() that no queued item will wake:
  /// the waiting consumers minus the items queued for them, floored at 0,
  /// and 0 once closed. Non-zero means a push now is served at once.
  std::size_t idle_consumers() const {
    std::lock_guard lock(mu_);
    if (closed_ || waiting_ <= items_.size()) return 0;
    return waiting_ - items_.size();
  }

  std::size_t size() const {
    std::lock_guard lock(mu_);
    return items_.size();
  }

  std::size_t capacity() const { return capacity_; }

  bool closed() const {
    std::lock_guard lock(mu_);
    return closed_;
  }

 private:
  /// Requires mu_ held.
  std::optional<T> take_front() {
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    not_full_.notify_one();
    return item;
  }

  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable not_empty_, not_full_;
  std::deque<T> items_;
  std::size_t waiting_ = 0;  ///< consumers inside pop()/pop_for()
  bool closed_ = false;
};

}  // namespace manymap
