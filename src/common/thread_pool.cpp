#include "common/thread_pool.h"

#include <utility>

namespace dialed {

thread_pool::thread_pool(std::size_t workers) {
  threads_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

thread_pool::~thread_pool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : threads_) t.join();
}

std::size_t thread_pool::hardware_workers() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 1 ? hw - 1 : 1;
}

executor_load thread_pool::load() const {
  executor_load l;
  l.workers = threads_.size();
  l.busy_workers = active_.load(std::memory_order_relaxed);
  const std::size_t n = n_.load(std::memory_order_relaxed);
  const std::size_t next = next_.load(std::memory_order_relaxed);
  l.queue_depth = next < n ? n - next : 0;
  return l;
}

void thread_pool::drain_batch() noexcept {
  // n_ and body_ are stable for the whole batch: written under mu_ before
  // the epoch bump, read by threads that synchronized on it or wrote them.
  const std::size_t n = n_.load(std::memory_order_relaxed);
  for (std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
       i < n; i = next_.fetch_add(1, std::memory_order_relaxed)) {
    try {
      (*body_)(i);
    } catch (...) {
      std::lock_guard<std::mutex> lk(mu_);
      if (!first_error_) first_error_ = std::current_exception();
    }
  }
}

void thread_pool::worker_loop() {
  std::uint64_t seen = 0;
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    work_cv_.wait(lk, [&] { return stop_ || epoch_ != seen; });
    if (stop_) return;
    seen = epoch_;
    lk.unlock();
    drain_batch();
    lk.lock();
    if (--active_ == 0) done_cv_.notify_all();
  }
}

void thread_pool::run(thread_pool* pool, std::size_t n,
                      const std::function<void(std::size_t)>& body) {
  if (pool != nullptr) return pool->parallel_for(n, body);
  // Same exception contract as the pooled path: drain every index,
  // rethrow the first failure afterwards.
  std::exception_ptr first;
  for (std::size_t i = 0; i < n; ++i) {
    try {
      body(i);
    } catch (...) {
      if (!first) first = std::current_exception();
    }
  }
  if (first) std::rethrow_exception(first);
}

void thread_pool::parallel_for(
    std::size_t n, const std::function<void(std::size_t)>& body) {
  if (threads_.empty() || n <= 1 ||
      running_.exchange(true, std::memory_order_acquire)) {
    // No workers, nothing to share, or the pool is busy with another
    // batch (maybe this thread's own, one frame up): drain here, not wait.
    return run(nullptr, n, body);
  }
  {
    std::lock_guard<std::mutex> lk(mu_);
    body_ = &body;
    n_.store(n, std::memory_order_relaxed);
    next_.store(0, std::memory_order_relaxed);
    first_error_ = nullptr;
    active_.store(threads_.size(), std::memory_order_relaxed);
    ++epoch_;
  }
  work_cv_.notify_all();
  drain_batch();  // the calling thread is a worker too
  {
    std::unique_lock<std::mutex> lk(mu_);
    done_cv_.wait(lk, [&] { return active_ == 0; });
    body_ = nullptr;
  }
  const std::exception_ptr e = std::exchange(first_error_, nullptr);
  running_.store(false, std::memory_order_release);
  if (e) std::rethrow_exception(e);
}

}  // namespace dialed
