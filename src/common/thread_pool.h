// The process-wide executor behind every verify_batch (a service owns
// ONE; fleet::partitioned_fleet does). The pool owns `workers()`
// long-lived threads; `parallel_for(n, body)` runs `body(i)` for every i
// in [0, n) across the workers AND the calling thread, returning when all
// indices are done. Indices are handed out one at a time from an atomic
// counter (work stealing), so uneven per-item cost still load-balances.
//
// Threading contract:
//   - `parallel_for` may be called from any thread. One batch owns the
//     pool at a time; a call arriving meanwhile (another thread's, or one
//     nested in a body) drains its batch inline on its own thread.
//   - `body` must be safe to invoke concurrently from multiple threads
//     for distinct indices.
//   - If any invocation throws, the batch still drains (every index runs)
//     and the FIRST captured exception is rethrown on the calling thread.
//   - A pool constructed with 0 workers degrades to an inline loop on the
//     calling thread — the cheap way to make "sequential" a config value.
#ifndef DIALED_COMMON_THREAD_POOL_H
#define DIALED_COMMON_THREAD_POOL_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace dialed {

/// Saturation gauges, moved once per worker per batch (never per item).
struct executor_load {
  std::uint64_t workers = 0;       ///< pool threads
  std::uint64_t busy_workers = 0;  ///< pool threads draining a batch now
  std::uint64_t queue_depth = 0;   ///< in-flight indices not yet claimed
};

class thread_pool {
 public:
  /// `workers` = number of pool threads to spawn; `hardware_workers()` is
  /// the usual value. Note the calling thread also participates in every
  /// `parallel_for`, so total parallelism is workers + 1.
  explicit thread_pool(std::size_t workers);
  ~thread_pool();

  thread_pool(const thread_pool&) = delete;
  thread_pool& operator=(const thread_pool&) = delete;

  std::size_t workers() const { return threads_.size(); }

  /// Run body(0) .. body(n-1) across the pool; returns when all are done.
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t)>& body);

  /// parallel_for on `pool`, or inline (same contract) when it is null.
  static void run(thread_pool* pool, std::size_t n,
                  const std::function<void(std::size_t)>& body);

  executor_load load() const;  ///< lock-free; safe from any thread

  /// A sensible default worker count: hardware concurrency minus the
  /// calling thread (which parallel_for also uses), at least 1.
  static std::size_t hardware_workers();

 private:
  void worker_loop();
  void drain_batch() noexcept;

  std::vector<std::thread> threads_;

  std::atomic<bool> running_{false};  ///< a batch owns the pool

  std::mutex mu_;  ///< guards the batch descriptor and first_error_
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  bool stop_ = false;
  std::uint64_t epoch_ = 0;  ///< bumped once per batch
  const std::function<void(std::size_t)>* body_ = nullptr;
  std::exception_ptr first_error_;
  // Atomics: load() reads them mid-batch without taking mu_.
  std::atomic<std::size_t> active_{0};  ///< workers still on the batch
  std::atomic<std::size_t> n_{0};       ///< batch size
  std::atomic<std::size_t> next_{0};    ///< claim cursor
};

}  // namespace dialed

#endif  // DIALED_COMMON_THREAD_POOL_H
