#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace pw::util {

/// Fixed-size worker pool with per-worker task deques and work stealing.
///
/// One process-wide instance, shared(), runs every threaded engine pass
/// (stencil::Engine::kThreaded and kMultiInstance, advection's
/// cpu_baseline); the serve layer builds its own per-backend worker pools.
/// Tasks are arbitrary `void()` callables; submit() returns a future that
/// becomes ready when the task completes (exceptions propagate through it).
/// A task must not wait on work queued to its own pool: with every worker
/// waiting, nothing is left to run what they wait for.
///
/// Scheduling: submit() places tasks round-robin across worker deques;
/// submit_on() pins a task to one worker (batch affinity — consecutive
/// same-shape batches reuse a warm worker). Each worker drains its own
/// deque front-first and, when empty, steals from the back of the most
/// loaded sibling. Coordination is a single mutex — deterministic and
/// sanitizer-friendly rather than lock-free; the tasks this pool runs are
/// orders of magnitude longer than the handoff.
///
/// Workers are started in the constructor and inherit the CPU affinity of
/// the thread that constructs the pool; for shared(), that is the thread
/// that first uses it.
class ThreadPool {
public:
  /// Creates `threads` workers; 0 means std::thread::hardware_concurrency().
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const noexcept { return workers_.size(); }

  /// The process-wide engine pool: hardware_concurrency() workers, built
  /// on first use and joined at exit. Threaded passes hand it their
  /// X-ranges, so a warm process starts no thread per pass or per solve.
  static ThreadPool& shared();

  /// Workers started by every pool of this process so far. Tests read it
  /// to show that warm solves start no thread.
  static std::uint64_t workers_started() noexcept;

  /// Enqueues a task for execution on some worker (round-robin placement,
  /// any idle worker may steal it).
  std::future<void> submit(std::function<void()> task);

  /// Enqueues a task on worker `worker % size()`'s own deque. The pinned
  /// worker prefers it, but a starving sibling may still steal it — the
  /// hint trades locality, never progress.
  std::future<void> submit_on(std::size_t worker, std::function<void()> task);

  /// Blocks until every task submitted so far has finished.
  void wait_idle();

  /// Scheduling counters (cumulative since construction).
  struct Stats {
    std::uint64_t executed = 0;  ///< tasks run to completion
    std::uint64_t stolen = 0;    ///< tasks taken from another worker's deque
  };
  Stats stats() const;

private:
  void worker_loop(std::size_t self);
  /// Pops the next task for worker `self` (own front, else steal from the
  /// most loaded sibling's back). Caller must hold mutex_; returns false
  /// when every deque is empty.
  bool take_task(std::size_t self, std::packaged_task<void()>& out);

  std::vector<std::thread> workers_;
  std::vector<std::deque<std::packaged_task<void()>>> queues_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::condition_variable idle_cv_;
  std::size_t queued_ = 0;
  std::size_t active_ = 0;
  std::size_t next_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t stolen_ = 0;
  bool stop_ = false;
};

/// Waits for every future, then rethrows the first exception any of them
/// carried: tasks that read the caller's stack must all have finished
/// before the caller unwinds.
void wait_all(std::vector<std::future<void>>& futures);

}  // namespace pw::util
