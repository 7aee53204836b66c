#include "pw/util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>

namespace pw::util {

namespace {

std::atomic<std::uint64_t> g_workers_started{0};

}  // namespace

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool(0);
  return pool;
}

std::uint64_t ThreadPool::workers_started() noexcept {
  return g_workers_started.load(std::memory_order_relaxed);
}

void wait_all(std::vector<std::future<void>>& futures) {
  std::exception_ptr first;
  for (std::future<void>& future : futures) {
    try {
      future.get();
    } catch (...) {
      if (!first) {
        first = std::current_exception();
      }
    }
  }
  if (first) {
    std::rethrow_exception(first);
  }
}

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  queues_.resize(threads);
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
    g_workers_started.fetch_add(1, std::memory_order_relaxed);
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) {
    worker.join();
  }
}

std::future<void> ThreadPool::submit(std::function<void()> task) {
  std::size_t target;
  {
    std::lock_guard lock(mutex_);
    target = next_;
    next_ = (next_ + 1) % queues_.size();
  }
  return submit_on(target, std::move(task));
}

std::future<void> ThreadPool::submit_on(std::size_t worker,
                                        std::function<void()> task) {
  std::packaged_task<void()> packaged(std::move(task));
  auto future = packaged.get_future();
  {
    std::lock_guard lock(mutex_);
    queues_[worker % queues_.size()].push_back(std::move(packaged));
    ++queued_;
  }
  cv_.notify_one();
  return future;
}

void ThreadPool::wait_idle() {
  std::unique_lock lock(mutex_);
  idle_cv_.wait(lock, [this] { return queued_ == 0 && active_ == 0; });
}

ThreadPool::Stats ThreadPool::stats() const {
  std::lock_guard lock(mutex_);
  return Stats{executed_, stolen_};
}

bool ThreadPool::take_task(std::size_t self,
                           std::packaged_task<void()>& out) {
  auto& own = queues_[self];
  if (!own.empty()) {
    out = std::move(own.front());
    own.pop_front();
    return true;
  }
  // Steal from the back of the most loaded sibling — the task least likely
  // to be hot in that worker's cache.
  std::size_t victim = self;
  std::size_t victim_depth = 0;
  for (std::size_t i = 0; i < queues_.size(); ++i) {
    if (i != self && queues_[i].size() > victim_depth) {
      victim = i;
      victim_depth = queues_[i].size();
    }
  }
  if (victim_depth == 0) {
    return false;
  }
  out = std::move(queues_[victim].back());
  queues_[victim].pop_back();
  ++stolen_;
  return true;
}

void ThreadPool::worker_loop(std::size_t self) {
  for (;;) {
    std::packaged_task<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || queued_ > 0; });
      if (stop_ && queued_ == 0) {
        return;
      }
      if (!take_task(self, task)) {
        continue;
      }
      --queued_;
      ++active_;
    }
    task();
    {
      std::lock_guard lock(mutex_);
      --active_;
      ++executed_;
      if (queued_ == 0 && active_ == 0) {
        idle_cv_.notify_all();
      }
    }
  }
}

}  // namespace pw::util
