#include "runtime/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <exception>
#include <limits>
#include <mutex>

namespace ppgr::runtime {

// A parallel_for invocation, owned jointly by the queue, its submitter and
// every worker that picked it. Indices are claimed with a single atomic
// fetch-add; `done` counts the claimed indices that have finished, so the
// submitter can block until none is still inside fn.
struct ThreadPool::Job {
  Job(std::size_t count, const std::function<void(std::size_t)>& fn)
      : count(count), fn(&fn) {}

  const std::size_t count;
  // Read only for claimed indices (< count), and every claimed index
  // finishes before parallel_for returns, so the caller's fn outlives
  // every read.
  const std::function<void(std::size_t)>* fn;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
  std::atomic<bool> cancelled{false};

  std::mutex err_mu;
  std::size_t err_index = std::numeric_limits<std::size_t>::max();
  std::exception_ptr err;

  [[nodiscard]] bool exhausted() const {
    return next.load(std::memory_order_relaxed) >= count;
  }
};

struct ThreadPool::State {
  std::mutex mu;
  std::condition_variable cv;       // a job arrived, or the pool stops
  std::condition_variable done_cv;  // some job's last index finished
  std::deque<std::shared_ptr<Job>> jobs;  // removed by their submitter
  bool stop = false;
};

ThreadPool::ThreadPool(std::size_t threads) : state_(std::make_unique<State>()) {
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 1;
  }
  threads_ = threads;
  // The caller participates in every parallel_for, so spawn one fewer
  // worker than the requested concurrency.
  workers_.reserve(threads_ - 1);
  for (std::size_t i = 0; i + 1 < threads_; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(state_->mu);
    state_->stop = true;
  }
  state_->cv.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock<std::mutex> lock(state_->mu);
      state_->cv.wait(lock, [&] {
        for (const auto& j : state_->jobs) {
          if (!j->exhausted()) {
            job = j;
            return true;
          }
        }
        return state_->stop;
      });
    }
    if (job == nullptr) return;
    // A job picked after its last index was claimed finds nothing left to
    // run; the copy keeps it alive until this worker drops it.
    run_job(*job);
  }
}

void ThreadPool::run_job(Job& job) {
  for (;;) {
    const std::size_t i = job.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= job.count) return;
    if (!job.cancelled.load(std::memory_order_relaxed)) {
      try {
        (*job.fn)(i);
      } catch (...) {
        {
          std::lock_guard<std::mutex> lock(job.err_mu);
          if (i < job.err_index) {
            job.err_index = i;
            job.err = std::current_exception();
          }
        }
        job.cancelled.store(true, std::memory_order_relaxed);
      }
    }
    if (job.done.fetch_add(1, std::memory_order_acq_rel) + 1 == job.count) {
      // Under mu, so a submitter between its check and its wait cannot
      // miss the wake-up.
      std::lock_guard<std::mutex> lock(state_->mu);
      state_->done_cv.notify_all();
    }
  }
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  if (workers_.empty() || count == 1) {
    // Inline engine: identical index order to the serial protocol. An
    // exception here is by construction the lowest-index one.
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }

  const auto job = std::make_shared<Job>(count, fn);
  {
    std::lock_guard<std::mutex> lock(state_->mu);
    state_->jobs.push_back(job);
  }
  state_->cv.notify_all();

  // The submitter helps until the index space is drained, then waits for
  // stragglers still inside fn on other workers.
  run_job(*job);
  {
    std::unique_lock<std::mutex> lock(state_->mu);
    state_->done_cv.wait(lock, [&] {
      return job->done.load(std::memory_order_acquire) == count;
    });
    state_->jobs.erase(
        std::find(state_->jobs.begin(), state_->jobs.end(), job));
  }
  // The exception leaves the job first: a worker may drop the job's last
  // reference, and the caller, not that worker, should free the exception
  // it is handling (libstdc++ counts exception references where TSan
  // cannot see them).
  if (std::exception_ptr err = std::move(job->err)) std::rethrow_exception(err);
}

}  // namespace ppgr::runtime
