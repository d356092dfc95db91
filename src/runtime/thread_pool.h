// Deterministic fork-join thread pool.
//
// The framework's phase-2 hot loops (bitwise encryption, the n·(n-1)
// comparison-circuit evaluations, the per-set shuffle hops) are
// embarrassingly parallel: tasks never communicate and each task's
// randomness comes from its own counter-seeded Rng stream
// (mpz::StreamFamily). The pool therefore needs no work stealing and no
// futures — just an ordered index space [0, count) fanned out over a fixed
// set of workers, with a barrier at the end of every parallel_for.
//
// Determinism contract: which worker runs an index is scheduling-dependent,
// but callers make each index self-contained (own RNG stream, own output
// slot), so the *results* are identical for any thread count — including
// the inline path. `threads <= 1` spawns no workers at all and runs every
// index on the caller; this is the default engine and the only mode safe
// for callbacks that share unsynchronized state.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

namespace ppgr::runtime {

class ThreadPool {
 public:
  /// `threads` = total concurrency: 1 caller + (threads-1) workers.
  /// 0 means std::thread::hardware_concurrency(); <= 1 means inline mode.
  explicit ThreadPool(std::size_t threads = 1);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Resolved concurrency (>= 1).
  [[nodiscard]] std::size_t threads() const { return threads_; }

  /// Runs fn(0), ..., fn(count-1), blocking until all complete. The calling
  /// thread participates, so the pool makes progress even with zero workers
  /// and reentrant calls (fn may itself call parallel_for on this pool)
  /// cannot deadlock. If tasks throw, the exception thrown by the
  /// lowest-index failing task is rethrown after the loop drains; once a
  /// task has thrown, not-yet-started indices are skipped.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& fn);

  /// Ordered map: out[i] = fn(i). Requires T default-constructible.
  template <typename F>
  auto map(std::size_t count, F&& fn) -> std::vector<decltype(fn(std::size_t{0}))> {
    std::vector<decltype(fn(std::size_t{0}))> out(count);
    parallel_for(count, [&](std::size_t i) { out[i] = fn(i); });
    return out;
  }

 private:
  struct Job;
  void worker_loop();
  void run_job(Job& job);

  std::size_t threads_ = 1;
  std::vector<std::thread> workers_;

  // Queue of live jobs (owned by the parallel_for invocations that pushed
  // them). Guarded by mu_; cv_ wakes workers when a job arrives or the pool
  // shuts down.
  struct State;
  std::unique_ptr<State> state_;
};

}  // namespace ppgr::runtime
