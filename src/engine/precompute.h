// Process-wide cache of shared crypto precompute for the session engine.
//
// Three artifact kinds, from cheapest-to-share to most session-specific:
//
//   generator tables — fixed-base comb tables for a group's generator,
//     keyed by group name. Every session over the same group shares one.
//   joint-key tables — comb tables for a session's joint ElGamal public
//     key, keyed by (group, serialized key). The joint key is a function of
//     the session's private randomness, so within one engine every session
//     misses once; an exact replay of the same request under the same
//     engine seed (the warm pass of bench/engine_throughput) hits.
//   zero pools — counter-seeded pools of encryptions of zero under a joint
//     key (crypto::make_zero_pool), keyed by (group, key, pool key, count).
//     Entry i is a pure function of the key material, never of the
//     schedule, which is what keeps session outputs bit-identical whether
//     the pool was built here or fetched.
//
// Sharing model (documented in DESIGN.md §6): generator tables amortize
// across *all* sessions of a group; key tables and zero pools only ever
// coincide between bit-for-bit replays of the same session, because their
// cache keys contain the joint key (and the pool key derived from the
// engine seed + session id). A pool is therefore never shared between two
// protocol runs that an adversary could distinguish — reuse means literal
// replay.
//
// Bounds: generator tables (one per group) are never evicted. Key tables
// and zero pools are per session, so each of those two shelves keeps only
// the kSessionShelfCap most recently built artifacts and evicts the oldest
// first; otherwise every completed session would stay resident for the
// life of the process. A session holding an evicted artifact keeps it alive
// through its shared_ptr.
//
// Concurrency: every lookup is build-once — the first thread to miss builds
// outside the lock while later threads for the same key wait, so a resident
// key is built exactly once no matter how many sessions race for it. That
// makes engine-level hit/miss *totals* deterministic (misses == distinct
// keys) even though which session pays for a shared build is
// schedule-dependent, as long as a replay finds its artifacts resident:
// replaying more than kSessionShelfCap sessions rebuilds the evicted ones,
// and those rebuilds count as misses.
#pragma once

#include <array>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "crypto/elgamal.h"
#include "group/fixed_base.h"

namespace ppgr::engine {

class PrecomputeCache {
 public:
  /// Per-shelf cap on joint-key tables and on zero pools (oldest evicted
  /// first). Generator tables are uncapped.
  static constexpr std::size_t kSessionShelfCap = 64;

  struct TableResult {
    std::shared_ptr<const group::FixedBaseTable> table;
    bool built = false;  // true = this call built it (a miss)
  };
  struct PoolResult {
    std::shared_ptr<const crypto::ZeroPool> pool;
    bool built = false;
  };

  PrecomputeCache() = default;
  PrecomputeCache(const PrecomputeCache&) = delete;
  PrecomputeCache& operator=(const PrecomputeCache&) = delete;

  /// Comb table for `base`'s generator, sized for scalars < group order.
  [[nodiscard]] TableResult generator_table(const group::Group& base);
  /// Comb table for an arbitrary fixed base (the joint ElGamal key).
  [[nodiscard]] TableResult key_table(const group::Group& base,
                                      const group::Elem& key);
  /// Counter-seeded zero-encryption pool under `key`. The tables (either
  /// may be null) accelerate a cold build; they do not enter the cache key,
  /// because the pool's *values* are independent of how they're computed.
  [[nodiscard]] PoolResult zero_pool(
      const group::Group& base, const group::Elem& key,
      std::shared_ptr<const group::FixedBaseTable> gen_table,
      std::shared_ptr<const group::FixedBaseTable> key_table,
      const std::array<std::uint8_t, 32>& pool_key, std::size_t count);

  /// Resident artifact count (all three kinds).
  [[nodiscard]] std::size_t size() const;
  /// Drops everything. Callers must quiesce engines first; concurrent
  /// lookups during a clear see a coherent (empty-or-rebuilt) cache but a
  /// build may be repeated.
  void clear();

 private:
  // Build-once slot map: get() returns {value, built}; concurrent getters
  // of a missing key block until the single builder publishes (they report
  // as hits — they did not pay for the build). With a nonzero cap, the
  // oldest published slot is evicted once more than `cap` are resident.
  template <typename T>
  class Shelf {
   public:
    explicit Shelf(std::size_t cap = 0) : cap_(cap) {}

    std::pair<std::shared_ptr<const T>, bool> get(
        const std::string& key, const std::function<T()>& build) {
      std::unique_lock<std::mutex> lock(mu_);
      for (;;) {
        auto it = slots_.find(key);
        if (it == slots_.end()) break;  // this thread builds
        if (it->second != nullptr) return {it->second, false};
        cv_.wait(lock);  // builder in flight (or just failed: re-check)
      }
      slots_.emplace(key, nullptr);  // reserve: null marks "building"
      lock.unlock();
      std::shared_ptr<const T> value;
      try {
        value = std::make_shared<const T>(build());
      } catch (...) {
        lock.lock();
        slots_.erase(key);
        cv_.notify_all();
        throw;
      }
      lock.lock();
      slots_[key] = value;
      if (cap_ != 0) {
        published_.push_back(key);
        for (; published_.size() > cap_; published_.pop_front())
          slots_.erase(published_.front());
      }
      cv_.notify_all();
      return {value, true};
    }
    [[nodiscard]] std::size_t size() const {
      const std::lock_guard<std::mutex> lock(mu_);
      return slots_.size();
    }
    void clear() {
      const std::lock_guard<std::mutex> lock(mu_);
      // Keep slots still being built; dropping a "building" marker would
      // let a second builder race the first one's publish.
      for (auto it = slots_.begin(); it != slots_.end();)
        it = it->second != nullptr ? slots_.erase(it) : std::next(it);
      published_.clear();
    }

   private:
    const std::size_t cap_;  // 0 = unbounded
    mutable std::mutex mu_;
    std::condition_variable cv_;
    std::map<std::string, std::shared_ptr<const T>> slots_;
    std::deque<std::string> published_;  // publish order, when capped
  };

  Shelf<group::FixedBaseTable> generator_tables_;
  Shelf<group::FixedBaseTable> key_tables_{kSessionShelfCap};
  Shelf<crypto::ZeroPool> zero_pools_{kSessionShelfCap};
};

/// The process-wide cache the engine defaults to.
[[nodiscard]] PrecomputeCache& process_precompute_cache();

}  // namespace ppgr::engine
