// Process-wide cache of shared crypto precompute for the session engine.
//
// One artifact kind: the fixed-base comb table for a group's generator,
// keyed by group name and window width. Every session over the same group
// shares one, and the table is a pure function of its key, which keeps
// session outputs bit-identical whether it was built here or fetched
// (DESIGN.md §6). Nothing keyed by a session is cached: the joint-key comb
// table and every encryption of zero depend on the session's private
// randomness, so they could only ever be reused by a bit-for-bit replay of
// the same session. Each run builds or draws those itself.
//
// Bounds: one table per group, never evicted.
//
// Concurrency: every lookup is build-once — the first thread to miss builds
// outside the lock while later threads for the same key wait, so a table is
// built exactly once no matter how many sessions race for it. That makes
// engine-level hit/miss *totals* deterministic (misses == distinct groups)
// even though which session pays for the build is schedule-dependent.
#pragma once

#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "group/fixed_base.h"

namespace ppgr::engine {

class PrecomputeCache {
 public:
  struct TableResult {
    std::shared_ptr<const group::FixedBaseTable> table;
    bool built = false;  // true = this call built it (a miss)
  };

  PrecomputeCache() = default;
  PrecomputeCache(const PrecomputeCache&) = delete;
  PrecomputeCache& operator=(const PrecomputeCache&) = delete;

  /// Comb table for `base`'s generator, sized for scalars < group order.
  [[nodiscard]] TableResult generator_table(const group::Group& base);
  /// Resident table count.
  [[nodiscard]] std::size_t size() const;

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  // Build-once slots: a null value marks a table being built. Concurrent
  // lookups of a building key wait for the single builder to publish (and
  // report as hits — they did not pay for the build).
  std::map<std::string, std::shared_ptr<const group::FixedBaseTable>> tables_;
};

/// The process-wide cache the engine defaults to.
[[nodiscard]] PrecomputeCache& process_precompute_cache();

}  // namespace ppgr::engine
