// Process-wide cache of the session engine's group instances.
//
// Every engine session runs on a group instance from this cache, one per
// GroupId, built once and never evicted. Building an instance includes its
// generator comb (the group's own exp_g table, group/fixed_base.h), so no
// session pays for it after the first lookup of its group. The comb is a
// pure function of the group, which keeps session outputs bit-identical
// whether the instance was built by this lookup or fetched (DESIGN.md §6).
// Nothing keyed by a session is cached: the joint-key comb table and every
// encryption of zero depend on the session's private randomness, so each
// run builds or draws those itself.
//
// Concurrency: every lookup is build-once — the first thread to miss builds
// outside the lock while later threads for the same id wait, so an instance
// is built exactly once no matter how many sessions race for it. That makes
// engine-level hit/miss *totals* deterministic (misses == distinct groups)
// even though which session pays for the build is schedule-dependent.
#pragma once

#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>

#include "group/group.h"

namespace ppgr::engine {

class PrecomputeCache {
 public:
  struct Lookup {
    const group::Group* group = nullptr;  // owned by the cache
    bool built = false;  // true = this call built it (a miss)
  };

  PrecomputeCache() = default;
  PrecomputeCache(const PrecomputeCache&) = delete;
  PrecomputeCache& operator=(const PrecomputeCache&) = delete;

  /// The cache's instance of group `id`, its generator comb built.
  [[nodiscard]] Lookup instance(group::GroupId id);
  /// Warms the instance of the group named base.name() (a make_group
  /// name; std::invalid_argument otherwise): instance(parse_group_id(name)).
  [[nodiscard]] Lookup generator_table(const group::Group& base);
  /// Resident instance count.
  [[nodiscard]] std::size_t size() const;

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  // Build-once slots: a null value marks an instance being built.
  // Concurrent lookups of a building id wait for the single builder to
  // publish (and report as hits — they did not pay for the build).
  std::map<group::GroupId, std::unique_ptr<const group::Group>> groups_;
};

/// The process-wide cache the engine defaults to.
[[nodiscard]] PrecomputeCache& process_precompute_cache();

}  // namespace ppgr::engine
