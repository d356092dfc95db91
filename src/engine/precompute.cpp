#include "engine/precompute.h"

#include "runtime/metrics.h"

namespace ppgr::engine {

PrecomputeCache::Lookup PrecomputeCache::instance(group::GroupId id) {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    auto it = groups_.find(id);
    if (it == groups_.end()) break;  // this thread builds
    if (it->second != nullptr) return Lookup{it->second.get(), false};
    cv_.wait(lock);  // builder in flight (or just failed: re-check)
  }
  groups_.emplace(id, nullptr);
  lock.unlock();
  std::unique_ptr<const group::Group> built;
  try {
    // Muted: the build's exp_g warm-up is set-up, not a protocol operation,
    // whatever sink the calling thread has installed.
    const runtime::MetricsMute mute;
    built = group::make_group(id);
    (void)built->exp_g(mpz::Nat{1});
  } catch (...) {
    lock.lock();
    groups_.erase(id);
    cv_.notify_all();
    throw;
  }
  const group::Group* g = built.get();
  lock.lock();
  groups_[id] = std::move(built);
  cv_.notify_all();
  return Lookup{g, true};
}

PrecomputeCache::Lookup PrecomputeCache::generator_table(
    const group::Group& base) {
  return instance(group::parse_group_id(base.name()));
}

std::size_t PrecomputeCache::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return groups_.size();
}

PrecomputeCache& process_precompute_cache() {
  static PrecomputeCache cache;
  return cache;
}

}  // namespace ppgr::engine
