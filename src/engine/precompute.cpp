#include "engine/precompute.h"

namespace ppgr::engine {

namespace {

// Window width of every comb table this cache builds. Part of each table's
// cache key: two engines (or a future default change) disagreeing on the
// width must never alias to the same artifact, since the tables' contents
// differ even though the exps they answer do not.
constexpr std::size_t kTableWindowBits = 4;

std::string group_key(const group::Group& base) {
  return base.name() + "|w" + std::to_string(kTableWindowBits);
}

}  // namespace

PrecomputeCache::TableResult PrecomputeCache::generator_table(
    const group::Group& base) {
  const std::string key = group_key(base);
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    auto it = tables_.find(key);
    if (it == tables_.end()) break;  // this thread builds
    if (it->second != nullptr) return TableResult{it->second, false};
    cv_.wait(lock);  // builder in flight (or just failed: re-check)
  }
  tables_.emplace(key, nullptr);
  lock.unlock();
  std::shared_ptr<const group::FixedBaseTable> table;
  try {
    table = std::make_shared<const group::FixedBaseTable>(
        base, base.generator(), base.order().bit_length(), kTableWindowBits);
  } catch (...) {
    lock.lock();
    tables_.erase(key);
    cv_.notify_all();
    throw;
  }
  lock.lock();
  tables_[key] = table;
  cv_.notify_all();
  return TableResult{std::move(table), true};
}

std::size_t PrecomputeCache::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return tables_.size();
}

PrecomputeCache& process_precompute_cache() {
  static PrecomputeCache cache;
  return cache;
}

}  // namespace ppgr::engine
