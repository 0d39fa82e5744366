#include "core/verdict_cache.h"

namespace darpa::core {

const Verdict* VerdictCache::find(std::uint64_t key) {
  const auto it = index_.find(key);
  if (it == index_.end()) return nullptr;
  lru_.splice(lru_.begin(), lru_, it->second);
  return &lru_.front().second;
}

void VerdictCache::put(std::uint64_t key, Verdict verdict) {
  if (capacity_ == 0) return;
  if (const auto it = index_.find(key); it != index_.end()) {
    it->second->second = std::move(verdict);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.emplace_front(key, std::move(verdict));
  index_[key] = lru_.begin();
  while (lru_.size() > capacity_) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
    ++evictions_;
  }
}

void VerdictCache::clear() {
  lru_.clear();
  index_.clear();
}

}  // namespace darpa::core
