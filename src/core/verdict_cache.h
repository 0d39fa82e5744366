// VerdictCache — the bounded LRU of screen fingerprint -> verdict.
//
// One implementation serves both tiers of the verdict hierarchy. Each
// DarpaService owns one as its session L1, touched only by the thread
// advancing that session, so it takes no lock. Each stripe of the
// fleet-wide SharedVerdictTier (verdict_tier.h) is one too, guarded by
// the stripe's RankedMutex. The cache itself carries no synchronization:
// its owner supplies whatever the sharing needs.
#pragma once

#include <cstdint>
#include <list>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cv/detector.h"

namespace darpa::core {

/// What one screen fingerprint resolves to.
struct Verdict {
  bool isAui = false;
  std::vector<cv::Detection> detections;
};

/// find() refreshes recency; put() evicts the least recently used entry
/// beyond capacity. Capacity 0 stores nothing and counts nothing.
class VerdictCache {
 public:
  explicit VerdictCache(std::size_t capacity) : capacity_(capacity) {}

  [[nodiscard]] bool enabled() const { return capacity_ > 0; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::size_t size() const { return lru_.size(); }
  [[nodiscard]] std::int64_t evictions() const { return evictions_; }

  /// Cached verdict for `key`, refreshed to most-recently-used; nullptr on
  /// miss. The pointer is valid until the next put()/clear().
  [[nodiscard]] const Verdict* find(std::uint64_t key);
  /// Stores `verdict`; re-putting a resident key refreshes value and
  /// recency in place.
  void put(std::uint64_t key, Verdict verdict);
  /// Drops every entry. Dropped entries do not count as evictions.
  void clear();

 private:
  using LruList = std::list<std::pair<std::uint64_t, Verdict>>;
  std::size_t capacity_;
  LruList lru_;  ///< Front = most recently used.
  /// Lookup index only (find/erase/assign) — never iterated, so its
  /// unordered order cannot leak into eviction order (the LRU list is the
  /// only ordering authority; detlint guards the no-iteration contract).
  std::unordered_map<std::uint64_t, LruList::iterator> index_;
  std::int64_t evictions_ = 0;
};

}  // namespace darpa::core
