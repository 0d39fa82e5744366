#include "core/verdict_tier.h"

namespace darpa::core {

SharedVerdictTier::SharedVerdictTier(Options options) : options_(options) {
  if (options_.shards < 1) options_.shards = 8;
  shards_.reserve(static_cast<std::size_t>(options_.shards));
  for (int i = 0; i < options_.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(options_.capacityPerShard));
  }
}

SharedVerdictTier::Shard& SharedVerdictTier::shardFor(
    std::uint64_t fingerprint) {
  // The fingerprint is already a well-mixed 64-bit hash; fold the high half
  // in so stripes stay balanced even if a producer only varies one half.
  const std::uint64_t mixed = fingerprint ^ (fingerprint >> 32);
  return *shards_[static_cast<std::size_t>(mixed % shards_.size())];
}

std::optional<Verdict> SharedVerdictTier::find(std::uint64_t fingerprint) {
  if (!enabled()) return std::nullopt;
  Shard& shard = shardFor(fingerprint);
  const util::LockGuard lock(shard.mutex);
  const Verdict* hit = shard.cache.find(fingerprint);
  if (hit == nullptr) {
    ++shard.misses;
    return std::nullopt;
  }
  ++shard.hits;
  return *hit;  // Copied out under the lock.
}

bool SharedVerdictTier::publish(std::uint64_t fingerprint, Verdict verdict,
                                Evidence evidence) {
  if (!enabled()) return false;
  Shard& shard = shardFor(fingerprint);
  const util::LockGuard lock(shard.mutex);
  if (evidence == Evidence::kNone) {
    // Poisoning guard: an evidence-free verdict (failed capture, lint
    // unconfident) is one session's transient problem, not fleet truth.
    ++shard.rejected;
    return false;
  }
  ++shard.publishes;
  shard.cache.put(fingerprint, std::move(verdict));
  return true;
}

void SharedVerdictTier::clear() {
  for (const auto& shard : shards_) {
    const util::LockGuard lock(shard->mutex);
    shard->cache.clear();
  }
}

SharedVerdictTier::Stats SharedVerdictTier::stats() const {
  Stats stats;
  for (const auto& shard : shards_) {
    const util::LockGuard lock(shard->mutex);
    stats.hits += shard->hits;
    stats.misses += shard->misses;
    stats.publishes += shard->publishes;
    stats.rejectedUnevidenced += shard->rejected;
    stats.evictions += shard->cache.evictions();
    stats.entries += static_cast<std::int64_t>(shard->cache.size());
  }
  return stats;
}

}  // namespace darpa::core
