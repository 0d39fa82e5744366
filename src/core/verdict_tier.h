// SharedVerdictTier — the fleet-wide L2 behind every session's verdict
// cache.
//
// DARPA's §IV verdict cache amortizes perception cost within one device; at
// fleet scale the same popular screens recur across sessions, so every one
// of N sessions re-learns identical fingerprints. This tier makes the
// learning fleet-wide: a two-tier hierarchy where the per-session
// VerdictCache (core/pipeline.h) stays the unchanged, lock-free L1 and this
// striped structure is the shared L2 behind it.
//
//   probe:   L1 find -> (miss) -> L2 find -> (hit) promote into L1
//   publish: VerdictStage stores evidence-backed verdicts in L1 AND L2
//
// Concurrency: N-way sharded by fingerprint; each shard is a bounded LRU
// under its own RankedMutex at LockRank::kVerdictTier — below the
// stat-merge and frame-pool ranks, so a tier operation can never be
// entangled with a slab release or a retirement fold. All shards share one
// rank: a thread holds at most one shard lock at a time, and nothing is
// ever called out to while it is held.
//
// Poisoning guard: publish() mirrors L1's seeding rule — only verdicts
// resting on real evidence (a confident lint resolution or a usable
// capture) are admitted. A session whose screenshot failed must not poison
// the fleet with its evidence-free verdict; such publishes are counted and
// dropped.
//
// Concurrent misses are not deduplicated: two sessions that miss the same
// fingerprint at the same time both run the detector, and both publish the
// same verdict.
//
// Determinism: with no tier wired (the default), no code path changes and
// all fleet digests stay byte-identical to the tier-less build. With a
// tier, per-session *verdicts* are unchanged — fingerprints determine
// verdicts, the guard keeps unevidenced entries out — but WHO pays for a
// detect depends on cross-session timing, so tier runs trade digest
// byte-equality for verdict equivalence (SharedVerdictTierTest holds both
// contracts). Tier stats are observability and must never feed a digest.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cv/detector.h"
#include "util/lock_rank.h"
#include "util/thread_annotations.h"

namespace darpa::core {

class SharedVerdictTier {
 public:
  struct Options {
    /// Stripe count; 0 resolves to a small default (fleets pass their
    /// worker count). Clamped to >= 1.
    int shards = 0;
    /// Bounded LRU capacity per stripe; 0 disables the tier (find always
    /// misses, publish stores nothing) without unwiring it.
    std::size_t capacityPerShard = 128;
  };

  /// What one fingerprint resolves to — the same shape as the L1
  /// VerdictCache::Entry, kept independent so the tier layers under the
  /// pipeline instead of on top of it.
  struct VerdictRecord {
    bool isAui = false;
    std::vector<cv::Detection> detections;
  };

  /// What a published verdict rests on; the poisoning guard admits only
  /// evidence-backed records (kLint / kCapture), mirroring L1's seeding
  /// rule in VerdictStage.
  enum class Evidence {
    kNone,     ///< Screenshot failed and lint was unconfident — rejected.
    kLint,     ///< Confident static-lint resolution.
    kCapture,  ///< A usable capture reached the detector.
  };

  /// Aggregate counters, summed over shards at the call. Observability
  /// only: hit/miss totals depend on cross-session timing, so nothing
  /// digest-stable may consume them.
  struct Stats {
    std::int64_t hits = 0;
    std::int64_t misses = 0;
    std::int64_t publishes = 0;             ///< Admitted records.
    std::int64_t rejectedUnevidenced = 0;   ///< Poisoning-guard drops.
    std::int64_t evictions = 0;
    std::int64_t entries = 0;               ///< Live records, all shards.
  };

  SharedVerdictTier();  ///< Default Options.
  explicit SharedVerdictTier(Options options);

  [[nodiscard]] bool enabled() const { return options_.capacityPerShard > 0; }
  [[nodiscard]] int shardCount() const {
    return static_cast<int>(shards_.size());
  }
  [[nodiscard]] std::size_t capacityPerShard() const {
    return options_.capacityPerShard;
  }

  /// Copy-out lookup (the record is copied under the shard lock — a
  /// borrowed pointer could be evicted by another session the moment the
  /// lock drops). A hit refreshes recency. Counts a hit or miss.
  [[nodiscard]] std::optional<VerdictRecord> find(std::uint64_t fingerprint);

  /// Admits `record` unless the poisoning guard rejects it (Evidence::
  /// kNone). Returns whether the record was stored; re-publishing an
  /// existing fingerprint refreshes value and recency.
  bool publish(std::uint64_t fingerprint, VerdictRecord record,
               Evidence evidence);

  /// Drops every record (counters are kept; dropped records do not count
  /// as evictions).
  void clear();

  [[nodiscard]] Stats stats() const;

 private:
  using LruList = std::list<std::pair<std::uint64_t, VerdictRecord>>;

  struct Shard {
    util::RankedMutex mutex{util::LockRank::kVerdictTier,
                            "core.SharedVerdictTier.shard"};
    LruList lru GUARDED_BY(mutex);  ///< Front = most recently used.
    /// Lookup index only (find/erase/assign) — never iterated, so its
    /// unordered order cannot leak into eviction order (same contract as
    /// the L1 cache; detlint guards it).
    std::unordered_map<std::uint64_t, LruList::iterator> index
        GUARDED_BY(mutex);
    std::int64_t hits GUARDED_BY(mutex) = 0;
    std::int64_t misses GUARDED_BY(mutex) = 0;
    std::int64_t publishes GUARDED_BY(mutex) = 0;
    std::int64_t rejected GUARDED_BY(mutex) = 0;
    std::int64_t evictions GUARDED_BY(mutex) = 0;
  };

  [[nodiscard]] Shard& shardFor(std::uint64_t fingerprint);

  Options options_;
  /// Fixed after construction (RankedMutex pins each shard in place).
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace darpa::core
