// StatMergeShards — the fleet's sharded live stat-merge path.
//
// The work-stealing scheduler has no global barrier — sessions retire one
// by one, on whichever worker ran their final slice — so aggregation is an
// ownership hand-off:
// the retiring worker folds the session's totals into a shard here (under
// LockRank::kStatMerge), and readers assemble the fleet roll-up from the
// shards without ever stopping the world.
//
// Determinism note, load-bearing: WorkLedger totals include doubles, and
// floating-point addition is not associative — folding sessions in
// retirement order (a wall-clock artifact) would make the merged cpuMs
// differ in final bits between runs. Shards therefore store one folded
// entry PER SESSION, and merged() replays them in ascending session-id
// order: bit-identical to a quiescent scan of every session, for any
// worker count, any retirement order, any shard count.
//
// Locking: each shard has its own RankedMutex at kStatMerge. All shards
// share the rank, so no thread ever holds two shard locks — fold() takes
// exactly one, merged() visits shards strictly one at a time.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "core/darpa_service.h"
#include "core/work_ledger.h"
#include "util/lock_rank.h"
#include "util/thread_annotations.h"

namespace darpa::core {

class StatMergeShards {
 public:
  /// One retired session's totals, copied out of the session at fold time.
  struct SessionTotals {
    DarpaStats stats;
    WorkLedger ledger;
    std::int64_t eventsEmitted = 0;
    std::int64_t auiExposures = 0;
    std::int64_t auisCovered = 0;
  };

  /// The fleet-wide roll-up assembled from every folded session.
  struct Merged {
    DarpaStats stats;
    WorkLedger ledger;
    std::int64_t eventsEmitted = 0;
    std::int64_t auiExposures = 0;
    std::int64_t auisCovered = 0;
    int sessionsFolded = 0;
  };

  explicit StatMergeShards(int shards);
  StatMergeShards(const StatMergeShards&) = delete;
  StatMergeShards& operator=(const StatMergeShards&) = delete;

  [[nodiscard]] int shardCount() const {
    return static_cast<int>(shards_.size());
  }

  /// Folds one session's totals into shard (sessionId % shards). Called by
  /// the worker retiring the session, exactly once per session; the caller
  /// must hold no lock ranked >= kStatMerge. Thread-safe.
  void fold(int sessionId, SessionTotals totals);

  /// Assembles the roll-up: copies every shard's entries (one shard lock at
  /// a time), then merges in ascending session-id order — the exact merge
  /// order of a quiescent scan, so double summation is bit-identical to
  /// it. Thread-safe; a concurrent fold lands in the
  /// result iff its shard was copied after it.
  [[nodiscard]] Merged merged() const;

 private:
  struct Shard {
    mutable util::RankedMutex mutex{util::LockRank::kStatMerge,
                                    "core.StatMergeShards.shard"};
    /// Ordered by session id so per-shard iteration is deterministic.
    std::map<int, SessionTotals> entries GUARDED_BY(mutex);
  };

  /// Fixed after construction; Shard is immovable (RankedMutex), hence the
  /// unique_ptr indirection.
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace darpa::core
