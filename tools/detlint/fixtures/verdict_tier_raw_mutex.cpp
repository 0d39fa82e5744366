// Fixture: raw-mutex-in-fleet, verdict-tier scope — the shared verdict
// tier lives outside src/fleet/ (it is core code the fleet owns), but its
// shard stripes sit on the fleet's lock-rank spine at kVerdictTier, so
// the raw-mutex rule covers any path containing "verdict_tier" too. A raw
// std::mutex shard would be invisible to the rank validator, and a tier
// lock taken in the wrong order against the scheduler's or the frame
// pool's could hide there.
#include <mutex>
#include <vector>

#define GUARDED_BY(x)  // stand-in for util/thread_annotations.h
class RankedMutex;     // stand-in for util/lock_rank.h

namespace fixture {

class UnrankedTierShard {
 private:
  // Unguarded AND unranked: both file-scope rules fire on this line.
  std::mutex shardMutex_;  // expect: mutex-missing-guarded-by // expect: raw-mutex-in-fleet
  std::vector<int> entries_;
};

class AnnotatedTierShard {
 private:
  // GUARDED_BY keeps -Wthread-safety happy, but the validator still
  // cannot see the acquisitions: the tier-scope rule fires regardless.
  std::mutex lruMutex_;  // expect: raw-mutex-in-fleet
  std::vector<int> lru_ GUARDED_BY(lruMutex_);
};

class RankedTierShard {
 private:
  RankedMutex* stripe_ = nullptr;  // pointer, not a member mutex: clean
};

}  // namespace fixture
