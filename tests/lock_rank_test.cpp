// Lock-rank validator tests: the strictly-increasing acquisition rule, its
// abort-on-violation contract (death tests), the registry's view of the
// runtime's lock population, and a W=4 fleet smoke run proving the rank
// tags on the scheduler, verdict-tier and FramePool locks hold under real
// concurrency.
#include <gtest/gtest.h>

#include "core/work_ledger.h"
#include "cv/detector.h"
#include "core/detection_executor.h"
#include "fleet/fleet.h"
#include "gfx/frame_pool.h"
#include "util/lock_rank.h"

namespace darpa::util {
namespace {

TEST(LockRankTest, IncreasingAcquisitionIsLegal) {
  RankedMutex queue(LockRank::kSessionQueue, "test.queue");
  RankedMutex pool(LockRank::kFramePool, "test.pool");
  {
    const LockGuard outer(queue);
    EXPECT_EQ(RankValidator::topRank(),
              static_cast<int>(LockRank::kSessionQueue));
    {
      const LockGuard inner(pool);  // higher rank under lower: fine
      EXPECT_EQ(RankValidator::heldCount(), 2);
      EXPECT_EQ(RankValidator::topRank(),
                static_cast<int>(LockRank::kFramePool));
    }
    EXPECT_EQ(RankValidator::heldCount(), 1);
  }
  EXPECT_EQ(RankValidator::heldCount(), 0);
  EXPECT_EQ(RankValidator::topRank(), -1);
}

TEST(LockRankTest, ReleaseRestoresLowerRanksAcquirable) {
  RankedMutex control(LockRank::kFleetControl, "test.control");
  RankedMutex pool(LockRank::kFramePool, "test.pool");
  {
    const LockGuard a(pool);  // take the leaf first...
  }
  {
    const LockGuard b(control);  // ...then, after release, a lower rank
    EXPECT_EQ(RankValidator::heldCount(), 1);
  }
}

#if DARPA_LOCK_RANK_CHECKS
TEST(LockRankDeathTest, OutOfOrderAcquisitionAborts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  RankedMutex queue(LockRank::kSessionQueue, "test.queue");
  RankedMutex pool(LockRank::kFramePool, "test.pool");
  EXPECT_DEATH(
      {
        const LockGuard outer(pool);   // leaf rank first...
        const LockGuard inner(queue);  // ...then a LOWER rank: deadlockable
      },
      "lock-rank");
}

TEST(LockRankDeathTest, SameRankReacquisitionAborts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  RankedMutex a(LockRank::kSessionQueue, "test.a");
  RankedMutex b(LockRank::kSessionQueue, "test.b");
  EXPECT_DEATH(
      {
        const LockGuard outer(a);
        const LockGuard inner(b);  // equal rank: order undefined -> abort
      },
      "lock-rank");
}
#endif  // DARPA_LOCK_RANK_CHECKS

TEST(LockRankTest, RegistryTracksLiveMutexes) {
  const int before =
      LockRankRegistry::instance().liveCount(LockRank::kSessionQueue);
  {
    RankedMutex m(LockRank::kSessionQueue, "test.registry-probe");
    EXPECT_EQ(LockRankRegistry::instance().liveCount(LockRank::kSessionQueue),
              before + 1);
    bool found = false;
    for (const auto& entry : LockRankRegistry::instance().snapshot()) {
      if (entry.rank == LockRank::kSessionQueue &&
          std::string(entry.name) == "test.registry-probe") {
        found = entry.live >= 1;
      }
    }
    EXPECT_TRUE(found);
  }
  EXPECT_EQ(LockRankRegistry::instance().liveCount(LockRank::kSessionQueue),
            before);
}

TEST(LockRankTest, RankNamesCoverTheTable) {
  EXPECT_STREQ(lockRankName(LockRank::kFleetControl), "fleet-control");
  EXPECT_STREQ(lockRankName(LockRank::kSessionQueue), "session-queue");
  EXPECT_STREQ(lockRankName(LockRank::kVerdictTier), "verdict-tier");
  EXPECT_STREQ(lockRankName(LockRank::kFramePool), "frame-pool");
}

// ------------------------------------------------- fleet rank smoke (W=4)

/// Deterministic thread-safe detector (one confident UPO per screen).
class SmokeDetector : public cv::Detector {
 public:
  std::vector<cv::Detection> detect(const gfx::Bitmap&) const override {
    return {cv::Detection{{10, 50, 60, 24}, dataset::BoxLabel::kUpo, 0.9f}};
  }
  double costMacsPerImage() const override { return 1.0e6; }
};

TEST(LockRankTest, FleetRankTagsConsistentUnderFourWorkers) {
  // A pooled, tiered fleet at W=4 exercises every ranked lock in the
  // runtime concurrently: the scheduler's control and run-queue locks,
  // verdict-tier stripes probed and published from four session workers,
  // and FramePool acquire/release from captures and §IV-E scrubs — all
  // while the rank validator is live on every thread. An ordering
  // violation anywhere would abort the run.
  SmokeDetector detector;
  core::InlineExecutor executor;
  fleet::FleetConfig config;
  config.sessions = 16;
  config.workers = 4;
  config.epoch = ms(500);
  config.duration = ms(2000);
  config.pooledFrames = true;
  config.sharedVerdictTier = true;  // shards resolve to the worker count
  fleet::Fleet fleet(detector, executor, config);

  // The runtime's lock population carries the documented ranks: the
  // scheduler's global control lock and one run-queue shard per worker,
  // one verdict-tier stripe per worker, and the shared pool's one lock at
  // the leaf kFramePool.
  auto& registry = LockRankRegistry::instance();
  EXPECT_GE(registry.liveCount(LockRank::kFleetControl), 1);
  EXPECT_GE(registry.liveCount(LockRank::kSessionQueue), 4);
  EXPECT_GE(registry.liveCount(LockRank::kVerdictTier), 4);
  EXPECT_GE(registry.liveCount(LockRank::kFramePool), 1);
  // Control nests over the run-queue shards while enqueuing; the pool is
  // the leaf, so a slab release is legal under any other lock.
  EXPECT_LT(static_cast<int>(LockRank::kFleetControl),
            static_cast<int>(LockRank::kSessionQueue));
  EXPECT_LT(static_cast<int>(LockRank::kSessionQueue),
            static_cast<int>(LockRank::kVerdictTier));
  EXPECT_GT(static_cast<int>(LockRank::kFramePool),
            static_cast<int>(LockRank::kVerdictTier));

  fleet.run();
  const fleet::FleetSnapshot snap = fleet.snapshot();
  EXPECT_GT(snap.ledger.analyses(), 0);
  EXPECT_GT(snap.framePool.acquires, 0);
  // Quiescent at the end: no thread still holds a ranked lock.
  EXPECT_EQ(RankValidator::heldCount(), 0);
}

}  // namespace
}  // namespace darpa::util
