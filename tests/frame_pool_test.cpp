// Tests for the zero-copy perception data plane: FramePool recycling,
// footprint gauges, ScreenFrame immutability against later screen
// mutations, fingerprint stability across pooled reuse, and thread safety
// of concurrent acquire/release (exercised under TSan by scripts/ci.sh).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "android/view.h"
#include "android/window_manager.h"
#include "core/screen_frame.h"
#include "gfx/frame_pool.h"

namespace darpa::gfx {
namespace {

TEST(FramePoolTest, ReusesSlabAfterRelease) {
  FramePool pool;
  {
    const Bitmap first = pool.acquire(8, 8, colors::kRed);
    EXPECT_EQ(first.source(), SlabSource::kPoolFresh);
    EXPECT_EQ(first.at(7, 7), colors::kRed);
  }  // slab parks
  const Bitmap second = pool.acquire(8, 8, colors::kBlue);
  EXPECT_EQ(second.source(), SlabSource::kPoolReused);
  // A recycled slab is refilled: contents are identical to a fresh buffer.
  EXPECT_EQ(second.at(0, 0), colors::kBlue);
  EXPECT_EQ(second.at(7, 7), colors::kBlue);

  const FramePool::Stats stats = pool.stats();
  EXPECT_EQ(stats.acquires, 2);
  EXPECT_EQ(stats.poolMisses, 1);
  EXPECT_EQ(stats.poolHits, 1);
  EXPECT_EQ(stats.releases, 1);
  EXPECT_DOUBLE_EQ(stats.hitRate(), 0.5);
}

TEST(FramePoolTest, SizeClassesShareSlabsAcrossNearbySizes) {
  FramePool pool;
  { const Bitmap a = pool.acquire(60, 60); }  // 3600 px -> 4096 class
  // 4000 px rounds to the same class, so the parked slab serves it.
  const Bitmap b = pool.acquire(50, 80);
  EXPECT_EQ(b.source(), SlabSource::kPoolReused);
  EXPECT_EQ(b.pixelCount(), 4000u);
  EXPECT_EQ(b.at(49, 79), colors::kBlack);
}

TEST(FramePoolTest, StatsTrackFootprintGauges) {
  FramePool pool;
  const std::size_t slabBytes = 4096 * sizeof(Color);
  {
    const Bitmap a = pool.acquire(64, 64);
    EXPECT_EQ(pool.stats().outstandingBytes, slabBytes);
    EXPECT_EQ(pool.stats().parkedBytes, 0u);
  }
  EXPECT_EQ(pool.stats().outstandingBytes, 0u);
  EXPECT_EQ(pool.stats().parkedBytes, slabBytes);
  EXPECT_EQ(pool.stats().highWaterBytes, slabBytes);
  const Bitmap b = pool.acquire(64, 64);
  EXPECT_EQ(pool.stats().reusedBytes,
            static_cast<std::int64_t>(b.pixelBytes()));
}

// A held ScreenFrame must not see screen mutations that happen after its
// capture — in particular DARPA's own decoration overlays, which are drawn
// while the frame may still be parked in a deferred detect batch.
TEST(FramePoolTest, FrameIsImmutableWhileDecorationIsDrawn) {
  FramePool pool;
  android::WindowManager wm;
  wm.setFramePool(&pool);
  auto content = std::make_unique<android::View>();
  content->setBackground(colors::kWhite);
  wm.showAppWindow("com.test.app", std::move(content), /*fullscreen=*/true);

  auto frame = std::make_shared<core::ScreenFrame>(wm.dumpTopWindow(),
                                                   "com.test.app");
  frame->attachPixels(wm.composite());
  const Color center = frame->pixels().at(180, 360);
  EXPECT_EQ(center, colors::kWhite);

  // Decorate the screen: a loud overlay across the middle.
  auto overlay = std::make_unique<android::View>();
  overlay->setBackground(colors::kGreen);
  android::LayoutParams params;
  params.x = 100;
  params.y = 300;
  params.width = 160;
  params.height = 120;
  wm.addOverlay(std::move(overlay), params);

  const Bitmap decorated = wm.composite();
  EXPECT_EQ(decorated.at(180, 360), colors::kGreen);
  // The held frame still shows the clean capture: the decorated composite
  // went into a different slab, not the frame's.
  EXPECT_EQ(frame->pixels().at(180, 360), colors::kWhite);
  EXPECT_NE(decorated, frame->pixels());
}

// Property: recycling buffers through the pool must never perturb what a
// pass perceives. N rounds of capture -> frame -> release produce the same
// fingerprint and the same pixels every round, even though every round
// after the first runs on a recycled slab.
TEST(FramePoolTest, FingerprintsStableAcrossPooledReuse) {
  FramePool pool;
  android::WindowManager wm;
  wm.setFramePool(&pool);
  auto content = std::make_unique<android::View>();
  content->setBackground(colors::kLightGray);
  wm.showAppWindow("com.test.app", std::move(content), /*fullscreen=*/false);

  std::uint64_t firstFp = 0;
  Bitmap firstPixels;
  constexpr int kRounds = 16;
  for (int round = 0; round < kRounds; ++round) {
    auto frame = std::make_shared<core::ScreenFrame>(wm.topWindowFingerprint(),
                                                     "com.test.app");
    frame->attachPixels(wm.composite());
    if (round == 0) {
      firstFp = frame->fingerprint();
      firstPixels = frame->pixels().clone();
      EXPECT_EQ(frame->pixels().source(), SlabSource::kPoolFresh);
    } else {
      EXPECT_EQ(frame->fingerprint(), firstFp);
      EXPECT_EQ(frame->pixels(), firstPixels);
      EXPECT_EQ(frame->pixels().source(), SlabSource::kPoolReused);
    }
  }
  const FramePool::Stats stats = pool.stats();
  EXPECT_EQ(stats.poolMisses, 1);
  EXPECT_EQ(stats.poolHits, kRounds - 1);
  // Steady state: one slab, recycled — the high water is the (size-class
  // rounded) footprint of a single frame, not kRounds frames.
  EXPECT_GE(stats.highWaterBytes, firstPixels.pixelBytes());
  EXPECT_LE(stats.highWaterBytes, 2 * firstPixels.pixelBytes());
}

// The §IV-E scrub happens on last release: dropping the final FramePtr
// returns the slab to the pool (no leak, no dangling bytes held).
TEST(FramePoolTest, FrameReleaseReturnsSlabToPool) {
  FramePool pool;
  {
    auto frame =
        std::make_shared<core::ScreenFrame>(android::UiDump{}, "test");
    auto second = frame;  // two holders, one buffer
    frame->attachPixels(pool.acquire(32, 32, colors::kRed));
    frame.reset();
    EXPECT_EQ(pool.stats().releases, 0);  // `second` still holds the frame
    second.reset();
  }
  EXPECT_EQ(pool.stats().releases, 1);
  EXPECT_EQ(pool.stats().outstandingBytes, 0u);
}

// Fleet worker threads acquire and release concurrently; TSan runs this in
// the sanitizer lane. Correctness claim: counters reconcile and nothing
// leaks once every bitmap is dropped.
TEST(FramePoolTest, ConcurrentAcquireReleaseIsSafe) {
  FramePool pool;
  constexpr int kThreads = 4;
  constexpr int kIterations = 500;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pool] {
      for (int i = 0; i < kIterations; ++i) {
        const int side = 16 + (i % 48);
        const Bitmap bmp = pool.acquire(side, side, colors::kBlack);
        ASSERT_EQ(bmp.at(side - 1, side - 1), colors::kBlack);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  const FramePool::Stats stats = pool.stats();
  EXPECT_EQ(stats.acquires, kThreads * kIterations);
  EXPECT_EQ(stats.acquires, stats.poolHits + stats.poolMisses);
  EXPECT_EQ(stats.outstandingBytes, 0u);
  EXPECT_EQ(stats.releases, stats.poolHits + stats.poolMisses);
}

}  // namespace
}  // namespace darpa::gfx
