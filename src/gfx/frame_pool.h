// FramePool — slab recycling for screenshot-sized pixel buffers.
//
// The fleet's perception path allocates one full-screen bitmap per
// stabilized screen per session; at 64+ sessions that is megabytes of heap
// churn per simulated second for buffers with identical size and a
// lifetime of exactly one analysis pass. The pool turns that steady state
// allocation-free: released slabs park in size-class free lists (vector
// capacity retained), and acquire() re-fills a recycled slab instead of
// touching the heap.
//
// The pool is unbounded: every released slab parks, so its footprint is
// the high water of concurrently held frames (one or two per session).
// Pixel contents are identical whether a slab is fresh or recycled (every
// acquire fills the buffer), which is what keeps fig8/Table III/Table VII
// outputs byte-identical with pooling on or off.
//
// Thread safety: acquire() and slab release may run concurrently from
// fleet worker threads; all state is guarded by one RankedMutex at
// LockRank::kFramePool — the leaf rank, because slab release runs from
// arbitrary call depth (any last FramePtr drop) and must stay acquirable
// under every other runtime lock. The GUARDED_BY annotations below are
// enforced by the -Wthread-safety CI lane. The pool must outlive every
// bitmap it produced (the Fleet declares its pool before its sessions so
// destruction order guarantees this).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "gfx/bitmap.h"
#include "util/lock_rank.h"
#include "util/thread_annotations.h"

namespace darpa::gfx {

class FramePool {
 public:
  /// Counters, all monotonic except the gauges. outstandingBytes +
  /// parkedBytes is the pool's live footprint; highWaterBytes is its
  /// maximum over the pool's lifetime (the steady-state working set the
  /// DESIGN.md sizing rule is calibrated from).
  struct Stats {
    std::int64_t acquires = 0;       ///< All acquire() calls.
    std::int64_t poolHits = 0;       ///< Served from a free list.
    std::int64_t poolMisses = 0;     ///< Pool had to heap-allocate a slab.
    std::int64_t releases = 0;       ///< Slabs returned to the free lists.
    std::size_t outstandingBytes = 0;///< Bytes in live pooled bitmaps.
    std::size_t parkedBytes = 0;     ///< Bytes parked in the free lists.
    std::size_t highWaterBytes = 0;  ///< Max outstanding + parked.
    std::int64_t reusedBytes = 0;    ///< Cumulative bytes served from lists.

    [[nodiscard]] double hitRate() const {
      const std::int64_t pooled = poolHits + poolMisses;
      return pooled == 0 ? 0.0
                         : static_cast<double>(poolHits) /
                               static_cast<double>(pooled);
    }
  };

  FramePool() = default;
  FramePool(const FramePool&) = delete;
  FramePool& operator=(const FramePool&) = delete;
  ~FramePool() = default;

  /// A width x height bitmap filled with `fill`, backed by a recycled slab
  /// when one is available (provenance kPoolReused), a fresh pool slab
  /// otherwise (kPoolFresh). Thread-safe.
  [[nodiscard]] Bitmap acquire(int width, int height,
                               Color fill = colors::kBlack);

  /// Thread-safe; a consistent total only when the pool is quiescent.
  [[nodiscard]] Stats stats() const;

 private:
  /// Free lists are keyed by slab capacity class: pixel counts rounded up
  /// to the next power of two (min 4096) so near-same-size screens share a
  /// list instead of fragmenting into one list per exact size.
  [[nodiscard]] static std::size_t sizeClass(std::size_t pixelCount);

  /// Deleter hook: the last Bitmap/ScreenFrame reference dropped; park the
  /// slab for reuse.
  void release(std::unique_ptr<PixelSlab> slab, std::size_t classPixels);

  /// shared_ptr deleter carrying the size class release() needs.
  struct SlabReturner {
    FramePool* pool;
    std::size_t classPixels;
    void operator()(PixelSlab* slab) const {
      pool->release(std::unique_ptr<PixelSlab>(slab), classPixels);
    }
  };

  void noteFootprintLocked() REQUIRES(mutex_) {
    if (stats_.outstandingBytes + stats_.parkedBytes > stats_.highWaterBytes) {
      stats_.highWaterBytes = stats_.outstandingBytes + stats_.parkedBytes;
    }
  }

  mutable util::RankedMutex mutex_{util::LockRank::kFramePool,
                                   "gfx.FramePool"};
  /// classPixels -> parked slabs of that capacity class.
  std::map<std::size_t, std::vector<std::unique_ptr<PixelSlab>>> free_
      GUARDED_BY(mutex_);
  Stats stats_ GUARDED_BY(mutex_);
};

}  // namespace darpa::gfx
