#include "gfx/frame_pool.h"

#include <algorithm>
#include <utility>

namespace darpa::gfx {

std::size_t FramePool::sizeClass(std::size_t pixelCount) {
  std::size_t cls = 4096;
  while (cls < pixelCount) cls <<= 1;
  return cls;
}

Bitmap FramePool::acquire(int width, int height, Color fill) {
  width = std::max(width, 0);
  height = std::max(height, 0);
  if (width == 0 || height == 0) return {};

  const std::size_t count =
      static_cast<std::size_t>(width) * static_cast<std::size_t>(height);
  const std::size_t cls = sizeClass(count);
  const std::size_t clsBytes = cls * sizeof(Color);

  std::unique_ptr<PixelSlab> slab;
  {
    const util::LockGuard lock(mutex_);
    ++stats_.acquires;
    auto it = free_.find(cls);
    if (it != free_.end() && !it->second.empty()) {
      slab = std::move(it->second.back());
      it->second.pop_back();
      ++stats_.poolHits;
      stats_.parkedBytes -= clsBytes;
      stats_.reusedBytes += static_cast<std::int64_t>(clsBytes);
    } else {
      ++stats_.poolMisses;
    }
    stats_.outstandingBytes += clsBytes;
    noteFootprintLocked();
  }

  const bool reused = slab != nullptr;
  if (!reused) {
    slab = std::make_unique<PixelSlab>();
    slab->pixels.reserve(cls);  // full class capacity: reuse never reallocs
  }
  // assign() overwrites within retained capacity — pixel contents after a
  // reuse are byte-identical to a fresh allocation with the same fill.
  slab->pixels.assign(count, fill);
  slab->source = reused ? SlabSource::kPoolReused : SlabSource::kPoolFresh;

  Bitmap::SlabPtr shared(slab.release(), SlabReturner{this, cls});
  return Bitmap(width, height, std::move(shared));
}

void FramePool::release(std::unique_ptr<PixelSlab> slab,
                        std::size_t classPixels) {
  const std::size_t clsBytes = classPixels * sizeof(Color);
  const util::LockGuard lock(mutex_);
  ++stats_.releases;
  stats_.outstandingBytes -= std::min(stats_.outstandingBytes, clsBytes);
  stats_.parkedBytes += clsBytes;
  free_[classPixels].push_back(std::move(slab));
}

FramePool::Stats FramePool::stats() const {
  const util::LockGuard lock(mutex_);
  return stats_;
}

}  // namespace darpa::gfx
