#include "util/lock_rank.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace darpa::util {

const char* lockRankName(LockRank rank) {
  switch (rank) {
    case LockRank::kFleetControl:
      return "fleet-control";
    case LockRank::kSessionQueue:
      return "session-queue";
    case LockRank::kVerdictTier:
      return "verdict-tier";
    case LockRank::kFramePool:
      return "frame-pool";
  }
  return "unknown";
}

// ---------------------------------------------------------------- registry

LockRankRegistry& LockRankRegistry::instance() {
  static LockRankRegistry registry;
  return registry;
}

void LockRankRegistry::add(LockRank rank, const char* name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (Entry& entry : entries_) {
    if (entry.rank == rank && std::strcmp(entry.name, name) == 0) {
      ++entry.live;
      return;
    }
  }
  entries_.push_back({rank, name, 1});
}

void LockRankRegistry::remove(LockRank rank, const char* name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (Entry& entry : entries_) {
    if (entry.rank == rank && std::strcmp(entry.name, name) == 0) {
      --entry.live;
      return;
    }
  }
}

std::vector<LockRankRegistry::Entry> LockRankRegistry::snapshot() const {
  std::vector<Entry> copy;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    copy = entries_;
  }
  std::sort(copy.begin(), copy.end(), [](const Entry& a, const Entry& b) {
    if (a.rank != b.rank) return a.rank < b.rank;
    return std::strcmp(a.name, b.name) < 0;
  });
  return copy;
}

int LockRankRegistry::liveCount(LockRank rank) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  int live = 0;
  for (const Entry& entry : entries_) {
    if (entry.rank == rank) live += entry.live;
  }
  return live;
}

// --------------------------------------------------------------- validator

namespace {

struct HeldLock {
  int rank;
  const char* name;
};

/// The calling thread's acquisition stack, innermost (highest rank) last.
/// Plain function-local thread_local: constructed on first lock, destroyed
/// at thread exit (by which point the thread holds nothing).
std::vector<HeldLock>& heldStack() {
  thread_local std::vector<HeldLock> held;
  return held;
}

[[noreturn]] void rankViolation(const char* what, LockRank rank,
                                const char* name, const HeldLock* top) {
  if (top != nullptr) {
    std::fprintf(stderr,
                 "lock-rank violation: %s \"%s\" (rank %d, %s) while holding "
                 "\"%s\" (rank %d) — acquisition order must be strictly "
                 "increasing (see util/lock_rank.h)\n",
                 what, name, static_cast<int>(rank), lockRankName(rank),
                 top->name, top->rank);
  } else {
    std::fprintf(stderr, "lock-rank violation: %s \"%s\" (rank %d, %s)\n",
                 what, name, static_cast<int>(rank), lockRankName(rank));
  }
  std::abort();
}

}  // namespace

void RankValidator::onAcquire(LockRank rank, const char* name) {
  std::vector<HeldLock>& held = heldStack();
  if (!held.empty() && static_cast<int>(rank) <= held.back().rank) {
    rankViolation("acquiring", rank, name, &held.back());
  }
  held.push_back({static_cast<int>(rank), name});
}

void RankValidator::onRelease(LockRank rank, const char* name) {
  std::vector<HeldLock>& held = heldStack();
  // Normal case: LIFO release (LockGuard unwinding). Out-of-order release
  // of a held lock is legal for a mutex, so scan from the top for the
  // matching entry rather than insisting on stack discipline.
  for (auto it = held.rbegin(); it != held.rend(); ++it) {
    if (it->rank == static_cast<int>(rank) &&
        std::strcmp(it->name, name) == 0) {
      held.erase(std::next(it).base());
      return;
    }
  }
  rankViolation("releasing un-held", rank, name, nullptr);
}

int RankValidator::heldCount() {
  return static_cast<int>(heldStack().size());
}

int RankValidator::topRank() {
  const std::vector<HeldLock>& held = heldStack();
  return held.empty() ? -1 : held.back().rank;
}

}  // namespace darpa::util
