#include "fleet/scheduler.h"

#include <thread>
#include <utility>

#include "util/clock.h"

namespace darpa::fleet {

WorkStealingScheduler::WorkStealingScheduler(
    std::vector<std::unique_ptr<DeviceSession>>& sessions,
    core::StatMergeShards& statMerge, Config config)
    : statMerge_(&statMerge), config_(config) {
  if (config_.workers < 1) config_.workers = 1;
  if (config_.epoch.count < 1) config_.epoch = ms(1);

  tasks_.resize(sessions.size());
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    tasks_[i].session = sessions[i].get();
  }
  shards_.reserve(static_cast<std::size_t>(config_.workers));
  for (int i = 0; i < config_.workers; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

void WorkStealingScheduler::run() {
  const int n = static_cast<int>(tasks_.size());
  // Finish times are wall-clock observability (straggler tail), never a
  // digest axis.
  // detlint: begin-allow(wall-clock-in-digest-path) observability axis only
  runStartWall_ = wallMicros();
  // detlint: end-allow(wall-clock-in-digest-path)
  metrics_.finishWallMs.assign(static_cast<std::size_t>(n), 0.0);

  if (config_.duration.count <= 0) {
    // Nothing to advance at duration 0 — no slices, but sessions still fold
    // their (zero-activity) totals so snapshot() sees every session.
    for (int id = 0; id < n; ++id) retire(id);
    return;
  }

  {
    const util::LockGuard lock(control_);
    active_ = n;
    for (int id = 0; id < n; ++id) enqueueLocked(id);
  }

  if (config_.workers == 1) {
    workerLoop(0);
  } else {
    std::vector<std::thread> workers;
    workers.reserve(static_cast<std::size_t>(config_.workers));
    for (int w = 0; w < config_.workers; ++w) {
      workers.emplace_back([this, w] { workerLoop(w); });
    }
    for (std::thread& worker : workers) worker.join();
  }
}

void WorkStealingScheduler::workerLoop(int worker) {
  WorkerStats ws;
  for (;;) {
    const int id = findWork(worker, ws);
    if (id >= 0) {
      ++ws.slices;
      runSlice(id);
      continue;
    }
    if (!idleWait()) break;
  }
  const util::LockGuard lock(control_);
  metrics_.slicesRun += ws.slices;
  metrics_.localPops += ws.localPops;
  metrics_.steals += ws.steals;
}

int WorkStealingScheduler::popFrom(int shardIndex, bool stealBack) {
  Shard& shard = *shards_[static_cast<std::size_t>(shardIndex)];
  const util::LockGuard lock(shard.mutex);
  if (shard.queue.empty()) return -1;
  const auto it = stealBack ? std::prev(shard.queue.end()) : shard.queue.begin();
  const int id = it->second;
  shard.queue.erase(it);
  runnableHint_.fetch_sub(1, std::memory_order_release);
  return id;
}

int WorkStealingScheduler::findWork(int worker, WorkerStats& ws) {
  // Own shard first: the most-behind session (front of the wake order).
  int id = popFrom(worker, /*stealBack=*/false);
  if (id >= 0) {
    ++ws.localPops;
    return id;
  }
  // Steal sweep: take the furthest-ahead session from a sibling's back so
  // its urgent work stays local. One shard lock at a time (shared rank).
  const int count = static_cast<int>(shards_.size());
  for (int step = 1; step < count; ++step) {
    id = popFrom((worker + step) % count, /*stealBack=*/true);
    if (id >= 0) {
      ++ws.steals;
      return id;
    }
  }
  return -1;
}

bool WorkStealingScheduler::idleWait() {
  const util::LockGuard lock(control_);
  for (;;) {
    if (active_ == 0) return false;
    if (runnableHint_.load(std::memory_order_acquire) > 0) return true;
    idleCv_.wait(control_);
  }
}

void WorkStealingScheduler::runSlice(int id) {
  Task& task = tasks_[static_cast<std::size_t>(id)];
  const int slice = task.cursor;
  task.session->advanceTo(target(slice));

  const bool lastSlice = target(slice) == config_.duration;
  if (lastSlice) {
    retire(id);
    return;
  }
  task.cursor = slice + 1;
  const util::LockGuard lock(control_);
  enqueueLocked(id);
  idleCv_.notifyAll();
}

void WorkStealingScheduler::retire(int id) {
  Task& task = tasks_[static_cast<std::size_t>(id)];
  DeviceSession& session = *task.session;

  core::StatMergeShards::SessionTotals totals;
  totals.stats = session.stats().snapshot();
  totals.ledger = session.ledger().snapshot();
  totals.eventsEmitted = session.eventsEmitted();
  totals.auiExposures = session.auiExposures();
  totals.auisCovered = session.auisCovered();
  statMerge_->fold(id, std::move(totals));

  // Per-slot write, each id retired exactly once; read only after join.
  // detlint: begin-allow(wall-clock-in-digest-path) observability axis only
  metrics_.finishWallMs[static_cast<std::size_t>(id)] =
      (wallMicros() - runStartWall_) / 1000.0;
  // detlint: end-allow(wall-clock-in-digest-path)

  // Decrement active_ only AFTER the fold so run() cannot return (and the
  // fleet cannot snapshot) before this session's totals are in the shards.
  const util::LockGuard lock(control_);
  --active_;
  idleCv_.notifyAll();
}

void WorkStealingScheduler::enqueueLocked(int id) {
  const std::int64_t wake = target(tasks_[static_cast<std::size_t>(id)].cursor).count;
  Shard& shard = *shards_[static_cast<std::size_t>(id) % shards_.size()];
  {
    // Legal nesting: control (kFleetControl) -> shard (kSessionQueue).
    const util::LockGuard lock(shard.mutex);
    shard.queue.insert({wake, id});
  }
  runnableHint_.fetch_add(1, std::memory_order_release);
}

}  // namespace darpa::fleet
