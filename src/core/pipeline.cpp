#include "core/pipeline.h"

#include <utility>

#include "analysis/lint.h"
#include "core/darpa_service.h"
#include "core/verdict_tier.h"
#include "cv/one_stage.h"

namespace darpa::core {

// ----------------------------------------------------------- VerdictCache

const VerdictCache::Entry* VerdictCache::find(std::uint64_t key) {
  const auto it = index_.find(key);
  if (it == index_.end()) return nullptr;
  lru_.splice(lru_.begin(), lru_, it->second);
  return &lru_.front().second;
}

void VerdictCache::put(std::uint64_t key, Entry entry) {
  if (capacity_ == 0) return;
  if (const auto it = index_.find(key); it != index_.end()) {
    it->second->second = std::move(entry);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.emplace_front(key, std::move(entry));
  index_[key] = lru_.begin();
  while (lru_.size() > capacity_) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
    ++evictions_;
  }
}

void VerdictCache::clear() {
  lru_.clear();
  index_.clear();
}

// ----------------------------------------------------------------- stages

bool LintStage::shouldRun(const AnalysisContext& ctx) const {
  return !ctx.fromCache && ctx.config->lintPrefilter != nullptr &&
         ctx.wm != nullptr;
}

void LintStage::run(AnalysisContext& ctx, WorkLedger& ledger) {
  const analysis::LintReport lint = ctx.config->lintPrefilter->run(
      ctx.frame->dump(), ctx.wm->config().screenSize);
  ++ctx.stats->lintRuns;
  ledger.recordRun(Stage::kLint, ledger.costs().lintCpuMs);
  if (!lint.verdict.confident) return;
  ctx.resolvedByLint = true;
  ++ctx.stats->cvSkippedByLint;
  if (lint.verdict.isAui) {
    const auto confidence = static_cast<float>(lint.verdict.score);
    for (const Rect& box : lint.verdict.upoBoxes) {
      ctx.detections.push_back({box, dataset::BoxLabel::kUpo, confidence});
    }
    for (const Rect& box : lint.verdict.agoBoxes) {
      ctx.detections.push_back({box, dataset::BoxLabel::kAgo, confidence});
    }
  }
}

bool ScreenshotStage::shouldRun(const AnalysisContext& ctx) const {
  return !ctx.fromCache && !ctx.resolvedByLint;
}

void ScreenshotStage::run(AnalysisContext& ctx, WorkLedger& ledger) {
  gfx::Bitmap shot = ctx.service->takeScreenshot();
  ctx.screenshotOk = ctx.frame != nullptr && !shot.empty();
  if (!ctx.screenshotOk) {
    // A failed capture is not billable work and must not drift the stats:
    // no screenshot was taken, so none is counted, priced, or vaulted.
    ledger.recordSkip(Stage::kScreenshot);
    return;
  }
  // The allocation axis reads the capture's slab provenance: a pooled
  // reuse is the allocation the FramePool saved, anything else is a fresh
  // heap buffer. Neither record adds modeled CPU.
  if (shot.source() == gfx::SlabSource::kPoolReused) {
    ledger.recordPooledReuse(Stage::kScreenshot, shot.pixelBytes());
  } else {
    ledger.recordAlloc(Stage::kScreenshot, shot.pixelBytes());
  }
  // The pixels join the pass's frame (zero-copy) and the vault takes
  // shared custody of the same frame — one buffer, every holder.
  ctx.frame->attachPixels(std::move(shot));
  ctx.vault->store(ctx.frame);
  ++ctx.stats->screenshotsTaken;
  ledger.recordRun(Stage::kScreenshot, ledger.costs().screenshotCpuMs);
}

bool DetectStage::shouldRun(const AnalysisContext& ctx) const {
  return !ctx.fromCache && !ctx.resolvedByLint && ctx.screenshotOk;
}

void DetectStage::run(AnalysisContext& ctx, WorkLedger& ledger) {
  // Custody of the frame transfers out of the vault and into the executor —
  // a refcount move, not a pixel copy. The detector runs on this thread, so
  // the thread-local hot-path scratch delta is exactly this call's warm-up.
  const cv::DetectScratchStats before = cv::hotpathScratchStats();
  ctx.detections = ctx.executor->detect(*ctx.detector, ctx.vault->take());
  const cv::DetectScratchStats after = cv::hotpathScratchStats();
  ledger.recordRun(Stage::kDetect, ctx.detector->costMacsPerImage() /
                                       ledger.costs().macsPerCpuMs);
  ledger.recordScratchGrowth(Stage::kDetect, after.growths - before.growths,
                             after.grownBytes - before.grownBytes);
}

bool VerdictStage::shouldRun(const AnalysisContext& ctx) const {
  return !ctx.fromCache;
}

void VerdictStage::run(AnalysisContext& ctx, WorkLedger& ledger) {
  bool hasUpo = false;
  bool hasAgo = false;
  for (const cv::Detection& det : ctx.detections) {
    if (det.label == dataset::BoxLabel::kUpo) hasUpo = true;
    if (det.label == dataset::BoxLabel::kAgo) hasAgo = true;
  }
  ctx.isAui = ctx.config->requireUpoForAui ? hasUpo : (hasUpo || hasAgo);
  ledger.recordRun(Stage::kVerdict, ledger.costs().verdictCpuMs);
  // Cache only verdicts that rest on real evidence (a lint resolution or a
  // usable capture); a transient screenshot failure must stay transient.
  const bool evidenced = ctx.resolvedByLint || ctx.screenshotOk;
  if (cache_->enabled() && ctx.wm != nullptr && evidenced) {
    cache_->put(ctx.fingerprint(), {ctx.isAui, ctx.detections});
  }
  // Publish to the fleet L2 with the evidence grade attached; the tier's
  // poisoning guard enforces the same seeding rule fleet-wide (an
  // unevidenced publish is counted and dropped there, keeping one
  // session's failed capture from becoming everyone's verdict).
  if (tier_ != nullptr && ctx.wm != nullptr) {
    const auto evidence = ctx.resolvedByLint
                              ? SharedVerdictTier::Evidence::kLint
                              : (ctx.screenshotOk
                                     ? SharedVerdictTier::Evidence::kCapture
                                     : SharedVerdictTier::Evidence::kNone);
    tier_->publish(ctx.fingerprint(), {ctx.isAui, ctx.detections}, evidence);
  }
}

bool ActStage::shouldRun(const AnalysisContext& ctx) const {
  return ctx.isAui;
}

void ActStage::run(AnalysisContext& ctx, WorkLedger& ledger) {
  (void)ledger;  // Act work is priced inside the service helpers.
  ++ctx.stats->auisFlagged;
  if (ctx.config->autoBypass) {
    ctx.service->tryBypass(ctx.detections);
    return;
  }
  if (ctx.config->decorate) {
    // The §IV-D anchor-overlay offset is measured inside decorate() — only
    // this path consumes it, so only this path pays for it.
    ctx.service->decorate(ctx.detections);
  }
}

// --------------------------------------------------------------- pipeline

AnalysisPipeline::AnalysisPipeline(std::size_t cacheCapacity,
                                   SharedVerdictTier* tier)
    : cache_(cacheCapacity), tier_(tier) {
  stages_.push_back(std::make_unique<LintStage>());
  stages_.push_back(std::make_unique<ScreenshotStage>());
  stages_.push_back(std::make_unique<DetectStage>());
  stages_.push_back(std::make_unique<VerdictStage>(cache_, tier_));
  stages_.push_back(std::make_unique<ActStage>());
}

void AnalysisPipeline::run(AnalysisContext& ctx, WorkLedger& ledger) {
  // One ScreenFrame per pass: the UI dump is captured once, shared by the
  // fingerprint probe and the lint stage, and later joined by the pixels
  // (screenshot stage) — the frame is the single owner of everything the
  // pass perceives. Decoration overlays are never part of the dump (they
  // live outside the app window), so a decorated screen fingerprints like
  // its clean self.
  if (ctx.wm != nullptr) {
    const android::Window* top = ctx.wm->topAppWindow();
    ctx.frame = std::make_shared<ScreenFrame>(
        ctx.wm->dumpTopWindow(),
        top != nullptr ? top->packageName() : std::string{});
  }

  // Verdict-cache probe, L1 then L2: a hit in either tier resolves the
  // whole analysis for the cost of the dump walk + lookup(s) and routes
  // straight to the act stage. An L2 hit is promoted into L1 so the next
  // repeat of this screen is a session-local hit again. With no tier
  // wired this block is byte-identical to the historical L1-only probe.
  if (ctx.wm != nullptr && (cache_.enabled() || tier_ != nullptr)) {
    ledger.recordRun(Stage::kVerdict, ledger.costs().cacheLookupCpuMs);
    const VerdictCache::Entry* hit =
        cache_.enabled() ? cache_.find(ctx.fingerprint()) : nullptr;
    if (hit != nullptr) {
      ledger.recordCacheHit();
      ctx.fromCache = true;
      ctx.isAui = hit->isAui;
      ctx.detections = hit->detections;
    } else if (tier_ != nullptr) {
      // The L2 probe is a second lookup; price it as one when the L1
      // probe above already paid the first.
      if (cache_.enabled()) {
        ledger.recordRun(Stage::kVerdict, ledger.costs().cacheLookupCpuMs);
      }
      if (auto shared = tier_->find(ctx.fingerprint())) {
        ledger.recordCacheHit();
        ctx.fromCache = true;
        ctx.fromSharedTier = true;
        ctx.isAui = shared->isAui;
        ctx.detections = std::move(shared->detections);
        if (cache_.enabled()) {
          cache_.put(ctx.fingerprint(), {ctx.isAui, ctx.detections});
        }
      } else {
        ledger.recordCacheMiss();
      }
    } else {
      ledger.recordCacheMiss();
    }
  }

  for (const std::unique_ptr<AnalysisStage>& stage : stages_) {
    if (!stage->shouldRun(ctx)) {
      ledger.recordSkip(stage->kind());
      continue;
    }
    // Wall-clock observability around the stage's real execution; the
    // stage's own recordRun keeps pricing the modeled axis. Audited: both
    // reads feed only recordActual -> StageTally::actualUs, which nothing
    // digest-stable may consume (work_ledger.h).
    // detlint: begin-allow(wall-clock-in-digest-path) observability axis only
    const double startUs = wallMicros();
    stage->run(ctx, ledger);
    ledger.recordActual(stage->kind(), wallMicros() - startUs);
    // detlint: end-allow(wall-clock-in-digest-path)
  }
}

}  // namespace darpa::core
