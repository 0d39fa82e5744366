// Tests for the simulated WebView and its virtual accessibility subtree:
// hybrid dump shape, the fingerprint's resource-id independence (property
// tests), iterative traversal over hostile page shapes, the FraudDroid
// id-coverage telemetry, lint's graceful degradation on virtual nodes, and
// decoration targeting through the hosting native view.
#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "analysis/lint.h"
#include "android/system.h"
#include "android/webview.h"
#include "apps/screen_generator.h"
#include "baselines/frauddroid.h"
#include "core/darpa_service.h"
#include "core/verdict_cache.h"
#include "core/verdict_tier.h"
#include "dataset/dataset.h"

namespace darpa {
namespace {

using android::UiDump;
using android::UiNode;
using android::VirtualNode;
using android::VirtualRole;
using android::WebView;

VirtualNode vnode(VirtualRole role, std::string id, Rect bounds,
                  bool clickable = false, std::string text = {}) {
  VirtualNode node;
  node.role = role;
  node.virtualId = std::move(id);
  node.bounds = bounds;
  node.clickable = clickable;
  node.text = std::move(text);
  return node;
}

/// A white screen hosting one WebView at `webFrame` with `page` loaded.
std::unique_ptr<android::View> webScreen(Size frame, Rect webFrame,
                                         VirtualNode page,
                                         WebView** outWeb = nullptr) {
  auto root = std::make_unique<android::View>();
  root->setFrame({0, 0, frame.width, frame.height});
  root->setBackground(colors::kWhite);
  auto web = std::make_unique<WebView>();
  web->setFrame(webFrame);
  web->setPage(std::move(page));
  auto* webPtr =
      static_cast<WebView*>(root->addChild(std::move(web)));
  if (outWeb != nullptr) *outWeb = webPtr;
  return root;
}

/// Small ad-like page: full-page area, dim overlay, CTA button, close div.
VirtualNode interstitialPage(Size pageSize) {
  VirtualNode page = vnode(VirtualRole::kWebArea, "page",
                           {0, 0, pageSize.width, pageSize.height});
  VirtualNode overlay = vnode(VirtualRole::kGenericContainer, "gwd-overlay",
                              {0, 0, pageSize.width, pageSize.height});
  overlay.background = Color::rgba(0, 0, 0, 140);
  VirtualNode cta = vnode(VirtualRole::kButton, "gwd-cta",
                          {40, 120, 160, 48}, /*clickable=*/true, "INSTALL");
  cta.background = Color::rgb(30, 136, 80);
  VirtualNode close = vnode(VirtualRole::kGenericContainer, "gwd-close",
                            {pageSize.width - 26, 6, 20, 20},
                            /*clickable=*/true);
  close.crossGlyph = true;
  overlay.children.push_back(std::move(cta));
  overlay.children.push_back(std::move(close));
  page.children.push_back(std::move(overlay));
  return page;
}

const UiNode* findVirtualNode(const UiDump& dump, std::string_view id) {
  for (const UiNode& node : dump) {
    if (node.isVirtual && node.virtualId == id) return &node;
  }
  return nullptr;
}

int indexOfClass(const UiDump& dump, std::string_view className) {
  for (std::size_t i = 0; i < dump.size(); ++i) {
    if (dump[i].className == className) return static_cast<int>(i);
  }
  return -1;
}

// -------------------------------------------------- hybrid dump shape

TEST(WebViewTest, DumpContainsVirtualSubtreeWithoutResourceIds) {
  android::AndroidSystem system;
  const Rect frame = system.windowManager.appFrame(false);
  system.windowManager.showAppWindow(
      "com.web",
      webScreen({frame.width, frame.height}, {20, 40, 280, 400},
                interstitialPage({280, 400})),
      false);
  const UiDump dump = system.windowManager.dumpTopWindow();

  const int hostIdx = indexOfClass(dump, "android.webkit.WebView");
  ASSERT_GE(hostIdx, 0);
  const UiNode& host = dump[static_cast<std::size_t>(hostIdx)];
  EXPECT_FALSE(host.isVirtual);  // the host itself is a native view

  const UiNode* cta = findVirtualNode(dump, "gwd-cta");
  ASSERT_NE(cta, nullptr);
  EXPECT_TRUE(cta->isVirtual);
  EXPECT_TRUE(cta->resourceId.empty());  // virtual nodes never carry one
  EXPECT_EQ(cta->className, "android.widget.Button");
  EXPECT_TRUE(cta->clickable);
  EXPECT_EQ(cta->text, "INSTALL");
  // Page coords (40, 120) carried through the host's screen position.
  EXPECT_EQ(cta->boundsOnScreen,
            (Rect{host.boundsOnScreen.x + 40, host.boundsOnScreen.y + 120,
                  160, 48}));
  // Flattened depth continues below the host: page root is host + 1, the
  // overlay host + 2, the CTA host + 3.
  const UiNode* page = findVirtualNode(dump, "page");
  ASSERT_NE(page, nullptr);
  EXPECT_EQ(page->depth, host.depth + 1);
  EXPECT_EQ(cta->depth, host.depth + 3);
  EXPECT_EQ(page->className, "android.webkit.WebView");

  // Every virtual node sits after its host in pre-order (paint order).
  for (std::size_t i = 0; i < dump.size(); ++i) {
    if (dump[i].isVirtual) {
      EXPECT_GT(static_cast<int>(i), hostIdx);
    }
  }
}

TEST(WebViewTest, EffAlphaChainsHostAlphaIntoPageOpacity) {
  android::AndroidSystem system;
  const Rect frame = system.windowManager.appFrame(false);
  VirtualNode page = vnode(VirtualRole::kWebArea, "page", {0, 0, 200, 200});
  VirtualNode faded =
      vnode(VirtualRole::kGenericContainer, "faded", {0, 0, 100, 100});
  faded.opacity = 0.5;
  VirtualNode inner =
      vnode(VirtualRole::kGenericContainer, "inner", {10, 10, 50, 50});
  inner.opacity = 0.5;
  faded.children.push_back(std::move(inner));
  page.children.push_back(std::move(faded));

  WebView* web = nullptr;
  auto root = webScreen({frame.width, frame.height}, {0, 0, 200, 200},
                        std::move(page), &web);
  web->setAlpha(0.5);
  system.windowManager.showAppWindow("com.web", std::move(root), false);
  const UiDump dump = system.windowManager.dumpTopWindow();

  const UiNode* inner2 = findVirtualNode(dump, "inner");
  ASSERT_NE(inner2, nullptr);
  // Host alpha 0.5 x faded 0.5 x inner 0.5.
  EXPECT_NEAR(inner2->effAlpha, 0.125, 1e-9);
}

TEST(WebViewTest, FindVirtualAndBoundsInRoot) {
  WebView web;
  web.setFrame({30, 50, 300, 400});
  VirtualNode page = interstitialPage({300, 400});
  // Duplicate id: pages reuse DOM ids freely; first pre-order match wins.
  page.children.push_back(
      vnode(VirtualRole::kGenericContainer, "gwd-cta", {0, 0, 10, 10}));
  web.setPage(std::move(page));

  ASSERT_NE(web.findVirtual("gwd-cta"), nullptr);
  EXPECT_EQ(web.findVirtual("gwd-cta")->bounds, (Rect{40, 120, 160, 48}));
  EXPECT_EQ(web.findVirtual(""), nullptr);  // empty id is non-identifying
  EXPECT_EQ(web.findVirtual("missing"), nullptr);
  EXPECT_EQ(web.virtualBoundsInRoot("gwd-cta"), (Rect{70, 170, 160, 48}));
  EXPECT_TRUE(web.virtualBoundsInRoot("missing").empty());
  EXPECT_EQ(web.virtualNodeCount(), 5);

  web.clearPage();
  EXPECT_FALSE(web.hasPage());
  EXPECT_EQ(web.virtualNodeCount(), 0);
}

TEST(WebViewTest, HitTestRoutesClickableVirtualNodesToHost) {
  auto root = std::make_unique<android::View>();
  root->setFrame({0, 0, 360, 720});
  auto web = std::make_unique<WebView>();
  web->setFrame({20, 40, 280, 400});
  web->setPage(interstitialPage({280, 400}));
  auto* webPtr = root->addChild(std::move(web));

  // Inside the clickable CTA (page 40,120 -> root 60,160): the WebView
  // consumes the click; virtual nodes have no native View identity.
  EXPECT_EQ(root->hitTest({70, 170}), webPtr);
  // Inside the page but only over the non-clickable overlay: no virtual
  // target and the WebView itself is not clickable.
  EXPECT_EQ(root->hitTest({30, 420}), nullptr);
  // Outside the WebView entirely.
  EXPECT_EQ(root->hitTest({350, 700}), nullptr);
}

TEST(WebViewTest, PaintsPageThroughSharedCanvasPrimitives) {
  android::AndroidSystem system;
  const Rect frame = system.windowManager.appFrame(false);
  VirtualNode page = vnode(VirtualRole::kWebArea, "page", {0, 0, 200, 200});
  VirtualNode plate =
      vnode(VirtualRole::kGenericContainer, "plate", {10, 10, 80, 80});
  plate.background = colors::kRed;
  page.children.push_back(std::move(plate));
  system.windowManager.showAppWindow(
      "com.web",
      webScreen({frame.width, frame.height}, {0, 0, 200, 200},
                std::move(page)),
      false);
  const gfx::Bitmap shot = system.windowManager.composite();
  // Plate at page (10,10) -> window (10,10) -> screen (+frame origin).
  EXPECT_EQ(shot.at(frame.x + 40, frame.y + 40), colors::kRed);
  EXPECT_EQ(shot.at(frame.x + 150, frame.y + 150), colors::kWhite);
}

// A hostile page: the tree is page-controlled, so setPage fails closed on
// bounds that would overflow screen-space arithmetic and on opacity that
// would poison alpha math. Every downstream consumer then runs on the
// sanitized tree (the sanitizer lane runs this under UBSan).
TEST(WebViewTest, HostilePageBoundsAndOpacityFailClosed) {
  constexpr int kIntMax = std::numeric_limits<int>::max();
  VirtualNode page = vnode(VirtualRole::kWebArea, "page", {0, 0, 280, 400});
  VirtualNode overflowX = vnode(VirtualRole::kButton, "overflow-x",
                                {kIntMax - 4, 10, 16, 16}, true, "X");
  overflowX.children.push_back(
      vnode(VirtualRole::kStaticText, "overflow-child", {0, 0, 10, 10}));
  page.children.push_back(std::move(overflowX));
  page.children.push_back(vnode(VirtualRole::kButton, "overflow-y",
                                {10, kIntMax - 4, 16, 16}, true));
  page.children.push_back(
      vnode(VirtualRole::kGenericContainer, "negative", {10, 10, -5, 20}));
  page.children.push_back(
      vnode(VirtualRole::kGenericContainer, "zero", {20, 20, 0, 0}, true));
  VirtualNode nanOpacity =
      vnode(VirtualRole::kImage, "nan", {0, 0, 200, 200}, true);
  nanOpacity.opacity = std::numeric_limits<double>::quiet_NaN();
  nanOpacity.background = colors::kRed;
  page.children.push_back(std::move(nanOpacity));
  VirtualNode loud =
      vnode(VirtualRole::kGenericContainer, "loud", {0, 200, 100, 100});
  loud.opacity = std::numeric_limits<double>::infinity();
  loud.background = colors::kBlue;
  page.children.push_back(std::move(loud));

  android::AndroidSystem system;
  const Rect frame = system.windowManager.appFrame(false);
  WebView* web = nullptr;
  auto root = webScreen({frame.width, frame.height}, {0, 0, 280, 400},
                        std::move(page), &web);
  // The two overflowing nodes and the negative-size one are dropped (the
  // overflowing node's child goes with it, uncounted); the 0x0 node stays.
  EXPECT_EQ(web->rejectedVirtualNodes(), 3);
  EXPECT_EQ(web->virtualNodeCount(), 4);
  EXPECT_EQ(web->findVirtual("overflow-x"), nullptr);
  EXPECT_EQ(web->findVirtual("overflow-child"), nullptr);
  EXPECT_EQ(web->findVirtual("negative"), nullptr);
  ASSERT_NE(web->findVirtual("zero"), nullptr);
  ASSERT_NE(web->findVirtual("nan"), nullptr);
  EXPECT_EQ(web->findVirtual("nan")->opacity, 0.0);
  EXPECT_EQ(web->findVirtual("loud")->opacity, 1.0);
  system.windowManager.showAppWindow("com.web", std::move(root), false);

  const UiDump dump = system.windowManager.dumpTopWindow();
  EXPECT_EQ(findVirtualNode(dump, "overflow-x"), nullptr);
  for (const UiNode& node : dump) EXPECT_FALSE(std::isnan(node.effAlpha));
  const analysis::LintEngine engine = analysis::LintEngine::withDefaultRules();
  const analysis::LintReport report =
      engine.run(dump, system.windowManager.config().screenSize);
  EXPECT_GT(report.nodesVisited, 0);
  EXPECT_NE(android::WindowManager::fingerprint(dump), 0u);

  // The NaN-opacity node is transparent, so it neither takes clicks nor
  // paints; the +inf node paints fully opaque.
  EXPECT_EQ(web->hitTest({50, 50}), nullptr);
  const gfx::Bitmap shot = system.windowManager.composite();
  EXPECT_EQ(shot.at(frame.x + 50, frame.y + 50), colors::kWhite);
  EXPECT_EQ(shot.at(frame.x + 50, frame.y + 250), colors::kBlue);

  // A rejected root drops the whole page.
  VirtualNode badRoot =
      vnode(VirtualRole::kWebArea, "page", {-kIntMax, 0, 10, 10});
  badRoot.children.push_back(
      vnode(VirtualRole::kGenericContainer, "child", {0, 0, 10, 10}));
  web->setPage(std::move(badRoot));
  EXPECT_FALSE(web->hasPage());
  EXPECT_EQ(web->rejectedVirtualNodes(), 1);
  EXPECT_EQ(web->virtualNodeCount(), 0);
}

// ------------------------------------- fingerprint property (satellite 1)

UiDump dumpOfWebScreen(VirtualNode page, Size pageSize = {300, 400}) {
  android::AndroidSystem system;
  const Rect frame = system.windowManager.appFrame(false);
  system.windowManager.showAppWindow(
      "com.web",
      webScreen({frame.width, frame.height},
                {10, 10, pageSize.width, pageSize.height}, std::move(page)),
      false);
  return system.windowManager.dumpTopWindow();
}

TEST(VirtualFingerprintPropertyTest, AllEmptyIdTreesDoNotCollapse) {
  // Two structurally distinct pages where EVERY id — resource and virtual
  // — is empty. A fingerprint leaning on resource ids would hash both to
  // the same value; the class/bounds/text mix must keep them apart.
  VirtualNode a = vnode(VirtualRole::kWebArea, "", {0, 0, 300, 400});
  a.children.push_back(
      vnode(VirtualRole::kGenericContainer, "", {0, 0, 300, 400}));
  a.children.back().children.push_back(
      vnode(VirtualRole::kButton, "", {40, 120, 160, 48}, true, "INSTALL"));

  VirtualNode b = vnode(VirtualRole::kWebArea, "", {0, 0, 300, 400});
  b.children.push_back(
      vnode(VirtualRole::kGenericContainer, "", {0, 0, 300, 400}));
  b.children.back().children.push_back(
      vnode(VirtualRole::kImage, "", {20, 60, 260, 200}, true));

  const UiDump dumpA = dumpOfWebScreen(a);
  const UiDump dumpB = dumpOfWebScreen(b);
  for (const UiNode& node : dumpA) EXPECT_TRUE(node.resourceId.empty());
  const std::uint64_t fpA = android::WindowManager::fingerprint(dumpA);
  const std::uint64_t fpB = android::WindowManager::fingerprint(dumpB);
  EXPECT_NE(fpA, fpB);
  EXPECT_NE(fpA, 0u);

  // Determinism: re-dumping the same screen reproduces the fingerprint.
  EXPECT_EQ(fpA, android::WindowManager::fingerprint(dumpOfWebScreen(a)));
}

TEST(VirtualFingerprintPropertyTest, VirtualIdAloneDistinguishesTrees) {
  // Identical geometry and classes, different page-global ids: the
  // fingerprint mixes virtualId, so the trees stay distinct even when
  // everything FraudDroid can see is identical (all resource ids empty).
  VirtualNode a = vnode(VirtualRole::kWebArea, "page", {0, 0, 300, 400});
  a.children.push_back(
      vnode(VirtualRole::kGenericContainer, "gwd-div-1", {0, 0, 100, 100}));
  VirtualNode b = vnode(VirtualRole::kWebArea, "page", {0, 0, 300, 400});
  b.children.push_back(
      vnode(VirtualRole::kGenericContainer, "gwd-div-2", {0, 0, 100, 100}));

  EXPECT_NE(android::WindowManager::fingerprint(dumpOfWebScreen(a)),
            android::WindowManager::fingerprint(dumpOfWebScreen(b)));
}

TEST(VirtualFingerprintPropertyTest, VerdictCacheNeverCrossServesWebScreens) {
  VirtualNode a = interstitialPage({300, 400});
  VirtualNode b = interstitialPage({300, 400});
  b.children[0].children[0].bounds = {42, 130, 150, 44};  // nudge the CTA
  const std::uint64_t fpA =
      android::WindowManager::fingerprint(dumpOfWebScreen(a));
  const std::uint64_t fpB =
      android::WindowManager::fingerprint(dumpOfWebScreen(b));
  ASSERT_NE(fpA, fpB);

  core::VerdictCache cache(8);
  cache.put(fpA, {/*isAui=*/true, {}});
  EXPECT_EQ(cache.find(fpB), nullptr);  // no cross-hit on the sibling page
  ASSERT_NE(cache.find(fpA), nullptr);
  EXPECT_TRUE(cache.find(fpA)->isAui);

  core::SharedVerdictTier tier({.shards = 2, .capacityPerShard = 8});
  EXPECT_TRUE(tier.publish(fpA, {/*isAui=*/true, {}},
                           core::SharedVerdictTier::Evidence::kCapture));
  EXPECT_FALSE(tier.find(fpB).has_value());
  ASSERT_TRUE(tier.find(fpA).has_value());
  EXPECT_TRUE(tier.find(fpA)->isAui);
}

// ------------------------------------ hostile page shapes (satellite 3)

VirtualNode deepChain(int levels) {
  VirtualNode node = vnode(VirtualRole::kStaticText, "leaf", {5, 5, 20, 10},
                           false, "bottom");
  for (int i = 0; i < levels; ++i) {
    VirtualNode parent =
        vnode(VirtualRole::kGenericContainer, "", {0, 0, 280, 380});
    parent.children.push_back(std::move(node));
    node = std::move(parent);
  }
  VirtualNode page = vnode(VirtualRole::kWebArea, "page", {0, 0, 280, 380});
  page.children.push_back(std::move(node));
  return page;
}

TEST(VirtualLintTraversalTest, DeepFlattenedChainDoesNotOverflow) {
  // Real pages nest hundreds of levels; the dump walk and every consumer
  // above it must survive a 300-deep chain (well past the 64 levels a
  // recursive visitor's stack frame budget gets nervous at).
  const UiDump dump = dumpOfWebScreen(deepChain(300));
  const UiNode* leaf = findVirtualNode(dump, "leaf");
  ASSERT_NE(leaf, nullptr);
  EXPECT_GE(leaf->depth, 300);

  const analysis::LintEngine engine = analysis::LintEngine::withDefaultRules();
  const analysis::LintReport report = engine.run(dump, {360, 720});
  EXPECT_GE(report.nodesVisited, 300);
  EXPECT_NE(android::WindowManager::fingerprint(dump), 0u);
}

TEST(VirtualLintTraversalTest, WideFlattenedForestTraversesInDocumentOrder) {
  VirtualNode page = vnode(VirtualRole::kWebArea, "page", {0, 0, 300, 400});
  for (int i = 0; i < 3000; ++i) {
    // Appended piecewise: GCC 12 at -O3 reports a false -Wrestrict on
    // "n" + std::to_string(i).
    std::string id = "n";
    id += std::to_string(i);
    page.children.push_back(vnode(VirtualRole::kStaticText, std::move(id),
                                  {i % 280, (i / 280) % 380, 4, 4}));
  }
  const UiDump dump = dumpOfWebScreen(page);

  // Document (pre-order) order is preserved across the whole fan-out.
  int last = -1;
  int seen = 0;
  for (const UiNode& node : dump) {
    if (!node.isVirtual || node.virtualId.size() < 2 ||
        node.virtualId[0] != 'n' || std::isdigit(node.virtualId[1]) == 0) {
      continue;
    }
    const int idx = std::stoi(node.virtualId.substr(1));
    EXPECT_EQ(idx, last + 1);
    last = idx;
    ++seen;
  }
  EXPECT_EQ(seen, 3000);

  const analysis::LintEngine engine = analysis::LintEngine::withDefaultRules();
  EXPECT_GE(engine.run(dump, {360, 720}).nodesVisited, 3000);
}

// ------------------------------------------- generator + dataset hybrid

TEST(WebAuiGeneratorTest, MakeWebAuiEmitsVirtualInterstitialWithTruth) {
  apps::ScreenGenerator::Params params;
  params.frame = {360, 648};
  apps::ScreenGenerator gen(params, /*seed=*/771);
  apps::AuiSpec spec;
  spec.type = apps::AuiType::kAdvertisement;
  spec.host = apps::AuiHost::kWebView;
  spec.hasAgoBox = true;
  apps::GeneratedScreen screen = gen.makeAui(spec);

  ASSERT_TRUE(screen.truth.isAui);
  EXPECT_EQ(screen.truth.spec->host, apps::AuiHost::kWebView);
  ASSERT_EQ(screen.truth.upoBoxes.size(), 1u);
  ASSERT_GE(screen.truth.agoBoxes.size(), 1u);

  // The screen hosts exactly one WebView with a loaded page, and the truth
  // boxes are inside the window.
  WebView* web = nullptr;
  for (const auto& child : screen.root->children()) {
    if (auto* w = dynamic_cast<WebView*>(child.get())) web = w;
  }
  ASSERT_NE(web, nullptr);
  EXPECT_TRUE(web->hasPage());
  EXPECT_GT(web->virtualNodeCount(), 3);
  const Rect window{0, 0, params.frame.width, params.frame.height};
  for (const Rect& box : screen.truth.upoBoxes) {
    EXPECT_EQ(box, box.intersect(window));
  }
}

TEST(WebAuiGeneratorTest, ZeroProbabilityNeverEmitsWebHosts) {
  apps::ScreenGenerator::Params params;  // webViewAuiProb defaults to 0
  apps::ScreenGenerator gen(params, 99);
  for (int i = 0; i < 200; ++i) {
    EXPECT_NE(gen.randomSpec().host, apps::AuiHost::kWebView);
  }
  apps::ScreenGenerator::Params webParams;
  webParams.webViewAuiProb = 1.0;
  apps::ScreenGenerator webGen(webParams, 99);
  int webCount = 0;
  for (int i = 0; i < 200; ++i) {
    if (webGen.randomSpec().host == apps::AuiHost::kWebView) ++webCount;
  }
  EXPECT_GT(webCount, 0);  // every third-party ad flips to a WebView
}

TEST(WebAuiGeneratorTest, DatasetWebViewQuotaIsExactAndGuarded) {
  dataset::DatasetConfig config;
  config.totalScreenshots = 100;

  const auto countWeb = [](const dataset::AuiDataset& data) {
    int web = 0;
    for (const dataset::SampleSpec& spec : data.specs()) {
      if (spec.spec.host == apps::AuiHost::kWebView) ++web;
    }
    return web;
  };

  const dataset::AuiDataset plain = dataset::AuiDataset::build(config);
  EXPECT_EQ(countWeb(plain), 0);

  config.webViewFrac = 0.5;
  const dataset::AuiDataset hybrid = dataset::AuiDataset::build(config);
  const int web = countWeb(hybrid);
  EXPECT_GT(web, 0);
  for (const dataset::SampleSpec& spec : hybrid.specs()) {
    if (spec.spec.host == apps::AuiHost::kWebView) {
      EXPECT_EQ(spec.spec.type, apps::AuiType::kAdvertisement);
    }
  }

  // A WebView sample renders and keeps its annotations.
  for (std::size_t i = 0; i < hybrid.size(); ++i) {
    if (hybrid.specs()[i].spec.host != apps::AuiHost::kWebView) continue;
    const dataset::Sample sample = hybrid.materialize(i);
    EXPECT_FALSE(sample.annotations.empty());
    EXPECT_EQ(sample.image.width(), config.screenSize.width);
    break;
  }
}

// ----------------------------------------- FraudDroid id coverage (sat 2)

UiNode uiNode(std::string className, std::string resourceId, Rect bounds,
              bool clickable, int depth) {
  UiNode node;
  node.className = std::move(className);
  node.resourceId = std::move(resourceId);
  node.boundsOnScreen = bounds;
  node.clickable = clickable;
  node.depth = depth;
  return node;
}

TEST(FraudDroidCoverageTest, EmptyIdsNeverMatchAndCoverageIsCounted) {
  // The degenerate pre-fix behavior: an empty resource id substring-matched
  // every token. This screen is AUI-shaped but carries no ids at all.
  UiDump dump;
  dump.push_back(uiNode("FrameLayout", "", {0, 0, 360, 720}, false, 0));
  dump.push_back(uiNode("View", "", {330, 10, 20, 20}, true, 1));  // tiny
  dump.push_back(uiNode("Button", "", {30, 300, 300, 120}, true, 1));
  const baselines::FraudDroidDetector detector;
  const baselines::FraudDroidResult result = detector.analyze(dump, {360, 720});
  EXPECT_FALSE(result.isAui);
  EXPECT_TRUE(result.upoBoxes.empty());
  EXPECT_EQ(result.nodesSeen, 3);
  EXPECT_EQ(result.nodesWithId, 0);
  EXPECT_DOUBLE_EQ(result.idCoverage(), 0.0);
}

TEST(FraudDroidCoverageTest, DuplicateIdAndBoundsCollapseToOneBox) {
  UiDump dump;
  dump.push_back(uiNode("FrameLayout", "root", {0, 0, 360, 720}, false, 0));
  // A duplicated DOM-style id with identical bounds (web pages reuse ids):
  // must count once, not inflate the flagged set.
  dump.push_back(uiNode("View", "btn_close", {330, 10, 20, 20}, true, 1));
  dump.push_back(uiNode("View", "btn_close", {330, 10, 20, 20}, true, 1));
  dump.push_back(uiNode("Button", "cta_open", {30, 300, 300, 120}, true, 1));
  const baselines::FraudDroidDetector detector;
  const baselines::FraudDroidResult result = detector.analyze(dump, {360, 720});
  EXPECT_TRUE(result.isAui);
  EXPECT_EQ(result.upoBoxes.size(), 1u);
  EXPECT_EQ(result.nodesSeen, 4);
  EXPECT_EQ(result.nodesWithId, 4);
  EXPECT_DOUBLE_EQ(result.idCoverage(), 1.0);
}

// ------------------------------------------ lint degradation on virtual

TEST(IdTokenRuleVirtualTest, MatchesVirtualIdsAndLabelsAtReducedScale) {
  UiDump dump;
  dump.push_back(uiNode("FrameLayout", "root", {0, 0, 360, 720}, false, 0));
  UiNode close = uiNode("android.view.View", "", {330, 10, 20, 20}, true, 1);
  close.isVirtual = true;
  close.virtualId = "ad-close-x";  // dismiss vocabulary in the DOM id
  dump.push_back(close);
  UiNode cta = uiNode("android.widget.Button", "", {30, 300, 300, 120}, true, 1);
  cta.isVirtual = true;
  cta.text = "OPEN NOW";  // CTA vocabulary only in the visible label
  dump.push_back(cta);

  analysis::LintEngine engine;
  engine.addRule(std::make_unique<analysis::IdTokenRule>());
  const analysis::LintReport report = engine.run(dump, {360, 720});
  ASSERT_TRUE(report.has("aui-id-hint"));
  // Reduced confidence: virtual evidence is scaled below the native 0.4.
  EXPECT_LT(report.best("aui-id-hint")->score, 0.4);
  EXPECT_GE(report.findings.size(), 2u);
}

// ----------------------------- decoration through the host (tentpole)

class StubDetector : public cv::Detector {
 public:
  std::vector<cv::Detection> detect(const gfx::Bitmap&) const override {
    return {};
  }
  double costMacsPerImage() const override { return 1.0; }
};

TEST(VirtualDecorationTest, DecorateVirtualNodeTargetsBoundsThroughHost) {
  android::AndroidSystem system;
  StubDetector detector;
  core::DarpaService service(detector);
  system.accessibility.connect(service);

  const Rect frame = system.windowManager.appFrame(false);
  system.windowManager.showAppWindow(
      "com.web",
      webScreen({frame.width, frame.height}, {20, 40, 280, 400},
                interstitialPage({280, 400})),
      false);
  system.looper.runUntilIdle();

  const UiDump dump = system.windowManager.dumpTopWindow();
  const std::uint64_t before = android::WindowManager::fingerprint(dump);
  const UiNode* close = findVirtualNode(dump, "gwd-close");
  ASSERT_NE(close, nullptr);

  EXPECT_FALSE(service.decorateVirtualNode("missing-id"));
  EXPECT_FALSE(service.decorateVirtualNode(""));
  ASSERT_TRUE(service.decorateVirtualNode("gwd-close"));

  // The ring lands around the virtual node's on-screen bounds, carried
  // through the hosting native view and the §IV-D window offset.
  const std::vector<Rect> rects = service.decorationRects();
  ASSERT_EQ(rects.size(), 1u);
  EXPECT_EQ(rects[0],
            close->boundsOnScreen.inflated(core::kDecorationThickness + 1));

  // Decoration immunity extends to hybrid dumps: the decorated screen
  // fingerprints identically, so caches keyed on it stay warm.
  EXPECT_EQ(android::WindowManager::fingerprint(
                system.windowManager.dumpTopWindow()),
            before);
}

}  // namespace
}  // namespace darpa
