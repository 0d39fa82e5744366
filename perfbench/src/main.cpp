// perfbench — the repository benchmark's binary. run.py builds it,
// prepares the model and calls it; see perfbench/README.md.
//
//   perfbench describe              config text the model cache key hashes
//   perfbench train --out FILE      trains the paper-scale detector
//   perfbench run --workload W --seed N --seconds S --trace 0|1
//                 --model FILE [--tiny]
//
// `run` prints one JSON object as its last stdout line: correctness,
// attempt/failure counts, both metric sets, the input/output digests, the
// resolved int8 kernel lane and human-readable notes.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <thread>

#include "bench_common.h"
#include "util.h"
#include "workloads.h"

namespace perfbench {

Clock::time_point processStart() {
  static const Clock::time_point start = Clock::now();
  return start;
}

namespace {

using namespace darpa;

int usage() {
  std::fprintf(stderr,
               "usage: perfbench describe | train --out FILE | run --workload "
               "W --seed N --seconds S --trace 0|1 --model FILE [--tiny]\n");
  return 2;
}

/// Every value of the train, dataset and detector configs the model is a
/// function of (with the sources under src/, which run.py hashes).
std::string describeConfigs() {
  const dataset::AuiDataset data = bench::paperDataset();
  const dataset::DatasetConfig& d = data.config();
  const cv::TrainConfig t = bench::paperTrainConfig();
  const cv::OneStageConfig o;
  char buf[1024];
  std::string out;
  std::snprintf(buf, sizeof buf,
                "dataset total=%d seed=%llu screen=%dx%d fullscreen=%.17g "
                "ghost=%.17g web=%.17g\n",
                d.totalScreenshots, static_cast<unsigned long long>(d.seed),
                d.screenSize.width, d.screenSize.height, d.fullscreenProb,
                d.ghostUpoProb, d.webViewFrac);
  out += buf;
  std::snprintf(buf, sizeof buf,
                "train epochs=%d lr=%.9g decay=%d mining=%d hard=%d random=%d "
                "posrep=%d boxw=%.9g benign=%d mask=%d seed=%llu\n",
                t.epochs, t.learningRate, t.lrDecayEvery, t.miningEvery,
                t.hardNegativesPerImage, t.randomNegativesPerImage,
                t.positiveRepeat, t.boxLossWeight, t.benignImages,
                t.maskText ? 1 : 0, static_cast<unsigned long long>(t.seed));
  out += buf;
  out += "detector anchors=";
  for (const cv::Anchor& a : o.anchors) {
    out += std::to_string(a.width) + "x" + std::to_string(a.height) + ",";
  }
  out += " hidden=";
  for (const int h : o.hiddenLayers) out += std::to_string(h) + ",";
  std::snprintf(
      buf, sizeof buf,
      " channels=%u scale=%d ago=%.9g upo=%.9g nms=%.17g extra=%.17g "
      "neg=%.17g drop=%d batched=%d refine=%d/%.17g/%d/%.17g/%.17g\n",
      static_cast<unsigned>(o.channels.mask), o.featureScale,
      o.confidenceThresholdAgo, o.confidenceThresholdUpo, o.nmsIou,
      o.extraPositiveShapeIou, o.negativeIou, o.dropUnrefined ? 1 : 0,
      o.batchedHead ? 1 : 0, o.refine.colorTolerance, o.refine.windowInflate,
      o.refine.windowMargin, o.refine.minAreaFrac, o.refine.maxWindowFrac);
  out += buf;
  return out;
}

int train(const std::string& out) {
  const Clock::time_point t0 = Clock::now();
  const dataset::AuiDataset data = bench::paperDataset();
  const cv::OneStageDetector detector = cv::OneStageDetector::train(
      data, cv::OneStageConfig{}, bench::paperTrainConfig());
  if (!detector.saveModel(out)) {
    std::fprintf(stderr, "perfbench: cannot write model '%s'\n", out.c_str());
    return 1;
  }
  std::printf("{\"train_s\": %.3f}\n", msSince(t0) / 1000.0);
  return 0;
}

std::string jsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

int run(const RunOptions& options) {
  RunResult result;
  if (options.workload == "screen_stream") {
    result = runScreenStream(options);
  } else if (options.workload == "fleet_mixed") {
    result = runFleetMixed(options);
  } else if (options.workload == "fleet_shared") {
    result = runFleetShared(options);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 options.workload.c_str());
    return 2;
  }
  std::string notes = "[";
  for (std::size_t i = 0; i < result.notes.size(); ++i) {
    notes += (i == 0 ? "" : ", ") + jsonString(result.notes[i]);
  }
  notes += "]";
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"end_to_end\": %s, \"per_layer\": %s, \"output_digest\": \"%s\", "
      "\"input_digest\": \"%s\", \"int8_lane\": \"%s\", \"workers\": %d, "
      "\"build_type\": \"%s\", \"notes\": %s}\n",
      result.correct ? "true" : "false",
      static_cast<long long>(result.attempted),
      static_cast<long long>(result.failed), result.endToEnd.json().c_str(),
      result.perLayer.json().c_str(), result.outputDigest.c_str(),
      result.inputDigest.c_str(), cv::OneStageDetector::quantizedKernelLane(),
      options.workers, PERFBENCH_BUILD_TYPE, notes.c_str());
  return result.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  (void)processStart();
  if (argc < 2) return usage();
  const std::string_view command = argv[1];
  RunOptions options;
  std::string out;
  for (int i = 2; i < argc; ++i) {
    const std::string_view flag = argv[i];
    const bool hasValue = i + 1 < argc;
    if (flag == "--tiny") {
      options.tiny = true;
    } else if (!hasValue) {
      return usage();
    } else if (flag == "--workload") {
      options.workload = argv[++i];
    } else if (flag == "--seed") {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(argv[++i], nullptr);
    } else if (flag == "--trace") {
      options.trace = std::string_view(argv[++i]) == "1";
    } else if (flag == "--model") {
      options.modelPath = argv[++i];
    } else if (flag == "--out") {
      out = argv[++i];
    } else {
      return usage();
    }
  }
  if (command == "describe") {
    std::fputs(describeConfigs().c_str(), stdout);
    return 0;
  }
  if (command == "train") return out.empty() ? usage() : train(out);
  if (command != "run" || options.modelPath.empty()) return usage();
  options.workers = std::clamp(
      static_cast<int>(std::thread::hardware_concurrency()), 1, 4);
  return run(options);
}
