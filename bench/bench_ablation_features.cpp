// Ablation — which visual channel carries AUI detection? Drops each feature
// channel in turn, retrains on a reduced dataset, and reports the F1 delta.
// (DESIGN.md §5, ablation 3.)
#include <cstdio>

#include "bench_common.h"

using namespace darpa;

int main(int argc, char** argv) {
  bench::initFromArgs(argc, argv);
  bench::printHeader("Ablation — feature channels (reduced dataset, 420 shots)");
  dataset::DatasetConfig dataConfig;
  dataConfig.totalScreenshots = bench::scaled(420, 96);
  dataConfig.seed = 2023;
  const dataset::AuiDataset data = dataset::AuiDataset::build(dataConfig);

  cv::TrainConfig trainConfig;
  trainConfig.epochs = bench::scaled(20, 4);
  trainConfig.benignImages = bench::scaled(80, 20);

  // Smaller training runs need a higher operating point than the
  // full-scale model's tuned threshold. Built once and copied per variant:
  // GCC 12 at -O3 reports a false -Wmaybe-uninitialized on the default
  // anchor list when the default constructor is inlined into the loop.
  cv::OneStageConfig baseConfig;
  baseConfig.confidenceThresholdUpo = 0.3f;
  auto evalWith = [&](cv::ChannelSet channels) {
    cv::OneStageConfig config = baseConfig;
    config.channels = channels;
    const cv::OneStageDetector detector =
        cv::OneStageDetector::train(data, config, trainConfig);
    return cv::evaluateDetector(detector, data, data.testIndices());
  };

  std::printf("[bench] training 6 variants (~2 min each)...\n");
  const cv::ModelMetrics full = evalWith(cv::ChannelSet::all());
  bench::printModelMetrics("all channels", full);
  for (int c = 0; c < cv::kChannelCount; ++c) {
    const auto channel = static_cast<cv::Channel>(c);
    const cv::ModelMetrics metrics =
        evalWith(cv::ChannelSet::all().without(channel));
    char tag[64];
    std::snprintf(tag, sizeof(tag), "without %s",
                  std::string(cv::channelName(channel)).c_str());
    bench::printModelMetrics(tag, metrics);
    std::printf("    -> All F1 delta vs full: %+.3f\n",
                metrics.all().f1() - full.all().f1());
  }
  return 0;
}
