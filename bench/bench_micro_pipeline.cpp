// Microbenchmarks (google-benchmark) for the pipeline stages: compositing,
// feature extraction, candidate descriptors, NMS, flood-fill refinement,
// full one-stage detection, and the quantized head.
#include <benchmark/benchmark.h>

#include <memory>

#include "android/system.h"
#include "bench_common.h"
#include "cv/one_stage.h"
#include "dataset/dataset.h"

using namespace darpa;

namespace {

const dataset::Sample& sampleScreenshot() {
  static const dataset::Sample sample = [] {
    dataset::DatasetConfig config;
    config.totalScreenshots = 8;
    config.seed = 1;
    return dataset::AuiDataset::build(config).materialize(0);
  }();
  return sample;
}

cv::OneStageDetector& sharedDetector() {
  static cv::OneStageDetector detector = [] {
    dataset::DatasetConfig config;
    config.totalScreenshots = bench::scaled(80, 24);
    config.seed = 5;
    const dataset::AuiDataset data = dataset::AuiDataset::build(config);
    cv::TrainConfig trainConfig;
    trainConfig.epochs = bench::scaled(6, 2);
    trainConfig.benignImages = bench::scaled(20, 8);
    return cv::OneStageDetector::train(data, cv::OneStageConfig{}, trainConfig);
  }();
  return detector;
}

// aui:0 composites a benign screen; aui:1 an AUI, whose full-frame
// translucent scrim blends every pixel — where capture time actually goes.
void BM_WindowCompositing(benchmark::State& state) {
  android::AndroidSystem system;
  apps::ScreenGenerator generator(apps::ScreenGenerator::Params{}, 3);
  apps::GeneratedScreen screen = state.range(0) != 0
                                     ? generator.makeAui(generator.randomSpec())
                                     : generator.makeBenign();
  system.windowManager.showAppWindow("com.app", std::move(screen.root), false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(system.windowManager.composite());
  }
}
BENCHMARK(BM_WindowCompositing)->ArgName("aui")->Arg(0)->Arg(1);

void BM_FeatureMapExtraction(benchmark::State& state) {
  const gfx::Bitmap& image = sampleScreenshot().image;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cv::FeatureMap(image, cv::ChannelSet::all(),
                       static_cast<int>(state.range(0))));
  }
}
BENCHMARK(BM_FeatureMapExtraction)->Arg(2)->Arg(4);

void BM_CandidateDescriptor(benchmark::State& state) {
  const cv::FeatureMap map(sampleScreenshot().image);
  const Rect box{120, 300, 130, 130};
  for (auto _ : state) {
    benchmark::DoNotOptimize(cv::candidateFeatures(map, box));
  }
}
BENCHMARK(BM_CandidateDescriptor);

void BM_NonMaxSuppression(benchmark::State& state) {
  Rng rng(7);
  std::vector<cv::Detection> detections;
  for (int i = 0; i < state.range(0); ++i) {
    detections.push_back(cv::Detection{
        Rect{rng.uniformInt(0, 300), rng.uniformInt(0, 600),
             rng.uniformInt(14, 200), rng.uniformInt(14, 200)},
        rng.chance(0.5) ? dataset::BoxLabel::kAgo : dataset::BoxLabel::kUpo,
        static_cast<float>(rng.uniform())});
  }
  for (auto _ : state) {
    auto copy = detections;
    benchmark::DoNotOptimize(cv::nonMaxSuppression(std::move(copy), 0.45));
  }
}
BENCHMARK(BM_NonMaxSuppression)->Arg(32)->Arg(256);

void BM_FloodFillRefine(benchmark::State& state) {
  const dataset::Sample& sample = sampleScreenshot();
  const Rect target = sample.annotations.front().box;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cv::snapToRegion(sample.image, target.inflated(3)));
  }
}
BENCHMARK(BM_FloodFillRefine);

void BM_OneStageDetect(benchmark::State& state) {
  cv::OneStageDetector& detector = sharedDetector();
  const gfx::Bitmap& image = sampleScreenshot().image;
  for (auto _ : state) {
    benchmark::DoNotOptimize(detector.detect(image));
  }
}
BENCHMARK(BM_OneStageDetect);

void BM_QuantizedHeadForward(benchmark::State& state) {
  cv::OneStageDetector& detector = sharedDetector();
  std::vector<gfx::Bitmap> calibration;
  calibration.push_back(sampleScreenshot().image.clone());
  detector.enableQuantized(calibration);
  const cv::FeatureMap map(sampleScreenshot().image);
  const std::vector<float> features =
      cv::candidateFeatures(map, {100, 100, 20, 20});
  const nn::Mlp& head = detector.head();
  for (auto _ : state) {
    benchmark::DoNotOptimize(head.forward(features));
  }
  detector.disableQuantized();
}
BENCHMARK(BM_QuantizedHeadForward);

void BM_ScreenGeneration(benchmark::State& state) {
  apps::ScreenGenerator generator(apps::ScreenGenerator::Params{}, 11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(generator.makeAui(generator.randomSpec()));
  }
}
BENCHMARK(BM_ScreenGeneration);

void BM_DatasetMaterialize(benchmark::State& state) {
  dataset::DatasetConfig config;
  config.totalScreenshots = 16;
  config.seed = 2;
  const dataset::AuiDataset data = dataset::AuiDataset::build(config);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(data.materialize(i++ % data.size()));
  }
}
BENCHMARK(BM_DatasetMaterialize);

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): the shared --quick flag must be
// stripped before google-benchmark parses argv (it rejects unknown flags).
int main(int argc, char** argv) {
  argc = bench::initFromArgs(argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
