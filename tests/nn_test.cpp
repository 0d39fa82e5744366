// Unit tests for the NN substrate: MLP forward/backward, Adam training,
// losses, and int8 quantization.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>
#include <sstream>
#include <string>

#include "nn/losses.h"
#include "nn/mlp.h"
#include "nn/quantize.h"
#include "util/rng.h"

namespace darpa::nn {
namespace {

TEST(LossesTest, SigmoidRangeAndSymmetry) {
  EXPECT_NEAR(sigmoid(0.0f), 0.5f, 1e-6f);
  EXPECT_GT(sigmoid(10.0f), 0.9999f);
  EXPECT_LT(sigmoid(-10.0f), 0.0001f);
  EXPECT_NEAR(sigmoid(2.0f) + sigmoid(-2.0f), 1.0f, 1e-6f);
}

TEST(LossesTest, BceMatchesDefinition) {
  // BCE(logit, 1) = -log(sigmoid(logit))
  const float logit = 0.7f;
  EXPECT_NEAR(bceWithLogits(logit, 1.0f), -std::log(sigmoid(logit)), 1e-5f);
  EXPECT_NEAR(bceWithLogits(logit, 0.0f), -std::log(1.0f - sigmoid(logit)),
              1e-5f);
}

TEST(LossesTest, BceStableForExtremeLogits) {
  EXPECT_TRUE(std::isfinite(bceWithLogits(100.0f, 0.0f)));
  EXPECT_TRUE(std::isfinite(bceWithLogits(-100.0f, 1.0f)));
  EXPECT_NEAR(bceWithLogits(100.0f, 1.0f), 0.0f, 1e-5f);
}

TEST(LossesTest, BceGradientIsSigmoidMinusTarget) {
  EXPECT_NEAR(bceWithLogitsGrad(0.0f, 1.0f), -0.5f, 1e-6f);
  EXPECT_NEAR(bceWithLogitsGrad(0.0f, 0.0f), 0.5f, 1e-6f);
}

TEST(LossesTest, SmoothL1QuadraticNearZeroLinearFar) {
  EXPECT_NEAR(smoothL1(0.5f, 0.0f), 0.125f, 1e-6f);  // 0.5 * 0.25
  EXPECT_NEAR(smoothL1(3.0f, 0.0f), 2.5f, 1e-6f);    // |3| - 0.5
  EXPECT_NEAR(smoothL1Grad(0.5f, 0.0f), 0.5f, 1e-6f);
  EXPECT_NEAR(smoothL1Grad(3.0f, 0.0f), 1.0f, 1e-6f);
  EXPECT_NEAR(smoothL1Grad(-3.0f, 0.0f), -1.0f, 1e-6f);
}

TEST(MlpTest, ShapesAndParameterCount) {
  Rng rng(1);
  const Mlp mlp({4, 8, 3}, rng);
  EXPECT_EQ(mlp.inputSize(), 4);
  EXPECT_EQ(mlp.outputSize(), 3);
  EXPECT_EQ(mlp.parameterCount(), 4u * 8 + 8 + 8u * 3 + 3);
  const std::vector<float> out = mlp.forward(std::vector<float>{1, 2, 3, 4});
  EXPECT_EQ(out.size(), 3u);
}

TEST(MlpTest, DeterministicGivenSeed) {
  Rng rngA(42);
  Rng rngB(42);
  const Mlp a({5, 6, 2}, rngA);
  const Mlp b({5, 6, 2}, rngB);
  const std::vector<float> x{0.1f, -0.2f, 0.3f, 0.5f, -0.9f};
  EXPECT_EQ(a.forward(x), b.forward(x));
}

TEST(MlpTest, ForwardCachedMatchesForward) {
  Rng rng(3);
  const Mlp mlp({3, 4, 4, 2}, rng);
  const std::vector<float> x{0.5f, -1.0f, 2.0f};
  Mlp::Cache cache;
  EXPECT_EQ(mlp.forwardCached(x, cache), mlp.forward(x));
  EXPECT_EQ(cache.activations.size(), 4u);  // input + 3 layers
}

TEST(MlpTest, GradientMatchesFiniteDifference) {
  Rng rng(7);
  Mlp mlp({2, 3, 1}, rng);
  const std::vector<float> x{0.4f, -0.6f};
  const float target = 1.0f;

  // Analytic gradient via BCE on the single output.
  Mlp::Cache cache;
  const std::vector<float> out = mlp.forwardCached(x, cache);
  mlp.accumulateGradient(cache, std::vector<float>{
                                    bceWithLogitsGrad(out[0], target)});
  // Perturb the first weight of layer 0 and compare numeric gradient.
  const float analytic = mlp.layers()[0].gradWeights[0];
  // Rebuild identical model and evaluate loss at w +- eps.
  const float eps = 1e-3f;
  auto lossWithDelta = [&](float delta) {
    Rng rng2(7);
    Mlp probe({2, 3, 1}, rng2);
    const_cast<DenseLayer&>(probe.layers()[0]).weights[0] += delta;
    return bceWithLogits(probe.forward(x)[0], target);
  };
  const float numeric = (lossWithDelta(eps) - lossWithDelta(-eps)) / (2 * eps);
  EXPECT_NEAR(analytic, numeric, 5e-3f);
}

TEST(MlpTest, LearnsXor) {
  Rng rng(5);
  Mlp mlp({2, 8, 1}, rng);
  const float inputs[4][2] = {{0, 0}, {0, 1}, {1, 0}, {1, 1}};
  const float targets[4] = {0, 1, 1, 0};
  AdamConfig adam;
  adam.learningRate = 0.05f;
  for (int epoch = 0; epoch < 400; ++epoch) {
    for (int i = 0; i < 4; ++i) {
      Mlp::Cache cache;
      const std::vector<float> out = mlp.forwardCached(
          std::vector<float>{inputs[i][0], inputs[i][1]}, cache);
      mlp.accumulateGradient(
          cache, std::vector<float>{bceWithLogitsGrad(out[0], targets[i])});
    }
    mlp.applyAdam(adam, 4);
  }
  for (int i = 0; i < 4; ++i) {
    const float prob = sigmoid(
        mlp.forward(std::vector<float>{inputs[i][0], inputs[i][1]})[0]);
    if (targets[i] > 0.5f) {
      EXPECT_GT(prob, 0.8f) << "case " << i;
    } else {
      EXPECT_LT(prob, 0.2f) << "case " << i;
    }
  }
}

TEST(MlpTest, ClearGradientsZeroesAccumulators) {
  Rng rng(9);
  Mlp mlp({2, 2, 1}, rng);
  Mlp::Cache cache;
  mlp.forwardCached(std::vector<float>{1.0f, 1.0f}, cache);
  mlp.accumulateGradient(cache, std::vector<float>{1.0f});
  mlp.clearGradients();
  for (const DenseLayer& layer : mlp.layers()) {
    for (float g : layer.gradWeights) EXPECT_EQ(g, 0.0f);
    for (float g : layer.gradBias) EXPECT_EQ(g, 0.0f);
  }
}

// ------------------------------------------------ model-file loading

/// A saved {3, 4, 2} model as raw bytes.
std::string savedModelBytes() {
  Rng rng(5);
  const Mlp mlp({3, 4, 2}, rng);
  std::ostringstream out;
  mlp.save(out);
  return out.str();
}

std::optional<Mlp> loadBytes(const std::string& bytes) {
  std::istringstream in(bytes);
  return Mlp::load(in);
}

/// Overwrites the float at byte `offset` of a serialized model.
void patchFloat(std::string& bytes, std::size_t offset, float value) {
  std::memcpy(bytes.data() + offset, &value, sizeof value);
}

TEST(MlpLoadTest, OversizedHeaderFailsClosed) {
  // Magic, two layers, each 2^20 wide: accepting this header would mean
  // allocating 2^40 floats before reading a single weight.
  std::string header(16, '\0');
  const std::uint32_t magic = 0x44415250;
  const std::uint32_t layers = 2;
  const std::int32_t width = 1 << 20;
  std::memcpy(header.data(), &magic, 4);
  std::memcpy(header.data() + 4, &layers, 4);
  std::memcpy(header.data() + 8, &width, 4);
  std::memcpy(header.data() + 12, &width, 4);
  EXPECT_FALSE(loadBytes(header).has_value());
  header.append(4, '\0');  // a few payload bytes change nothing
  EXPECT_FALSE(loadBytes(header).has_value());
}

TEST(MlpLoadTest, TruncatedPayloadFailsClosed) {
  const std::string bytes = savedModelBytes();
  for (const std::size_t keep : {std::size_t{8}, std::size_t{20},
                                 bytes.size() / 2, bytes.size() - 1}) {
    EXPECT_FALSE(loadBytes(bytes.substr(0, keep)).has_value())
        << "kept " << keep << " of " << bytes.size() << " bytes";
  }
}

TEST(MlpLoadTest, NonFiniteWeightOrBiasFailsClosed) {
  // Header: magic + layer count + three sizes = 20 bytes; the first weight
  // follows it, and the last float of the file is the output layer's last
  // bias.
  const std::string bytes = savedModelBytes();
  std::string nanWeight = bytes;
  patchFloat(nanWeight, 20, std::nanf(""));
  EXPECT_FALSE(loadBytes(nanWeight).has_value());
  std::string infBias = bytes;
  patchFloat(infBias, bytes.size() - sizeof(float),
             std::numeric_limits<float>::infinity());
  EXPECT_FALSE(loadBytes(infBias).has_value());
}

TEST(QuantizeTest, QuantizedCloselyTracksFloatModel) {
  Rng rng(11);
  const Mlp mlp({6, 12, 4}, rng);
  // Calibration inputs spanning the input range.
  std::vector<std::vector<float>> calibration;
  Rng dataRng(13);
  for (int i = 0; i < 64; ++i) {
    std::vector<float> x(6);
    for (float& v : x) v = static_cast<float>(dataRng.uniform(-1.0, 1.0));
    calibration.push_back(std::move(x));
  }
  const QuantizedMlp quantized = QuantizedMlp::fromMlp(mlp, calibration);
  EXPECT_EQ(quantized.inputSize(), 6);
  EXPECT_EQ(quantized.outputSize(), 4);

  double maxErr = 0.0;
  double maxMag = 0.0;
  for (const std::vector<float>& x : calibration) {
    const std::vector<float> a = mlp.forward(x);
    const std::vector<float> b = quantized.forward(x);
    for (std::size_t i = 0; i < a.size(); ++i) {
      maxErr = std::max(maxErr, std::fabs(static_cast<double>(a[i]) - b[i]));
      maxMag = std::max(maxMag, std::fabs(static_cast<double>(a[i])));
    }
  }
  EXPECT_LT(maxErr, 0.1 * maxMag + 0.05);  // small relative error
}

TEST(QuantizeTest, ModelShrinksRoughly4x) {
  Rng rng(17);
  const Mlp mlp({20, 32, 16, 6}, rng);
  const QuantizedMlp quantized = QuantizedMlp::fromMlp(mlp, {});
  const std::size_t floatBytes = mlp.parameterCount() * sizeof(float);
  EXPECT_LT(quantized.modelBytes(), floatBytes / 3);
}

TEST(QuantizeTest, EmptyCalibrationStillRuns) {
  Rng rng(19);
  const Mlp mlp({3, 4, 2}, rng);
  const QuantizedMlp quantized = QuantizedMlp::fromMlp(mlp, {});
  const std::vector<float> out =
      quantized.forward(std::vector<float>{0.1f, 0.2f, 0.3f});
  EXPECT_EQ(out.size(), 2u);
  for (float v : out) EXPECT_TRUE(std::isfinite(v));
}

// --- batched-forward parity -------------------------------------------------
// The tentpole contract: forwardBatch is a pure throughput transform. The
// batched GEMM keeps the scalar kernel's per-(row, unit) accumulation order,
// so its logits must be BIT-equal to looping forward() — EXPECT_EQ on
// floats, no tolerance.

std::vector<std::vector<float>> randomInputs(int count, int dim,
                                             std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<float>> inputs(count);
  for (std::vector<float>& x : inputs) {
    x.resize(dim);
    for (float& v : x) v = static_cast<float>(rng.uniform(-2.0, 2.0));
  }
  return inputs;
}

TEST(MlpBatchTest, ForwardBatchBitEqualsLoopedForward) {
  Rng rng(31);
  const Mlp mlp({13, 24, 17, 6}, rng);
  // Batch sizes straddling the GEMM row tile, including 1 and a non-multiple.
  for (const int batch : {1, 3, 64, 65, 130}) {
    const std::vector<std::vector<float>> inputs =
        randomInputs(batch, mlp.inputSize(), 100 + batch);
    std::vector<float> packed;
    for (const std::vector<float>& x : inputs) {
      packed.insert(packed.end(), x.begin(), x.end());
    }
    std::vector<float> logits(
        static_cast<std::size_t>(batch) * mlp.outputSize());
    ForwardScratch scratch;
    mlp.forwardBatch(packed, batch, logits, scratch);
    for (int n = 0; n < batch; ++n) {
      const std::vector<float> expected = mlp.forward(inputs[n]);
      for (int j = 0; j < mlp.outputSize(); ++j) {
        EXPECT_EQ(logits[static_cast<std::size_t>(n) * mlp.outputSize() + j],
                  expected[j])
            << "batch=" << batch << " row=" << n << " unit=" << j;
      }
    }
  }
}

TEST(MlpBatchTest, QuantizedForwardBatchBitEqualsLoopedForward) {
  Rng rng(37);
  const Mlp mlp({9, 16, 6}, rng);
  const QuantizedMlp quantized =
      QuantizedMlp::fromMlp(mlp, randomInputs(32, 9, 41));
  for (const int batch : {1, 7, 64, 100}) {
    const std::vector<std::vector<float>> inputs =
        randomInputs(batch, quantized.inputSize(), 200 + batch);
    std::vector<float> packed;
    for (const std::vector<float>& x : inputs) {
      packed.insert(packed.end(), x.begin(), x.end());
    }
    std::vector<float> logits(
        static_cast<std::size_t>(batch) * quantized.outputSize());
    ForwardScratch scratch;
    quantized.forwardBatch(packed, batch, logits, scratch);
    for (int n = 0; n < batch; ++n) {
      const std::vector<float> expected = quantized.forward(inputs[n]);
      for (int j = 0; j < quantized.outputSize(); ++j) {
        EXPECT_EQ(
            logits[static_cast<std::size_t>(n) * quantized.outputSize() + j],
            expected[j])
            << "batch=" << batch << " row=" << n << " unit=" << j;
      }
    }
  }
}

TEST(MlpBatchTest, ForwardIntoMatchesForward) {
  Rng rng(43);
  const Mlp mlp({8, 12, 5}, rng);
  const std::vector<std::vector<float>> inputs = randomInputs(4, 8, 47);
  ForwardScratch scratch;
  std::vector<float> out(5);
  for (const std::vector<float>& x : inputs) {
    mlp.forwardInto(x, out, scratch);
    EXPECT_EQ(out, mlp.forward(x));
  }
}

TEST(MlpBatchTest, ForwardCachedIntoMatchesAndReusesCapacity) {
  Rng rng(53);
  const Mlp mlp({6, 10, 10, 4}, rng);
  const std::vector<std::vector<float>> inputs = randomInputs(8, 6, 59);
  Mlp::Cache cache;
  for (const std::vector<float>& x : inputs) {
    mlp.forwardCachedInto(x, cache);
    const std::span<const float> out = cache.output();
    const std::vector<float> expected = mlp.forward(x);
    ASSERT_EQ(out.size(), expected.size());
    for (std::size_t j = 0; j < expected.size(); ++j) {
      EXPECT_EQ(out[j], expected[j]);
    }
  }
}

TEST(MlpBatchTest, ScratchStopsGrowingAfterWarmup) {
  Rng rng(61);
  const Mlp mlp({16, 32, 16, 6}, rng);
  const QuantizedMlp quantized = QuantizedMlp::fromMlp(mlp, {});
  constexpr int kBatch = 96;
  const std::vector<std::vector<float>> inputs =
      randomInputs(kBatch, 16, 67);
  std::vector<float> packed;
  for (const std::vector<float>& x : inputs) {
    packed.insert(packed.end(), x.begin(), x.end());
  }
  std::vector<float> logits(static_cast<std::size_t>(kBatch) * 6);

  ForwardScratch scratch;
  // Warm-up pass sizes the arena (growth expected)...
  mlp.forwardBatch(packed, kBatch, logits, scratch);
  quantized.forwardBatch(packed, kBatch, logits, scratch);
  EXPECT_GT(scratch.growths(), 0);
  scratch.resetStats();
  // ...after which repeated batched forwards — full size and smaller —
  // must never touch the heap again.
  for (const int batch : {kBatch, kBatch / 2, 1, kBatch}) {
    mlp.forwardBatch(
        std::span<const float>(packed.data(),
                               static_cast<std::size_t>(batch) * 16),
        batch, logits, scratch);
    quantized.forwardBatch(
        std::span<const float>(packed.data(),
                               static_cast<std::size_t>(batch) * 16),
        batch, logits, scratch);
  }
  EXPECT_EQ(scratch.growths(), 0);
  EXPECT_EQ(scratch.grownBytes(), 0);
}

// --- independent int8 reference ---------------------------------------------
// A deliberately naive int8 forward written from the quantization recipe
// alone: quantize each input with round(x / scale) clamped to +-127, take
// the int32 dot product, dequantize with float(acc) * dequantScale + bias,
// ReLU on hidden layers. forwardBatch must match it exactly — EXPECT_EQ
// on floats, no tolerance.

std::vector<float> naiveInt8Forward(const QuantizedMlp& model,
                                    std::vector<float> x) {
  const std::span<const QuantizedLayer> layers = model.layers();
  for (std::size_t l = 0; l < layers.size(); ++l) {
    const QuantizedLayer& layer = layers[l];
    std::vector<int> q;
    for (const float v : x) {
      q.push_back(static_cast<int>(
          std::clamp(std::round(v / layer.inputScale), -127.0f, 127.0f)));
    }
    std::vector<float> next;
    for (int j = 0; j < layer.outSize; ++j) {
      std::int32_t acc = 0;
      for (int i = 0; i < layer.inSize; ++i) {
        acc += q[static_cast<std::size_t>(i)] *
               layer.weights[static_cast<std::size_t>(j * layer.inSize + i)];
      }
      const float sum = static_cast<float>(acc) * layer.dequantScale +
                        layer.bias[static_cast<std::size_t>(j)];
      next.push_back(l + 1 < layers.size() && sum < 0.0f ? 0.0f : sum);
    }
    x = std::move(next);
  }
  return x;
}

TEST(MlpBatchTest, QuantizedForwardBatchMatchesNaiveInt8Reference) {
  // Odd widths around 32 plus the production head shape; batches of one,
  // odd sizes and a few hundred rows.
  const std::vector<std::vector<int>> shapes = {
      {1, 4, 1}, {31, 33, 5}, {33, 31, 4}, {24, 48, 24, 6}};
  std::uint64_t seed = 500;
  for (const std::vector<int>& shape : shapes) {
    Rng rng(++seed);
    const Mlp mlp(shape, rng);
    // Calibrated and the empty-calibration scale-1 edge case both count.
    for (const bool calibrated : {true, false}) {
      const QuantizedMlp quantized = QuantizedMlp::fromMlp(
          mlp, calibrated
                   ? randomInputs(32, mlp.inputSize(), ++seed)
                   : std::vector<std::vector<float>>{});
      for (const int batch : {1, 31, 64, 65, 130}) {
        const std::vector<std::vector<float>> inputs =
            randomInputs(batch, mlp.inputSize(), ++seed);
        std::vector<float> packed;
        for (const std::vector<float>& x : inputs) {
          packed.insert(packed.end(), x.begin(), x.end());
        }
        const int outSize = quantized.outputSize();
        std::vector<float> batched(static_cast<std::size_t>(batch) * outSize,
                                   -1.0f);
        ForwardScratch scratch;
        quantized.forwardBatch(packed, batch, batched, scratch);
        for (int n = 0; n < batch; ++n) {
          const std::vector<float> expected =
              naiveInt8Forward(quantized, inputs[static_cast<std::size_t>(n)]);
          for (int j = 0; j < outSize; ++j) {
            EXPECT_EQ(batched[static_cast<std::size_t>(n * outSize + j)],
                      expected[static_cast<std::size_t>(j)])
                << "shape[0]=" << shape[0] << " calibrated=" << calibrated
                << " batch=" << batch << " row=" << n << " out=" << j;
          }
        }
      }
    }
  }
}

TEST(QuantizeTest, WeightsAreInt8Range) {
  Rng rng(23);
  const Mlp mlp({4, 8, 2}, rng);
  const QuantizedMlp quantized = QuantizedMlp::fromMlp(mlp, {});
  for (const QuantizedLayer& layer : quantized.layers()) {
    for (std::int8_t w : layer.weights) {
      EXPECT_GE(w, -127);
      EXPECT_LE(w, 127);
    }
    EXPECT_GT(layer.dequantScale, 0.0f);
  }
}

}  // namespace
}  // namespace darpa::nn
