#include "nn/quantize.h"

#include <algorithm>
#include <cmath>

namespace darpa::nn {

namespace {

/// Symmetric int8 quantization: round(x / scale), clamped to +-127.
std::int8_t quantizeValue(float x, float scale) {
  const float q = std::round(x / scale);
  return static_cast<std::int8_t>(std::clamp(q, -127.0f, 127.0f));
}

/// One quantized layer over `batch` row-major input rows; `q` stages one
/// row's quantized input (inSize bytes). The ReLU is `sum < 0 ? 0 : sum`
/// because max(sum, 0) would turn a -0.0 sum into +0.0.
void layerForward(const QuantizedLayer& layer, const float* in, int batch,
                  bool relu, std::int8_t* q, float* out) {
  for (int n = 0; n < batch; ++n) {
    const float* x = in + static_cast<std::size_t>(n) * layer.inSize;
    for (int i = 0; i < layer.inSize; ++i) {
      q[i] = quantizeValue(x[i], layer.inputScale);
    }
    float* o = out + static_cast<std::size_t>(n) * layer.outSize;
    for (int j = 0; j < layer.outSize; ++j) {
      const std::int8_t* w =
          layer.weights.data() + static_cast<std::size_t>(j) * layer.inSize;
      std::int32_t acc = 0;
      for (int i = 0; i < layer.inSize; ++i) {
        acc += static_cast<std::int32_t>(q[i]) * w[i];
      }
      const float sum = static_cast<float>(acc) * layer.dequantScale +
                        layer.bias[static_cast<std::size_t>(j)];
      o[j] = relu && sum < 0.0f ? 0.0f : sum;
    }
  }
}

}  // namespace

QuantizedMlp QuantizedMlp::fromMlp(
    const Mlp& model, std::span<const std::vector<float>> calibrationInputs) {
  const auto layers = model.layers();

  // Calibration: track the max |input| seen at each layer while replaying
  // the float forward pass over the calibration set.
  std::vector<float> inputMax(layers.size(), 0.0f);
  for (const std::vector<float>& sample : calibrationInputs) {
    std::vector<float> current = sample;
    for (std::size_t l = 0; l < layers.size(); ++l) {
      for (float v : current) {
        inputMax[l] = std::max(inputMax[l], std::fabs(v));
      }
      // Float forward through layer l (ReLU on hidden layers).
      const DenseLayer& layer = layers[l];
      std::vector<float> next(static_cast<std::size_t>(layer.outSize), 0.0f);
      for (int j = 0; j < layer.outSize; ++j) {
        const float* row =
            layer.weights.data() + static_cast<std::size_t>(j) * layer.inSize;
        float sum = layer.bias[static_cast<std::size_t>(j)];
        for (int i = 0; i < layer.inSize; ++i) {
          sum += row[i] * current[static_cast<std::size_t>(i)];
        }
        const bool hidden = l + 1 < layers.size();
        next[static_cast<std::size_t>(j)] =
            hidden && sum < 0.0f ? 0.0f : sum;
      }
      current.swap(next);
    }
  }

  QuantizedMlp out;
  out.layers_.reserve(layers.size());
  for (std::size_t l = 0; l < layers.size(); ++l) {
    const DenseLayer& layer = layers[l];
    QuantizedLayer q;
    q.inSize = layer.inSize;
    q.outSize = layer.outSize;
    float weightMax = 0.0f;
    for (float w : layer.weights) weightMax = std::max(weightMax, std::fabs(w));
    const float weightScale = weightMax > 0.0f ? weightMax / 127.0f : 1.0f;
    q.weights.resize(layer.weights.size());
    for (std::size_t i = 0; i < layer.weights.size(); ++i) {
      q.weights[i] = quantizeValue(layer.weights[i], weightScale);
    }
    q.bias = layer.bias;
    q.inputScale = inputMax[l] > 0.0f ? inputMax[l] / 127.0f : 1.0f;
    // Constant folding: one multiplier per layer instead of two.
    q.dequantScale = weightScale * q.inputScale;
    out.layers_.push_back(std::move(q));
  }
  return out;
}

void QuantizedMlp::forwardBatch(std::span<const float> inputs, int batch,
                                std::span<float> outputs,
                                ForwardScratch& scratch) const {
  if (batch <= 0 || layers_.empty()) return;
  const float* cur = inputs.data();
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    const QuantizedLayer& layer = layers_[l];
    std::int8_t* q =
        scratch.ensureInt8(static_cast<std::size_t>(layer.inSize));
    const bool hidden = l + 1 < layers_.size();
    float* dst = hidden ? scratch.ensureFloats(
                              l % 2 != 0, static_cast<std::size_t>(batch) *
                                              layer.outSize)
                        : outputs.data();
    layerForward(layer, cur, batch, hidden, q, dst);
    cur = dst;
  }
}

void QuantizedMlp::forwardInto(std::span<const float> x, std::span<float> out,
                               ForwardScratch& scratch) const {
  forwardBatch(x, 1, out, scratch);
}

std::vector<float> QuantizedMlp::forward(std::span<const float> x) const {
  std::vector<float> out(static_cast<std::size_t>(outputSize()));
  thread_local ForwardScratch scratch;
  forwardInto(x, out, scratch);
  return out;
}

std::size_t QuantizedMlp::modelBytes() const {
  std::size_t bytes = 0;
  for (const QuantizedLayer& layer : layers_) {
    bytes += layer.weights.size() * sizeof(std::int8_t);
    bytes += layer.bias.size() * sizeof(float);
    bytes += 2 * sizeof(float);  // inputScale + dequantScale
  }
  return bytes;
}

}  // namespace darpa::nn
