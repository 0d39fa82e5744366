// Post-training int8 quantization — the "ncnn port" of the reproduction.
//
// The paper converts the trained YOLOv5 model PyTorch → ONNX → ncnn,
// replacing redundant calculations with constants, to run on an ARM phone.
// This module performs the analogous transformation on our Mlp heads:
//
//  * weights: per-layer symmetric int8 (scale = max|w| / 127);
//  * activations: per-layer dynamic-range int8, scales calibrated by running
//    the float model over a calibration set and recording per-layer input
//    maxima;
//  * constant folding: the weight scale and input scale of a layer are
//    folded into a single per-layer dequantization multiplier at conversion
//    time, so the inference inner loop is pure int8*int8→int32 accumulation
//    followed by one multiply-add per output.
//
// The observable effect matches Table IV: a model ~4x smaller with a small
// (~1-2 %) F1 loss relative to the fp32 "server" model.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "nn/mlp.h"

namespace darpa::nn {

struct QuantizedLayer {
  int inSize = 0;
  int outSize = 0;
  std::vector<std::int8_t> weights;  ///< Row-major (outSize x inSize).
  std::vector<float> bias;           ///< Kept fp32 (as ncnn does).
  float inputScale = 1.0f;           ///< Activation quantization step.
  float dequantScale = 1.0f;         ///< Folded weightScale * inputScale.
};

class QuantizedMlp {
 public:
  /// Converts a trained float model. `calibrationInputs` should be a
  /// representative sample of real inputs; activation scales are taken from
  /// the maxima observed while running them through the float model. An
  /// empty calibration set falls back to scale 1 (poor accuracy — tests
  /// cover this contrast deliberately).
  static QuantizedMlp fromMlp(
      const Mlp& model,
      std::span<const std::vector<float>> calibrationInputs);

  [[nodiscard]] int inputSize() const {
    return layers_.empty() ? 0 : layers_.front().inSize;
  }
  [[nodiscard]] int outputSize() const {
    return layers_.empty() ? 0 : layers_.back().outSize;
  }

  /// Int8 inference; same output contract as Mlp::forward.
  [[nodiscard]] std::vector<float> forward(std::span<const float> x) const;

  /// Single-input forward into a caller-provided span; allocation-free once
  /// `scratch` is warm. Bit-equal to forward().
  void forwardInto(std::span<const float> x, std::span<float> out,
                   ForwardScratch& scratch) const;

  /// Batched int8 inference, same layout contract as Mlp::forwardBatch.
  /// Per row and layer: quantize the input (round(x / inputScale),
  /// clamped to +-127), take the exact int32 dot product with each weight
  /// row, then float(acc) * dequantScale + bias with a sign-exact ReLU on
  /// hidden layers. Rows are independent, so any batch size is bit-equal
  /// to per-row forward().
  void forwardBatch(std::span<const float> inputs, int batch,
                    std::span<float> outputs, ForwardScratch& scratch) const;

  /// Serialized parameter footprint in bytes (int8 weights + fp32 biases +
  /// two scales per layer) — compare with 4 bytes/weight for the fp32 model.
  [[nodiscard]] std::size_t modelBytes() const;

  [[nodiscard]] std::span<const QuantizedLayer> layers() const {
    return layers_;
  }

 private:
  std::vector<QuantizedLayer> layers_;
};

}  // namespace darpa::nn
