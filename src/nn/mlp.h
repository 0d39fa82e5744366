// A small from-scratch neural-network substrate.
//
// The paper trains YOLOv5 in PyTorch on a GPU server. Our reproduction's
// detectors are grid/region detectors whose prediction heads are multi-layer
// perceptrons trained with this module: dense layers, ReLU hidden
// activations, a linear output layer (losses apply their own sigmoid),
// backprop, and Adam. It is deliberately minimal — exactly what dense
// prediction heads over engineered visual features need — but it is a real
// trainable network, not a lookup table: weights are initialized from a
// seeded RNG and fitted by gradient descent on the generated dataset.
#pragma once

#include <cstdint>
#include <istream>
#include <optional>
#include <ostream>
#include <span>
#include <vector>

#include "util/rng.h"

namespace darpa::nn {

/// One fully-connected layer, out = W x + b, with Adam state.
struct DenseLayer {
  int inSize = 0;
  int outSize = 0;
  std::vector<float> weights;  ///< Row-major (outSize x inSize).
  std::vector<float> bias;     ///< outSize.

  // Accumulated gradients (averaged at step time) and Adam moments.
  std::vector<float> gradWeights;
  std::vector<float> gradBias;
  std::vector<float> mWeights, vWeights;
  std::vector<float> mBias, vBias;
};

/// Hyperparameters for Adam.
struct AdamConfig {
  float learningRate = 1e-3f;
  float beta1 = 0.9f;
  float beta2 = 0.999f;
  float epsilon = 1e-8f;
};

/// Caller-owned scratch arena for the forward paths. Holds the intermediate
/// activation matrices (and the int8 staging buffer for QuantizedMlp) so
/// that repeated forward/forwardBatch calls reuse capacity instead of
/// heap-allocating: after the first call at a given batch size every later
/// call is allocation-free. Not thread-safe — keep one per thread (the
/// detectors keep a thread_local one).
class ForwardScratch {
 public:
  /// Number of buffer growths (i.e. heap allocations) since the last
  /// resetStats(). Stops increasing once the arena is warmed up; the
  /// hot-path bench's zero-steady-state-allocation contract reads this.
  [[nodiscard]] std::int64_t growths() const { return growths_; }
  /// Capacity bytes added by those growths.
  [[nodiscard]] std::int64_t grownBytes() const { return grownBytes_; }
  void resetStats() {
    growths_ = 0;
    grownBytes_ = 0;
  }

 private:
  friend class Mlp;
  friend class QuantizedMlp;

  float* ensureFloats(bool second, std::size_t n);
  float* ensureTile(std::size_t n);
  std::int8_t* ensureInt8(std::size_t n);

  std::vector<float> a_, b_;     ///< Ping-pong activation matrices.
  std::vector<float> t_;         ///< Transposed row tile (column-major).
  std::vector<std::int8_t> q_;   ///< Quantized-activation staging.
  std::int64_t growths_ = 0;
  std::int64_t grownBytes_ = 0;
};

/// MLP with ReLU hidden activations and a linear output layer.
class Mlp {
 public:
  /// `layerSizes` = {in, hidden..., out}; requires >= 2 entries. Weights are
  /// He-initialized from `rng`.
  Mlp(std::vector<int> layerSizes, Rng& rng);

  [[nodiscard]] int inputSize() const { return layerSizes_.front(); }
  [[nodiscard]] int outputSize() const { return layerSizes_.back(); }
  [[nodiscard]] std::size_t parameterCount() const;
  [[nodiscard]] std::span<const DenseLayer> layers() const { return layers_; }

  /// Inference-only forward pass.
  [[nodiscard]] std::vector<float> forward(std::span<const float> x) const;

  /// Single-input forward into a caller-provided output span (outputSize()
  /// floats), using `scratch` for intermediates — the allocation-free core
  /// of forward(). Bit-equal to forward().
  void forwardInto(std::span<const float> x, std::span<float> out,
                   ForwardScratch& scratch) const;

  /// Scores `batch` inputs at once. `inputs` is row-major (batch x
  /// inputSize()); `outputs` receives row-major (batch x outputSize()).
  /// Each dense layer runs as a cache-blocked GEMM, but the per-(row, unit)
  /// accumulation order — bias first, then ascending input index — is
  /// exactly the scalar forward() order, so every output is bit-identical
  /// to calling forward() per row. Allocation-free once `scratch` is warm.
  void forwardBatch(std::span<const float> inputs, int batch,
                    std::span<float> outputs, ForwardScratch& scratch) const;

  /// Per-example activation cache for backprop.
  struct Cache {
    std::vector<std::vector<float>> activations;  ///< Input + each layer out.

    /// The last layer's output (valid after forwardCached/forwardCachedInto).
    [[nodiscard]] std::span<const float> output() const {
      return activations.empty() ? std::span<const float>{}
                                 : std::span<const float>(activations.back());
    }
  };

  /// Forward pass that records activations; returns the output.
  std::vector<float> forwardCached(std::span<const float> x, Cache& cache) const;

  /// forwardCached without materializing a copy of the output — read it via
  /// cache.output(). Reuses the cache's buffer capacity across calls, so a
  /// hoisted Cache makes training epochs allocation-free.
  void forwardCachedInto(std::span<const float> x, Cache& cache) const;

  /// Accumulates parameter gradients for one example given dLoss/dOutput.
  void accumulateGradient(const Cache& cache, std::span<const float> dOut);

  /// Applies one Adam step using gradients averaged over `batchSize`
  /// accumulated examples, then clears the accumulators.
  void applyAdam(const AdamConfig& config, int batchSize);

  /// Zeroes accumulated gradients (applyAdam does this automatically).
  void clearGradients();

  /// Binary serialization of the trained parameters (layer sizes, weights,
  /// biases; optimizer state is not persisted). Lets benches cache trained
  /// models on disk instead of retraining per binary.
  void save(std::ostream& out) const;
  /// Fails closed (std::nullopt) on a bad magic, an implausible shape, a
  /// parameter total above kMaxLoadParameters — checked from the header
  /// alone, before anything is allocated — a truncated payload, or a
  /// non-finite weight or bias.
  [[nodiscard]] static std::optional<Mlp> load(std::istream& in);
  /// Largest parameter total load() accepts. The shipped heads hold a few
  /// thousand; the cap keeps a hostile 20-byte header from asking for
  /// terabytes.
  static constexpr std::int64_t kMaxLoadParameters = std::int64_t{1} << 22;

 private:
  std::vector<int> layerSizes_;
  std::vector<DenseLayer> layers_;
  std::int64_t adamStep_ = 0;
};

}  // namespace darpa::nn
