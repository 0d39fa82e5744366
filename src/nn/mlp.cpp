#include "nn/mlp.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>

namespace darpa::nn {

Mlp::Mlp(std::vector<int> layerSizes, Rng& rng)
    : layerSizes_(std::move(layerSizes)) {
  assert(layerSizes_.size() >= 2);
  layers_.reserve(layerSizes_.size() - 1);
  for (std::size_t i = 0; i + 1 < layerSizes_.size(); ++i) {
    DenseLayer layer;
    layer.inSize = layerSizes_[i];
    layer.outSize = layerSizes_[i + 1];
    const std::size_t n =
        static_cast<std::size_t>(layer.inSize) * layer.outSize;
    layer.weights.resize(n);
    // He initialization: suited to the ReLU hidden activations.
    const float stddev = std::sqrt(2.0f / static_cast<float>(layer.inSize));
    for (float& w : layer.weights) {
      w = static_cast<float>(rng.normal(0.0, stddev));
    }
    layer.bias.assign(layer.outSize, 0.0f);
    layer.gradWeights.assign(n, 0.0f);
    layer.gradBias.assign(layer.outSize, 0.0f);
    layer.mWeights.assign(n, 0.0f);
    layer.vWeights.assign(n, 0.0f);
    layer.mBias.assign(layer.outSize, 0.0f);
    layer.vBias.assign(layer.outSize, 0.0f);
    layers_.push_back(std::move(layer));
  }
}

std::size_t Mlp::parameterCount() const {
  std::size_t n = 0;
  for (const DenseLayer& layer : layers_) {
    n += layer.weights.size() + layer.bias.size();
  }
  return n;
}

namespace {

// Batched dense layer: out[n][j] = act(bias[j] + sum_i W[j][i] * in[n][i]).
// Each tile of input rows is transposed into column-major `tile` (tile[i][n])
// so the inner loop advances kRowTile INDEPENDENT accumulators per weight
// element instead of one serial dependency chain per sample — that is where
// the batched speedup comes from: the chains interleave (ILP) and the loop
// over n vectorizes. The per-(n, j) accumulation — bias first, then
// ascending i — is exactly the scalar order; transposing moves data, never
// reorders a sum, so every output is bit-identical to the unbatched path.
constexpr int kRowTile = 64;

/// One transposed tile of the batched dense layer. NT is the tile's row
/// count as a compile-time constant for full tiles (fixed-trip inner loops
/// vectorize without runtime prologues) and 0 for the runtime-sized
/// remainder tile. Both instantiations evaluate the identical expressions.
template <int NT>
void denseForwardTile(const DenseLayer& layer, const float* in, int n0,
                      int ntRuntime, float* out, bool relu, float* tile) {
  const int nt = NT > 0 ? NT : ntRuntime;
  for (int n = 0; n < nt; ++n) {
    const float* x = in + static_cast<std::size_t>(n0 + n) * layer.inSize;
    for (int i = 0; i < layer.inSize; ++i) {
      tile[static_cast<std::size_t>(i) * nt + n] = x[i];
    }
  }
  float acc[kRowTile];
  for (int j = 0; j < layer.outSize; ++j) {
    const float* row =
        layer.weights.data() + static_cast<std::size_t>(j) * layer.inSize;
    const float bias = layer.bias[static_cast<std::size_t>(j)];
    for (int n = 0; n < nt; ++n) acc[n] = bias;
    for (int i = 0; i < layer.inSize; ++i) {
      const float w = row[i];
      const float* col = tile + static_cast<std::size_t>(i) * nt;
      for (int n = 0; n < nt; ++n) acc[n] += w * col[n];
    }
    for (int n = 0; n < nt; ++n) {
      const float sum = acc[n];
      out[static_cast<std::size_t>(n0 + n) * layer.outSize + j] =
          relu && sum < 0.0f ? 0.0f : sum;
    }
  }
}

void denseForwardBatch(const DenseLayer& layer, const float* in, int batch,
                       float* out, bool relu, float* tile) {
  for (int n0 = 0; n0 < batch; n0 += kRowTile) {
    const int nt = std::min(batch, n0 + kRowTile) - n0;
    if (nt == kRowTile) {
      denseForwardTile<kRowTile>(layer, in, n0, nt, out, relu, tile);
    } else if (nt == 1) {
      // Single-row calls (forward / forwardCachedInto in the training inner
      // loop) collapse to a plain dot product; the runtime-stride remainder
      // path would pay an address multiply and a loop branch per element.
      denseForwardTile<1>(layer, in, n0, nt, out, relu, tile);
    } else {
      denseForwardTile<0>(layer, in, n0, nt, out, relu, tile);
    }
  }
}

ForwardScratch& threadScratch() {
  thread_local ForwardScratch scratch;
  return scratch;
}

}  // namespace

float* ForwardScratch::ensureFloats(bool second, std::size_t n) {
  std::vector<float>& v = second ? b_ : a_;
  const std::size_t before = v.capacity();
  if (n > before) {
    v.reserve(n);
    ++growths_;
    grownBytes_ +=
        static_cast<std::int64_t>((v.capacity() - before) * sizeof(float));
  }
  if (v.size() < n) v.resize(n);
  return v.data();
}

float* ForwardScratch::ensureTile(std::size_t n) {
  const std::size_t before = t_.capacity();
  if (n > before) {
    t_.reserve(n);
    ++growths_;
    grownBytes_ +=
        static_cast<std::int64_t>((t_.capacity() - before) * sizeof(float));
  }
  if (t_.size() < n) t_.resize(n);
  return t_.data();
}

std::int8_t* ForwardScratch::ensureInt8(std::size_t n) {
  const std::size_t before = q_.capacity();
  if (n > before) {
    q_.reserve(n);
    ++growths_;
    grownBytes_ += static_cast<std::int64_t>(q_.capacity() - before);
  }
  if (q_.size() < n) q_.resize(n);
  return q_.data();
}

void Mlp::forwardBatch(std::span<const float> inputs, int batch,
                       std::span<float> outputs,
                       ForwardScratch& scratch) const {
  assert(inputs.size() ==
         static_cast<std::size_t>(batch) * static_cast<std::size_t>(inputSize()));
  assert(outputs.size() ==
         static_cast<std::size_t>(batch) * static_cast<std::size_t>(outputSize()));
  if (batch <= 0) return;
  const float* cur = inputs.data();
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    const bool hidden = l + 1 < layers_.size();
    float* dst =
        hidden ? scratch.ensureFloats(l % 2 != 0,
                                      static_cast<std::size_t>(batch) *
                                          layers_[l].outSize)
               : outputs.data();
    float* tile = scratch.ensureTile(static_cast<std::size_t>(kRowTile) *
                                     layers_[l].inSize);
    denseForwardBatch(layers_[l], cur, batch, dst, hidden, tile);
    cur = dst;
  }
}

void Mlp::forwardInto(std::span<const float> x, std::span<float> out,
                      ForwardScratch& scratch) const {
  forwardBatch(x, 1, out, scratch);
}

std::vector<float> Mlp::forward(std::span<const float> x) const {
  assert(static_cast<int>(x.size()) == inputSize());
  std::vector<float> out(static_cast<std::size_t>(outputSize()));
  forwardInto(x, out, threadScratch());
  return out;
}

void Mlp::forwardCachedInto(std::span<const float> x, Cache& cache) const {
  assert(static_cast<int>(x.size()) == inputSize());
  // Resize without releasing capacity: a hoisted Cache stops allocating
  // after its first use.
  if (cache.activations.size() != layers_.size() + 1) {
    cache.activations.resize(layers_.size() + 1);
  }
  cache.activations[0].assign(x.begin(), x.end());
  ForwardScratch& scratch = threadScratch();
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    const bool hidden = l + 1 < layers_.size();
    std::vector<float>& out = cache.activations[l + 1];
    out.resize(static_cast<std::size_t>(layers_[l].outSize));
    float* tile =
        scratch.ensureTile(static_cast<std::size_t>(layers_[l].inSize));
    denseForwardBatch(layers_[l], cache.activations[l].data(), 1, out.data(),
                      hidden, tile);
  }
}

std::vector<float> Mlp::forwardCached(std::span<const float> x,
                                      Cache& cache) const {
  forwardCachedInto(x, cache);
  return cache.activations.back();
}

void Mlp::accumulateGradient(const Cache& cache, std::span<const float> dOut) {
  assert(cache.activations.size() == layers_.size() + 1);
  // Backprop work buffers: thread-local so per-example calls in the training
  // inner loops stop churning the heap. assign/resize reuse capacity.
  thread_local std::vector<float> delta;
  thread_local std::vector<float> prevDelta;
  delta.assign(dOut.begin(), dOut.end());
  for (std::size_t l = layers_.size(); l-- > 0;) {
    DenseLayer& layer = layers_[l];
    const std::vector<float>& input = cache.activations[l];
    const std::vector<float>& output = cache.activations[l + 1];
    const bool hidden = l + 1 < layers_.size();
    // ReLU gradient gate on hidden layers (output layer is linear).
    if (hidden) {
      for (int j = 0; j < layer.outSize; ++j) {
        if (output[static_cast<std::size_t>(j)] <= 0.0f) {
          delta[static_cast<std::size_t>(j)] = 0.0f;
        }
      }
    }
    for (int j = 0; j < layer.outSize; ++j) {
      const float d = delta[static_cast<std::size_t>(j)];
      if (d == 0.0f) continue;
      float* gRow = layer.gradWeights.data() +
                    static_cast<std::size_t>(j) * layer.inSize;
      for (int i = 0; i < layer.inSize; ++i) {
        gRow[i] += d * input[static_cast<std::size_t>(i)];
      }
      layer.gradBias[static_cast<std::size_t>(j)] += d;
    }
    if (l == 0) break;  // No need to propagate into the raw input.
    prevDelta.assign(static_cast<std::size_t>(layer.inSize), 0.0f);
    for (int j = 0; j < layer.outSize; ++j) {
      const float d = delta[static_cast<std::size_t>(j)];
      if (d == 0.0f) continue;
      const float* row =
          layer.weights.data() + static_cast<std::size_t>(j) * layer.inSize;
      for (int i = 0; i < layer.inSize; ++i) {
        prevDelta[static_cast<std::size_t>(i)] += d * row[i];
      }
    }
    delta.swap(prevDelta);
  }
}

void Mlp::applyAdam(const AdamConfig& config, int batchSize) {
  if (batchSize <= 0) batchSize = 1;
  ++adamStep_;
  const float t = static_cast<float>(adamStep_);
  const float correction1 = 1.0f - std::pow(config.beta1, t);
  const float correction2 = 1.0f - std::pow(config.beta2, t);
  const float invBatch = 1.0f / static_cast<float>(batchSize);
  auto update = [&](std::vector<float>& params, std::vector<float>& grads,
                    std::vector<float>& m, std::vector<float>& v) {
    for (std::size_t i = 0; i < params.size(); ++i) {
      const float g = grads[i] * invBatch;
      m[i] = config.beta1 * m[i] + (1.0f - config.beta1) * g;
      v[i] = config.beta2 * v[i] + (1.0f - config.beta2) * g * g;
      const float mHat = m[i] / correction1;
      const float vHat = v[i] / correction2;
      params[i] -=
          config.learningRate * mHat / (std::sqrt(vHat) + config.epsilon);
      grads[i] = 0.0f;
    }
  };
  for (DenseLayer& layer : layers_) {
    update(layer.weights, layer.gradWeights, layer.mWeights, layer.vWeights);
    update(layer.bias, layer.gradBias, layer.mBias, layer.vBias);
  }
}

namespace {
constexpr std::uint32_t kMagic = 0x44415250;  // "DARP"

template <typename T>
void writePod(std::ostream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}
template <typename T>
bool readPod(std::istream& in, T& value) {
  in.read(reinterpret_cast<char*>(&value), sizeof(T));
  return static_cast<bool>(in);
}
}  // namespace

void Mlp::save(std::ostream& out) const {
  writePod(out, kMagic);
  writePod(out, static_cast<std::uint32_t>(layerSizes_.size()));
  for (int s : layerSizes_) writePod(out, static_cast<std::int32_t>(s));
  for (const DenseLayer& layer : layers_) {
    out.write(reinterpret_cast<const char*>(layer.weights.data()),
              static_cast<std::streamsize>(layer.weights.size() * sizeof(float)));
    out.write(reinterpret_cast<const char*>(layer.bias.data()),
              static_cast<std::streamsize>(layer.bias.size() * sizeof(float)));
  }
}

std::optional<Mlp> Mlp::load(std::istream& in) {
  std::uint32_t magic = 0;
  if (!readPod(in, magic) || magic != kMagic) return std::nullopt;
  std::uint32_t layerCount = 0;
  if (!readPod(in, layerCount) || layerCount < 2 || layerCount > 64) {
    return std::nullopt;
  }
  std::vector<int> sizes;
  for (std::uint32_t i = 0; i < layerCount; ++i) {
    std::int32_t s = 0;
    if (!readPod(in, s) || s <= 0 || s > 1 << 20) return std::nullopt;
    sizes.push_back(s);
  }
  // Bound the allocation by the header alone: every factor is <= 2^20, so
  // each layer's product fits in 64 bits, and the running total is checked
  // against the cap after every layer.
  std::int64_t parameters = 0;
  for (std::size_t i = 0; i + 1 < sizes.size(); ++i) {
    parameters += static_cast<std::int64_t>(sizes[i]) * sizes[i + 1] +
                  sizes[i + 1];
    if (parameters > kMaxLoadParameters) return std::nullopt;
  }
  Rng rng(0);  // weights are overwritten below
  Mlp model(sizes, rng);
  const auto readFinite = [&in](std::vector<float>& values) {
    in.read(reinterpret_cast<char*>(values.data()),
            static_cast<std::streamsize>(values.size() * sizeof(float)));
    return static_cast<bool>(in) &&
           std::all_of(values.begin(), values.end(),
                       [](float v) { return std::isfinite(v); });
  };
  for (DenseLayer& layer : model.layers_) {
    if (!readFinite(layer.weights) || !readFinite(layer.bias)) {
      return std::nullopt;
    }
  }
  return model;
}

void Mlp::clearGradients() {
  for (DenseLayer& layer : layers_) {
    std::fill(layer.gradWeights.begin(), layer.gradWeights.end(), 0.0f);
    std::fill(layer.gradBias.begin(), layer.gradBias.end(), 0.0f);
  }
}

}  // namespace darpa::nn
