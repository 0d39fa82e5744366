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

// The dense kernel. Activations stay feature-major through every layer —
// X[i][n], input i of tile row n, rows kTileRows apart — so a layer's output
// plane is the next layer's input plane with no transpose or scatter. Rows
// run in blocks of kLanes as GCC vector values (plain element-wise
// arithmetic, no intrinsics), and each register block holds U output units
// x B row blocks of accumulators. Every lane computes exactly the scalar
// recipe: acc = bias, then for ascending i one multiply w * x and one add,
// each rounded (no FMA: the build passes -mno-fma -ffp-contract=off where
// it could fuse), then the ReLU `sum < 0 ? 0 : sum`, which keeps a -0.0
// sum. Lanes never mix, so the bits of a row do not depend on its tile, its
// position or the batch size.
constexpr int kLanes = 16;
using Vec = float __attribute__((vector_size(kLanes * sizeof(float))));
// Vec never crosses a function boundary (its by-value ABI depends on the
// target's vector ISA); loads and stores are memcpy, which has no alignment
// or aliasing requirement and compiles to one vector move.

/// Units [j, j + U) for row blocks [b, b + B) of one layer.
template <int U, int B>
void denseBlock(const DenseLayer& layer, const float* in, float* out, int j,
                int b, bool relu) {
  constexpr int kStride = Mlp::kTileRows;
  Vec acc[U][B];
  for (int u = 0; u < U; ++u) {
    // `bias - 0` broadcasts the bias unchanged, -0.0 included (a `+ 0`
    // would turn it into +0.0).
    const Vec bias = layer.bias[static_cast<std::size_t>(j + u)] - Vec{};
    for (int v = 0; v < B; ++v) acc[u][v] = bias;
  }
  const float* w = layer.weights.data() + static_cast<std::size_t>(j) *
                                              layer.inSize;
  for (int i = 0; i < layer.inSize; ++i) {
    Vec x[B];
    for (int v = 0; v < B; ++v) {
      std::memcpy(&x[v],
                  in + static_cast<std::size_t>(i) * kStride + (b + v) * kLanes,
                  sizeof(Vec));
    }
    for (int u = 0; u < U; ++u) {
      const float wu = w[static_cast<std::size_t>(u) * layer.inSize + i];
      for (int v = 0; v < B; ++v) {
        const Vec product = wu * x[v];
        acc[u][v] = acc[u][v] + product;
      }
    }
  }
  for (int u = 0; u < U; ++u) {
    for (int v = 0; v < B; ++v) {
      Vec sum = acc[u][v];
      if (relu) sum = sum < Vec{} ? Vec{} : sum;
      std::memcpy(out + static_cast<std::size_t>(j + u) * kStride +
                      (b + v) * kLanes,
                  &sum, sizeof(Vec));
    }
  }
}

template <int U>
void denseUnits(const DenseLayer& layer, const float* in, float* out, int j,
                int blocks, bool relu) {
  int b = 0;
  for (; b + 2 <= blocks; b += 2) denseBlock<U, 2>(layer, in, out, j, b, relu);
  if (b < blocks) denseBlock<U, 1>(layer, in, out, j, b, relu);
}

/// One layer over the first `blocks` row blocks of a feature-major tile.
void denseTile(const DenseLayer& layer, const float* in, float* out,
               int blocks, bool relu) {
  int j = 0;
  for (; j + 4 <= layer.outSize; j += 4) {
    denseUnits<4>(layer, in, out, j, blocks, relu);
  }
  for (; j < layer.outSize; ++j) denseUnits<1>(layer, in, out, j, blocks, relu);
}

int blocksFor(int rows) { return (rows + kLanes - 1) / kLanes; }

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

int Mlp::widestLayer() const {
  return *std::max_element(layerSizes_.begin(), layerSizes_.end());
}

const float* Mlp::runTile(const float* tile, int rows,
                          ForwardScratch& scratch) const {
  const std::size_t plane = static_cast<std::size_t>(widestLayer()) * kTileRows;
  float* planes[2] = {scratch.ensureFloats(false, plane),
                      scratch.ensureFloats(true, plane)};
  const int blocks = blocksFor(rows);
  const float* cur = tile;
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    // Layer l writes plane (l + 1) % 2, so forwardBatch's input in plane 0
    // is only overwritten once layer 0 has consumed it.
    float* dst = planes[(l + 1) % 2];
    denseTile(layers_[l], cur, dst, blocks, l + 1 < layers_.size());
    cur = dst;
  }
  return cur;
}

void Mlp::forwardTile(std::span<const float> tile, int rows,
                      std::span<float> outputs,
                      ForwardScratch& scratch) const {
  assert(rows >= 1 && rows <= kTileRows);
  assert(tile.size() >= static_cast<std::size_t>(inputSize()) * kTileRows);
  assert(outputs.size() >=
         static_cast<std::size_t>(rows) * static_cast<std::size_t>(outputSize()));
  const float* result = runTile(tile.data(), rows, scratch);
  const int outSize = outputSize();
  for (int j = 0; j < outSize; ++j) {
    for (int n = 0; n < rows; ++n) {
      outputs[static_cast<std::size_t>(n) * outSize + j] =
          result[static_cast<std::size_t>(j) * kTileRows + n];
    }
  }
}

void Mlp::forwardBatch(std::span<const float> inputs, int batch,
                       std::span<float> outputs,
                       ForwardScratch& scratch) const {
  assert(inputs.size() ==
         static_cast<std::size_t>(batch) * static_cast<std::size_t>(inputSize()));
  assert(outputs.size() ==
         static_cast<std::size_t>(batch) * static_cast<std::size_t>(outputSize()));
  const int inSize = inputSize();
  const int outSize = outputSize();
  for (int n0 = 0; n0 < batch; n0 += kTileRows) {
    const int rows = std::min(batch - n0, kTileRows);
    const int padded = blocksFor(rows) * kLanes;
    // The transposed input goes into plane 0, which runTile reads first.
    float* tile = scratch.ensureFloats(
        false, static_cast<std::size_t>(widestLayer()) * kTileRows);
    for (int i = 0; i < inSize; ++i) {
      float* col = tile + static_cast<std::size_t>(i) * kTileRows;
      for (int n = 0; n < rows; ++n) {
        col[n] = inputs[static_cast<std::size_t>(n0 + n) * inSize + i];
      }
      std::fill(col + rows, col + padded, 0.0f);
    }
    forwardTile({tile, static_cast<std::size_t>(inSize) * kTileRows}, rows,
                outputs.subspan(static_cast<std::size_t>(n0) * outSize),
                scratch);
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
  // A one-row tile (row 0 of one block, the other lanes zero) through the
  // same kernel, reading each layer's row back out of its plane.
  ForwardScratch& scratch = threadScratch();
  const std::size_t plane = static_cast<std::size_t>(widestLayer()) * kTileRows;
  float* planes[2] = {scratch.ensureFloats(false, plane),
                      scratch.ensureFloats(true, plane)};
  for (int i = 0; i < inputSize(); ++i) {
    float* col = planes[0] + static_cast<std::size_t>(i) * kTileRows;
    col[0] = x[static_cast<std::size_t>(i)];
    std::fill(col + 1, col + kLanes, 0.0f);
  }
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    const float* in = planes[l % 2];
    float* dst = planes[(l + 1) % 2];
    denseTile(layers_[l], in, dst, 1, l + 1 < layers_.size());
    std::vector<float>& out = cache.activations[l + 1];
    out.resize(static_cast<std::size_t>(layers_[l].outSize));
    for (int j = 0; j < layers_[l].outSize; ++j) {
      out[static_cast<std::size_t>(j)] =
          dst[static_cast<std::size_t>(j) * kTileRows];
    }
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
