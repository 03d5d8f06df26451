// Shared by elementwise_fuzz_test (kern::epilogue) and int8_gemm_fuzz_test
// (kern::dequant_plane): every kern::Epilogue step combination over fuzzed
// [channels, hw] blocks, and the unfused sequence each one must reproduce
// bit-for-bit on every backend — the bias add (+0.0f without a bias), the
// BatchNorm and the residual add as plain float operations, then the
// standalone clipped_relu / fitrelu kernel.
//
// Inputs mix ordinary values with NaN, ±inf, ±0, ±denormals and ±3e38 (what
// exponent bit flips produce) in every parameter array. A NaN matches any
// NaN: payloads are outside the kernels.h contract.
#pragma once

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <ios>
#include <limits>
#include <string>
#include <vector>

#include "tensor/kernels/kernels.h"
#include "util/rng.h"

namespace fitact::epilogue_fuzz {

/// An ordinary value in [lo, hi) most of the time, else one of the special
/// values hardware faults produce.
inline float value(ut::Rng& rng, float lo, float hi) {
  const float sign = rng.next_below(2) == 0 ? 1.0f : -1.0f;
  switch (rng.next_below(16)) {
    case 0: return std::numeric_limits<float>::quiet_NaN();
    case 1: return sign * std::numeric_limits<float>::infinity();
    case 2: return sign * 0.0f;
    case 3: return sign * 1e-40f;  // denormal
    case 4: return sign * 3e38f;
    default: return rng.uniform(lo, hi);
  }
}

inline std::vector<float> values(ut::Rng& rng, std::int64_t n, float lo,
                                 float hi) {
  std::vector<float> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = value(rng, lo, hi);
  return v;
}

/// The parameter arrays one [channels, hw] block's epilogues point into.
struct Block {
  std::int64_t channels = 0;
  std::int64_t hw = 0;
  std::vector<float> scale, bias, bn, shortcut;
  std::vector<float> bound_layer, bound_channel, bound_neuron;
  [[nodiscard]] std::int64_t n() const { return channels * hw; }
};

inline Block make_block(ut::Rng& rng, std::int64_t channels,
                        std::int64_t hw) {
  Block b;
  b.channels = channels;
  b.hw = hw;
  const std::int64_t n = channels * hw;
  b.scale = values(rng, channels, 1e-6f, 1e-3f);
  b.bias = values(rng, channels, -2.0f, 2.0f);
  b.bn = values(rng, 4 * channels, -2.0f, 2.0f);
  b.shortcut = values(rng, n, -2.0f, 6.0f);
  b.bound_layer = values(rng, 1, 0.0f, 8.0f);
  b.bound_channel = values(rng, channels, 0.0f, 8.0f);
  b.bound_neuron = values(rng, n, 0.0f, 8.0f);
  return b;
}

/// Calls check(e, name) for every step combination over `b`: bias, BN and
/// shortcut each on or off, no activation / clamp (both modes) / FitReLU
/// with every bound broadcast, counting on or off. e.scale is always set
/// (epilogue ignores it).
template <typename Check>
void for_each_combination(const Block& b, float k, const Check& check) {
  using kern::BoundBroadcast;
  using kern::EpilogueAct;
  struct Act {
    EpilogueAct act;
    bool saturate;
    const char* name;
  };
  const Act acts[] = {{EpilogueAct::none, false, "none"},
                      {EpilogueAct::clamp, false, "clamp"},
                      {EpilogueAct::clamp, true, "saturate"},
                      {EpilogueAct::fitrelu, false, "fitrelu"}};
  for (int steps = 0; steps < 8; ++steps) {
    for (const Act& a : acts) {
      for (const BoundBroadcast bc :
           {BoundBroadcast::layer, BoundBroadcast::channel,
            BoundBroadcast::neuron}) {
        if (a.act == EpilogueAct::none && bc != BoundBroadcast::layer) {
          continue;
        }
        for (const bool count : {false, true}) {
          kern::Epilogue e;
          e.scale = b.scale.data();
          if (steps & 1) e.bias = b.bias.data();
          if (steps & 2) e.bn = b.bn.data();
          if (steps & 4) e.shortcut = b.shortcut.data();
          e.act = a.act;
          e.saturate = a.saturate;
          e.k = k;
          e.broadcast = bc;
          e.bound = bc == BoundBroadcast::layer     ? b.bound_layer.data()
                    : bc == BoundBroadcast::channel ? b.bound_channel.data()
                                                    : b.bound_neuron.data();
          e.count = count;
          check(e, "channels=" + std::to_string(b.channels) +
                       " hw=" + std::to_string(b.hw) + " bias=" +
                       std::to_string(steps & 1) + " bn=" +
                       std::to_string((steps >> 1) & 1) + " shortcut=" +
                       std::to_string((steps >> 2) & 1) + " act=" + a.name +
                       " broadcast=" + std::to_string(static_cast<int>(bc)) +
                       " count=" + std::to_string(count));
        }
      }
    }
  }
}

/// Output bits and clamp-event tally of one epilogue run.
struct Result {
  std::vector<float> out;
  std::uint64_t events = 0;
};

/// The unfused sequence `e` must reproduce, on the active backend, from
/// the block's values before the bias add (`pre`: the GEMM output, or each
/// accumulator times its channel's scale).
inline Result reference(const Block& b, const kern::Epilogue& e,
                        std::vector<float> pre) {
  const std::int64_t ch = b.channels;
  for (std::int64_t c = 0; c < ch; ++c) {
    for (std::int64_t i = c * b.hw; i < (c + 1) * b.hw; ++i) {
      float& v = pre[static_cast<std::size_t>(i)];
      v = v + (e.bias != nullptr ? e.bias[c] : 0.0f);
      if (e.bn != nullptr) {
        v = (v - e.bn[c]) * e.bn[ch + c] * e.bn[2 * ch + c] + e.bn[3 * ch + c];
      }
      if (e.shortcut != nullptr) v = v + e.shortcut[i];
    }
  }
  Result r;
  if (e.act == kern::EpilogueAct::none) {
    r.out = pre;
    return r;
  }
  const std::int64_t n = b.n();
  const std::int64_t numel = e.broadcast == kern::BoundBroadcast::layer ? 1
                             : e.broadcast == kern::BoundBroadcast::channel
                                 ? ch
                                 : n;
  r.out.assign(pre.size(), 0.0f);
  r.events =
      e.act == kern::EpilogueAct::fitrelu
          ? kern::fitrelu(pre.data(), e.bound, numel, n, b.hw, e.k,
                          r.out.data(), n, e.count)
          : kern::clipped_relu(pre.data(), e.bound, numel, n, b.hw,
                               e.saturate, r.out.data(), n, e.count);
  return r;
}

inline bool same_bits(float a, float b) {
  if (std::isnan(a) && std::isnan(b)) return true;
  return std::bit_cast<std::uint32_t>(a) == std::bit_cast<std::uint32_t>(b);
}

/// Expects identical tallies and output bits; reports the first mismatch.
inline void expect_same(const Result& got, const Result& want,
                        const std::string& ctx) {
  EXPECT_EQ(got.events, want.events) << ctx;
  ASSERT_EQ(got.out.size(), want.out.size()) << ctx;
  for (std::size_t i = 0; i < got.out.size(); ++i) {
    if (!same_bits(got.out[i], want.out[i])) {
      ADD_FAILURE() << ctx << " element " << i << ": got " << std::hexfloat
                    << got.out[i] << " want " << want.out[i];
      return;
    }
  }
}

/// The backends this host executes, scalar first.
inline std::vector<kern::Backend> backends() {
  std::vector<kern::Backend> b = {kern::Backend::scalar};
  if (kern::avx2_supported()) b.push_back(kern::Backend::avx2);
  return b;
}

}  // namespace fitact::epilogue_fuzz
