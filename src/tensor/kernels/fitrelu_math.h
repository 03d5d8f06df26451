// Internal to src/tensor/kernels/: the scalar FitReLU arithmetic, and the
// per-element steps of the fused conv/linear epilogue, that both backends
// share. kernels_scalar.cpp runs them as the reference; the AVX2 lanes in
// kernels_avx2.cpp evaluate the identical operation sequence (same
// constants, same explicit FMAs, same order), and its scalar tails call
// these functions directly — which is what makes the two backends
// bit-identical.
//
// Everything here has internal linkage (anonymous namespace): the header is
// compiled into TUs built with different ISA flags, and a shared inline
// definition would let the linker hand the baseline TU the -mavx2 copy.
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>

#include "tensor/kernels/kernels.h"

namespace fitact::kern {
namespace {

// exp(a) for a <= 0 (or NaN), Cody–Waite range reduction a = n·ln2 + r,
// |r| <= ln2/2, then the Cephes expf polynomial in r. Inputs below the
// caller's floor are clamped to it. kExpLo: exp(kExpLo) is below half the
// smallest denormal, so everything past it rounds to exactly 0, as libm's
// does. kExpLoNormal: the floor that keeps the result a normal float.
inline constexpr float kExpLo = -104.0f;
inline constexpr float kExpLoNormal = -87.0f;
inline constexpr float kLog2e = 1.44269504088896341f;
inline constexpr float kLn2Hi = 0.693359375f;  // few mantissa bits: n·hi exact
inline constexpr float kLn2Lo = -2.12194440e-4f;
// 1.5·2^23: adding it rounds y to the nearest integer (ties to even) for
// |y| < 2^22, and the sum's low mantissa bits then hold that integer.
inline constexpr float kRoundMagic = 12582912.0f;
inline constexpr std::uint32_t kRoundMagicBits = 0x4B400000u;
inline constexpr float kExpP0 = 5.0000001201e-1f;
inline constexpr float kExpP1 = 1.6666665459e-1f;
inline constexpr float kExpP2 = 4.1665795894e-2f;
inline constexpr float kExpP3 = 8.3334519073e-3f;
inline constexpr float kExpP4 = 1.3981999507e-3f;
inline constexpr float kExpP5 = 1.9875691500e-4f;

/// 2^(n+64) as a float, built from exponent bits: normal for every n
/// exp_nonpos produces (-150 <= n <= 0). The arithmetic is unsigned so a NaN's
/// garbage n (whose product is NaN anyway) stays defined behaviour.
inline float exp2_plus64(std::uint32_t n) noexcept {
  return std::bit_cast<float>((n + 127u + 64u) << 23);
}
inline constexpr float kTwoPowMinus64 = 0x1p-64f;

/// exp(a) for a <= 0; NaN in, NaN out. The scale 2^n is applied as
/// p·2^(n+64), which is exact, then ·2^-64, so only that last multiply
/// rounds: results below FLT_MIN are the correctly rounded denormal of
/// p·2^n rather than a flush to 0.
inline float exp_nonpos(float a, float lo) noexcept {
  a = lo > a ? lo : a;  // vmaxps(lo, a) order: NaN passes through
  const float kf = a * kLog2e + kRoundMagic;  // two roundings, never fused
  const float nf = kf - kRoundMagic;
  float r = std::fma(nf, -kLn2Hi, a);
  r = std::fma(nf, -kLn2Lo, r);
  float p = std::fma(kExpP5, r, kExpP4);
  p = std::fma(p, r, kExpP3);
  p = std::fma(p, r, kExpP2);
  p = std::fma(p, r, kExpP1);
  p = std::fma(p, r, kExpP0);
  p = std::fma(p, r * r, r);
  p = p + 1.0f;
  const std::uint32_t n = std::bit_cast<std::uint32_t>(kf) - kRoundMagicBits;
  return p * exp2_plus64(n) * kTwoPowMinus64;
}

/// σ(t) = 1/(1+e^-t), in the overflow-free form libm's stable sigmoid
/// used: with e = exp(-|t|) <= 1, σ = 1/(1+e) for t >= 0 and e/(1+e)
/// otherwise. t = -inf (or any t below -kExpLo) gives exactly 0, +inf
/// gives 1, NaN gives NaN.
///
/// For t >= 0 only 1 + e is used, and 1 + e == 1 for every e < 2^-24, so
/// flooring -t at kExpLoNormal there changes no result. It keeps e out of
/// the denormals, which cost a microcode assist per lane on x86 — and
/// ReLU-dead elements (x <= 0, so t = k(λ - x) >= kλ) often have t above 87.
inline float sigmoid_poly(float t) noexcept {
  const bool nonneg = t >= 0.0f;
  const float e = exp_nonpos(-std::fabs(t), nonneg ? kExpLoNormal : kExpLo);
  return (nonneg ? 1.0f : e) / (1.0f + e);
}

/// FitReLU forward of one element: x <= 0 (and -0) -> +0, else
/// x·σ(k(λ-x)). NaN x falls through to NaN; +inf x gives inf·0 = NaN.
inline float fitrelu_elem(float x, float lambda, float k) noexcept {
  if (x <= 0.0f) return 0.0f;
  return x * sigmoid_poly(k * (lambda - x));
}

/// Gradient contributions of one element with upstream gradient g, for
/// x > 0 or NaN (x <= 0 contributes nothing and callers skip it):
///   dx = g·(s - k·x·s(1-s)),   dλ = g·(k·x·s(1-s)),   s = σ(k(λ-x)).
struct FitReluGrad {
  float dx;
  float dl;
};

inline FitReluGrad fitrelu_grad_elem(float x, float lambda, float k,
                                     float g) noexcept {
  const float s = sigmoid_poly(k * (lambda - x));
  const float kxds = k * x * (s * (1.0f - s));
  return {g * (s - kxds), g * kxds};
}

// Loops over elements [from, to) of one bound span, shared by the scalar
// backend (from = 0) and the AVX2 tails (from = the end of the vector body).

/// Forward over a span sharing bound `lambda`; returns the x > λ tally.
inline std::uint64_t fitrelu_span_const(const float* x, float lambda, float k,
                                        float* o, std::int64_t from,
                                        std::int64_t to, bool count) noexcept {
  std::uint64_t events = 0;
  for (std::int64_t i = from; i < to; ++i) {
    if (count) events += x[i] > lambda;
    o[i] = fitrelu_elem(x[i], lambda, k);
  }
  return events;
}

/// Forward over a row with an elementwise bound row `lambda`.
inline std::uint64_t fitrelu_span_rowwise(const float* x, const float* lambda,
                                          float k, float* o, std::int64_t from,
                                          std::int64_t to,
                                          bool count) noexcept {
  std::uint64_t events = 0;
  for (std::int64_t i = from; i < to; ++i) {
    if (count) events += x[i] > lambda[i];
    o[i] = fitrelu_elem(x[i], lambda[i], k);
  }
  return events;
}

/// The fixed combine of eight dλ lane partials.
inline float reduce_lanes(const float* lane) noexcept {
  return ((lane[0] + lane[4]) + (lane[2] + lane[6])) +
         ((lane[1] + lane[5]) + (lane[3] + lane[7]));
}

/// Backward over the tail of a span sharing bound `lambda`: dx[i] += the
/// element's dx, and its dλ is added onto `sum` in order. Returns `sum`.
inline float fitrelu_grad_span_const(const float* x, const float* g,
                                     float lambda, float k, float* dx,
                                     std::int64_t from, std::int64_t to,
                                     float sum) noexcept {
  for (std::int64_t i = from; i < to; ++i) {
    if (x[i] <= 0.0f) continue;
    const FitReluGrad d = fitrelu_grad_elem(x[i], lambda, k, g[i]);
    if (dx != nullptr) dx[i] += d.dx;
    sum += d.dl;
  }
  return sum;
}

/// Backward over a row with elementwise bounds: dλ[i] += the element's dλ.
inline void fitrelu_grad_span_rowwise(const float* x, const float* g,
                                      const float* lambda, float k, float* dx,
                                      float* dlambda, std::int64_t from,
                                      std::int64_t to) noexcept {
  for (std::int64_t i = from; i < to; ++i) {
    if (x[i] <= 0.0f) continue;
    const FitReluGrad d = fitrelu_grad_elem(x[i], lambda[i], k, g[i]);
    if (dx != nullptr) dx[i] += d.dx;
    if (dlambda != nullptr) dlambda[i] += d.dl;
  }
}

// ---- the fused epilogue's per-element steps ---------------------------------

/// kernels.h's Epilogue steps after the bias add, for element i of channel
/// c of a [channels, hw] block: BatchNorm, +shortcut, the count, then the
/// clamp or FitReLU. Returns the element's output.
inline float epilogue_steps(float v, std::int64_t c, std::int64_t i,
                            std::int64_t channels, const Epilogue& e,
                            std::uint64_t& events) noexcept {
  if (e.bn != nullptr) {
    v = (v - e.bn[c]) * e.bn[channels + c] * e.bn[2 * channels + c] +
        e.bn[3 * channels + c];
  }
  if (e.shortcut != nullptr) v = v + e.shortcut[i];
  if (e.act == EpilogueAct::none) return v;
  const float b = e.bound[e.broadcast == BoundBroadcast::layer     ? 0
                          : e.broadcast == BoundBroadcast::channel ? c
                                                                   : i];
  if (e.count) events += v > b;
  if (e.act == EpilogueAct::fitrelu) return fitrelu_elem(v, b, e.k);
  if (v <= 0.0f) return 0.0f;
  if (v <= b) return v;
  return e.saturate ? b : 0.0f;  // NaN lands here: both compares fail
}

}  // namespace
}  // namespace fitact::kern
