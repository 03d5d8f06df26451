// Portable int8 kernels — the reference semantics the AVX2 int8 TU must
// reproduce bit-for-bit (see the int8 section of kernels.h: exact int32
// GEMM accumulation, branch-identical quantization, FMA-free epilogues).
//
// The dequantize epilogues run in place over a GEMM accumulator span that
// lives inside the plan's fp32 arena: each element is read once as int32 and
// rewritten as fp32. Both accesses go through std::memcpy so the
// read-int32/write-float pair in one loop body never relies on
// type-punned pointers.
#include <cmath>
#include <cstdint>
#include <cstring>

#include "tensor/kernels/kernel_table.h"

namespace fitact::kern {
namespace {

inline std::int32_t load_i32(const std::int32_t* p) noexcept {
  std::int32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline void store_f32(std::int32_t* p, float v) noexcept {
  std::memcpy(p, &v, sizeof(v));
}

/// One element of quantize_i8: round-to-nearest-even of x * inv_scale,
/// clamped to [-127, 127], NaN -> 0.
inline std::int8_t quantize_one(float x, float inv_scale) noexcept {
  float r = x * inv_scale;
  if (!(r == r)) return 0;  // NaN
  if (r > 127.0f) r = 127.0f;
  if (r < -127.0f) r = -127.0f;
  return static_cast<std::int8_t>(std::lrintf(r));
}

inline float clip_cascade(float xi, float bi, bool saturate) noexcept {
  if (xi <= 0.0f) return 0.0f;
  if (xi <= bi) return xi;
  return saturate ? bi : 0.0f;  // NaN lands here: both compares fail
}

}  // namespace

void scalar_gemm_i8_dot(std::int64_t m, std::int64_t n, std::int64_t k,
                        const std::int8_t* a, std::int64_t lda,
                        const std::int8_t* b, std::int64_t ldb, std::int32_t* c,
                        std::int64_t ldc) noexcept {
  for (std::int64_t i = 0; i < m; ++i) {
    const std::int8_t* arow = a + i * lda;
    for (std::int64_t j = 0; j < n; ++j) {
      const std::int8_t* brow = b + j * ldb;
      std::int32_t acc = 0;
      for (std::int64_t p = 0; p < k; ++p) {
        acc += static_cast<std::int32_t>(arow[p]) *
               static_cast<std::int32_t>(brow[p]);
      }
      c[i * ldc + j] = acc;
    }
  }
}

void scalar_gemm_i8u8_dot(std::int64_t m, std::int64_t n, std::int64_t k,
                          const std::int8_t* a, std::int64_t lda,
                          const std::int8_t* b, std::int64_t ldb,
                          std::int32_t* c, std::int64_t ldc,
                          bool a_unsigned) noexcept {
  // The unsigned operand's bytes are in [0,127] by contract, so reading
  // them as int8 (as the plain signed GEMM does) yields the same values —
  // the flag only matters to vector backends picking u8xs8 instructions.
  (void)a_unsigned;
  scalar_gemm_i8_dot(m, n, k, a, lda, b, ldb, c, ldc);
}

void scalar_quantize_i8(const float* x, float inv_scale, std::int8_t* q,
                        std::int64_t n) noexcept {
  for (std::int64_t i = 0; i < n; ++i) q[i] = quantize_one(x[i], inv_scale);
}

void scalar_quantize_hwc_i8(const float* x, float inv_scale, std::int8_t* q,
                            std::int64_t channels, std::int64_t hw,
                            std::int64_t row_stride) noexcept {
  for (std::int64_t p = 0; p < hw; ++p) {
    std::int8_t* row = q + p * row_stride;
    for (std::int64_t c = 0; c < channels; ++c) {
      row[c] = quantize_one(x[c * hw + p], inv_scale);
    }
    std::memset(row + channels, 0,
                static_cast<std::size_t>(row_stride - channels));
  }
}

std::uint64_t scalar_dequant_plane(std::int32_t* acc, std::int64_t n,
                                   const DequantPlane& e) noexcept {
  std::uint64_t events = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    float x = static_cast<float>(load_i32(acc + i)) * e.scale + e.bias;
    if (e.bn != nullptr) x = (x - e.bn[0]) * e.bn[1] * e.bn[2] + e.bn[3];
    if (e.shortcut != nullptr) x = x + e.shortcut[i];
    if (e.bound != nullptr) {
      const float b = e.bound[e.bound_per_element ? i : 0];
      if (e.count) events += x > b;
      x = clip_cascade(x, b, e.saturate);
    }
    store_f32(acc + i, x);
  }
  return events;
}

std::uint64_t scalar_fused_dequant_clip_rc(std::int32_t* acc,
                                           const float* scale,
                                           const float* bias, float bound,
                                           bool saturate, std::int64_t n,
                                           bool count) noexcept {
  std::uint64_t events = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    const float bi = bias != nullptr ? bias[i] : 0.0f;
    const float xi = static_cast<float>(load_i32(acc + i)) * scale[i] + bi;
    if (count) events += xi > bound;
    store_f32(acc + i, clip_cascade(xi, bound, saturate));
  }
  return events;
}

std::uint64_t scalar_fused_dequant_clip_rr(std::int32_t* acc,
                                           const float* scale,
                                           const float* bias,
                                           const float* bound, bool saturate,
                                           std::int64_t n,
                                           bool count) noexcept {
  std::uint64_t events = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    const float bi = bias != nullptr ? bias[i] : 0.0f;
    const float xi = static_cast<float>(load_i32(acc + i)) * scale[i] + bi;
    const float bv = bound[i];
    if (count) events += xi > bv;
    store_f32(acc + i, clip_cascade(xi, bv, saturate));
  }
  return events;
}

}  // namespace fitact::kern
