// Portable int8 kernels — the reference semantics the AVX2 int8 TU must
// reproduce bit-for-bit (see the int8 section of kernels.h: exact int32
// GEMM accumulation, branch-identical quantization). The dequantize
// epilogue, dequant_plane, shares its steps with the fp32 epilogue in
// kernels_scalar.cpp.
#include <cmath>
#include <cstdint>
#include <cstring>

#include "tensor/kernels/kernel_table.h"

namespace fitact::kern {
namespace {

/// One element of quantize_i8: round-to-nearest-even of x * inv_scale,
/// clamped to [-127, 127], NaN -> 0.
inline std::int8_t quantize_one(float x, float inv_scale) noexcept {
  float r = x * inv_scale;
  if (!(r == r)) return 0;  // NaN
  if (r > 127.0f) r = 127.0f;
  if (r < -127.0f) r = -127.0f;
  return static_cast<std::int8_t>(std::lrintf(r));
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

}  // namespace fitact::kern
