// Internal to src/tensor/kernels/: the dispatch table one backend fills in,
// plus the declarations of each backend's implementations. Nothing outside
// this directory includes this header — callers go through kernels.h.
#pragma once

#include <cstdint>

#include "tensor/kernels/kernels.h"

namespace fitact::kern {

struct KernelTable {
  void (*gemm_panel)(std::int64_t mb, std::int64_t nb, std::int64_t kb,
                     float alpha, const float* ap, const float* b,
                     std::int64_t ldb, float* c, std::int64_t ldc) noexcept;
  void (*relu)(const float* x, float* o, std::int64_t n) noexcept;
  void (*add)(const float* a, const float* b, float* o,
              std::int64_t n) noexcept;
  void (*bias_add_row)(float* row, const float* bias, std::int64_t n) noexcept;
  void (*bias_add_const)(float* row, float value, std::int64_t n) noexcept;
  std::uint64_t (*clipped_relu)(const float* x, const float* bound,
                                std::int64_t bound_numel, std::int64_t feat,
                                std::int64_t hw, bool saturate, float* o,
                                std::int64_t n, bool count) noexcept;
  std::uint64_t (*count_over_bound)(const float* x, const float* bound,
                                    std::int64_t bound_numel,
                                    std::int64_t feat, std::int64_t hw,
                                    std::int64_t n) noexcept;
  // FitReLU forward (same bound broadcast and counting as clipped_relu) and
  // its post-training backward. See kernels.h for the contracts.
  std::uint64_t (*fitrelu)(const float* x, const float* lambda,
                           std::int64_t lambda_numel, std::int64_t feat,
                           std::int64_t hw, float k, float* o, std::int64_t n,
                           bool count) noexcept;
  void (*fitrelu_backward)(const float* x, const float* g,
                           const float* lambda, std::int64_t lambda_numel,
                           std::int64_t feat, std::int64_t hw, float k,
                           float* dx, float* dlambda,
                           std::int64_t n) noexcept;
  // The fused conv/linear epilogue (kernels.h's Epilogue steps over one
  // sample's [channels, hw] block, x == o allowed).
  std::uint64_t (*epilogue)(const float* x, float* o, std::int64_t channels,
                            std::int64_t hw, const Epilogue& e) noexcept;
  // Int8 quantized path (kernels_scalar_i8.cpp / kernels_avx2_i8.cpp; the
  // dequant_plane epilogue sits with the fp32 epilogue it shares its steps
  // with). The GEMM accumulates exactly in int32, so backends are
  // bit-identical; the epilogue avoids FMA so the whole int8 path stays
  // bit-identical across backends too. Contracts in kernels.h.
  void (*gemm_i8_dot)(std::int64_t m, std::int64_t n, std::int64_t k,
                      const std::int8_t* a, std::int64_t lda,
                      const std::int8_t* b, std::int64_t ldb, std::int32_t* c,
                      std::int64_t ldc) noexcept;
  // Same contract as gemm_i8_dot plus the caller's guarantee that every byte
  // of one operand (a when a_unsigned, else b) is in [0,127] — FitAct's
  // clamp epilogue makes post-activation values nonnegative, so their
  // quantization always lands there. The guarantee unlocks u8xs8
  // instructions (maddubs / vpdpbusd) whose int16 pair sums cannot saturate
  // when |u| <= 127; results stay bit-identical to gemm_i8_dot on the same
  // bytes.
  void (*gemm_i8u8_dot)(std::int64_t m, std::int64_t n, std::int64_t k,
                        const std::int8_t* a, std::int64_t lda,
                        const std::int8_t* b, std::int64_t ldb,
                        std::int32_t* c, std::int64_t ldc,
                        bool a_unsigned) noexcept;
  void (*quantize_i8)(const float* x, float inv_scale, std::int8_t* q,
                      std::int64_t n) noexcept;
  void (*quantize_hwc_i8)(const float* x, float inv_scale, std::int8_t* q,
                          std::int64_t channels, std::int64_t hw,
                          std::int64_t row_stride) noexcept;
  std::uint64_t (*dequant_plane)(std::int32_t* acc, std::int64_t channels,
                                 std::int64_t hw, const Epilogue& e) noexcept;
};

namespace {

/// The bound-broadcast walk every bounded elementwise kernel shares: splits
/// n elements of complete per-sample rows (feat features each) into the
/// spans FeatureBroadcast's map gives one bound to, and returns the sum of
/// the span callbacks' results.
///   bound_numel == 1     one span over all n: span(0, n, 0)
///   bound_numel == feat  one row at a time:   row(base, feat)
///   otherwise (per-channel) each hw-long channel plane of each row:
///                        span(base + f, hw, f / hw)
/// span(offset, len, bound_index) covers elements sharing bound[bound_index];
/// row(offset, len) covers a row whose bound is bound[0..len) elementwise.
/// Internal linkage: the callers sit in TUs built with different ISA flags.
template <typename Span, typename Row>
inline std::uint64_t for_each_bound_span(std::int64_t bound_numel,
                                         std::int64_t feat, std::int64_t hw,
                                         std::int64_t n, const Span& span,
                                         const Row& row) noexcept {
  if (bound_numel == 1) return span(std::int64_t{0}, n, std::int64_t{0});
  std::uint64_t events = 0;
  for (std::int64_t base = 0; base < n; base += feat) {
    const std::int64_t len = base + feat <= n ? feat : n - base;
    if (bound_numel == feat) {
      events += row(base, len);
    } else {
      for (std::int64_t f = 0; f < len; f += hw) {
        events += span(base + f, f + hw <= len ? hw : len - f, f / hw);
      }
    }
  }
  return events;
}

}  // namespace

// The int8 GEMM and quantize kernels live in their own translation units
// (kernels_scalar_i8.cpp, kernels_avx2_i8.cpp) and are referenced cross-TU
// by the table initialisers in kernels_scalar.cpp / kernels_avx2.cpp, so —
// unlike the fp32 kernels — they need external linkage and declarations here.
void scalar_gemm_i8_dot(std::int64_t m, std::int64_t n, std::int64_t k,
                        const std::int8_t* a, std::int64_t lda,
                        const std::int8_t* b, std::int64_t ldb, std::int32_t* c,
                        std::int64_t ldc) noexcept;
void scalar_gemm_i8u8_dot(std::int64_t m, std::int64_t n, std::int64_t k,
                          const std::int8_t* a, std::int64_t lda,
                          const std::int8_t* b, std::int64_t ldb,
                          std::int32_t* c, std::int64_t ldc,
                          bool a_unsigned) noexcept;
void scalar_quantize_i8(const float* x, float inv_scale, std::int8_t* q,
                        std::int64_t n) noexcept;
void scalar_quantize_hwc_i8(const float* x, float inv_scale, std::int8_t* q,
                            std::int64_t channels, std::int64_t hw,
                            std::int64_t row_stride) noexcept;

#if defined(FITACT_HAVE_AVX2_KERNELS)
void avx2_gemm_i8_dot(std::int64_t m, std::int64_t n, std::int64_t k,
                      const std::int8_t* a, std::int64_t lda,
                      const std::int8_t* b, std::int64_t ldb, std::int32_t* c,
                      std::int64_t ldc) noexcept;
void avx2_gemm_i8u8_dot(std::int64_t m, std::int64_t n, std::int64_t k,
                        const std::int8_t* a, std::int64_t lda,
                        const std::int8_t* b, std::int64_t ldb, std::int32_t* c,
                        std::int64_t ldc, bool a_unsigned) noexcept;
void avx2_quantize_i8(const float* x, float inv_scale, std::int8_t* q,
                      std::int64_t n) noexcept;
void avx2_quantize_hwc_i8(const float* x, float inv_scale, std::int8_t* q,
                          std::int64_t channels, std::int64_t hw,
                          std::int64_t row_stride) noexcept;
#endif

/// The portable reference backend (kernels_scalar.cpp). Always available;
/// also the semantics every vector backend must reproduce (bit-exactly for
/// the elementwise kernels, to forward-error bounds for gemm_panel).
[[nodiscard]] const KernelTable& scalar_table() noexcept;

// AVX-512 VNNI int8 GEMM (kernels_avx2_vnni_i8.cpp). Not a backend of its
// own: when the host also executes AVX-512 F/BW/VL/VNNI, dispatch.cpp serves
// the avx2 tier a table whose gemm_i8_dot points here instead. Bit-identical
// to the scalar GEMM like every int8 kernel (exact int32 accumulation).
#if defined(FITACT_HAVE_AVX512VNNI_KERNELS)
void avx2_vnni_gemm_i8_dot(std::int64_t m, std::int64_t n, std::int64_t k,
                           const std::int8_t* a, std::int64_t lda,
                           const std::int8_t* b, std::int64_t ldb,
                           std::int32_t* c, std::int64_t ldc) noexcept;
void avx2_vnni_gemm_i8u8_dot(std::int64_t m, std::int64_t n, std::int64_t k,
                             const std::int8_t* a, std::int64_t lda,
                             const std::int8_t* b, std::int64_t ldb,
                             std::int32_t* c, std::int64_t ldc,
                             bool a_unsigned) noexcept;
#endif

// The AVX2/FMA backend (kernels_avx2.cpp). Declared unconditionally;
// defined only when the build carries the AVX2 translation unit
// (FITACT_HAVE_AVX2_KERNELS), and dereferenced by dispatch.cpp only after
// a cpuid check says the host executes AVX2+FMA.
#if defined(FITACT_HAVE_AVX2_KERNELS)
[[nodiscard]] const KernelTable& avx2_table() noexcept;
#endif

}  // namespace fitact::kern
