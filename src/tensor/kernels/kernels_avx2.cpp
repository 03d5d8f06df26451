// AVX2/FMA backend. This translation unit is the only place in the tree
// allowed to include <immintrin.h> (scripts/lint.sh enforces the boundary):
// it is compiled with -mavx2 -mfma while the rest of the library keeps the
// portable baseline ISA, and dispatch.cpp only installs this table after a
// runtime cpuid check — so the binary stays runnable on any x86-64 host.
//
// Semantics: the elementwise kernels reproduce the scalar backend
// bit-exactly (identical branch structure via ordered-quiet compares and
// blends, so NaN/Inf/-0.0 behave the same; FitReLU's σ runs the same
// operations as fitrelu_math.h, and the TU builds with -ffp-contract=off so
// the compiler adds no FMA the scalar code lacks); gemm_panel accumulates
// with FMA in 16-column register tiles, which changes rounding relative to
// scalar — cross-backend GEMM agreement is to forward-error bounds only
// (gemm_fuzz_test's per-element tolerance).
//
// Column invariance: every element of C, in the vector tiles, the 8-wide
// edge loop and the scalar tail alike, is updated by one single-rounding FMA
// per k step in the same k order. A column's bits therefore never depend on
// where it sits in N, so a GEMM over several samples' columns side by side
// (autograd/op_kernels.h, conv2d_forward_batch) reproduces the per-sample
// GEMMs exactly. The tail spells the FMA out rather than relying on the
// compiler's -ffp-contract default (gemm_fuzz_test pins the contract).
#include "tensor/kernels/kernel_table.h"

#if defined(FITACT_HAVE_AVX2_KERNELS)

#include <cmath>
#include <cstring>

#include <immintrin.h>

#include "tensor/kernels/fitrelu_math.h"

namespace fitact::kern {
namespace {

// ---- GEMM panel ------------------------------------------------------------

/// Full 4-row x 16-column register tile: C tile is held in 8 ymm
/// accumulators across the whole kb loop, so C traffic is one load + one
/// store per element instead of one per k step.
inline void tile4x16(std::int64_t kb, float alpha, const float* ap,
                     std::int64_t ap_stride, const float* b, std::int64_t ldb,
                     float* c, std::int64_t ldc) noexcept {
  __m256 acc00 = _mm256_loadu_ps(c + 0 * ldc);
  __m256 acc01 = _mm256_loadu_ps(c + 0 * ldc + 8);
  __m256 acc10 = _mm256_loadu_ps(c + 1 * ldc);
  __m256 acc11 = _mm256_loadu_ps(c + 1 * ldc + 8);
  __m256 acc20 = _mm256_loadu_ps(c + 2 * ldc);
  __m256 acc21 = _mm256_loadu_ps(c + 2 * ldc + 8);
  __m256 acc30 = _mm256_loadu_ps(c + 3 * ldc);
  __m256 acc31 = _mm256_loadu_ps(c + 3 * ldc + 8);
  for (std::int64_t p = 0; p < kb; ++p) {
    const __m256 b0 = _mm256_loadu_ps(b + p * ldb);
    const __m256 b1 = _mm256_loadu_ps(b + p * ldb + 8);
    const __m256 a0 = _mm256_set1_ps(alpha * ap[0 * ap_stride + p]);
    const __m256 a1 = _mm256_set1_ps(alpha * ap[1 * ap_stride + p]);
    const __m256 a2 = _mm256_set1_ps(alpha * ap[2 * ap_stride + p]);
    const __m256 a3 = _mm256_set1_ps(alpha * ap[3 * ap_stride + p]);
    acc00 = _mm256_fmadd_ps(a0, b0, acc00);
    acc01 = _mm256_fmadd_ps(a0, b1, acc01);
    acc10 = _mm256_fmadd_ps(a1, b0, acc10);
    acc11 = _mm256_fmadd_ps(a1, b1, acc11);
    acc20 = _mm256_fmadd_ps(a2, b0, acc20);
    acc21 = _mm256_fmadd_ps(a2, b1, acc21);
    acc30 = _mm256_fmadd_ps(a3, b0, acc30);
    acc31 = _mm256_fmadd_ps(a3, b1, acc31);
  }
  _mm256_storeu_ps(c + 0 * ldc, acc00);
  _mm256_storeu_ps(c + 0 * ldc + 8, acc01);
  _mm256_storeu_ps(c + 1 * ldc, acc10);
  _mm256_storeu_ps(c + 1 * ldc + 8, acc11);
  _mm256_storeu_ps(c + 2 * ldc, acc20);
  _mm256_storeu_ps(c + 2 * ldc + 8, acc21);
  _mm256_storeu_ps(c + 3 * ldc, acc30);
  _mm256_storeu_ps(c + 3 * ldc + 8, acc31);
}

/// Single-row edge tile: 8-wide vector loop with a scalar FMA tail. Handles
/// the bottom rows (mb % 4) and, with nb < 16, the right edge columns.
inline void tile1xN(std::int64_t nb, std::int64_t kb, float alpha,
                    const float* arow, const float* b, std::int64_t ldb,
                    float* c) noexcept {
  for (std::int64_t p = 0; p < kb; ++p) {
    const float aval = alpha * arow[p];
    const __m256 av = _mm256_set1_ps(aval);
    const float* brow = b + p * ldb;
    std::int64_t j = 0;
    for (; j + 8 <= nb; j += 8) {
      _mm256_storeu_ps(
          c + j, _mm256_fmadd_ps(av, _mm256_loadu_ps(brow + j),
                                 _mm256_loadu_ps(c + j)));
    }
    for (; j < nb; ++j) c[j] = std::fma(aval, brow[j], c[j]);
  }
}

void avx2_gemm_panel(std::int64_t mb, std::int64_t nb, std::int64_t kb,
                     float alpha, const float* ap, const float* b,
                     std::int64_t ldb, float* c, std::int64_t ldc) noexcept {
  const std::int64_t mb4 = mb & ~std::int64_t{3};
  const std::int64_t nb16 = nb & ~std::int64_t{15};
  for (std::int64_t i = 0; i < mb4; i += 4) {
    for (std::int64_t j = 0; j < nb16; j += 16) {
      tile4x16(kb, alpha, ap + i * kb, kb, b + j, ldb, c + i * ldc + j, ldc);
    }
    if (nb16 < nb) {
      for (std::int64_t r = 0; r < 4; ++r) {
        tile1xN(nb - nb16, kb, alpha, ap + (i + r) * kb, b + nb16, ldb,
                c + (i + r) * ldc + nb16);
      }
    }
  }
  for (std::int64_t i = mb4; i < mb; ++i) {
    tile1xN(nb, kb, alpha, ap + i * kb, b, ldb, c + i * ldc);
  }
}

// ---- elementwise -----------------------------------------------------------

void avx2_relu(const float* x, float* o, std::int64_t n) noexcept {
  const __m256 zero = _mm256_setzero_ps();
  std::int64_t i = 0;
  // maxps(x, 0) returns the second operand when x is NaN — the same 0 the
  // scalar branch (x > 0 ? x : 0) produces.
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(o + i, _mm256_max_ps(_mm256_loadu_ps(x + i), zero));
  }
  for (; i < n; ++i) o[i] = x[i] > 0.0f ? x[i] : 0.0f;
}

void avx2_add(const float* a, const float* b, float* o,
              std::int64_t n) noexcept {
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        o + i, _mm256_add_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) o[i] = a[i] + b[i];
}

void avx2_bias_add_row(float* row, const float* bias, std::int64_t n) noexcept {
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(row + i, _mm256_add_ps(_mm256_loadu_ps(row + i),
                                            _mm256_loadu_ps(bias + i)));
  }
  for (; i < n; ++i) row[i] += bias[i];
}

void avx2_bias_add_const(float* row, float value, std::int64_t n) noexcept {
  const __m256 v = _mm256_set1_ps(value);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(row + i, _mm256_add_ps(_mm256_loadu_ps(row + i), v));
  }
  for (; i < n; ++i) row[i] += value;
}

// ---- bounded activations ---------------------------------------------------

/// Vector core of one clip step: mirrors the scalar branch cascade
///   x <= 0 -> 0;  x <= b -> x;  else -> over (0 or b)
/// with ordered-quiet compares, so NaN (both compares false) maps to `over`
/// exactly as in the scalar backend.
inline __m256 clip8(__m256 x, __m256 b, __m256 over, __m256 zero) noexcept {
  const __m256 le0 = _mm256_cmp_ps(x, zero, _CMP_LE_OQ);
  const __m256 leb = _mm256_cmp_ps(x, b, _CMP_LE_OQ);
  __m256 r = _mm256_blendv_ps(over, x, leb);  // x <= b ? x : over
  r = _mm256_blendv_ps(r, zero, le0);         // x <= 0 ? 0 : r
  return r;
}

/// events += popcount(x > b) for one vector — _CMP_GT_OQ is false for NaN,
/// matching the scalar `x > b` tally.
inline std::uint64_t count8(__m256 x, __m256 b) noexcept {
  return static_cast<std::uint64_t>(__builtin_popcount(static_cast<unsigned>(
      _mm256_movemask_ps(_mm256_cmp_ps(x, b, _CMP_GT_OQ)))));
}

inline std::uint64_t clip_span_const(const float* x, float bound,
                                     bool saturate, float* o, std::int64_t n,
                                     bool count) noexcept {
  const __m256 zero = _mm256_setzero_ps();
  const __m256 bv = _mm256_set1_ps(bound);
  const __m256 over = saturate ? bv : zero;
  std::uint64_t events = 0;
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 xv = _mm256_loadu_ps(x + i);
    if (count) events += count8(xv, bv);
    _mm256_storeu_ps(o + i, clip8(xv, bv, over, zero));
  }
  const float over_s = saturate ? bound : 0.0f;
  for (; i < n; ++i) {
    const float xi = x[i];
    if (count) events += xi > bound;
    o[i] = xi <= 0.0f ? 0.0f : (xi <= bound ? xi : over_s);
  }
  return events;
}

inline std::uint64_t clip_span_rowwise(const float* x, const float* bound,
                                       bool saturate, float* o,
                                       std::int64_t n, bool count) noexcept {
  const __m256 zero = _mm256_setzero_ps();
  std::uint64_t events = 0;
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 xv = _mm256_loadu_ps(x + i);
    const __m256 bv = _mm256_loadu_ps(bound + i);
    if (count) events += count8(xv, bv);
    _mm256_storeu_ps(o + i, clip8(xv, bv, saturate ? bv : zero, zero));
  }
  for (; i < n; ++i) {
    const float xi = x[i];
    const float bi = bound[i];
    if (count) events += xi > bi;
    o[i] = xi <= 0.0f ? 0.0f : (xi <= bi ? xi : (saturate ? bi : 0.0f));
  }
  return events;
}

std::uint64_t avx2_clipped_relu(const float* x, const float* bound,
                                std::int64_t bound_numel, std::int64_t feat,
                                std::int64_t hw, bool saturate, float* o,
                                std::int64_t n, bool count) noexcept {
  return for_each_bound_span(
      bound_numel, feat, hw, n,
      [&](std::int64_t at, std::int64_t len, std::int64_t b) {
        return clip_span_const(x + at, bound[b], saturate, o + at, len, count);
      },
      [&](std::int64_t at, std::int64_t len) {
        return clip_span_rowwise(x + at, bound, saturate, o + at, len, count);
      });
}

inline std::uint64_t count_span_const(const float* x, float bound,
                                      std::int64_t n) noexcept {
  const __m256 bv = _mm256_set1_ps(bound);
  std::uint64_t events = 0;
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) events += count8(_mm256_loadu_ps(x + i), bv);
  for (; i < n; ++i) events += x[i] > bound;
  return events;
}

inline std::uint64_t count_span_rowwise(const float* x, const float* bound,
                                        std::int64_t n) noexcept {
  std::uint64_t events = 0;
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    events += count8(_mm256_loadu_ps(x + i), _mm256_loadu_ps(bound + i));
  }
  for (; i < n; ++i) events += x[i] > bound[i];
  return events;
}

std::uint64_t avx2_count_over_bound(const float* x, const float* bound,
                                    std::int64_t bound_numel,
                                    std::int64_t feat, std::int64_t hw,
                                    std::int64_t n) noexcept {
  return for_each_bound_span(
      bound_numel, feat, hw, n,
      [&](std::int64_t at, std::int64_t len, std::int64_t b) {
        return count_span_const(x + at, bound[b], len);
      },
      [&](std::int64_t at, std::int64_t len) {
        return count_span_rowwise(x + at, bound, len);
      });
}

// ---- FitReLU ----------------------------------------------------------------
// fitrelu_math.h's scalar arithmetic, eight lanes at a time: the same
// constants, the same FMAs where it has std::fma and a separate multiply
// and add everywhere else (this TU builds with -ffp-contract=off), the same
// operand order. Tails call the scalar functions themselves.

/// exp_nonpos, lane-wise.
inline __m256 exp_nonpos8(__m256 a, __m256 lo) noexcept {
  const __m256 magic = _mm256_set1_ps(kRoundMagic);
  a = _mm256_max_ps(lo, a);  // NaN passes through
  const __m256 kf =
      _mm256_add_ps(_mm256_mul_ps(a, _mm256_set1_ps(kLog2e)), magic);
  const __m256 nf = _mm256_sub_ps(kf, magic);
  __m256 r = _mm256_fmadd_ps(nf, _mm256_set1_ps(-kLn2Hi), a);
  r = _mm256_fmadd_ps(nf, _mm256_set1_ps(-kLn2Lo), r);
  __m256 p = _mm256_fmadd_ps(_mm256_set1_ps(kExpP5), r,
                             _mm256_set1_ps(kExpP4));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(kExpP3));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(kExpP2));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(kExpP1));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(kExpP0));
  p = _mm256_fmadd_ps(p, _mm256_mul_ps(r, r), r);
  p = _mm256_add_ps(p, _mm256_set1_ps(1.0f));
  // exp2_plus64(bits(kf) - magic bits): the two integer adds fold into one.
  const __m256 scale = _mm256_castsi256_ps(_mm256_slli_epi32(
      _mm256_add_epi32(_mm256_castps_si256(kf),
                       _mm256_set1_epi32(static_cast<int>(
                           127u + 64u - kRoundMagicBits))),
      23));
  return _mm256_mul_ps(_mm256_mul_ps(p, scale),
                       _mm256_set1_ps(kTwoPowMinus64));
}

/// sigmoid_poly, lane-wise: -|t| by setting the sign bit (bit-identical to
/// -fabs), then num / (1 + e) with num = t >= 0 ? 1 : e.
inline __m256 sigmoid8(__m256 t) noexcept {
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 nonneg = _mm256_cmp_ps(t, _mm256_setzero_ps(), _CMP_GE_OQ);
  const __m256 lo = _mm256_blendv_ps(_mm256_set1_ps(kExpLo),
                                     _mm256_set1_ps(kExpLoNormal), nonneg);
  const __m256 e = exp_nonpos8(_mm256_or_ps(t, _mm256_set1_ps(-0.0f)), lo);
  return _mm256_div_ps(_mm256_blendv_ps(e, one, nonneg),
                       _mm256_add_ps(one, e));
}

/// fitrelu_elem, lane-wise: clearing the lanes with x <= 0 leaves +0.
inline __m256 fitrelu8(__m256 x, __m256 lambda, __m256 k) noexcept {
  const __m256 y =
      _mm256_mul_ps(x, sigmoid8(_mm256_mul_ps(k, _mm256_sub_ps(lambda, x))));
  return _mm256_andnot_ps(
      _mm256_cmp_ps(x, _mm256_setzero_ps(), _CMP_LE_OQ), y);
}

std::uint64_t avx2_fitrelu(const float* x, const float* lambda,
                           std::int64_t lambda_numel, std::int64_t feat,
                           std::int64_t hw, float k, float* o, std::int64_t n,
                           bool count) noexcept {
  const __m256 kv = _mm256_set1_ps(k);
  return for_each_bound_span(
      lambda_numel, feat, hw, n,
      [&](std::int64_t at, std::int64_t len, std::int64_t b) {
        const float* xs = x + at;
        float* os = o + at;
        const __m256 lv = _mm256_set1_ps(lambda[b]);
        std::uint64_t events = 0;
        std::int64_t i = 0;
        for (; i + 8 <= len; i += 8) {
          const __m256 xv = _mm256_loadu_ps(xs + i);
          if (count) events += count8(xv, lv);
          _mm256_storeu_ps(os + i, fitrelu8(xv, lv, kv));
        }
        return events + fitrelu_span_const(xs, lambda[b], k, os, i, len, count);
      },
      [&](std::int64_t at, std::int64_t len) {
        const float* xs = x + at;
        float* os = o + at;
        std::uint64_t events = 0;
        std::int64_t i = 0;
        for (; i + 8 <= len; i += 8) {
          const __m256 xv = _mm256_loadu_ps(xs + i);
          const __m256 lv = _mm256_loadu_ps(lambda + i);
          if (count) events += count8(xv, lv);
          _mm256_storeu_ps(os + i, fitrelu8(xv, lv, kv));
        }
        return events + fitrelu_span_rowwise(xs, lambda, k, os, i, len, count);
      });
}

/// fitrelu_grad_elem, lane-wise: {dx, dλ} contributions.
inline void fitrelu_grad8(__m256 x, __m256 lambda, __m256 k, __m256 g,
                          __m256* gdx, __m256* gdl) noexcept {
  const __m256 s = sigmoid8(_mm256_mul_ps(k, _mm256_sub_ps(lambda, x)));
  const __m256 kxds = _mm256_mul_ps(
      _mm256_mul_ps(k, x),
      _mm256_mul_ps(s, _mm256_sub_ps(_mm256_set1_ps(1.0f), s)));
  *gdx = _mm256_mul_ps(g, _mm256_sub_ps(s, kxds));
  *gdl = _mm256_mul_ps(g, kxds);
}

/// acc + v where x > 0 or NaN, acc unchanged where x <= 0 (the scalar
/// `continue`; adding a masked +0 would turn a -0 accumulator into +0).
inline __m256 add_where_active(__m256 acc, __m256 v, __m256 le0) noexcept {
  return _mm256_blendv_ps(_mm256_add_ps(acc, v), acc, le0);
}

void avx2_fitrelu_backward(const float* x, const float* g,
                           const float* lambda, std::int64_t lambda_numel,
                           std::int64_t feat, std::int64_t hw, float k,
                           float* dx, float* dlambda,
                           std::int64_t n) noexcept {
  const __m256 kv = _mm256_set1_ps(k);
  const __m256 zero = _mm256_setzero_ps();
  (void)for_each_bound_span(
      lambda_numel, feat, hw, n,
      [&](std::int64_t at, std::int64_t len, std::int64_t b) {
        const __m256 lv = _mm256_set1_ps(lambda[b]);
        __m256 acc = zero;
        std::int64_t i = at;
        for (; i + 8 <= at + len; i += 8) {
          const __m256 xv = _mm256_loadu_ps(x + i);
          const __m256 le0 = _mm256_cmp_ps(xv, zero, _CMP_LE_OQ);
          __m256 gdx;
          __m256 gdl;
          fitrelu_grad8(xv, lv, kv, _mm256_loadu_ps(g + i), &gdx, &gdl);
          if (dx != nullptr) {
            _mm256_storeu_ps(
                dx + i, add_where_active(_mm256_loadu_ps(dx + i), gdx, le0));
          }
          acc = add_where_active(acc, gdl, le0);
        }
        alignas(32) float lane[8];
        _mm256_store_ps(lane, acc);
        const float sum = fitrelu_grad_span_const(x, g, lambda[b], k, dx, i,
                                                  at + len, reduce_lanes(lane));
        if (dlambda != nullptr) dlambda[b] += sum;
        return std::uint64_t{0};
      },
      [&](std::int64_t at, std::int64_t len) {
        const float* xs = x + at;
        const float* gs = g + at;
        float* dxs = dx != nullptr ? dx + at : nullptr;
        std::int64_t i = 0;
        for (; i + 8 <= len; i += 8) {
          const __m256 xv = _mm256_loadu_ps(xs + i);
          const __m256 le0 = _mm256_cmp_ps(xv, zero, _CMP_LE_OQ);
          __m256 gdx;
          __m256 gdl;
          fitrelu_grad8(xv, _mm256_loadu_ps(lambda + i), kv,
                        _mm256_loadu_ps(gs + i), &gdx, &gdl);
          if (dxs != nullptr) {
            _mm256_storeu_ps(
                dxs + i, add_where_active(_mm256_loadu_ps(dxs + i), gdx, le0));
          }
          if (dlambda != nullptr) {
            _mm256_storeu_ps(dlambda + i,
                             add_where_active(_mm256_loadu_ps(dlambda + i), gdl,
                                              le0));
          }
        }
        fitrelu_grad_span_rowwise(xs, gs, lambda, k, dxs, dlambda, i, len);
        return std::uint64_t{0};
      });
}

// ---- fused GEMM epilogue ---------------------------------------------------
// epilogue and dequant_plane share one body: the steps of fitrelu_math.h's
// epilogue_steps, eight lanes at a time, with each step one IEEE operation
// (addps, the BatchNorm's subps/mulps/mulps/addps, addps) ahead of the
// count8 and clip8 / fitrelu8 of the kernels above. The block is walked
// flat, so FitReLU stays 8-wide however narrow the channel planes are:
// whole vectors inside one plane broadcast the channel's parameters, and a
// vector straddling planes loads them per lane.

/// The channel-indexed Epilogue values of one vector's lanes.
struct LaneParams {
  __m256 scale, bias, mean, invstd, gamma, beta, bound;
};

/// One step combination. kInt8 reads int32 accumulators in place and
/// dequantizes them; otherwise `in` is fp32 and may alias `o`.
template <bool kInt8, bool kBn, bool kAdd, EpilogueAct kAct>
std::uint64_t epilogue_body(const void* in, float* o, std::int64_t channels,
                            std::int64_t hw, const Epilogue& e) noexcept {
  const auto* x = static_cast<const float*>(in);
  const auto* acc = static_cast<const std::int32_t*>(in);
  const std::int64_t n = channels * hw;
  const __m256 zero = _mm256_setzero_ps();
  const __m256 kv = _mm256_set1_ps(e.k);
  const bool neuron = e.broadcast == BoundBroadcast::neuron;
  const __m256 layer_bound = kAct != EpilogueAct::none &&
                                     e.broadcast == BoundBroadcast::layer
                                 ? _mm256_set1_ps(e.bound[0])
                                 : zero;
  // The lanes' channel values, each read through `load` from the start of
  // its per-channel array.
  const auto params = [&](const auto& load) {
    LaneParams p{};
    if constexpr (kInt8) p.scale = load(e.scale);
    p.bias = e.bias != nullptr ? load(e.bias) : zero;
    if constexpr (kBn) {
      p.mean = load(e.bn);
      p.invstd = load(e.bn + channels);
      p.gamma = load(e.bn + 2 * channels);
      p.beta = load(e.bn + 3 * channels);
    }
    if constexpr (kAct != EpilogueAct::none) {
      p.bound = e.broadcast == BoundBroadcast::channel ? load(e.bound)
                                                       : layer_bound;
    }
    return p;
  };
  std::uint64_t events = 0;
  const auto step = [&](std::int64_t i, const LaneParams& p) {
    __m256 v;
    if constexpr (kInt8) {
      v = _mm256_mul_ps(
          _mm256_cvtepi32_ps(_mm256_loadu_si256(
              reinterpret_cast<const __m256i*>(acc + i))),
          p.scale);
    } else {
      v = _mm256_loadu_ps(x + i);
    }
    v = _mm256_add_ps(v, p.bias);
    if constexpr (kBn) {
      v = _mm256_add_ps(
          _mm256_mul_ps(_mm256_mul_ps(_mm256_sub_ps(v, p.mean), p.invstd),
                        p.gamma),
          p.beta);
    }
    if constexpr (kAdd) v = _mm256_add_ps(v, _mm256_loadu_ps(e.shortcut + i));
    if constexpr (kAct != EpilogueAct::none) {
      const __m256 b = neuron ? _mm256_loadu_ps(e.bound + i) : p.bound;
      if (e.count) events += count8(v, b);
      if constexpr (kAct == EpilogueAct::clamp) {
        v = clip8(v, b, e.saturate ? b : zero, zero);
      } else {
        v = fitrelu8(v, b, kv);
      }
    }
    _mm256_storeu_ps(o + i, v);
  };

  std::int64_t i = 0;  // element i of the block is element r of channel c
  std::int64_t c = 0;
  std::int64_t r = 0;
  while (i + 8 <= n) {
    if (r + 8 <= hw) {
      // Whole vectors inside channel c share its values.
      const LaneParams p =
          params([&](const float* a) { return _mm256_set1_ps(a[c]); });
      const std::int64_t run = (hw - r) & ~std::int64_t{7};
      for (const std::int64_t end = i + run; i < end; i += 8) step(i, p);
      r += run;
      if (r == hw) {
        r = 0;
        ++c;
      }
      continue;
    }
    // The lanes straddle channels: consecutive channels when hw == 1, else
    // each lane's own.
    if (hw == 1) {
      step(i, params([&](const float* a) { return _mm256_loadu_ps(a + c); }));
    } else {
      alignas(32) std::int32_t lane_c[8];
      for (std::int64_t j = 0, lc = c, lr = r; j < 8; ++j) {
        lane_c[j] = static_cast<std::int32_t>(lc);
        if (++lr == hw) {
          lr = 0;
          ++lc;
        }
      }
      const __m256i idx =
          _mm256_load_si256(reinterpret_cast<const __m256i*>(lane_c));
      step(i, params([&](const float* a) {
             return _mm256_i32gather_ps(a, idx, 4);
           }));
    }
    i += 8;
    for (r += 8; r >= hw; r -= hw) ++c;
  }
  // The int8 tail reads int32 and writes fp32 to the same bytes, so both
  // go through std::memcpy rather than type-punned pointers.
  for (; i < n; ++i) {
    float v;
    if constexpr (kInt8) {
      std::int32_t a;
      std::memcpy(&a, acc + i, sizeof(a));
      v = static_cast<float>(a) * e.scale[c];
    } else {
      v = x[i];
    }
    v = epilogue_steps(v + (e.bias != nullptr ? e.bias[c] : 0.0f), c, i,
                       channels, e, events);
    std::memcpy(o + i, &v, sizeof(v));
    if (++r == hw) {
      r = 0;
      ++c;
    }
  }
  return events;
}

template <bool kInt8, bool kBn, bool kAdd>
std::uint64_t epilogue_act(const void* in, float* o, std::int64_t channels,
                           std::int64_t hw, const Epilogue& e) noexcept {
  switch (e.act) {
    case EpilogueAct::clamp:
      return epilogue_body<kInt8, kBn, kAdd, EpilogueAct::clamp>(in, o,
                                                                 channels, hw,
                                                                 e);
    case EpilogueAct::fitrelu:
      return epilogue_body<kInt8, kBn, kAdd, EpilogueAct::fitrelu>(
          in, o, channels, hw, e);
    case EpilogueAct::none:
      break;
  }
  return epilogue_body<kInt8, kBn, kAdd, EpilogueAct::none>(in, o, channels,
                                                            hw, e);
}

/// One instantiation per step combination keeps the step tests out of the
/// vector loop.
template <bool kInt8>
std::uint64_t dispatch_epilogue(const void* in, float* o,
                                std::int64_t channels, std::int64_t hw,
                                const Epilogue& e) noexcept {
  if (e.bn != nullptr) {
    return e.shortcut != nullptr
               ? epilogue_act<kInt8, true, true>(in, o, channels, hw, e)
               : epilogue_act<kInt8, true, false>(in, o, channels, hw, e);
  }
  return e.shortcut != nullptr
             ? epilogue_act<kInt8, false, true>(in, o, channels, hw, e)
             : epilogue_act<kInt8, false, false>(in, o, channels, hw, e);
}

std::uint64_t avx2_epilogue(const float* x, float* o, std::int64_t channels,
                            std::int64_t hw, const Epilogue& e) noexcept {
  return dispatch_epilogue<false>(x, o, channels, hw, e);
}

std::uint64_t avx2_dequant_plane(std::int32_t* acc, std::int64_t channels,
                                 std::int64_t hw, const Epilogue& e) noexcept {
  return dispatch_epilogue<true>(acc, reinterpret_cast<float*>(acc), channels,
                                 hw, e);
}

}  // namespace

const KernelTable& avx2_table() noexcept {
  static constexpr KernelTable kTable = {
      avx2_gemm_panel,    avx2_relu,
      avx2_add,           avx2_bias_add_row,
      avx2_bias_add_const, avx2_clipped_relu,
      avx2_count_over_bound,
      avx2_fitrelu,
      avx2_fitrelu_backward,
      avx2_epilogue,
      avx2_gemm_i8_dot,
      avx2_gemm_i8u8_dot,
      avx2_quantize_i8,
      avx2_quantize_hwc_i8,
      avx2_dequant_plane,
  };
  return kTable;
}

}  // namespace fitact::kern

#endif  // FITACT_HAVE_AVX2_KERNELS
