// Portable scalar backend: the reference semantics for every dispatched
// kernel, and the fallback on hosts (or builds) without AVX2. The loops here
// came from tensor/gemm.cpp's original kernel_panel and the inline bodies
// that used to live in autograd/op_kernels.h — minus the value-dependent
// zero-skip the old GEMM panel carried, which silently dropped NaN/Inf
// propagation from B whenever the matching A element was zero (exactly the
// values injected hardware faults produce; gemm_fuzz_test now pins this).
#include "tensor/kernels/kernel_table.h"

#include <cstring>

#include "tensor/kernels/fitrelu_math.h"

namespace fitact::kern {
namespace {

void scalar_gemm_panel(std::int64_t mb, std::int64_t nb, std::int64_t kb,
                       float alpha, const float* ap, const float* b,
                       std::int64_t ldb, float* c,
                       std::int64_t ldc) noexcept {
  for (std::int64_t i = 0; i < mb; ++i) {
    const float* arow = ap + i * kb;
    float* crow = c + i * ldc;
    for (std::int64_t p = 0; p < kb; ++p) {
      // No zero-skip on aval: 0 * NaN = NaN and 0 * Inf = NaN must reach C.
      const float aval = alpha * arow[p];
      const float* brow = b + p * ldb;
      std::int64_t j = 0;
      for (; j + 4 <= nb; j += 4) {
        crow[j + 0] += aval * brow[j + 0];
        crow[j + 1] += aval * brow[j + 1];
        crow[j + 2] += aval * brow[j + 2];
        crow[j + 3] += aval * brow[j + 3];
      }
      for (; j < nb; ++j) crow[j] += aval * brow[j];
    }
  }
}

void scalar_relu(const float* x, float* o, std::int64_t n) noexcept {
  for (std::int64_t i = 0; i < n; ++i) o[i] = x[i] > 0.0f ? x[i] : 0.0f;
}

void scalar_add(const float* a, const float* b, float* o,
                std::int64_t n) noexcept {
  for (std::int64_t i = 0; i < n; ++i) o[i] = a[i] + b[i];
}

void scalar_bias_add_row(float* row, const float* bias,
                         std::int64_t n) noexcept {
  for (std::int64_t i = 0; i < n; ++i) row[i] += bias[i];
}

void scalar_bias_add_const(float* row, float value, std::int64_t n) noexcept {
  for (std::int64_t i = 0; i < n; ++i) row[i] += value;
}

/// One span of elements sharing a single broadcast bound.
inline std::uint64_t clip_span_const(const float* x, float bound,
                                     bool saturate, float* o, std::int64_t n,
                                     bool count) noexcept {
  std::uint64_t events = 0;
  const float over = saturate ? bound : 0.0f;
  for (std::int64_t i = 0; i < n; ++i) {
    const float xi = x[i];
    if (count) events += xi > bound;
    if (xi <= 0.0f) {
      o[i] = 0.0f;
    } else if (xi <= bound) {
      o[i] = xi;
    } else {
      o[i] = over;  // NaN lands here too: both ordered compares fail
    }
  }
  return events;
}

/// One span with an elementwise bound row (per-neuron granularity).
inline std::uint64_t clip_span_rowwise(const float* x, const float* bound,
                                       bool saturate, float* o,
                                       std::int64_t n, bool count) noexcept {
  std::uint64_t events = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    const float xi = x[i];
    const float bi = bound[i];
    if (count) events += xi > bi;
    if (xi <= 0.0f) {
      o[i] = 0.0f;
    } else if (xi <= bi) {
      o[i] = xi;
    } else {
      o[i] = saturate ? bi : 0.0f;
    }
  }
  return events;
}

std::uint64_t scalar_clipped_relu(const float* x, const float* bound,
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

/// Count-only spans mirroring clip_span_*: events += x > bound.
inline std::uint64_t count_span_const(const float* x, float bound,
                                      std::int64_t n) noexcept {
  std::uint64_t events = 0;
  for (std::int64_t i = 0; i < n; ++i) events += x[i] > bound;
  return events;
}

inline std::uint64_t count_span_rowwise(const float* x, const float* bound,
                                        std::int64_t n) noexcept {
  std::uint64_t events = 0;
  for (std::int64_t i = 0; i < n; ++i) events += x[i] > bound[i];
  return events;
}

std::uint64_t scalar_count_over_bound(const float* x, const float* bound,
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

// FitReLU: the element loops are fitrelu_math.h's, shared with the AVX2
// tails; the AVX2 lanes reproduce them operation for operation.

std::uint64_t scalar_fitrelu(const float* x, const float* lambda,
                             std::int64_t lambda_numel, std::int64_t feat,
                             std::int64_t hw, float k, float* o,
                             std::int64_t n, bool count) noexcept {
  return for_each_bound_span(
      lambda_numel, feat, hw, n,
      [&](std::int64_t at, std::int64_t len, std::int64_t b) {
        return fitrelu_span_const(x + at, lambda[b], k, o + at, 0, len, count);
      },
      [&](std::int64_t at, std::int64_t len) {
        return fitrelu_span_rowwise(x + at, lambda, k, o + at, 0, len, count);
      });
}

void scalar_fitrelu_backward(const float* x, const float* g,
                             const float* lambda, std::int64_t lambda_numel,
                             std::int64_t feat, std::int64_t hw, float k,
                             float* dx, float* dlambda,
                             std::int64_t n) noexcept {
  (void)for_each_bound_span(
      lambda_numel, feat, hw, n,
      [&](std::int64_t at, std::int64_t len, std::int64_t b) {
        // kernels.h's dλ order: eight lane partials over the whole 8-blocks
        // (lane j takes elements j, j+8, ...), their fixed combine, then
        // the tail in order.
        const float l = lambda[b];
        float lane[8] = {};
        const std::int64_t len8 = len & ~std::int64_t{7};
        for (std::int64_t i = at; i < at + len8; ++i) {
          if (x[i] <= 0.0f) continue;
          const FitReluGrad d = fitrelu_grad_elem(x[i], l, k, g[i]);
          if (dx != nullptr) dx[i] += d.dx;
          lane[(i - at) & 7] += d.dl;
        }
        const float sum = fitrelu_grad_span_const(x, g, l, k, dx, at + len8,
                                                  at + len, reduce_lanes(lane));
        if (dlambda != nullptr) dlambda[b] += sum;
        return std::uint64_t{0};
      },
      [&](std::int64_t at, std::int64_t len) {
        fitrelu_grad_span_rowwise(x + at, g + at, lambda, k,
                                  dx != nullptr ? dx + at : nullptr, dlambda,
                                  0, len);
        return std::uint64_t{0};
      });
}

// The fused epilogue, fp32 and int8: load(c, i) yields element i's value
// before the bias add (the GEMM output, or the accumulator times its
// channel's dequantize factor) and store(i, v) writes the result.
template <typename Load, typename Store>
std::uint64_t epilogue_block(std::int64_t channels, std::int64_t hw,
                             const Epilogue& e, const Load& load,
                             const Store& store) noexcept {
  std::uint64_t events = 0;
  for (std::int64_t c = 0; c < channels; ++c) {
    const float bias = e.bias != nullptr ? e.bias[c] : 0.0f;
    for (std::int64_t i = c * hw; i < (c + 1) * hw; ++i) {
      store(i, epilogue_steps(load(c, i) + bias, c, i, channels, e, events));
    }
  }
  return events;
}

std::uint64_t scalar_epilogue(const float* x, float* o, std::int64_t channels,
                              std::int64_t hw, const Epilogue& e) noexcept {
  return epilogue_block(
      channels, hw, e, [&](std::int64_t, std::int64_t i) { return x[i]; },
      [&](std::int64_t i, float v) { o[i] = v; });
}

// In place over int32 accumulators: each element is read once as int32 and
// rewritten as fp32, both through std::memcpy so the read-int32/write-float
// pair never relies on type-punned pointers.
std::uint64_t scalar_dequant_plane(std::int32_t* acc, std::int64_t channels,
                                   std::int64_t hw,
                                   const Epilogue& e) noexcept {
  return epilogue_block(
      channels, hw, e,
      [&](std::int64_t c, std::int64_t i) {
        std::int32_t a;
        std::memcpy(&a, acc + i, sizeof(a));
        return static_cast<float>(a) * e.scale[c];
      },
      [&](std::int64_t i, float v) { std::memcpy(acc + i, &v, sizeof(v)); });
}

}  // namespace

const KernelTable& scalar_table() noexcept {
  static constexpr KernelTable kTable = {
      scalar_gemm_panel,    scalar_relu,
      scalar_add,           scalar_bias_add_row,
      scalar_bias_add_const, scalar_clipped_relu,
      scalar_count_over_bound,
      scalar_fitrelu,
      scalar_fitrelu_backward,
      scalar_epilogue,
      scalar_gemm_i8_dot,
      scalar_gemm_i8u8_dot,
      scalar_quantize_i8,
      scalar_quantize_hwc_i8,
      scalar_dequant_plane,
  };
  return kTable;
}

}  // namespace fitact::kern
