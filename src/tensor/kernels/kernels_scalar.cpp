// Portable scalar backend: the reference semantics for every dispatched
// kernel, and the fallback on hosts (or builds) without AVX2. The loops here
// came from tensor/gemm.cpp's original kernel_panel and the inline bodies
// that used to live in autograd/op_kernels.h — minus the value-dependent
// zero-skip the old GEMM panel carried, which silently dropped NaN/Inf
// propagation from B whenever the matching A element was zero (exactly the
// values injected hardware faults produce; gemm_fuzz_test now pins this).
#include "tensor/kernels/kernel_table.h"

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
  std::uint64_t events = 0;
  if (bound_numel == 1) {
    return clip_span_const(x, bound[0], saturate, o, n, count);
  }
  // Walk whole per-sample rows; inside a row the bound broadcast is either
  // elementwise (per-neuron) or constant over hw-length channel spans.
  for (std::int64_t base = 0; base < n; base += feat) {
    const std::int64_t row = base + feat <= n ? feat : n - base;
    if (bound_numel == feat) {
      events += clip_span_rowwise(x + base, bound, saturate, o + base, row,
                                  count);
    } else {  // per-channel: bound index = fi / hw
      for (std::int64_t f = 0; f < row; f += hw) {
        const std::int64_t span = f + hw <= row ? hw : row - f;
        events += clip_span_const(x + base + f, bound[f / hw], saturate,
                                  o + base + f, span, count);
      }
    }
  }
  return events;
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
  if (bound_numel == 1) return count_span_const(x, bound[0], n);
  std::uint64_t events = 0;
  for (std::int64_t base = 0; base < n; base += feat) {
    const std::int64_t row = base + feat <= n ? feat : n - base;
    if (bound_numel == feat) {
      events += count_span_rowwise(x + base, bound, row);
    } else {
      for (std::int64_t f = 0; f < row; f += hw) {
        const std::int64_t span = f + hw <= row ? hw : row - f;
        events += count_span_const(x + base + f, bound[f / hw], span);
      }
    }
  }
  return events;
}

// Fused GEMM epilogues: the bias add and the clamp are the same float ops
// the unfused bias_add_* + clip_span_* sequence performs, in the same order
// per element — only the store of the pre-activation value is elided. That
// is what keeps fused plans bit-identical to unfused ones.

std::uint64_t scalar_fused_bias_clip_cc(float* o, float bias, float bound,
                                        bool saturate, std::int64_t n,
                                        bool count) noexcept {
  std::uint64_t events = 0;
  const float over = saturate ? bound : 0.0f;
  for (std::int64_t i = 0; i < n; ++i) {
    const float xi = o[i] + bias;
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

std::uint64_t scalar_fused_bias_clip_cr(float* o, float bias,
                                        const float* bound, bool saturate,
                                        std::int64_t n, bool count) noexcept {
  std::uint64_t events = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    const float xi = o[i] + bias;
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

std::uint64_t scalar_fused_bias_clip_rc(float* o, const float* bias,
                                        float bound, bool saturate,
                                        std::int64_t n, bool count) noexcept {
  std::uint64_t events = 0;
  const float over = saturate ? bound : 0.0f;
  for (std::int64_t i = 0; i < n; ++i) {
    const float xi = o[i] + bias[i];
    if (count) events += xi > bound;
    if (xi <= 0.0f) {
      o[i] = 0.0f;
    } else if (xi <= bound) {
      o[i] = xi;
    } else {
      o[i] = over;
    }
  }
  return events;
}

std::uint64_t scalar_fused_bias_clip_rr(float* o, const float* bias,
                                        const float* bound, bool saturate,
                                        std::int64_t n, bool count) noexcept {
  std::uint64_t events = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    const float xi = o[i] + bias[i];
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

}  // namespace

const KernelTable& scalar_table() noexcept {
  static constexpr KernelTable kTable = {
      scalar_gemm_panel,    scalar_relu,
      scalar_add,           scalar_bias_add_row,
      scalar_bias_add_const, scalar_clipped_relu,
      scalar_count_over_bound,
      scalar_fused_bias_clip_cc,
      scalar_fused_bias_clip_cr,
      scalar_fused_bias_clip_rc,
      scalar_fused_bias_clip_rr,
      scalar_gemm_i8_dot,
      scalar_gemm_i8u8_dot,
      scalar_quantize_i8,
      scalar_quantize_hwc_i8,
      scalar_dequant_plane,
      scalar_fused_dequant_clip_rc,
      scalar_fused_dequant_clip_rr,
  };
  return kTable;
}

}  // namespace fitact::kern
