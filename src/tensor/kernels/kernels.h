// Runtime-dispatched CPU microkernels for the serving hot path.
//
// Every compute inner loop that serving throughput depends on funnels
// through the entry points declared here:
//
//   gemm_panel              SGEMM inner panel behind linear/conv
//   relu, add,              elementwise passes
//   bias_add_row/_const
//   clipped_relu            bound-clamp (GBReLU / Ranger / FitReLU-Naive)
//                           with fused clamp-event counting
//   count_over_bound        the clamp-event counter alone
//   fitrelu,                FitReLU (paper Eq. 6) forward with fused
//   fitrelu_backward        counting, and its post-training backward
//   fused_bias_clip_*       bias + bound-clamp GEMM epilogues
//   int8 path               gemm_i8_dot / gemm_i8u8_dot, quantize_i8,
//                           quantize_hwc_i8, dequant_plane,
//                           fused_dequant_clip_*
//
// A process-wide dispatch table binds each entry point to one backend:
//
//   scalar — portable C++ loops, the reference semantics (kernels_scalar.cpp)
//   avx2   — AVX2/FMA vector kernels (kernels_avx2.cpp, only compiled when
//            the toolchain can target AVX2; only *selected* when cpuid says
//            the host executes it)
//
// Dispatch is deliberately per-process, not per-thread or per-call site:
// campaign determinism across thread counts and the plan-vs-eager
// bit-identity contract both require every forward in a process to run the
// same arithmetic. The backend is resolved once, at first use, from the
// FITACT_KERNELS environment variable ("scalar" | "avx2" | "auto", default
// auto = best supported); tests and benches may override it at runtime with
// force_backend() to A/B both paths on any host — callers own restoring it
// (see BackendGuard).
//
// Semantics contract per backend:
//   * Elementwise kernels (relu / clip / count / add / bias / fitrelu /
//     fused epilogues) are bit-identical across backends, event counts
//     included, with NaN/Inf handling and signed zeros — the vector forms
//     mirror the scalar branch structure and operation order exactly. A NaN
//     output is a NaN on both backends; its payload bits are not part of
//     the contract (the compiler may commute an add's operands).
//     elementwise_fuzz_test pins this for every fp32 entry point.
//   * gemm_panel accumulates in a backend-specific order (the AVX2 kernel
//     uses FMA), so backends agree only to the per-element forward-error
//     bound gemm_fuzz_test enforces — never rely on cross-backend
//     bit-equality of GEMM results.
//   * Within one backend, gemm_panel is column-invariant: a column of C
//     gets the same bits whatever its position in N and whatever N is, so
//     conv2d_forward_batch may group samples' GEMM columns (gemm_fuzz_test
//     pins this on both backends).
//   * No kernel skips work based on operand values: a NaN or Inf anywhere
//     in the inputs reaches the output exactly as IEEE arithmetic dictates.
//     (Hardware faults produce exactly these values; swallowing them blinds
//     the fault detector. gemm_fuzz_test pins this.)
#pragma once

#include <cstdint>

namespace fitact::kern {

enum class Backend : int {
  scalar = 0,
  avx2 = 1,
};

/// True when this binary carries the AVX2 kernels *and* the executing host
/// supports AVX2+FMA.
[[nodiscard]] bool avx2_supported() noexcept;

/// The backend every kernel entry point currently dispatches to. Resolves
/// the FITACT_KERNELS environment override on first call.
[[nodiscard]] Backend active_backend() noexcept;

/// Short stable name ("scalar" / "avx2") for logs, benches and CSVs.
[[nodiscard]] const char* backend_name(Backend b) noexcept;

/// Process-wide override, effective immediately for all subsequent kernel
/// calls. Requesting avx2 on a host without it falls back to scalar (the
/// returned value is what actually got installed). Not synchronised with
/// in-flight forwards: switch backends only between forwards (tests and
/// startup configuration), never while another thread is inside a kernel.
Backend force_backend(Backend b) noexcept;

/// Signature of an int8 GEMM microkernel (the gemm_i8_dot contract below).
using GemmI8Fn = void (*)(std::int64_t m, std::int64_t n, std::int64_t k,
                          const std::int8_t* a, std::int64_t lda,
                          const std::int8_t* b, std::int64_t ldb,
                          std::int32_t* c, std::int64_t ldc) noexcept;

/// One int8 GEMM microkernel this binary carries and this host can execute.
struct GemmI8Variant {
  const char* name;  ///< "scalar" | "avx2" | "avx2_vnni"
  GemmI8Fn fn;
};

/// Executable int8 GEMM variants, scalar first. The dispatcher binds exactly
/// one per backend (the avx2 tier upgrades to avx2_vnni when the host has
/// AVX-512 VNNI), so the fuzz tests use this to run the bit-identity matrix
/// over every variant — including the ones dispatch currently bypasses.
[[nodiscard]] std::size_t gemm_i8_variants(const GemmI8Variant** out) noexcept;

/// Name of the variant the active table's gemm_i8_dot dispatches to.
[[nodiscard]] const char* gemm_i8_variant() noexcept;

/// Signature of a mixed-sign int8 GEMM microkernel (gemm_i8u8_dot below):
/// identical to GemmI8Fn plus the flag naming the operand whose bytes the
/// caller guarantees to be in [0,127].
using GemmI8U8Fn = void (*)(std::int64_t m, std::int64_t n, std::int64_t k,
                            const std::int8_t* a, std::int64_t lda,
                            const std::int8_t* b, std::int64_t ldb,
                            std::int32_t* c, std::int64_t ldc,
                            bool a_unsigned) noexcept;

/// One mixed-sign GEMM microkernel this binary carries and this host can
/// execute.
struct GemmI8U8Variant {
  const char* name;  ///< "scalar" | "avx2" | "avx2_vnni"
  GemmI8U8Fn fn;
};

/// Executable mixed-sign GEMM variants, scalar first — the u8xs8 companion
/// to gemm_i8_variants, used by the fuzz tests to pin every variant to the
/// scalar signed reference (same bytes, same bits).
[[nodiscard]] std::size_t gemm_i8u8_variants(
    const GemmI8U8Variant** out) noexcept;

/// RAII for tests/benches that A/B backends: forces `b` now, restores the
/// previously active backend on destruction.
class BackendGuard {
 public:
  explicit BackendGuard(Backend b) noexcept
      : previous_(active_backend()) {
    (void)force_backend(b);
  }
  ~BackendGuard() { (void)force_backend(previous_); }
  BackendGuard(const BackendGuard&) = delete;
  BackendGuard& operator=(const BackendGuard&) = delete;

 private:
  Backend previous_;
};

// ---- dispatched kernel entry points ---------------------------------------

/// SGEMM inner panel: C[mb, nb] += alpha * Ap[mb, kb] * B[kb, nb], where Ap
/// is a packed row-major panel (contiguous kb-stride rows) and B/C point
/// into full row-major matrices with leading dimensions ldb/ldc. The caller
/// (tensor/gemm.cpp) owns blocking, packing, beta handling and threading.
void gemm_panel(std::int64_t mb, std::int64_t nb, std::int64_t kb, float alpha,
                const float* ap, const float* b, std::int64_t ldb, float* c,
                std::int64_t ldc) noexcept;

/// o[i] = x[i] > 0 ? x[i] : 0 (NaN -> 0, matching the scalar branch).
void relu(const float* x, float* o, std::int64_t n) noexcept;

/// o[i] = a[i] + b[i].
void add(const float* a, const float* b, float* o, std::int64_t n) noexcept;

/// row[j] += bias[j] for j in [0, n) — the per-row bias of a linear layer.
void bias_add_row(float* row, const float* bias, std::int64_t n) noexcept;

/// row[i] += value for i in [0, n) — the per-channel-plane bias of a conv.
void bias_add_const(float* row, float value, std::int64_t n) noexcept;

/// Bounded-ReLU forward with fused clamp-event counting, over n contiguous
/// elements laid out as complete per-sample feature rows (n % feat == 0).
/// Per element, with b = the element's broadcast bound:
///   x <= 0  -> 0
///   x <= b  -> x
///   else    -> saturate ? b : 0        (NaN lands here: both compares fail)
/// The bound index of flat feature fi is: fi (bound_numel == feat), fi / hw
/// (bound_numel == channels), 0 (bound_numel == 1) — FeatureBroadcast's map.
/// Returns the number of elements with x > b (the clamp-event statistic)
/// when `count` is set, 0 otherwise — the non-counting path skips the
/// tally entirely. Counting never changes the written output.
std::uint64_t clipped_relu(const float* x, const float* bound,
                           std::int64_t bound_numel, std::int64_t feat,
                           std::int64_t hw, bool saturate, float* o,
                           std::int64_t n, bool count) noexcept;

/// Clamp-event count alone (no output written): number of elements with
/// x[i] > bound[broadcast(i)], same broadcast rule as clipped_relu. The
/// standalone pass core::BoundedActivation::count_clamps runs on the eager
/// path before handing x to the activation op.
std::uint64_t count_over_bound(const float* x, const float* bound,
                               std::int64_t bound_numel, std::int64_t feat,
                               std::int64_t hw, std::int64_t n) noexcept;

// ---- FitReLU ----------------------------------------------------------------
//
// The trainable activation of paper Eq. 6, y = max(0, x·σ(k(λ-x))), and its
// post-training backward. λ broadcasts exactly as clipped_relu's bound
// (lambda_numel = 1 | channels | feat, over complete per-sample rows).
//
// σ(t) = 1/(1+e^-t) is evaluated in the overflow-free form
// e = exp(-|t|), σ = (t >= 0 ? 1 : e) / (1 + e), with exp a Cody–Waite
// range reduction plus the degree-5 Cephes expf polynomial under explicit
// FMAs (tensor/kernels/fitrelu_math.h). Both backends run the same
// operations in the same order, so both kernels are bit-identical across
// backends like every elementwise kernel here. σ is within 2.33 ulp of a
// double-precision σ over every finite t; below FLT_MIN it returns the
// correctly rounded denormal, and exactly 0 once t < -104. ±inf -> 0 / 1,
// NaN -> NaN. For t >= 0 (x at or below its bound, every ReLU-dead x
// included) no intermediate is denormal: denormal results cost x86 a
// microcode assist per lane.

/// FitReLU forward with fused clamp-event counting. Per element, with
/// l = its broadcast λ:
///   x <= 0 (and -0) -> +0
///   else            -> x·σ(k·(l - x))   (k·(l - x): subtract, then
///                                        multiply; never fused)
/// So NaN x -> NaN, +inf x -> inf·0 = NaN, and a huge finite x (an
/// exponent-bit fault near 3e38) -> exactly 0. Returns the number of x > l
/// when `count` is set (NaN never counts), else 0.
std::uint64_t fitrelu(const float* x, const float* lambda,
                      std::int64_t lambda_numel, std::int64_t feat,
                      std::int64_t hw, float k, float* o, std::int64_t n,
                      bool count) noexcept;

/// FitReLU backward for upstream gradient g. For every element with x > 0
/// or NaN (x <= 0 contributes nothing, and its dx is left untouched), with
/// s = σ(k·(l - x)) and kxds = (k·x)·(s·(1 - s)):
///   dx[i]          += g[i]·(s - kxds)
///   dlambda[b(i)]  += g[i]·kxds
/// Either output may be null. dλ's accumulation order is part of the
/// contract: per-neuron, dlambda[f] accumulates row by row. For a shared λ
/// (the whole n at per-layer granularity, each channel plane of each row
/// at per-channel) the span is reduced first — eight lane partials over its
/// leading multiple of 8 (lane j takes elements j, j+8, ...), combined as
/// ((l0+l4)+(l2+l6))+((l1+l5)+(l3+l7)), then the rest added in order — and
/// the span sum is added to dlambda once.
void fitrelu_backward(const float* x, const float* g, const float* lambda,
                      std::int64_t lambda_numel, std::int64_t feat,
                      std::int64_t hw, float k, float* dx, float* dlambda,
                      std::int64_t n) noexcept;

// ---- fused GEMM epilogues --------------------------------------------------
//
// In-place bias-add + bound-clamp (+ optional clamp-event count) over a GEMM
// output span, used by the plan fusion pass so the pre-activation tensor
// never round-trips through the arena. Per element, with xi = o[i] + bias
// and b = the element's bound:
//   xi <= 0  -> 0
//   xi <= b  -> xi
//   else     -> saturate ? b : 0       (NaN lands here: both compares fail)
// The count (returned when `count` is set, else 0) tallies xi > b — the same
// statistic clipped_relu reports on the unfused path. The bias add and the
// clamp are the exact float operations the unfused bias_add_* + clipped_relu
// sequence performs, in the same order, so fusion stays bit-identical.
// Suffix encodes the (bias, bound) shapes: c = one constant for the whole
// span, r = one value per element.

/// Conv channel plane (scalar bias) under a layer- or channel-granular
/// bound (one bound value for the span).
std::uint64_t fused_bias_clip_cc(float* o, float bias, float bound,
                                 bool saturate, std::int64_t n,
                                 bool count) noexcept;

/// Conv channel plane (scalar bias) under per-neuron bounds (one bound per
/// element of the span).
std::uint64_t fused_bias_clip_cr(float* o, float bias, const float* bound,
                                 bool saturate, std::int64_t n,
                                 bool count) noexcept;

/// Linear output row (elementwise bias) under a layer-granular bound.
std::uint64_t fused_bias_clip_rc(float* o, const float* bias, float bound,
                                 bool saturate, std::int64_t n,
                                 bool count) noexcept;

/// Linear output row (elementwise bias) under per-neuron bounds.
std::uint64_t fused_bias_clip_rr(float* o, const float* bias,
                                 const float* bound, bool saturate,
                                 std::int64_t n, bool count) noexcept;

// ---- int8 quantized path ---------------------------------------------------
//
// The quantized serving path (quant/int8.h + the fused int8 plan ops) runs
// quantize -> int8 GEMM -> dequantize epilogue. Its cross-backend contract is
// *stronger* than fp32 GEMM's error bound: the GEMM accumulates in exact
// int32 arithmetic (integer adds are order-independent), quantize_i8 mirrors
// the scalar rounding branch-for-branch, and the dequantize epilogues use a
// separate multiply and add (no FMA), so every int8 entry point — and
// therefore the whole int8 forward — is bit-identical across backends.
// int8_gemm_fuzz_test pins this. The no-value-based-skipping rule holds here
// too: a corrupted int8 weight byte (including -128, which quantization never
// emits but a bit flip can) flows through the exact integer arithmetic.

/// Int8 GEMM in dot-product ("row times row") layout:
///   c[i*ldc + j] = sum_k a[i*lda + k] * b[j*ldb + k]   (int32 accumulation)
/// Both operands are row-major along k — A holds quantized weight rows, B
/// holds quantized activation rows (im2row patches or batch rows). Callers
/// pad k to quant::kQ8Block with zero bytes so the vector kernel runs whole
/// 32-wide blocks; any k is accepted (scalar tail). Overflow: |a|,|b| <= 128
/// keeps every 32-element block sum within +/-2^19, safe for k beyond 10^8.
void gemm_i8_dot(std::int64_t m, std::int64_t n, std::int64_t k,
                 const std::int8_t* a, std::int64_t lda, const std::int8_t* b,
                 std::int64_t ldb, std::int32_t* c, std::int64_t ldc) noexcept;

/// gemm_i8_dot with the caller's extra guarantee that every byte of one
/// operand (a when a_unsigned, else b) lies in [0,127]. FitAct's clamp
/// epilogue makes every post-activation tensor nonnegative, so its
/// quantization always satisfies this — which unlocks u8xs8 instructions
/// (maddubs on AVX2, vpdpbusd on AVX-512 VNNI) at double the MAC density of
/// the widen-to-int16 signed kernel. With the unsigned operand <= 127 their
/// intermediate pair sums cannot saturate, so the result is bit-identical
/// to gemm_i8_dot on the same bytes (a byte in [0,127] reads the same as u8
/// and as s8). Faulted bytes in the *signed* operand (including -128) are
/// handled exactly; the unsigned-side guarantee covers activations, which
/// fault injection never touches.
void gemm_i8u8_dot(std::int64_t m, std::int64_t n, std::int64_t k,
                   const std::int8_t* a, std::int64_t lda,
                   const std::int8_t* b, std::int64_t ldb, std::int32_t* c,
                   std::int64_t ldc, bool a_unsigned) noexcept;

/// Symmetric fp32 -> int8 quantization: q[i] = round-to-nearest-even of
/// x[i] * inv_scale, clamped to [-127, 127] (never -128, so a clean
/// activation can't alias the one value only faults produce); NaN -> 0.
void quantize_i8(const float* x, float inv_scale, std::int8_t* q,
                 std::int64_t n) noexcept;

/// quantize_i8 fused with the CHW -> HWC transpose an int8 conv's patch
/// gather wants: x is one sample's [channels, hw] fp32 planes, and pixel p's
/// quantized channels land in q[p*row_stride .. p*row_stride + channels),
/// each byte rounded exactly as quantize_i8 rounds it. Bytes
/// [channels, row_stride) of every row are zeroed (row_stride >= channels),
/// so with row_stride = quant::q8_padded(channels) the output of a 1x1,
/// stride-1, unpadded conv's input is already its zero-padded im2row patch
/// matrix.
void quantize_hwc_i8(const float* x, float inv_scale, std::int8_t* q,
                     std::int64_t channels, std::int64_t hw,
                     std::int64_t row_stride) noexcept;

/// The per-plane epilogue of an int8 conv (dequant_plane below): the
/// channel's dequantize factor and bias, then optional steps, each skipped
/// when its pointer is null.
struct DequantPlane {
  float scale = 0.0f;
  float bias = 0.0f;
  /// Folded eval-mode BatchNorm of the channel: {mean, invstd, gamma, beta}.
  const float* bn = nullptr;
  /// Residual shortcut plane (n elements) added after the BatchNorm.
  const float* shortcut = nullptr;
  /// Clamp bound: bound[0] for the whole plane, or bound[i] per element
  /// when bound_per_element.
  const float* bound = nullptr;
  bool bound_per_element = false;
  bool saturate = false;
  bool count = false;  ///< tally elements above their bound
};

/// One int8 conv output plane, in place over its GEMM accumulator span
/// (reads int32, writes fp32 to the same bytes), in one pass while the
/// plane is cache-hot. Per element, in the eager op order:
///   x = float(acc[i]) * scale + bias       (multiply then add, two IEEE
///                                            roundings — never fused)
///   x = (x - mean) * invstd * gamma + beta  (BatchNorm, left to right as
///                                            in bn_plane_forward)
///   x = x + shortcut[i]                     (residual add)
///   clamp: x <= 0 -> 0; x <= b -> x; else saturate ? b : 0 (NaN lands in
///          else); count tallies x > b
/// Returns the tally (0 without a bound or without `count`).
std::uint64_t dequant_plane(std::int32_t* acc, std::int64_t n,
                            const DequantPlane& e) noexcept;

// Fused dequantize epilogues of int8 linear rows: in place over the GEMM
// accumulator span, per element with
//   xi = float(acc[i]) * scale[i] + bias[i]  (multiply then add, two IEEE
//                                             roundings — never fused)
// then the identical clamp cascade: xi <= 0 -> 0; xi <= b -> xi; else
// saturate ? b : 0 (NaN lands in else), count tallies xi > b. The clamp-event
// statistic feeds the same detector as the fp32 path. Suffix: r = per-element
// scale/bias rows (a null bias row means bias 0); second letter = bound
// shape (c = one value, r = one per element).

/// Linear output row (per-element scale/bias rows; bias may be null = 0)
/// under a layer-granular bound.
std::uint64_t fused_dequant_clip_rc(std::int32_t* acc, const float* scale,
                                    const float* bias, float bound,
                                    bool saturate, std::int64_t n,
                                    bool count) noexcept;

/// Linear output row under per-neuron bounds.
std::uint64_t fused_dequant_clip_rr(std::int32_t* acc, const float* scale,
                                    const float* bias, const float* bound,
                                    bool saturate, std::int64_t n,
                                    bool count) noexcept;

}  // namespace fitact::kern
