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
//   epilogue                the fp32 conv/linear epilogue: bias, BatchNorm,
//                           +shortcut, clamp or FitReLU, counting
//   int8 path               gemm_i8_dot / gemm_i8u8_dot, quantize_i8,
//                           quantize_hwc_i8, dequant_plane (the same
//                           epilogue after a dequantize)
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

// ---- fused GEMM epilogue ---------------------------------------------------
//
// One descriptor finishes every conv/linear op of a plan while its output is
// cache-hot: the GEMM writes the pre-bias output of one sample as a
// [channels, hw] block (a linear row is the hw = 1 case), and one pass runs
// the steps below in the eager op order. Every step is the float sequence
// of the unfused op — the bias add, BatchNorm and residual add are separate
// IEEE operations, never fused into an FMA, and the activation is the
// standalone kernel's arithmetic — so a fused plan stays bit-identical to
// the eager forward.

/// The activation step of an Epilogue.
enum class EpilogueAct : std::uint8_t {
  none,     ///< no activation (a projection shortcut's conv -> BatchNorm)
  clamp,    ///< clip cascade: x <= 0 -> 0; x <= b -> x; else saturate ? b : 0
  fitrelu,  ///< FitReLU with λ = the bound and steepness k (fitrelu above)
};

/// How an Epilogue's bound broadcasts over the [channels, hw] block.
enum class BoundBroadcast : std::uint8_t {
  layer,    ///< bound[0] for every element
  channel,  ///< bound[c] for the elements of channel c
  neuron,   ///< bound[i] for element i of the block
};

/// The steps finishing one sample's [channels, hw] block of a conv/linear
/// output. Optional steps are skipped when their pointer is null.
struct Epilogue {
  /// dequant_plane only: per-channel dequantize factor (never null there).
  const float* scale = nullptr;
  /// Per-channel bias; null adds +0.0f, which can only turn a -0.0 into
  /// +0.0, a difference no activation passes on.
  const float* bias = nullptr;
  /// Folded eval-mode BatchNorm, planar: bn[0*C + c] mean, bn[1*C + c]
  /// invstd, bn[2*C + c] gamma, bn[3*C + c] beta (C = channels).
  const float* bn = nullptr;
  /// Residual shortcut block (channels * hw elements), added after the BN.
  const float* shortcut = nullptr;
  EpilogueAct act = EpilogueAct::none;
  /// Clamp bound or FitReLU λ, broadcast per `broadcast`; unused for none.
  const float* bound = nullptr;
  BoundBroadcast broadcast = BoundBroadcast::layer;
  bool saturate = false;  ///< clamp: over-bound values saturate to the bound
  float k = 0.0f;         ///< FitReLU steepness
  bool count = false;     ///< tally elements above their bound
};

/// One sample's fp32 conv/linear epilogue: o[i] = steps(x[i]) for the
/// channels * hw elements (x == o runs in place on the GEMM output). Per
/// element i of channel c, in the eager op order:
///   v = x[i] + bias[c]                            (bias add)
///   v = (v - mean) * invstd * gamma + beta        (BatchNorm, left to right
///                                                  as in bn_plane_forward)
///   v = v + shortcut[i]                           (residual add)
///   count: events += v > b                        (NaN never counts)
///   clamp: v <= 0 -> 0; v <= b -> v; else saturate ? b : 0 (NaN lands in
///          else) — or FitReLU: v <= 0 -> +0; else v·σ(k·(b - v))
/// Returns the tally (0 without an activation or without `count`).
std::uint64_t epilogue(const float* x, float* o, std::int64_t channels,
                       std::int64_t hw, const Epilogue& e) noexcept;

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

/// The int8 form of epilogue, in place over one sample's [channels, hw]
/// block of GEMM accumulators (reads int32, writes fp32 to the same bytes)
/// — an int8 conv's output planes, or an int8 linear's output row with
/// hw = 1. The first step dequantizes:
///   v = float(acc[i]) * scale[c] + bias[c]   (multiply then add, two IEEE
///                                             roundings — never fused)
/// and the rest are epilogue's steps. Returns the tally.
std::uint64_t dequant_plane(std::int32_t* acc, std::int64_t channels,
                            std::int64_t hw, const Epilogue& e) noexcept;

}  // namespace fitact::kern
