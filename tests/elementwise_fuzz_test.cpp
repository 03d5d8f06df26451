// Cross-backend fuzz of every fp32 elementwise kernel (tensor/kernels/
// kernels.h): relu, add, the bias adds, clipped_relu in both modes and all
// three bound extents, count_over_bound, the fused conv/linear epilogue,
// and FitReLU forward and backward. kernels.h promises these are bit-identical
// across the scalar and AVX2 backends, event counts included; this suite
// runs each one on both and compares bit patterns (a NaN matches any NaN:
// payloads are outside the contract).
//
// Lengths 1..67 cover every vector-tail length twice over. Inputs mix
// ordinary values with NaN, ±inf, ±0, ±denormals and ±3e38 (what exponent
// bit flips produce), and out-of-place outputs start as different garbage
// per backend, so a lane that is never written shows up as a mismatch.
//
// The FitReLU section also pins the σ polynomial's accuracy against a
// double-precision σ, and the activation's edge semantics on the kernel,
// the eager op and a compiled plan.
#include <gtest/gtest.h>

#include <bit>
#include <cfenv>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "autograd/variable.h"
#include "core/activation.h"
#include "nn/layers.h"
#include "epilogue_fuzz.h"
#include "nn/plan.h"
#include "tensor/kernels/fitrelu_math.h"
#include "tensor/kernels/kernels.h"
#include "util/rng.h"

namespace fitact {
namespace {

constexpr float kInf = std::numeric_limits<float>::infinity();
constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
constexpr std::int64_t kMaxLen = 67;

/// What one kernel call produced: its output buffer(s) and event count.
using Outcome = epilogue_fuzz::Result;
using epilogue_fuzz::backends;
using epilogue_fuzz::same_bits;

/// Runs `call` under the scalar and the AVX2 backend and expects the same
/// bits and the same count. No-op on hosts without AVX2.
void expect_backends_agree(const std::function<Outcome()>& call,
                           const std::string& ctx) {
  if (!kern::avx2_supported()) return;
  Outcome scalar;
  {
    const kern::BackendGuard guard(kern::Backend::scalar);
    scalar = call();
  }
  const kern::BackendGuard guard(kern::Backend::avx2);
  const Outcome avx2 = call();
  EXPECT_EQ(scalar.events, avx2.events) << ctx;
  ASSERT_EQ(scalar.out.size(), avx2.out.size()) << ctx;
  for (std::size_t i = 0; i < scalar.out.size(); ++i) {
    if (!same_bits(scalar.out[i], avx2.out[i])) {
      ADD_FAILURE() << ctx << " element " << i << ": scalar " << std::hexfloat
                    << scalar.out[i] << " avx2 " << avx2.out[i];
      return;
    }
  }
}

/// An ordinary value most of the time, else (when `specials`) one of the
/// special values hardware faults produce.
float fuzz_value(ut::Rng& rng, float lo, float hi, bool specials = true) {
  const float sign = rng.next_below(2) == 0 ? 1.0f : -1.0f;
  switch (specials ? rng.next_below(20) : 19) {
    case 0: return kNaN;
    case 1: return sign * kInf;
    case 2: return sign * 0.0f;
    case 3: return sign * 1e-40f;  // denormal
    case 4: return sign * 3e38f;
    default: return rng.uniform(lo, hi);
  }
}

std::vector<float> fuzz_vec(ut::Rng& rng, std::int64_t n, float lo = -4.0f,
                            float hi = 12.0f, bool specials = true) {
  std::vector<float> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = fuzz_value(rng, lo, hi, specials);
  return v;
}

/// Output buffer pre-filled with garbage that differs per call.
std::vector<float> dirty(std::int64_t n) {
  static ut::Rng garbage(0xD1127);
  return fuzz_vec(garbage, n, -1e6f, 1e6f);
}

/// A bounded kernel's geometry: n elements in rows of feat, bound_numel
/// bounds broadcast per layer (1), channel (feat / hw) or neuron (feat).
struct Extent {
  const char* name;
  std::int64_t bound_numel;
  std::int64_t feat;
  std::int64_t hw;
  std::int64_t n;
};

/// Every extent whose spans (a whole tensor, a channel plane, a row) are
/// `len` elements long, over two rows.
std::vector<Extent> extents_for(std::int64_t len) {
  return {{"layer", 1, len, 1, 2 * len},
          {"channel", 3, 3 * len, len, 6 * len},
          {"neuron", len, len, 1, 2 * len}};
}

std::string describe(const Extent& e) {
  return std::string(e.name) + " feat=" + std::to_string(e.feat) +
         " hw=" + std::to_string(e.hw) + " n=" + std::to_string(e.n);
}

TEST(ElementwiseFuzz, ReluAddAndBiasAdds) {
  ut::Rng rng(101);
  for (std::int64_t n = 1; n <= kMaxLen; ++n) {
    const std::vector<float> a = fuzz_vec(rng, n);
    const std::vector<float> b = fuzz_vec(rng, n);
    const float c = fuzz_value(rng, -4.0f, 4.0f);
    const std::string ctx = "n=" + std::to_string(n);
    expect_backends_agree(
        [&] {
          Outcome r{dirty(n)};
          kern::relu(a.data(), r.out.data(), n);
          return r;
        },
        "relu " + ctx);
    expect_backends_agree(
        [&] {
          Outcome r{dirty(n)};
          kern::add(a.data(), b.data(), r.out.data(), n);
          return r;
        },
        "add " + ctx);
    expect_backends_agree(
        [&] {
          Outcome r{a};
          kern::bias_add_row(r.out.data(), b.data(), n);
          return r;
        },
        "bias_add_row " + ctx);
    expect_backends_agree(
        [&] {
          Outcome r{a};
          kern::bias_add_const(r.out.data(), c, n);
          return r;
        },
        "bias_add_const " + ctx);
  }
}

TEST(ElementwiseFuzz, ClippedReluAndCountOverBoundEveryExtent) {
  ut::Rng rng(102);
  for (std::int64_t len = 1; len <= kMaxLen; ++len) {
    for (const Extent& e : extents_for(len)) {
      const std::vector<float> x = fuzz_vec(rng, e.n);
      const std::vector<float> bound = fuzz_vec(rng, e.bound_numel, 0.0f, 8.0f);
      for (const bool saturate : {false, true}) {
        for (const bool count : {false, true}) {
          expect_backends_agree(
              [&] {
                Outcome r{dirty(e.n)};
                r.events = kern::clipped_relu(x.data(), bound.data(),
                                              e.bound_numel, e.feat, e.hw,
                                              saturate, r.out.data(), e.n,
                                              count);
                return r;
              },
              "clipped_relu " + describe(e) + " saturate=" +
                  std::to_string(saturate) + " count=" +
                  std::to_string(count));
        }
      }
      expect_backends_agree(
          [&] {
            Outcome r;
            r.events = kern::count_over_bound(x.data(), bound.data(),
                                              e.bound_numel, e.feat, e.hw,
                                              e.n);
            return r;
          },
          "count_over_bound " + describe(e));
    }
  }
}

// The fused conv/linear epilogue over every step combination and every
// [channels, hw] block of 1..67 (and a few more) elements with hw = 1..9 —
// planes narrower than, equal to and wider than a vector, so lanes straddle
// channels. On each backend, in place and into a dirty buffer, it must
// reproduce the unfused sequence bit-for-bit, and the backends must agree.
TEST(ElementwiseFuzz, EpilogueMatchesUnfusedSequenceEveryStepCombination) {
  namespace ef = epilogue_fuzz;
  ut::Rng rng(103);
  for (std::int64_t hw = 1; hw <= 9; ++hw) {
    for (std::int64_t channels = 1; channels * hw <= kMaxLen + hw;
         ++channels) {
      const ef::Block block = ef::make_block(rng, channels, hw);
      const std::int64_t n = block.n();
      const std::vector<float> x = ef::values(rng, n, -4.0f, 12.0f);
      const float k = rng.next_below(2) == 0 ? 8.0f : 0.5f;
      ef::for_each_combination(block, k, [&](const kern::Epilogue& e,
                                             const std::string& ctx) {
        std::vector<ef::Result> in_place;
        for (const kern::Backend backend : backends()) {
          const kern::BackendGuard guard(backend);
          const std::string where = ctx + " " + kern::backend_name(backend);
          ef::Result r{x};
          r.events = kern::epilogue(r.out.data(), r.out.data(), channels, hw,
                                    e);
          ef::Result apart{dirty(n)};
          apart.events = kern::epilogue(x.data(), apart.out.data(), channels,
                                        hw, e);
          const ef::Result want = ef::reference(block, e, x);
          ef::expect_same(r, want, where + " in place");
          ef::expect_same(apart, want, where + " out of place");
          in_place.push_back(std::move(r));
        }
        ef::expect_same(in_place.back(), in_place.front(),
                        ctx + " avx2 vs scalar");
      });
    }
  }
}

TEST(ElementwiseFuzz, FitReluForwardEveryExtent) {
  ut::Rng rng(104);
  for (std::int64_t len = 1; len <= kMaxLen; ++len) {
    for (const Extent& e : extents_for(len)) {
      // x spans the whole σ range for these λ and k: k(λ - x) runs from
      // about +60 down past the exp cut-off at -104.
      const std::vector<float> x = fuzz_vec(rng, e.n, -4.0f, 40.0f);
      const std::vector<float> lambda =
          fuzz_vec(rng, e.bound_numel, 0.0f, 8.0f);
      for (const float k : {8.0f, 3.0f, 0.5f}) {
        for (const bool count : {false, true}) {
          expect_backends_agree(
              [&] {
                Outcome r{dirty(e.n)};
                r.events = kern::fitrelu(x.data(), lambda.data(),
                                         e.bound_numel, e.feat, e.hw, k,
                                         r.out.data(), e.n, count);
                return r;
              },
              "fitrelu " + describe(e) + " k=" + std::to_string(k) +
                  " count=" + std::to_string(count));
        }
      }
    }
  }
}

TEST(ElementwiseFuzz, FitReluBackwardEveryExtent) {
  ut::Rng rng(105);
  for (std::int64_t len = 1; len <= kMaxLen; ++len) {
    for (const Extent& e : extents_for(len)) {
      // Two draws: one with special values, and one all-finite, so the dλ
      // span sums stay finite and their reduction order shows in the bits.
      for (const bool specials : {true, false}) {
        const std::vector<float> x =
            fuzz_vec(rng, e.n, -4.0f, 40.0f, specials);
        const std::vector<float> g = fuzz_vec(rng, e.n, -2.0f, 2.0f, specials);
        const std::vector<float> lambda =
            fuzz_vec(rng, e.bound_numel, 0.0f, 8.0f, specials);
        // Accumulators start from the same (nonzero) gradients on both
        // backends: the kernel adds into them.
        const std::vector<float> dx0 =
            fuzz_vec(rng, e.n, -1.0f, 1.0f, specials);
        const std::vector<float> dl0 =
            fuzz_vec(rng, e.bound_numel, -1.0f, 1.0f, specials);
        for (const bool want_dx : {false, true}) {
          for (const bool want_dl : {false, true}) {
            expect_backends_agree(
                [&] {
                  std::vector<float> dx = dx0;
                  std::vector<float> dl = dl0;
                  kern::fitrelu_backward(x.data(), g.data(), lambda.data(),
                                         e.bound_numel, e.feat, e.hw, 3.0f,
                                         want_dx ? dx.data() : nullptr,
                                         want_dl ? dl.data() : nullptr, e.n);
                  Outcome r{dx};
                  r.out.insert(r.out.end(), dl.begin(), dl.end());
                  return r;
                },
                "fitrelu_backward " + describe(e) + " specials=" +
                    std::to_string(specials) + " dx=" +
                    std::to_string(want_dx) +
                    " dlambda=" + std::to_string(want_dl));
          }
        }
      }
    }
  }
}

// ---- FitReLU σ accuracy and edge semantics --------------------------------

/// One float ulp at |v|: the denormal spacing below FLT_MIN.
double float_ulp(double v) {
  v = std::fabs(v);
  if (v < FLT_MIN) return std::ldexp(1.0, -149);
  int e = 0;
  (void)std::frexp(v, &e);
  return std::ldexp(1.0, e - 24);
}

// sigmoid_poly (the σ both backends' FitReLU kernels evaluate, bit for bit
// as the fuzz above checks) against a
// double-precision σ over every finite float, sampled by bit pattern: at
// most 4 ulp anywhere, denormal results included (measured: 2.33 ulp, the
// same worst case the libm implementation it replaced had; 1.8e-7 relative
// where σ is a normal float).
TEST(FitReluSigmoid, WithinFourUlpOfDoublePrecisionOverTheFiniteRange) {
  double worst = 0.0;
  float worst_t = 0.0f;
  for (std::uint32_t bits = 0; bits < 0x7F800000u; bits += 4099) {
    for (const std::uint32_t sign : {0u, 0x80000000u}) {
      const auto t = std::bit_cast<float>(bits | sign);
      const double want = 1.0 / (1.0 + std::exp(-static_cast<double>(t)));
      const double err =
          std::fabs(static_cast<double>(kern::sigmoid_poly(t)) - want) /
          float_ulp(want);
      if (err > worst) {
        worst = err;
        worst_t = t;
      }
    }
  }
  EXPECT_LE(worst, 4.0) << "worst at t = " << std::hexfloat << worst_t;
  EXPECT_EQ(kern::sigmoid_poly(-kInf), 0.0f);
  EXPECT_EQ(kern::sigmoid_poly(kInf), 1.0f);
  EXPECT_EQ(kern::sigmoid_poly(-3e38f), 0.0f);
  EXPECT_EQ(kern::sigmoid_poly(0.0f), 0.5f);
  EXPECT_TRUE(std::isnan(kern::sigmoid_poly(kNaN)));
}

// Elements at or below the bound (t = k(λ - x) >= 0) — every ReLU-dead
// element among them — have σ rounding to 1 once t passes ~17, and their
// exp(-t) is floored inside the normal range, so the forward and backward
// kernels never produce a denormal (or a flushed-to-zero) intermediate for
// them. On x86 each denormal result costs a microcode assist per lane, so
// this is the kernels' fast path on real activations; the underflow flag
// shows any regression.
TEST(FitReluDenormals, ElementsAtOrBelowTheBoundNeverUnderflow) {
  ut::Rng rng(106);
  constexpr std::int64_t kN = 4099;
  std::vector<float> x(kN);
  std::vector<float> lambda(kN);
  for (std::int64_t i = 0; i < kN; ++i) {
    lambda[i] = rng.uniform(0.0f, 8.0f);
    x[i] = i % 2 == 0 ? rng.uniform(-100.0f, -1e-3f)
                      : rng.uniform(1e-3f, 1.0f) * lambda[i];
  }
  const std::vector<float> g = fuzz_vec(rng, kN, -1.0f, 1.0f, false);
  std::vector<float> o(kN);
  std::vector<float> dx(kN, 0.0f);
  std::vector<float> dl(kN, 0.0f);
  for (const kern::Backend backend : backends()) {
    const kern::BackendGuard guard(backend);
    for (const float k : {8.0f, 0.5f}) {
      const std::string ctx = std::string(kern::backend_name(backend)) +
                              " k=" + std::to_string(k);
      std::feclearexcept(FE_ALL_EXCEPT);
      (void)kern::fitrelu(x.data(), lambda.data(), kN, kN, 1, k, o.data(), kN,
                          true);
      EXPECT_FALSE(std::fetestexcept(FE_UNDERFLOW)) << ctx << " forward";
      std::feclearexcept(FE_ALL_EXCEPT);
      kern::fitrelu_backward(x.data(), g.data(), lambda.data(), kN, kN, 1, k,
                             dx.data(), dl.data(), kN);
      EXPECT_FALSE(std::fetestexcept(FE_UNDERFLOW)) << ctx << " backward";
    }
  }
}

/// FitReLU edge inputs under λ = 2, with the outputs of the libm-based
/// implementation the polynomial replaced, recorded bit for bit (the
/// polynomial reproduces every one). NaN entries only require a NaN.
struct EdgeCase {
  float x;
  std::uint32_t want_k8;
  std::uint32_t want_k05;
};

constexpr std::uint32_t kAnyNaN = 0x7FC00000u;
constexpr float kEdgeLambda = 2.0f;

const std::vector<EdgeCase>& edge_cases() {
  static const std::vector<EdgeCase> cases = {
      {-1.0f, 0x00000000u, 0x00000000u},
      {-0.0f, 0x00000000u, 0x00000000u},  // -0 -> +0
      {0.0f, 0x00000000u, 0x00000000u},
      {-kInf, 0x00000000u, 0x00000000u},
      {-1e-40f, 0x00000000u, 0x00000000u},
      {1e-40f, 0x000116C2u, 0x0000CBCAu},  // denormal x passes through σ
      {kInf, kAnyNaN, kAnyNaN},            // inf·σ(-inf) = inf·0
      {kNaN, kAnyNaN, kAnyNaN},
      {3e38f, 0x00000000u, 0x00000000u},   // exponent-bit fault -> exactly 0
      {FLT_MAX, 0x00000000u, 0x00000000u},
      // k = 8: k(λ-x) = -88.5 and -88.875, either side of -88.72, where
      // e^-t overflows in the naive 1/(1+e^-t); σ is a denormal there.
      {13.0625f, 0x018295D2u, 0x3D531854u},
      {13.109375f, 0x013424CFu, 0x3D4EF6C3u},
      {12.96875f, 0x02093B80u, 0x3D5B98ADu},  // k(λ-x) = -87.75
      {14.9375f, 0x0000000Fu, 0x3CBD84D0u},   // -103.5: one denormal ulp σ
      {15.125f, 0x00000000u, 0x3CAEBFC2u},    // -105: σ underflows to 0
      {1.0f, 0x3F7FEA06u, 0x3F1F597Fu},
      {2.0f, 0x3F800000u, 0x3F800000u},  // x = λ: σ = 1/2, y = 1
      {2.5f, 0x3D382DC5u, 0x3F8C1A80u},
      {0.5f, 0x3EFFFF98u, 0x3EADDEA8u},
  };
  return cases;
}

/// x > λ counts; NaN does not; +inf does.
constexpr std::uint64_t kEdgeEvents = 9;

std::vector<float> edge_inputs() {
  std::vector<float> x;
  for (const EdgeCase& c : edge_cases()) x.push_back(c.x);
  return x;
}

void expect_edge_outputs(const float* got, float k, const std::string& ctx) {
  const auto& cases = edge_cases();
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const std::uint32_t want = k == 8.0f ? cases[i].want_k8 : cases[i].want_k05;
    if (want == kAnyNaN) {
      EXPECT_TRUE(std::isnan(got[i]))
          << ctx << " x=" << std::hexfloat << cases[i].x << " -> " << got[i];
    } else {
      EXPECT_EQ(std::bit_cast<std::uint32_t>(got[i]), want)
          << ctx << " x=" << std::hexfloat << cases[i].x << " -> " << got[i]
          << ", want " << std::bit_cast<float>(want);
    }
  }
}

TEST(FitReluEdges, KernelMatchesPinnedValuesOnBothBackends) {
  const std::vector<float> x = edge_inputs();
  const auto n = static_cast<std::int64_t>(x.size());
  const std::vector<float> lambda(x.size(), kEdgeLambda);
  for (const kern::Backend backend : backends()) {
    const kern::BackendGuard guard(backend);
    for (const float k : {8.0f, 0.5f}) {
      const std::string ctx = std::string(kern::backend_name(backend)) +
                              " k=" + std::to_string(k);
      std::vector<float> o = dirty(n);
      EXPECT_EQ(kern::fitrelu(x.data(), lambda.data(), n, n, 1, k, o.data(),
                              n, true),
                kEdgeEvents)
          << ctx;
      expect_edge_outputs(o.data(), k, ctx + " per-neuron");
      // The per-layer form (one λ) runs the same arithmetic.
      o = dirty(n);
      (void)kern::fitrelu(x.data(), lambda.data(), 1, n, 1, k, o.data(), n,
                          false);
      expect_edge_outputs(o.data(), k, ctx + " per-layer");
    }
  }
}

// The same inputs through core::BoundedActivation's eager forward and a
// compiled plan's activation op, with clamp counting on.
TEST(FitReluEdges, EagerAndPlanMatchPinnedValuesOnBothBackends) {
  const std::vector<float> x = edge_inputs();
  const auto n = static_cast<std::int64_t>(x.size());
  core::ActivationConfig cfg;
  cfg.scheme = core::Scheme::fitrelu;
  auto site = std::make_shared<core::BoundedActivation>(cfg);
  site->set_bounds(Tensor::full(Shape{n}, kEdgeLambda), /*trainable=*/true);
  site->set_clamp_counting(true);
  auto model = std::make_shared<nn::Sequential>();
  model->add(std::make_shared<nn::Flatten>());
  model->add(site);
  model->set_training(false);

  Tensor input(Shape{1, 1, 1, n});
  std::memcpy(input.data(), x.data(), x.size() * sizeof(float));
  const auto plan = nn::InferencePlan::compile(model, Shape{1, 1, n}, 1);
  const NoGradGuard no_grad;
  for (const kern::Backend backend : backends()) {
    const kern::BackendGuard guard(backend);
    for (const float k : {8.0f, 0.5f}) {
      site->set_steepness(k);
      const std::string ctx = std::string(kern::backend_name(backend)) +
                              " k=" + std::to_string(k);
      site->reset_clamp_counter();
      const Tensor eager = model->forward(Variable(input, false)).value();
      expect_edge_outputs(eager.data(), k, ctx + " eager");
      EXPECT_EQ(site->clamp_events(), kEdgeEvents) << ctx << " eager";

      site->reset_clamp_counter();
      std::memcpy(plan->input_view(1).data(), x.data(),
                  x.size() * sizeof(float));
      const Tensor& planned = plan->execute(1);
      expect_edge_outputs(planned.data(), k, ctx + " plan");
      EXPECT_EQ(site->clamp_events(), kEdgeEvents) << ctx << " plan";
    }
  }
}

}  // namespace
}  // namespace fitact
