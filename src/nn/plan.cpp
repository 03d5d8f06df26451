#include "nn/plan.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "core/activation.h"
#include "tensor/kernels/kernels.h"
#include "util/thread_pool.h"

namespace fitact::nn {
namespace {

/// Sentinel last_use for values that must stay live for the whole program:
/// the plan input (the caller stages the next batch into it before execute)
/// and the plan output (the caller reads it after execute returns). Keeping
/// both always-live means the arena planner can never overlap them with an
/// intermediate — or each other — so a caller filling the next input cannot
/// clobber logits it has not copied out yet.
constexpr std::int32_t kLiveForever = std::numeric_limits<std::int32_t>::max();

/// Arena offsets are aligned to 16 floats (one 64-byte cache line) so
/// values never share a line across lanes' false-sharing boundaries.
constexpr std::size_t kAlignFloats = 16;

std::size_t align_up(std::size_t n) {
  return (n + kAlignFloats - 1) / kAlignFloats * kAlignFloats;
}

Shape batched(std::int64_t batch, const Shape& sample) {
  std::vector<std::int64_t> dims;
  dims.reserve(sample.rank() + 1);
  dims.push_back(batch);
  dims.insert(dims.end(), sample.dims().begin(), sample.dims().end());
  return Shape(std::move(dims));
}

/// Int8 scratch offsets are 64-byte aligned (vector load friendliness; the
/// buffers themselves come from operator new[], which is already aligned).
std::size_t align_up_bytes(std::size_t n) { return (n + 63) / 64 * 64; }

/// True when the scheme's forward is the clip cascade the int8 epilogue
/// implements (FitReLU's sigmoid shaping and plain ReLU's missing bound
/// both disqualify).
bool clampable_scheme(core::Scheme s) {
  return s == core::Scheme::clip_act || s == core::Scheme::ranger ||
         s == core::Scheme::fitrelu_naive;
}

/// Output range of an activation site, from its clamp bounds: every output
/// lands in [0, max(bound)] under both clamp modes. -1 when the scheme is
/// not clampable or bounds are missing/degenerate — the range (and int8
/// eligibility) is then unknown.
float site_output_range(const core::BoundedActivation* site) {
  if (site == nullptr || !clampable_scheme(site->scheme()) ||
      !site->has_bounds()) {
    return -1.0f;
  }
  const Tensor& bt = site->bounds().value();
  float maxb = 0.0f;
  const float* b = bt.data();
  for (std::int64_t i = 0; i < bt.numel(); ++i) {
    maxb = std::max(maxb, b[i]);
  }
  return maxb > 0.0f ? maxb : -1.0f;
}

/// Planned lanes serve clean inference only: a site switched into
/// profiling or input-corruptor mode after compile must fail loudly, not be
/// silently bypassed.
void require_serving_site(const core::BoundedActivation& site,
                          const std::string& label) {
  if (site.profiling() || site.has_input_corruptor()) {
    throw std::logic_error("InferencePlan: activation site '" + label +
                           "' entered profiling/corruptor mode after "
                           "compile; planned lanes serve clean inference "
                           "only");
  }
}

/// The site's bound tensor, checked against the feature extent it clamps.
const Tensor& checked_bounds(const core::BoundedActivation& site,
                             const ag::FeatureBroadcast& fb) {
  if (!site.has_bounds()) {
    throw std::logic_error("BoundedActivation(" +
                           core::to_string(site.scheme()) +
                           "): bounds not initialised");
  }
  const Tensor& bt = site.bounds().value();
  fb.validate_bound(bt.numel());
  return bt;
}

/// One sample of a value shaped `xs` as the [channels, hw] block an
/// epilogue runs over: a [C,H,W] value is C planes of H*W elements, any
/// other value one row (hw = 1).
ag::FeatureBroadcast epilogue_block(const Shape& xs) {
  ag::FeatureBroadcast fb;
  fb.feat = xs.numel();
  fb.channels = xs.rank() == 3 ? xs[0] : fb.feat;
  fb.hw = fb.feat / fb.channels;
  return fb;
}

/// How a bound of `bound_numel` elements broadcasts over the block `fb`, in
/// FeatureBroadcast::map's order: a bound per feature, one bound, else one
/// per channel.
kern::BoundBroadcast bound_broadcast(std::int64_t bound_numel,
                                     const ag::FeatureBroadcast& fb) {
  return bound_numel == fb.feat ? kern::BoundBroadcast::neuron
         : bound_numel == 1     ? kern::BoundBroadcast::layer
                                : kern::BoundBroadcast::channel;
}

/// 1x1, stride-1, unpadded: the conv's patch matrix is its HWC input image.
bool is_pointwise(const Conv2dGeometry& g) {
  return g.kernel_h == 1 && g.kernel_w == 1 && g.stride == 1 &&
         g.padding == 0;
}

/// im2row for quantized conv input: the [out_h*out_w, C*kh*kw] patch matrix
/// (the transpose of the fp32 path's im2col), padded to row_stride columns
/// with zeros so the int8 GEMM runs whole blocks. Every row is rewritten in
/// full, so a dirty shared scratch buffer is fine.
///
/// The k-axis is ordered [kh][kw][c] — channel fastest — and the input is
/// the HWC image kern::quantize_hwc_i8 produces. quantize_ops packs the
/// weights with the same permutation, and an integer dot product is
/// invariant under any shared k-permutation, so GEMM results (and
/// cross-backend bit-identity) are untouched. What the order buys: for each
/// (oh, ow, kh) the patch bytes [kw0..kw1) x [0..C) are one contiguous
/// source run of the image and one contiguous destination run of the row —
/// a single memcpy of (kw1-kw0)*C bytes replaces a per-element
/// bounds-checked gather.
void im2row_i8(const Conv2dGeometry& g, const std::int8_t* hwc,
               std::int8_t* rows, std::int64_t row_stride) {
  // One upfront memset covers both the halo zeros and the row_stride
  // padding tail, so the copies below only ever move valid image bytes.
  // (It also serves as a streaming prefetch of the destination: narrowing
  // it to just the halo bytes measures slightly slower.)
  const std::int64_t ow_n = g.out_w();
  const std::int64_t c_n = g.in_channels;
  std::memset(rows, 0,
              static_cast<std::size_t>(g.out_h() * ow_n * row_stride));
  for (std::int64_t oh = 0; oh < g.out_h(); ++oh) {
    std::int8_t* base = rows + oh * ow_n * row_stride;
    for (std::int64_t kh = 0; kh < g.kernel_h; ++kh) {
      const std::int64_t ih = oh * g.stride - g.padding + kh;
      if (ih < 0 || ih >= g.in_h) continue;
      const std::int8_t* src_row = hwc + ih * g.in_w * c_n;
      std::int8_t* col = base + kh * g.kernel_w * c_n;
      for (std::int64_t ow = 0; ow < ow_n; ++ow) {
        const std::int64_t iw0 = ow * g.stride - g.padding;
        const std::int64_t klo = std::max<std::int64_t>(0, -iw0);
        const std::int64_t khi =
            std::min<std::int64_t>(g.kernel_w, g.in_w - iw0);
        std::memcpy(col + ow * row_stride + klo * c_n,
                    src_row + (iw0 + klo) * c_n,
                    static_cast<std::size_t>((khi - klo) * c_n));
      }
    }
  }
}

}  // namespace

// ---- PlanBuilder -----------------------------------------------------------

PlanBuilder::PlanBuilder(Shape sample_shape) {
  if (sample_shape.numel() <= 0) {
    throw std::invalid_argument("InferencePlan: empty sample shape " +
                                sample_shape.str());
  }
  new_value(std::move(sample_shape), /*def_op=*/-1);
}

PlanValueId PlanBuilder::new_value(Shape sample_shape, std::int32_t def_op,
                                   PlanValueId alias_of) {
  Value v;
  v.sample_numel = sample_shape.numel();
  v.sample_shape = std::move(sample_shape);
  v.alias_of = alias_of;
  v.def = def_op;
  v.last_use = def_op;
  values_.push_back(std::move(v));
  return static_cast<PlanValueId>(values_.size() - 1);
}

PlanValueId PlanBuilder::root(const std::vector<Value>& values,
                              PlanValueId v) noexcept {
  while (values[static_cast<std::size_t>(v)].alias_of >= 0) {
    v = values[static_cast<std::size_t>(v)].alias_of;
  }
  return v;
}

void PlanBuilder::use(PlanValueId v, std::int32_t op_index) {
  Value& r = values_[static_cast<std::size_t>(root(values_, v))];
  r.last_use = std::max(r.last_use, op_index);
}

const PlanBuilder::Value& PlanBuilder::value(PlanValueId v) const {
  if (v < 0 || static_cast<std::size_t>(v) >= values_.size()) {
    throw std::logic_error("PlanBuilder: invalid value id " +
                           std::to_string(v));
  }
  return values_[static_cast<std::size_t>(v)];
}

const Shape& PlanBuilder::value_shape(PlanValueId v) const {
  return value(v).sample_shape;
}

std::string PlanBuilder::scope_path() const {
  std::string path;
  for (const auto& s : scope_) {
    if (!path.empty()) path += ".";
    path += s;
  }
  return path;
}

void PlanBuilder::fail(const std::string& message) const {
  const std::string at = scope_path();
  throw PlanError(at.empty() ? message : at + ": " + message);
}

PlanValueId PlanBuilder::record_child(const std::string& name, Module& child,
                                      PlanValueId in) {
  scope_.push_back(name);
  const PlanValueId out = child.record(*this, in);
  // Not popped on throw: fail() builds its message from the scope stack as
  // it stands, and a throwing builder is discarded.
  scope_.pop_back();
  return out;
}

PlanValueId PlanBuilder::push(Op op, Shape out_shape) {
  const auto idx = static_cast<std::int32_t>(ops_.size());
  op.label = scope_path();
  op.out = new_value(std::move(out_shape), idx);
  use(op.in0, idx);
  if (op.in1 >= 0) use(op.in1, idx);
  ops_.push_back(std::move(op));
  return ops_.back().out;
}

PlanValueId PlanBuilder::conv2d(const Tensor& weight, const Tensor& bias,
                                std::int64_t stride, std::int64_t padding,
                                PlanValueId in) {
  const Shape& xs = value_shape(in);
  if (xs.rank() != 3) {
    fail("conv2d expects a [C,H,W] per-sample input, got " + xs.str());
  }
  if (weight.shape().rank() != 4 || weight.shape()[1] != xs[0]) {
    fail("conv2d weight " + weight.shape().str() +
         " incompatible with input " + xs.str());
  }
  Op op;
  op.kind = OpKind::conv2d;
  op.in0 = in;
  op.geo.in_channels = xs[0];
  op.geo.in_h = xs[1];
  op.geo.in_w = xs[2];
  op.geo.kernel_h = weight.shape()[2];
  op.geo.kernel_w = weight.shape()[3];
  op.geo.stride = stride;
  op.geo.padding = padding;
  op.out_c = weight.shape()[0];
  if (op.geo.out_h() <= 0 || op.geo.out_w() <= 0) {
    fail("conv2d output collapses to zero extent for input " + xs.str());
  }
  if (bias.defined() && bias.numel() != op.out_c) {
    fail("conv2d bias extent " + std::to_string(bias.numel()) +
         " != out channels " + std::to_string(op.out_c));
  }
  op.weight = weight;
  op.bias = bias;
  Shape out{op.out_c, op.geo.out_h(), op.geo.out_w()};
  op.fb = epilogue_block(out);
  return push(std::move(op), std::move(out));
}

PlanValueId PlanBuilder::linear(const Tensor& weight, const Tensor& bias,
                                PlanValueId in) {
  const Shape& xs = value_shape(in);
  if (xs.rank() != 1) {
    fail("linear expects a flattened [F] per-sample input, got " + xs.str());
  }
  if (weight.shape().rank() != 2 || weight.shape()[1] != xs[0]) {
    fail("linear weight " + weight.shape().str() + " incompatible with input " +
         xs.str());
  }
  Op op;
  op.kind = OpKind::linear;
  op.in0 = in;
  op.in_f = weight.shape()[1];
  op.out_f = weight.shape()[0];
  if (bias.defined() && bias.numel() != op.out_f) {
    fail("linear bias extent " + std::to_string(bias.numel()) +
         " != out features " + std::to_string(op.out_f));
  }
  op.weight = weight;
  op.bias = bias;
  Shape out{op.out_f};
  op.fb = epilogue_block(out);
  return push(std::move(op), std::move(out));
}

PlanValueId PlanBuilder::batch_norm2d(const Tensor& gamma, const Tensor& beta,
                                      const Tensor& running_mean,
                                      const Tensor& running_var, float eps,
                                      PlanValueId in) {
  const Shape& xs = value_shape(in);
  if (xs.rank() != 3) {
    fail("batch_norm2d expects a [C,H,W] per-sample input, got " + xs.str());
  }
  const std::int64_t ch = xs[0];
  if (gamma.numel() != ch || beta.numel() != ch ||
      running_mean.numel() != ch || running_var.numel() != ch) {
    fail("batch_norm2d per-channel extent mismatch with input " + xs.str());
  }
  Op op;
  op.kind = OpKind::epilogue;
  op.in0 = in;
  op.gamma = gamma;
  op.beta = beta;
  op.running_mean = running_mean;
  op.running_var = running_var;
  op.eps = eps;
  op.fb = epilogue_block(xs);
  return push(std::move(op), xs);
}

PlanValueId PlanBuilder::max_pool2d(std::int64_t kernel, std::int64_t stride,
                                    PlanValueId in) {
  const Shape& xs = value_shape(in);
  if (xs.rank() != 3) {
    fail("max_pool2d expects a [C,H,W] per-sample input, got " + xs.str());
  }
  const std::int64_t oh = (xs[1] - kernel) / stride + 1;
  const std::int64_t ow = (xs[2] - kernel) / stride + 1;
  if (oh <= 0 || ow <= 0) {
    fail("max_pool2d output collapses to zero extent for input " + xs.str());
  }
  Op op;
  op.kind = OpKind::max_pool2d;
  op.in0 = in;
  op.kernel = kernel;
  op.stride = stride;
  return push(std::move(op), Shape{xs[0], oh, ow});
}

PlanValueId PlanBuilder::global_avg_pool(PlanValueId in) {
  const Shape& xs = value_shape(in);
  if (xs.rank() != 3) {
    fail("global_avg_pool expects a [C,H,W] per-sample input, got " +
         xs.str());
  }
  Op op;
  op.kind = OpKind::global_avg_pool;
  op.in0 = in;
  return push(std::move(op), Shape{xs[0]});
}

PlanValueId PlanBuilder::flatten(PlanValueId in) {
  const Value& v = value(in);
  if (v.sample_shape.rank() == 1) return in;
  // Pure view: same storage, flat shape. Batched layout is unchanged
  // because samples are contiguous.
  return new_value(Shape{v.sample_numel}, v.def, root(values_, in));
}

PlanValueId PlanBuilder::activation(core::BoundedActivation* site,
                                    PlanValueId in) {
  if (site == nullptr) fail("activation: null site");
  const Shape& xs = value_shape(in);
  if (xs.rank() != 1 && xs.rank() != 3) {
    fail("activation expects a rank-1/3 per-sample input, got " + xs.str());
  }
  Op op;
  op.kind = OpKind::epilogue;
  op.in0 = in;
  op.site = site;
  op.fb = epilogue_block(xs);
  return push(std::move(op), xs);
}

PlanValueId PlanBuilder::add(PlanValueId a, PlanValueId b) {
  const Shape& as = value_shape(a);
  const Shape& bs = value_shape(b);
  if (as != bs) {
    fail("add operand shapes differ: " + as.str() + " vs " + bs.str());
  }
  Op op;
  op.kind = OpKind::epilogue;
  op.in0 = a;
  op.in1 = b;
  op.fb = epilogue_block(as);
  return push(std::move(op), as);
}

PlanValueId PlanBuilder::noop(const std::string& what, PlanValueId in) {
  // Documented pass-through: the op appears in the program (and summary())
  // but moves no data — its output is the input value itself.
  Op op;
  op.kind = OpKind::noop;
  op.label = scope_path().empty() ? what : scope_path() + " (" + what + ")";
  const auto idx = static_cast<std::int32_t>(ops_.size());
  op.in0 = in;
  op.out = in;
  use(in, idx);
  ops_.push_back(std::move(op));
  return in;
}

// ---- InferencePlan ---------------------------------------------------------

std::shared_ptr<InferencePlan> InferencePlan::compile(
    std::shared_ptr<Module> model, const Shape& sample_shape,
    std::int64_t max_batch, bool fuse, Precision precision,
    float input_range) {
  if (!model) throw std::invalid_argument("InferencePlan: null model");
  if (max_batch < 1) {
    throw std::invalid_argument("InferencePlan: max_batch must be >= 1, got " +
                                std::to_string(max_batch));
  }
  if (precision == Precision::int8 && !fuse) {
    throw std::invalid_argument(
        "InferencePlan: precision=int8 requires fuse=true (the quantization "
        "pass converts fused ops)");
  }
  if (model->subtree_pending_init()) {
    throw std::invalid_argument(
        "InferencePlan: model has pending-init parameters; install state "
        "before compiling");
  }

  PlanBuilder builder(sample_shape);
  const PlanValueId out = model->record(builder, 0);
  if (builder.ops_.empty()) {
    throw PlanError("InferencePlan: model recorded no ops");
  }

  auto plan = std::shared_ptr<InferencePlan>(new InferencePlan());
  plan->model_ = std::move(model);
  plan->values_ = std::move(builder.values_);
  plan->ops_ = std::move(builder.ops_);
  plan->output_ = out;
  plan->max_batch_ = max_batch;
  plan->precision_ = precision;

  if (fuse) plan->fuse_ops();
  if (precision == Precision::int8) {
    plan->quantize_ops(input_range);
    if (plan->int8_ops_ == 0) {
      throw PlanError(
          "InferencePlan: precision=int8 but no fused op qualified for "
          "quantization (needs bounded clampable activations and a positive "
          "input_range)");
    }
  }
  plan->finalize_liveness();

  // Scratch high-water mark: conv needs its im2col matrix (and, for
  // small-spatial convs, the grouped GEMM output) at max_batch, linear a
  // transposed weight; ops run one at a time, so one block serves all.
  // Int8 ops don't participate — their byte scratch is sized below, and
  // they never fall back to fp32 (execute throws instead).
  using K = PlanBuilder::OpKind;
  std::size_t scratch = 0;
  std::size_t scratch_i8 = 0;
  for (const auto& op : plan->ops_) {
    if (op.kind == K::conv2d && !op.q8) {
      scratch = std::max(scratch, static_cast<std::size_t>(
                                      ag::conv2d_scratch_floats(
                                          op.geo, op.out_c, max_batch)));
    } else if (op.kind == K::linear && !op.q8) {
      scratch =
          std::max(scratch, static_cast<std::size_t>(op.in_f * op.out_f));
    } else if (op.kind == K::conv2d) {
      // One sample's HWC image; a pointwise conv's (rows padded to the
      // block width) is its patch matrix, other convs add the im2row one.
      const auto in_hw = static_cast<std::size_t>(op.geo.in_h * op.geo.in_w);
      const auto patch_bytes =
          static_cast<std::size_t>(op.geo.col_cols() * op.q8->cols_padded);
      scratch_i8 = std::max(
          scratch_i8,
          is_pointwise(op.geo)
              ? patch_bytes
              : align_up_bytes(in_hw *
                               static_cast<std::size_t>(op.geo.in_channels)) +
                    patch_bytes);
    } else if (op.kind == K::linear) {
      // Quantized batch rows, padded to the block width.
      scratch_i8 = std::max(
          scratch_i8, static_cast<std::size_t>(max_batch * op.q8->cols_padded));
    }
  }
  std::size_t bn_floats = 0;
  for (const auto& op : plan->ops_) {
    if (op.gamma.defined()) {
      bn_floats = std::max(bn_floats, static_cast<std::size_t>(
                                          4 * op.gamma.numel()));
    }
  }
  plan->bn_planar_.assign(bn_floats, 0.0f);
  plan->scratch_floats_ = scratch;
  plan->scratch_i8_bytes_ = scratch_i8;
  if (scratch_i8 > 0) {
    plan->scratch_i8_ = std::make_unique<std::int8_t[]>(scratch_i8);
  }

  plan->plan_arena();
  return plan;
}

void InferencePlan::fuse_ops() {
  // Peephole over the recorded (pre-liveness) program: merge the epilogue
  // ops that read nothing but a conv2d / linear's output chain into that
  // op's epilogue. The merged intermediates go dead — the conv/linear
  // writes straight into the last merged op's slot — which is the arena
  // saving fusion exists for. The liveness checks use the record-time op
  // indices (this runs before finalize_liveness renumbers anything), so a
  // residual edge or a later re-read of an intermediate blocks fusion
  // exactly as it must.
  //
  // Every fold is structural, not algebraic: the merged epilogue runs the
  // exact per-element sequence of the standalone ones (bias, BN, add,
  // clamp), so bit-identity and live BN-parameter fault visibility both
  // survive (pre-scaling weights by gamma/sigma would bake BN faults out of
  // the served model).
  using K = PlanBuilder::OpKind;
  const PlanValueId out_root = root(output_);
  // `v` is read by op `reader` alone and is not the plan output.
  const auto only_read_by = [&](PlanValueId v, std::size_t reader) {
    return values_[static_cast<std::size_t>(v)].last_use ==
               static_cast<std::int32_t>(reader) &&
           out_root != v;
  };
  // Op j is an epilogue op reading `reads` whose step satisfies `step`.
  const auto is_epilogue = [&](std::size_t j, PlanValueId reads,
                               bool (*step)(const Op&)) {
    return j < ops_.size() && ops_[j].kind == K::epilogue &&
           ops_[j].in0 == reads && step(ops_[j]);
  };
  const auto bn_step = [](const Op& e) { return e.gamma.defined(); };
  const auto act_step = [](const Op& e) { return e.site != nullptr; };
  // Merge epilogue op `next`, which reads f's output, into f's epilogue;
  // an add's shortcut is its operand that is not f's output.
  const auto merge = [&](Op& f, const Op& next) {
    if (next.gamma.defined()) {
      f.gamma = next.gamma;
      f.beta = next.beta;
      f.running_mean = next.running_mean;
      f.running_var = next.running_var;
      f.eps = next.eps;
    }
    if (next.in1 >= 0) f.in1 = next.in0 == f.out ? next.in1 : next.in0;
    if (next.site != nullptr) f.site = next.site;
    values_[static_cast<std::size_t>(f.out)].dead = true;
    f.out = next.out;
    if (!next.label.empty()) f.label += " + " + next.label;
  };

  // A residual tail's fused op is emitted at its add's position, after the
  // shortcut's producers.
  std::vector<std::pair<std::size_t, Op>> deferred;
  // The add of a residual tail (conv -> BN -> add(., shortcut) -> clamp)
  // reading BN output `bn_out`, or ops_.size() when there is none. The add
  // may sit past the shortcut's producers (a projection conv -> BN), but no
  // op before it may read the BN output, and an add folds into one tail
  // only: when both operands are BN outputs (a projection shortcut), the
  // first conv claims it and the other stays a plain conv -> BN.
  const auto tail_add = [&](std::size_t bn_at, PlanValueId bn_out) {
    const auto none = ops_.size();
    const auto at = static_cast<std::size_t>(
        std::max(values_[static_cast<std::size_t>(bn_out)].last_use, 0));
    if (at <= bn_at || at >= ops_.size() || bn_out == out_root) return none;
    for (const auto& d : deferred) {
      if (d.first == at) return none;
    }
    const Op& add = ops_[at];
    if (add.kind != K::epilogue || add.in1 < 0 || add.in0 == add.in1 ||
        (add.in0 != bn_out && add.in1 != bn_out) ||
        !is_epilogue(at + 1, add.out, act_step) ||
        !only_read_by(add.out, at + 1)) {
      return none;
    }
    for (std::size_t j = bn_at + 1; j < at; ++j) {
      const Op& mid = ops_[j];
      if (root(mid.in0) == bn_out ||
          (mid.in1 >= 0 && root(mid.in1) == bn_out)) {
        return none;
      }
    }
    return at;
  };

  std::vector<Op> fused;
  fused.reserve(ops_.size());
  for (std::size_t i = 0; i < ops_.size(); ++i) {
    const auto due = std::find_if(deferred.begin(), deferred.end(),
                                  [&](const auto& d) { return d.first == i; });
    if (due != deferred.end()) {
      fused.push_back(std::move(due->second));
      deferred.erase(due);
      ++i;  // the add's activation is folded too
      continue;
    }
    Op& op = ops_[i];
    const bool conv_bn = op.kind == K::conv2d &&
                         is_epilogue(i + 1, op.out, bn_step) &&
                         only_read_by(op.out, i + 1);
    const bool clamp_pair =
        (op.kind == K::conv2d || op.kind == K::linear) &&
        is_epilogue(i + 1, op.out, act_step) && only_read_by(op.out, i + 1);
    if (!conv_bn && !clamp_pair) {
      fused.push_back(std::move(op));
      continue;
    }
    Op f = std::move(op);
    ++fused_ops_;
    merge(f, ops_[i + 1]);
    if (clamp_pair) {  // conv/linear -> clamp
      fused.push_back(std::move(f));
      ++i;
      continue;
    }
    const Op& bn = ops_[i + 1];
    if (is_epilogue(i + 2, bn.out, act_step) && only_read_by(bn.out, i + 2)) {
      // conv -> BN -> clamp: the ResNet block head.
      merge(f, ops_[i + 2]);
      ++bn_folded_;
      fused.push_back(std::move(f));
      i += 2;
      continue;
    }
    if (const std::size_t at = tail_add(i + 1, bn.out); at < ops_.size()) {
      // conv -> BN -> add(., shortcut) -> clamp: the residual tail.
      merge(f, ops_[at]);
      merge(f, ops_[at + 1]);
      ++bn_folded_;
      ++residual_folded_;
      deferred.emplace_back(at, std::move(f));
      ++i;  // the BN is folded here; the add and activation at `at`
      continue;
    }
    // conv -> BN with no clamp: a projection shortcut.
    fused.push_back(std::move(f));
    ++i;
  }
  if (!deferred.empty()) {
    throw std::logic_error("InferencePlan: fusion lost a residual tail op");
  }
  ops_ = std::move(fused);
}

void InferencePlan::quantize_ops(float input_range) {
  // Forward range propagation: range[v] > 0 when every element of value v
  // is statically known to lie in [-range, range]. The plan input's range
  // comes from calibration (compile's input_range); a clampable bounded
  // activation emits [0, max(bound)] by construction — FitAct's bounds are
  // what make static activation scales possible at all. Anything a GEMM or
  // BatchNorm produces is unbounded until the next clamp. A fused op (a
  // conv/linear whose epilogue merged a BatchNorm or an activation) whose
  // input range is known converts to int8: weights quantize per output
  // channel now, and the input range fixes the activation scale. Its clamp,
  // if it has one, must be the clip cascade the int8 epilogue implements;
  // the bounds then keep feeding the clamp-event detector through the
  // epilogue. An op without a clamp (a projection's conv -> BN) converts
  // too, and its output range stays unknown.
  using K = PlanBuilder::OpKind;
  std::vector<float> range(values_.size(), -1.0f);
  range[static_cast<std::size_t>(root(0))] =
      input_range > 0.0f ? input_range : -1.0f;
  const auto rng = [&](PlanValueId v) {
    return range[static_cast<std::size_t>(root(v))];
  };
  const auto set = [&](PlanValueId v, float r) {
    range[static_cast<std::size_t>(root(v))] = r;
  };
  // Sign propagation alongside the ranges: nonneg[v] when every element of
  // value v is statically >= 0. Clamp outputs are nonnegative by the clip
  // cascade (even in detect-only mode an over-bound element becomes 0, not
  // its raw value), and pooling/add preserve the sign. An int8 op whose
  // input is proven nonnegative quantizes it into [0,127], which lets
  // execute use the u8xs8 GEMM at twice the vector MAC density.
  std::vector<char> nonneg(values_.size(), 0);
  const auto is_nonneg = [&](PlanValueId v) {
    return nonneg[static_cast<std::size_t>(root(v))] != 0;
  };
  const auto set_nonneg = [&](PlanValueId v, bool nn) {
    nonneg[static_cast<std::size_t>(root(v))] = nn ? 1 : 0;
  };
  // Convert a fused conv/linear whose input range is known, and whose
  // clamp, if it has one, has a known output range.
  const auto quantize = [&](Op& op, float out_r) {
    const float in_r = rng(op.in0);
    if (in_r <= 0.0f || (op.site != nullptr && out_r <= 0.0f)) return;
    const bool is_conv = op.kind == K::conv2d;
    const std::int64_t rows = is_conv ? op.out_c : op.out_f;
    const std::int64_t cols = is_conv ? op.geo.col_rows() : op.in_f;
    const float* wsrc = op.weight.data();
    std::vector<float> wperm;
    if (is_conv) {
      // Permute each filter's k-axis from the tensor's [c][kh][kw] to the
      // [kh][kw][c] order im2row_i8 gathers (see its comment). Per-channel
      // max-abs is permutation-invariant, so every scale comes out
      // bit-identical to the unpermuted packing.
      const std::int64_t ck = op.geo.in_channels;
      const std::int64_t kh_n = op.geo.kernel_h;
      const std::int64_t kw_n = op.geo.kernel_w;
      wperm.resize(static_cast<std::size_t>(rows * cols));
      for (std::int64_t r = 0; r < rows; ++r) {
        const float* src = wsrc + r * cols;
        float* dst = wperm.data() + r * cols;
        for (std::int64_t c = 0; c < ck; ++c) {
          for (std::int64_t kh = 0; kh < kh_n; ++kh) {
            for (std::int64_t kw = 0; kw < kw_n; ++kw) {
              dst[(kh * kw_n + kw) * ck + c] =
                  src[(c * kh_n + kh) * kw_n + kw];
            }
          }
        }
      }
      wsrc = wperm.data();
    }
    op.q8 = std::make_shared<quant::Int8Weights>(
        quant::quantize_weights_i8(wsrc, rows, cols));
    op.q8->set_act_scale(in_r / 127.0f);
    op.q8_in_nonneg = is_nonneg(op.in0);
    ++int8_ops_;
  };
  for (auto& op : ops_) {
    switch (op.kind) {
      case K::noop:
        break;  // moves nothing
      case K::max_pool2d:
      case K::global_avg_pool:
        // Max and mean of bounded values stay within the bound (and keep
        // their sign).
        set(op.out, rng(op.in0));
        set_nonneg(op.out, is_nonneg(op.in0));
        break;
      case K::epilogue:
        if (op.in1 >= 0) {  // a residual add
          const float a = rng(op.in0);
          const float b = rng(op.in1);
          set(op.out, a > 0.0f && b > 0.0f ? a + b : -1.0f);
          set_nonneg(op.out, is_nonneg(op.in0) && is_nonneg(op.in1));
          break;
        }
        [[fallthrough]];
      case K::conv2d:
      case K::linear: {
        // A clamp's output is in [0, b]; anything a GEMM or BatchNorm
        // produces is unbounded.
        const bool clamped = op.site != nullptr;
        const float out_r = clamped ? site_output_range(op.site) : -1.0f;
        if (op.kind != K::epilogue && (clamped || op.gamma.defined())) {
          quantize(op, out_r);
        }
        set(op.out, out_r);
        set_nonneg(op.out, clamped);
        break;
      }
    }
  }
}

void InferencePlan::finalize_liveness() {
  // Recompute def/last_use against the final op list (fusion drops ops, so
  // record-time indices are stale), mirroring the builder's bookkeeping:
  // aliases track their root, a noop reads but does not define, and a
  // value's live range starts at its defining op. Then pin the plan input
  // and output live forever (see kLiveForever above).
  for (auto& v : values_) {
    if (v.alias_of < 0) {
      v.def = -1;
      v.last_use = -1;
    }
  }
  const auto use = [&](PlanValueId v, std::int32_t idx) {
    Value& r = values_[static_cast<std::size_t>(root(v))];
    r.last_use = std::max(r.last_use, idx);
  };
  for (std::size_t i = 0; i < ops_.size(); ++i) {
    const Op& op = ops_[i];
    const auto idx = static_cast<std::int32_t>(i);
    if (op.kind != PlanBuilder::OpKind::noop) {
      Value& o = values_[static_cast<std::size_t>(root(op.out))];
      o.def = idx;
      o.last_use = std::max(o.last_use, idx);
    }
    use(op.in0, idx);
    if (op.in1 >= 0) use(op.in1, idx);
  }
  // A root value no op defines any more (other than the plan input) was
  // eliminated by fusion; it must not claim an arena slot.
  for (std::size_t vi = 1; vi < values_.size(); ++vi) {
    Value& v = values_[vi];
    if (v.alias_of < 0 && v.def < 0) v.dead = true;
  }
  for (std::size_t vi = 0; vi < values_.size(); ++vi) {
    Value& v = values_[vi];
    if (v.alias_of >= 0) {
      const Value& r = values_[static_cast<std::size_t>(
          root(static_cast<PlanValueId>(vi)))];
      v.def = r.def;
      v.last_use = r.last_use;
      v.dead = r.dead;
    }
  }
  values_[static_cast<std::size_t>(root(0))].last_use = kLiveForever;
  values_[static_cast<std::size_t>(root(output_))].last_use = kLiveForever;
}

void InferencePlan::plan_arena() {
  // Batch-size buckets: powers of two up to max_batch, plus max_batch
  // itself. A batch executes in the smallest bucket that fits, so arena
  // strides (and cache footprint) track the work actually in flight.
  std::vector<std::int64_t> capacities;
  for (std::int64_t c = 1; c < max_batch_; c *= 2) capacities.push_back(c);
  capacities.push_back(max_batch_);

  bucket_of_batch_.assign(static_cast<std::size_t>(max_batch_), 0);
  for (std::int64_t b = 1; b <= max_batch_; ++b) {
    std::size_t bucket = 0;
    while (capacities[bucket] < b) ++bucket;
    bucket_of_batch_[static_cast<std::size_t>(b - 1)] = bucket;
  }

  struct Placed {
    std::size_t offset, size;
    std::int32_t def, last;
  };

  arena_floats_ = 0;
  buckets_.clear();
  buckets_.reserve(capacities.size());
  for (const std::int64_t cap : capacities) {
    Bucket bk;
    bk.capacity = cap;
    bk.offsets.assign(values_.size(), 0);

    std::vector<Placed> placed;
    // The shared scratch block is live for the whole program; placing it
    // first pins it at offset 0 in every bucket (execute relies on that).
    placed.push_back({0, align_up(scratch_floats_), -1, kLiveForever});

    for (std::size_t vi = 0; vi < values_.size(); ++vi) {
      const Value& v = values_[vi];
      if (v.alias_of >= 0) continue;  // views resolve through their root
      if (v.dead) continue;           // fusion eliminated it: no slot
      const auto size = align_up(
          static_cast<std::size_t>(v.sample_numel) * static_cast<std::size_t>(cap));
      // First-fit: scan occupied extents of time-overlapping blocks in
      // offset order and take the first gap large enough.
      std::vector<Placed> live;
      for (const auto& p : placed) {
        if (v.def <= p.last && p.def <= v.last_use) live.push_back(p);
      }
      std::sort(live.begin(), live.end(),
                [](const Placed& a, const Placed& b) {
                  return a.offset < b.offset;
                });
      std::size_t offset = 0;
      for (const auto& p : live) {
        if (offset + size <= p.offset) break;
        offset = std::max(offset, p.offset + p.size);
      }
      bk.offsets[vi] = offset;
      placed.push_back({offset, size, v.def, v.last_use});
    }

    for (const auto& p : placed) {
      bk.total_floats = std::max(bk.total_floats, p.offset + p.size);
    }
    // Alias values read/write through their root's slot.
    for (std::size_t vi = 0; vi < values_.size(); ++vi) {
      if (values_[vi].alias_of >= 0) {
        bk.offsets[vi] =
            bk.offsets[static_cast<std::size_t>(root(
                static_cast<PlanValueId>(vi)))];
      }
    }
    arena_floats_ = std::max(arena_floats_, bk.total_floats);
    buckets_.push_back(std::move(bk));
  }

  arena_ = std::make_unique<float[]>(std::max<std::size_t>(arena_floats_, 1));
  std::memset(arena_.get(), 0, arena_floats_ * sizeof(float));

  // Pre-built per-batch-size views: execute() and input_view() hand out
  // references to these, so steady state constructs no Shapes (a Shape copy
  // allocates its dims vector).
  input_views_.clear();
  output_views_.clear();
  input_views_.reserve(static_cast<std::size_t>(max_batch_));
  output_views_.reserve(static_cast<std::size_t>(max_batch_));
  const PlanValueId out_root = root(output_);
  for (std::int64_t b = 1; b <= max_batch_; ++b) {
    const Bucket& bk = buckets_[bucket_of_batch_[static_cast<std::size_t>(b - 1)]];
    input_views_.push_back(
        Tensor::view(batched(b, values_[0].sample_shape),
                     arena_.get() + bk.offsets[0]));
    output_views_.push_back(Tensor::view(
        batched(b, values_[static_cast<std::size_t>(output_)].sample_shape),
        arena_.get() + bk.offsets[static_cast<std::size_t>(out_root)]));
  }
}

const InferencePlan::Bucket& InferencePlan::bucket_for(
    std::int64_t batch) const {
  if (batch < 1 || batch > max_batch_) {
    throw std::invalid_argument("InferencePlan: batch " +
                                std::to_string(batch) +
                                " outside compiled range [1, " +
                                std::to_string(max_batch_) + "]");
  }
  return buckets_[bucket_of_batch_[static_cast<std::size_t>(batch - 1)]];
}

const Shape& InferencePlan::sample_shape() const {
  return values_[0].sample_shape;
}

Tensor& InferencePlan::input_view(std::int64_t batch) {
  (void)bucket_for(batch);  // range check
  return input_views_[static_cast<std::size_t>(batch - 1)];
}

Tensor& InferencePlan::execute(std::int64_t batch) {
  using K = PlanBuilder::OpKind;
  const Bucket& bk = bucket_for(batch);
  // Lane threads run kernels inline: plan execution is already one lane of
  // a thread-per-lane server, and inline kernels are also what keeps the
  // steady state allocation-free (pool dispatch allocates task state).
  ut::InlineKernelScope inline_scope;
  float* const base = arena_.get();
  float* const scratch = base;  // plan_arena pins scratch at offset 0
  const auto ptr = [&](PlanValueId v) {
    return base + bk.offsets[static_cast<std::size_t>(v)];
  };

  for (const auto& op : ops_) {
    const float* const x = ptr(op.in0);
    float* const o = ptr(op.out);
    const float* const shortcut = op.in1 >= 0 ? ptr(op.in1) : nullptr;
    // One sample's [channels, hw] output block, and the epilogue finishing
    // it. A GEMM op with no step skips the pass, so a bias-free conv keeps
    // the GEMM's bits.
    const std::int64_t channels = op.fb.channels;
    const std::int64_t plane = channels * op.fb.hw;
    const bool finish = op.has_epilogue();
    const kern::Epilogue e = finish ? resolve_epilogue(op) : kern::Epilogue{};
    std::uint64_t events = 0;
    // e over sample s's block, from `in` to `out` (the same block when the
    // epilogue finishes a GEMM output in place).
    const auto run_epilogue = [&](std::int64_t s, const float* in,
                                  float* out) {
      kern::Epilogue es = e;
      if (shortcut != nullptr) es.shortcut = shortcut + s * plane;
      events += kern::epilogue(in, out, channels, op.fb.hw, es);
    };
    switch (op.kind) {
      case K::conv2d:
        if (op.q8) {
          events = run_int8_conv(op, batch, x, e, shortcut, o);
          break;
        }
        // The GEMM leaves each sample's pre-bias output in its slot, and
        // the epilogue finishes it in place while it is cache-hot.
        ag::conv2d_forward_batch(
            op.geo, op.out_c, batch, x, op.weight.data(), nullptr, scratch, o,
            [&](float* os) {
              if (finish) run_epilogue((os - o) / plane, os, os);
            });
        break;
      case K::linear:
        if (op.q8) {
          events = run_int8_linear(op, batch, x, e, o);
          break;
        }
        ag::linear_forward(batch, op.in_f, op.out_f, x, op.weight.data(),
                           nullptr, scratch, o);
        for (std::int64_t s = 0; finish && s < batch; ++s) {
          run_epilogue(s, o + s * plane, o + s * plane);
        }
        break;
      case K::epilogue:
        for (std::int64_t s = 0; s < batch; ++s) {
          run_epilogue(s, x + s * plane, o + s * plane);
        }
        break;
      case K::max_pool2d: {
        const Shape& xs = values_[static_cast<std::size_t>(op.in0)].sample_shape;
        ag::max_pool2d_forward(batch, xs[0], xs[1], xs[2], op.kernel,
                               op.stride, x, o, nullptr);
        break;
      }
      case K::global_avg_pool: {
        const Shape& xs = values_[static_cast<std::size_t>(op.in0)].sample_shape;
        ag::global_avg_pool_forward(batch, xs[0], xs[1] * xs[2], x, o);
        break;
      }
      case K::noop:
        break;
    }
    if (e.count) {
      op.site->add_clamp_counts(events,
                                static_cast<std::uint64_t>(batch * plane));
    }
  }
  return output_views_[static_cast<std::size_t>(batch - 1)];
}

kern::Epilogue InferencePlan::resolve_epilogue(const Op& op) {
  // Parameters, scheme and bounds are re-read on every execute: bias,
  // BatchNorm and bound tensors stay fault-visible, and re-protection after
  // compile behaves exactly as on the unfused path.
  kern::Epilogue e;
  if (op.q8) e.scale = op.q8->combined.data();
  if (op.bias.defined()) e.bias = op.bias.data();
  if (op.gamma.defined()) {
    // Planar {mean, invstd, gamma, beta}; invstd as the eager eval-mode
    // BatchNorm computes it.
    const std::int64_t ch = op.gamma.numel();
    float* bn = bn_planar_.data();
    for (std::int64_t c = 0; c < ch; ++c) {
      bn[c] = op.running_mean.data()[c];
      bn[ch + c] = 1.0f / std::sqrt(op.running_var.data()[c] + op.eps);
      bn[2 * ch + c] = op.gamma.data()[c];
      bn[3 * ch + c] = op.beta.data()[c];
    }
    e.bn = bn;
  }
  if (op.site == nullptr) return e;  // no activation step
  const core::BoundedActivation& site = *op.site;
  require_serving_site(site, op.label);
  // An int8 op was quantized under its site's bounds (they fixed the
  // activation scale); swapping scheme or bounds afterwards would silently
  // serve stale scales, so demand a recompile instead.
  if (op.q8 && (!clampable_scheme(site.scheme()) || !site.has_bounds())) {
    throw std::logic_error(
        "InferencePlan: int8 op '" + op.label +
        "' lost the bounded clamp scheme it was quantized under; "
        "recompile the plan after re-protection");
  }
  e.act = kern::EpilogueAct::clamp;
  if (site.scheme() == core::Scheme::relu) {
    // Plain ReLU is the clip cascade under a +inf bound, uncounted: every
    // finite positive passes and NaN maps to 0, exactly relu_forward.
    static constexpr float kInf = std::numeric_limits<float>::infinity();
    e.bound = &kInf;
    return e;
  }
  const Tensor& bt = checked_bounds(site, op.fb);
  e.bound = bt.data();
  e.broadcast = bound_broadcast(bt.numel(), op.fb);
  e.saturate = site.scheme() == core::Scheme::ranger;
  if (site.scheme() == core::Scheme::fitrelu) {
    e.act = kern::EpilogueAct::fitrelu;
    e.k = site.steepness();
  }
  e.count = site.clamp_counting();
  return e;
}

std::uint64_t InferencePlan::run_int8_conv(const Op& op, std::int64_t batch,
                                           const float* x,
                                           const kern::Epilogue& e,
                                           const float* shortcut, float* o) {
  const Conv2dGeometry& g = op.geo;
  const quant::Int8Weights& q8 = *op.q8;
  const std::int64_t hw = g.col_cols();
  const std::int64_t in_hw = g.in_h * g.in_w;
  const std::int64_t in_stride = g.in_channels * in_hw;
  const std::int64_t out_stride = op.out_c * hw;
  const std::int64_t ckk_pad = q8.cols_padded;
  // A pointwise conv's HWC image, rows padded to ckk_pad, is already its
  // im2row patch matrix; other convs gather patches from the HWC image.
  const bool pointwise = is_pointwise(g);
  std::int8_t* const qhwc = scratch_i8_.get();
  std::int8_t* const patches =
      pointwise ? qhwc
                : qhwc + align_up_bytes(static_cast<std::size_t>(in_stride));
  std::uint64_t events = 0;
  for (std::int64_t s = 0; s < batch; ++s) {
    // Quantize the sample straight into HWC bytes, gather patches, then
    // int8 GEMM into the output slot (int32 accumulators reinterpret the
    // float storage).
    kern::quantize_hwc_i8(x + s * in_stride, q8.inv_act_scale, qhwc,
                          g.in_channels, in_hw,
                          pointwise ? ckk_pad : g.in_channels);
    if (!pointwise) im2row_i8(g, qhwc, patches, ckk_pad);
    auto* acc = reinterpret_cast<std::int32_t*>(o + s * out_stride);
    if (op.q8_in_nonneg) {
      // Proven-nonneg input: patch bytes are in [0,127], so the u8xs8
      // kernel applies (patches are the B operand here).
      kern::gemm_i8u8_dot(op.out_c, hw, ckk_pad, q8.q.data(), ckk_pad,
                          patches, ckk_pad, acc, hw, /*a_unsigned=*/false);
    } else {
      kern::gemm_i8_dot(op.out_c, hw, ckk_pad, q8.q.data(), ckk_pad, patches,
                        ckk_pad, acc, hw);
    }
    kern::Epilogue es = e;
    if (shortcut != nullptr) es.shortcut = shortcut + s * out_stride;
    events += kern::dequant_plane(acc, op.out_c, hw, es);
  }
  return events;
}

std::uint64_t InferencePlan::run_int8_linear(const Op& op, std::int64_t batch,
                                             const float* x,
                                             const kern::Epilogue& e,
                                             float* o) {
  const quant::Int8Weights& q8 = *op.q8;
  std::int8_t* const qbuf = scratch_i8_.get();
  // Quantize the batch rows (zero-padding each row's block tail), one GEMM
  // for the whole batch, then the epilogue per row.
  const std::int64_t in_f_pad = q8.cols_padded;
  for (std::int64_t s = 0; s < batch; ++s) {
    kern::quantize_i8(x + s * op.in_f, q8.inv_act_scale, qbuf + s * in_f_pad,
                      op.in_f);
    std::memset(qbuf + s * in_f_pad + op.in_f, 0,
                static_cast<std::size_t>(in_f_pad - op.in_f));
  }
  auto* acc = reinterpret_cast<std::int32_t*>(o);
  if (op.q8_in_nonneg) {
    // Proven-nonneg input: the quantized batch rows (the A operand here)
    // are in [0,127], so the u8xs8 kernel applies.
    kern::gemm_i8u8_dot(batch, op.out_f, in_f_pad, qbuf, in_f_pad,
                        q8.q.data(), in_f_pad, acc, op.out_f,
                        /*a_unsigned=*/true);
  } else {
    kern::gemm_i8_dot(batch, op.out_f, in_f_pad, qbuf, in_f_pad, q8.q.data(),
                      in_f_pad, acc, op.out_f);
  }
  std::uint64_t events = 0;
  for (std::int64_t s = 0; s < batch; ++s) {
    events += kern::dequant_plane(acc + s * op.out_f, op.out_f, 1, e);
  }
  return events;
}

void InferencePlan::restore_int8_weights() {
  for (auto& op : ops_) {
    if (op.q8) op.q8->restore();
  }
}

std::pair<std::int8_t*, std::size_t> InferencePlan::int8_weight_span(
    std::size_t index) {
  std::size_t seen = 0;
  for (auto& op : ops_) {
    if (!op.q8) continue;
    if (seen == index) return {op.q8->q.data(), op.q8->q.size()};
    ++seen;
  }
  throw std::out_of_range("InferencePlan: int8 op index " +
                          std::to_string(index) + " out of range (have " +
                          std::to_string(seen) + ")");
}

std::string InferencePlan::summary() const {
  using K = PlanBuilder::OpKind;
  const auto kind_name = [](K kind) {
    switch (kind) {
      case K::conv2d: return "conv2d";
      case K::linear: return "linear";
      case K::epilogue: return "epilogue";
      case K::max_pool2d: return "max_pool2d";
      case K::global_avg_pool: return "global_avg_pool";
      case K::noop: return "noop";
    }
    return "?";
  };
  std::ostringstream os;
  os << "InferencePlan: " << ops_.size() << " ops (" << fused_ops_
     << " fused, " << bn_folded_ << " bn-folded, " << residual_folded_
     << " residual-folded, " << int8_ops_
     << " int8), " << values_.size() << " values, max_batch " << max_batch_
     << ", arena " << arena_bytes() / 1024 << " KiB (" << buckets_.size()
     << " buckets)\n";
  for (const Op& op : ops_) {
    os << "  %" << op.out << " = " << kind_name(op.kind) << "(%" << op.in0
       << ") -> "
       << values_[static_cast<std::size_t>(op.out)].sample_shape.str();
    if (op.has_epilogue()) {
      // The epilogue's steps in execution order.
      os << " {";
      const char* sep = "";
      const auto step = [&](const std::string& name) {
        os << sep << name;
        sep = " ";
      };
      if (op.q8) step("int8");
      if (op.bias.defined()) step("bias");
      if (op.gamma.defined()) step("bn");
      if (op.in1 >= 0) step("+%" + std::to_string(op.in1));
      if (op.site != nullptr) {
        const core::BoundedActivation& site = *op.site;
        const kern::BoundBroadcast b = bound_broadcast(
            site.scheme() != core::Scheme::relu && site.has_bounds()
                ? site.bounds().value().numel()
                : 1,
            op.fb);
        step(std::string(site.scheme() == core::Scheme::fitrelu ? "fitrelu/"
                                                                : "clamp/") +
             (b == kern::BoundBroadcast::layer     ? "layer"
              : b == kern::BoundBroadcast::channel ? "channel"
                                                   : "neuron"));
      }
      os << "}";
    }
    if (!op.label.empty()) os << "  # " << op.label;
    os << "\n";
  }
  return os.str();
}

}  // namespace fitact::nn
