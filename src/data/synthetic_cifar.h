// SyntheticCifar: procedural stand-in for CIFAR-10 / CIFAR-100.
//
// The real datasets are not bundled (no network access in the reproduction
// environment); this generator produces class-conditional textured images
// with the same geometry (3x32x32) and class counts (10 or 100). Each class
// owns a deterministic mixture of 2-D sinusoidal gratings plus a class color
// cast; a sample is the class texture under a random phase shift, amplitude
// jitter, and additive Gaussian pixel noise. The result is:
//   - learnable by the paper's architectures within a few epochs,
//   - non-trivial (samples of one class differ; classes overlap under noise),
//   - rich in activation-magnitude spread across neurons, which is the
//     property the paper's Fig. 2 motivation and all protection schemes
//     depend on.
// Samples are generated on the fly from (seed, index) and never stored, so
// arbitrarily large epochs cost no memory.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "data/dataset.h"
#include "util/rng.h"

namespace fitact::data {

struct SyntheticCifarConfig {
  std::int64_t num_classes = 10;
  std::int64_t size = 2048;       ///< samples in this split
  std::uint64_t seed = 1;         ///< class-texture seed (shared by splits)
  std::uint64_t split_salt = 0;   ///< distinguishes train/test sample streams
};

class SyntheticCifar final : public Dataset {
 public:
  explicit SyntheticCifar(const SyntheticCifarConfig& config);

  [[nodiscard]] std::int64_t size() const override { return config_.size; }
  [[nodiscard]] std::int64_t num_classes() const override {
    return config_.num_classes;
  }

  void image_into(std::int64_t i, float* out) const override;
  [[nodiscard]] std::int64_t label(std::int64_t i) const override;

 private:
  struct Grating {
    float fx, fy;     // spatial frequency
    float amp;        // amplitude
    float phase;      // base phase
    float rgb[3];     // per-channel weight
  };

  SyntheticCifarConfig config_;
  std::vector<std::vector<Grating>> class_gratings_;
  std::vector<std::array<float, 3>> class_color_;
};

/// Standard train/test split pair with CIFAR-like sizes scaled by `scale`
/// (scale=1 -> 50k/10k; the benches use smaller scales).
struct SyntheticSplits {
  SyntheticCifar train;
  SyntheticCifar test;
};

[[nodiscard]] SyntheticSplits make_synthetic_splits(std::int64_t num_classes,
                                                    std::int64_t train_size,
                                                    std::int64_t test_size,
                                                    std::uint64_t seed);

}  // namespace fitact::data
