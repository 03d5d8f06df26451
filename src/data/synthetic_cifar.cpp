#include "data/synthetic_cifar.h"

#include <array>
#include <cmath>

namespace fitact::data {

namespace {

constexpr float kNoiseStddev = 0.35f;  // additive pixel noise
constexpr int kGratingsPerClass = 3;  // sinusoidal components per class

}  // namespace

SyntheticCifar::SyntheticCifar(const SyntheticCifarConfig& config)
    : config_(config) {
  ut::Rng rng(config_.seed * 0x9E3779B97F4A7C15ull + 17);
  class_gratings_.resize(static_cast<std::size_t>(config_.num_classes));
  class_color_.resize(static_cast<std::size_t>(config_.num_classes));
  for (std::int64_t c = 0; c < config_.num_classes; ++c) {
    auto& gratings = class_gratings_[static_cast<std::size_t>(c)];
    gratings.resize(kGratingsPerClass);
    for (auto& g : gratings) {
      g.fx = rng.uniform(0.5f, 4.0f);
      g.fy = rng.uniform(0.5f, 4.0f);
      g.amp = rng.uniform(0.5f, 1.2f);
      g.phase = rng.uniform(0.0f, 6.2831853f);
      for (auto& w : g.rgb) w = rng.uniform(-1.0f, 1.0f);
    }
    auto& color = class_color_[static_cast<std::size_t>(c)];
    for (auto& w : color) w = rng.uniform(-0.6f, 0.6f);
  }
}

std::int64_t SyntheticCifar::label(std::int64_t i) const {
  // Balanced round-robin labels; deterministic in the index.
  return i % config_.num_classes;
}

void SyntheticCifar::image_into(std::int64_t i, float* out) const {
  const std::int64_t cls = label(i);
  // Per-sample stream: derived from (seed, split, index) so train and test
  // splits never alias.
  ut::Rng rng(config_.seed ^ (config_.split_salt * 0xD1B54A32D192ED03ull) ^
              (static_cast<std::uint64_t>(i) * 0x2545F4914F6CDD1Dull));

  const auto& gratings = class_gratings_[static_cast<std::size_t>(cls)];
  const auto& color = class_color_[static_cast<std::size_t>(cls)];

  // Random per-sample modulation.
  const float amp_jitter = rng.uniform(0.7f, 1.3f);
  const float phase_x = rng.uniform(0.0f, 6.2831853f);
  const float phase_y = rng.uniform(0.0f, 6.2831853f);

  constexpr float kTwoPiOverW = 6.2831853f / static_cast<float>(kImageWidth);
  for (std::int64_t ch = 0; ch < kImageChannels; ++ch) {
    float* plane = out + ch * kImageHeight * kImageWidth;
    for (std::int64_t y = 0; y < kImageHeight; ++y) {
      for (std::int64_t x = 0; x < kImageWidth; ++x) {
        float v = color[static_cast<std::size_t>(ch)];
        for (const auto& g : gratings) {
          const float arg = g.fx * (static_cast<float>(x) * kTwoPiOverW +
                                    phase_x) +
                            g.fy * (static_cast<float>(y) * kTwoPiOverW +
                                    phase_y) +
                            g.phase;
          v += amp_jitter * g.amp * g.rgb[static_cast<std::size_t>(ch)] *
               std::sin(arg);
        }
        plane[y * kImageWidth + x] = v;
      }
    }
  }
  // Additive pixel noise.
  for (std::int64_t p = 0; p < kImageNumel; ++p) {
    out[p] += rng.normal(0.0f, kNoiseStddev);
  }
}

SyntheticSplits make_synthetic_splits(std::int64_t num_classes,
                                      std::int64_t train_size,
                                      std::int64_t test_size,
                                      std::uint64_t seed) {
  SyntheticCifarConfig train_cfg;
  train_cfg.num_classes = num_classes;
  train_cfg.size = train_size;
  train_cfg.seed = seed;
  train_cfg.split_salt = 1;
  SyntheticCifarConfig test_cfg = train_cfg;
  test_cfg.size = test_size;
  test_cfg.split_salt = 2;
  return SyntheticSplits{SyntheticCifar(train_cfg), SyntheticCifar(test_cfg)};
}

}  // namespace fitact::data
