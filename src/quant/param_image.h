// ParamImage: the packed Q1.15.16 memory image of a module's stored
// parameters — the fault space of the paper's experiments ("the weights and
// biases of different layers, as well as parameters of activation
// functions").
//
// The image snapshots the module's parameters at construction; buffers
// (BatchNorm running statistics) are not in the fault space. restore()
// writes the decoded clean image back into the module; a fault injector
// flips bits in a scratch copy and writes that back instead.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "nn/module.h"

namespace fitact::quant {

class ParamImage {
 public:
  /// Selects which named parameters join the fault space; nullptr = all.
  using NameFilter = std::function<bool(const std::string&)>;

  /// Snapshot the current parameter values of `m` into fixed point.
  /// `filter` restricts the image to matching parameter names (used by the
  /// Fig. 1 reproduction, which injects faults into specific layers only).
  explicit ParamImage(nn::Module& m, NameFilter filter = nullptr);

  /// Total number of 32-bit words in the image.
  [[nodiscard]] std::size_t word_count() const noexcept {
    return clean_.size();
  }

  /// Total number of bits in the fault space.
  [[nodiscard]] std::uint64_t bit_count() const noexcept {
    return static_cast<std::uint64_t>(clean_.size()) * 32u;
  }

  /// Bytes of parameter storage (the Table I "memory" accounting).
  [[nodiscard]] std::size_t byte_count() const noexcept {
    return clean_.size() * sizeof(std::int32_t);
  }

  /// The clean snapshot (read-only).
  [[nodiscard]] const std::vector<std::int32_t>& clean_words() const noexcept {
    return clean_;
  }

  /// Write the *clean* image back into the module (also applies the
  /// quantisation round-trip, which models fixed-point parameter storage).
  void restore();

  /// Write an arbitrary word vector (same length) into the module; used by
  /// the injector after flipping bits.
  void write_back(const std::vector<std::int32_t>& words);

  /// Re-snapshot from the module (e.g. after post-training updated bounds).
  void refresh();

 private:
  struct Segment {
    std::string name;
    Tensor target;      // shares storage with the module's tensor
    std::size_t offset; // word offset into the image
  };

  nn::Module* module_;
  NameFilter filter_;
  std::vector<Segment> segments_;
  std::vector<std::int32_t> clean_;
};

}  // namespace fitact::quant
