// Minimal dense float tensor (CHW / row-major) used by the NN substrate.
#pragma once

#include <cassert>
#include <cstddef>
#include <numeric>
#include <string>
#include <vector>

namespace sfc::nn {

class Tensor {
 public:
  Tensor() = default;
  explicit Tensor(std::vector<int> shape) : shape_(std::move(shape)) {
    data_.assign(count(shape_), 0.0f);
  }
  Tensor(std::vector<int> shape, std::vector<float> data)
      : shape_(std::move(shape)), data_(std::move(data)) {
    assert(data_.size() == count(shape_));
  }

  static Tensor zeros(std::vector<int> shape) { return Tensor(std::move(shape)); }

  static std::size_t count(const std::vector<int>& shape) {
    std::size_t n = 1;
    for (int d : shape) {
      assert(d > 0);
      n *= static_cast<std::size_t>(d);
    }
    return n;
  }

  /// "[4, 32, 32]", for shape errors.
  static std::string shape_text(const std::vector<int>& shape) {
    std::string s = "[";
    for (std::size_t i = 0; i < shape.size(); ++i) {
      if (i > 0) s += ", ";
      s += std::to_string(shape[i]);
    }
    return s + "]";
  }

  const std::vector<int>& shape() const { return shape_; }
  int dim(std::size_t i) const { return shape_.at(i); }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  float& operator[](std::size_t i) { return data_[i]; }
  float operator[](std::size_t i) const { return data_[i]; }

  /// 3-D access (channels, height, width).
  float& at(int c, int y, int x) {
    return data_[flat3(c, y, x)];
  }
  float at(int c, int y, int x) const {
    return data_[flat3(c, y, x)];
  }

  /// Reinterpret with a new shape of identical element count.
  Tensor reshaped(std::vector<int> new_shape) const {
    assert(count(new_shape) == size());
    return Tensor(std::move(new_shape), data_);
  }

  void fill(float v) {
    for (float& x : data_) x = v;
  }

 private:
  std::size_t flat3(int c, int y, int x) const {
    assert(shape_.size() == 3);
    assert(c >= 0 && c < shape_[0] && y >= 0 && y < shape_[1] && x >= 0 &&
           x < shape_[2]);
    return (static_cast<std::size_t>(c) * static_cast<std::size_t>(shape_[1]) +
            static_cast<std::size_t>(y)) *
               static_cast<std::size_t>(shape_[2]) +
           static_cast<std::size_t>(x);
  }

  std::vector<int> shape_;
  std::vector<float> data_;
};

}  // namespace sfc::nn
