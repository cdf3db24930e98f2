// SGD-with-momentum trainer over the SynthCIFAR dataset.
#pragma once

#include <functional>

#include "data/synth_cifar.hpp"
#include "nn/model.hpp"

namespace sfc::nn {

enum class Optimizer {
  kSgdMomentum,
  kAdam,  ///< needed to train the deep (7-conv) plain VGG stack
};

struct TrainConfig {
  int epochs = 10;
  int batch_size = 16;
  Optimizer optimizer = Optimizer::kSgdMomentum;
  double learning_rate = 0.02;  ///< use ~1e-3 with Adam
  double lr_decay = 0.85;       ///< multiplicative per-epoch decay
  std::uint64_t seed = 1234;
  bool verbose = false;
};

struct EpochStats {
  int epoch = 0;
  double mean_loss = 0.0;
  double train_accuracy = 0.0;
};

/// Image -> input tensor (CHW float in [0,1]).
Tensor to_tensor(const sfc::data::Image& img);

class Trainer {
 public:
  Trainer(Sequential& model, TrainConfig cfg);

  /// Train over the dataset; invokes `on_epoch` (if set) after each epoch.
  std::vector<EpochStats> fit(
      const sfc::data::Dataset& train,
      const std::function<void(const EpochStats&)>& on_epoch = {});

  /// Classification accuracy on a dataset (inference mode).
  static double evaluate(Sequential& model, const sfc::data::Dataset& test);

 private:
  void sgd_step(double lr);
  void adam_step(double lr);

  Sequential& model_;
  TrainConfig cfg_;
  sfc::util::Rng rng_;
  std::vector<std::vector<float>> velocity_;  ///< SGD momentum / Adam m
  std::vector<std::vector<float>> second_moment_;  ///< Adam v
  long adam_t_ = 0;
};

}  // namespace sfc::nn
