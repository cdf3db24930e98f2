#include "nn/trainer.hpp"

#include <cassert>
#include <cmath>
#include <cstdio>

namespace sfc::nn {
namespace {

// Optimizer hyper-parameters shared by every run; only the learning rate
// and its decay are per-run (TrainConfig).
constexpr double kMomentum = 0.9;
constexpr double kAdamBeta1 = 0.9;
constexpr double kAdamBeta2 = 0.999;
constexpr double kAdamEpsilon = 1e-8;
constexpr double kWeightDecay = 1e-4;

}  // namespace

Tensor to_tensor(const sfc::data::Image& img) {
  Tensor t({sfc::data::Image::kChannels, sfc::data::Image::kSize,
            sfc::data::Image::kSize});
  for (std::size_t i = 0; i < img.pixels.size(); ++i) t[i] = img.pixels[i];
  return t;
}

Trainer::Trainer(Sequential& model, TrainConfig cfg)
    : model_(model), cfg_(cfg), rng_(cfg.seed) {
  for (Tensor* p : model_.parameters()) {
    velocity_.emplace_back(p->size(), 0.0f);
    second_moment_.emplace_back(p->size(), 0.0f);
  }
}

void Trainer::adam_step(double lr) {
  ++adam_t_;
  const auto params = model_.parameters();
  const auto grads = model_.gradients();
  assert(params.size() == grads.size());
  const double b1 = kAdamBeta1;
  const double b2 = kAdamBeta2;
  const double correction1 = 1.0 - std::pow(b1, static_cast<double>(adam_t_));
  const double correction2 = 1.0 - std::pow(b2, static_cast<double>(adam_t_));
  for (std::size_t pi = 0; pi < params.size(); ++pi) {
    Tensor& p = *params[pi];
    Tensor& g = *grads[pi];
    std::vector<float>& m = velocity_[pi];
    std::vector<float>& v = second_moment_[pi];
    for (std::size_t i = 0; i < p.size(); ++i) {
      const double grad = static_cast<double>(g[i]) + kWeightDecay * p[i];
      m[i] = static_cast<float>(b1 * m[i] + (1.0 - b1) * grad);
      v[i] = static_cast<float>(b2 * v[i] + (1.0 - b2) * grad * grad);
      const double m_hat = m[i] / correction1;
      const double v_hat = v[i] / correction2;
      p[i] -= static_cast<float>(lr * m_hat /
                                 (std::sqrt(v_hat) + kAdamEpsilon));
    }
  }
}

void Trainer::sgd_step(double lr) {
  const auto params = model_.parameters();
  const auto grads = model_.gradients();
  assert(params.size() == grads.size());
  for (std::size_t pi = 0; pi < params.size(); ++pi) {
    Tensor& p = *params[pi];
    Tensor& g = *grads[pi];
    std::vector<float>& v = velocity_[pi];
    for (std::size_t i = 0; i < p.size(); ++i) {
      const float grad = g[i] + static_cast<float>(kWeightDecay) * p[i];
      v[i] = static_cast<float>(kMomentum) * v[i] -
             static_cast<float>(lr) * grad;
      p[i] += v[i];
    }
  }
}

std::vector<EpochStats> Trainer::fit(
    const sfc::data::Dataset& train,
    const std::function<void(const EpochStats&)>& on_epoch) {
  std::vector<EpochStats> history;
  double lr = cfg_.learning_rate;
  LayerContext ctx;
  ctx.training = true;
  ctx.rng = &rng_;

  for (int epoch = 0; epoch < cfg_.epochs; ++epoch) {
    const auto order = rng_.permutation(train.images.size());
    double loss_sum = 0.0;
    std::size_t correct = 0;
    std::size_t in_batch = 0;

    model_.zero_gradients();
    for (std::size_t oi = 0; oi < order.size(); ++oi) {
      const auto& img = train.images[order[oi]];
      const Tensor x = to_tensor(img);
      const Tensor logits = model_.forward(x, ctx);
      Tensor grad;
      loss_sum += softmax_cross_entropy(logits, img.label, &grad);
      if (argmax(logits) == img.label) ++correct;
      model_.backward(grad);
      ++in_batch;

      if (in_batch == static_cast<std::size_t>(cfg_.batch_size) ||
          oi + 1 == order.size()) {
        // Average the accumulated gradients over the batch.
        for (Tensor* g : model_.gradients()) {
          const float inv = 1.0f / static_cast<float>(in_batch);
          for (std::size_t i = 0; i < g->size(); ++i) (*g)[i] *= inv;
        }
        if (cfg_.optimizer == Optimizer::kAdam) {
          adam_step(lr);
        } else {
          sgd_step(lr);
        }
        model_.zero_gradients();
        in_batch = 0;
      }
    }

    EpochStats stats;
    stats.epoch = epoch;
    stats.mean_loss = loss_sum / static_cast<double>(train.images.size());
    stats.train_accuracy =
        static_cast<double>(correct) / static_cast<double>(train.images.size());
    history.push_back(stats);
    if (cfg_.verbose) {
      std::printf("epoch %2d  loss %.4f  train-acc %.3f\n", epoch,
                  stats.mean_loss, stats.train_accuracy);
      std::fflush(stdout);
    }
    if (on_epoch) on_epoch(stats);
    lr *= cfg_.lr_decay;
  }
  return history;
}

double Trainer::evaluate(Sequential& model, const sfc::data::Dataset& test) {
  LayerContext ctx;  // inference mode
  std::size_t correct = 0;
  for (const auto& img : test.images) {
    const Tensor logits = model.forward(to_tensor(img), ctx);
    if (argmax(logits) == img.label) ++correct;
  }
  return test.images.empty()
             ? 0.0
             : static_cast<double>(correct) /
                   static_cast<double>(test.images.size());
}

}  // namespace sfc::nn
