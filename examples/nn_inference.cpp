// CNN-on-CiM walkthrough: train a small CNN on SynthCIFAR, quantize it to
// int8, and classify test images with every multiply-accumulate executed
// on the calibrated 2T-1FeFET array model - at a temperature of your
// choosing within the model's 0-85 degC calibration grid.
//
//   $ ./nn_inference [temperature_c]
#include <cstdio>
#include <optional>
#include <vector>

#include "nn/cim_engine.hpp"
#include "nn/trainer.hpp"
#include "nn/vgg.hpp"
#include "util/parse.hpp"

int main(int argc, char** argv) {
  using namespace sfc;

  // The fabric model does not extrapolate, so a temperature outside its
  // calibration grid is a usage error, caught before training.
  const std::vector<double> calibration_temps = {0.0, 27.0, 85.0};
  std::optional<double> temperature_arg = 27.0;
  if (argc > 1) temperature_arg = util::parse_double(argv[1]);
  if (!temperature_arg || *temperature_arg < calibration_temps.front() ||
      *temperature_arg > calibration_temps.back()) {
    std::fprintf(stderr, "usage: %s [temperature_c, 0..85]\n", argv[0]);
    return 1;
  }
  const double temperature = *temperature_arg;

  // Small dataset + network so the example runs in seconds.
  data::SynthCifarConfig dcfg;
  dcfg.train_per_class = 40;
  dcfg.test_per_class = 8;
  const auto train = data::make_synth_cifar_train(dcfg);
  const auto test = data::make_synth_cifar_test(dcfg);

  util::Rng rng(2024);
  nn::Sequential net;
  net.add<nn::Conv2d>(3, 8, 3, true, rng);
  net.add<nn::Relu>();
  net.add<nn::MaxPool2d>(2);
  net.add<nn::Conv2d>(8, 12, 3, true, rng);
  net.add<nn::Relu>();
  net.add<nn::MaxPool2d>(2);
  net.add<nn::MaxPool2d>(2);
  net.add<nn::Flatten>();
  net.add<nn::Dense>(12 * 4 * 4, 10, rng);

  std::printf("training a small CNN on SynthCIFAR...\n");
  nn::TrainConfig tcfg;
  tcfg.epochs = 8;
  tcfg.batch_size = 16;
  tcfg.learning_rate = 0.04;
  nn::Trainer trainer(net, tcfg);
  trainer.fit(train);
  std::printf("float32 test accuracy: %.1f%%\n\n",
              nn::Trainer::evaluate(net, test) * 100.0);

  const nn::QuantizedNetwork qnet =
      nn::QuantizedNetwork::from_model(net, train, 16);

  std::printf("calibrating the 2T-1FeFET array model (circuit level)...\n");
  const cim::BehavioralArrayModel fabric =
      cim::BehavioralArrayModel::calibrate(
          cim::ArrayConfig::proposed_2t1fefet(), calibration_temps);

  nn::CimDotEngine::Options opts;
  opts.temperature_c = temperature;
  nn::CimDotEngine engine(fabric, opts);

  std::printf("classifying on the CiM fabric at %.1f degC:\n", temperature);
  int correct = 0;
  const int show = 10;
  for (int i = 0; i < show; ++i) {
    const auto& img = test.images[static_cast<std::size_t>(i)];
    const int predicted = qnet.predict(img, engine);
    const bool ok = predicted == img.label;
    correct += ok ? 1 : 0;
    std::printf("  image %2d: true=%-9s predicted=%-9s %s\n", i,
                data::class_name(img.label), data::class_name(predicted),
                ok ? "" : "<- wrong");
  }
  const double acc = qnet.evaluate(test, engine);
  std::printf(
      "\nCiM accuracy on the full test split: %.1f%%\n"
      "row MACs executed: %lld, misdecoded rows: %lld\n",
      acc * 100.0, static_cast<long long>(engine.row_ops()),
      static_cast<long long>(engine.row_errors()));
  std::printf("%d of the %d shown classified correctly.\n", correct, show);
  return 0;
}
