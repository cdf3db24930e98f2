// Sec. IV-B reproduction: classification accuracy of the VGG network
// executed on the proposed 2T-1FeFET CiM fabric (paper: 89.45% on
// CIFAR-10 at 8-bit wordlength).
//
// Pipeline (mirrors the paper's methodology on our substrates):
//   1. train a width-scaled VGG (Table I topology) on SynthCIFAR,
//   2. post-training int8 quantization,
//   3. execute every MAC bit-serially on the calibrated behavioural model
//      of the 8-cell 2T-1FeFET row, across 0-85 degC, with and without
//      process-variation noise,
//   4. compare against the digital int8 reference and the subthreshold
//      1FeFET-1R baseline fabric.
//
// The trained weights are cached in the working directory, in a file
// named after the settings that produced them, so re-runs skip training.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>

#include "cim/energy.hpp"
#include "nn/cim_engine.hpp"
#include "nn/trainer.hpp"
#include "nn/vgg.hpp"
#include "util/hash.hpp"
#include "util/table.hpp"

using namespace sfc;

namespace {

/// bench_vgg_weights_<16 hex>.bin, the hex being the FNV-1a-64 of every
/// field that shapes training (all of VggConfig, TrainConfig except
/// `verbose`, and SynthCifarConfig), so changing any of them retrains
/// instead of loading stale weights.
std::string weights_path(const nn::VggConfig& v, const nn::TrainConfig& t,
                         const data::SynthCifarConfig& d) {
  std::string key = "vgg conv_channels";
  for (int c : v.conv_channels) key += " " + std::to_string(c);
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      " fc_hidden %d with_dropout %d init_seed %llu\n"
      "train epochs %d batch_size %d optimizer %d learning_rate %.17g "
      "lr_decay %.17g seed %llu\n"
      "synth_cifar train_per_class %d test_per_class %d seed %llu "
      "noise_sigma %.17g color_jitter %.17g\n",
      v.fc_hidden, v.with_dropout ? 1 : 0,
      static_cast<unsigned long long>(v.init_seed), t.epochs, t.batch_size,
      static_cast<int>(t.optimizer), t.learning_rate, t.lr_decay,
      static_cast<unsigned long long>(t.seed), d.train_per_class,
      d.test_per_class, static_cast<unsigned long long>(d.seed),
      d.noise_sigma, d.color_jitter);
  key += buf;
  std::snprintf(buf, sizeof(buf), "bench_vgg_weights_%016llx.bin",
                static_cast<unsigned long long>(
                    util::fnv1a(util::kFnv1aOffset, key.data(), key.size())));
  return buf;
}

data::SynthCifarConfig dataset_config() {
  data::SynthCifarConfig cfg;
  cfg.train_per_class = 100;
  cfg.test_per_class = 40;
  cfg.noise_sigma = 0.2;
  cfg.color_jitter = 0.2;
  return cfg;
}

}  // namespace

int main() {
  std::printf("== Sec. IV-B: VGG accuracy on the 2T-1FeFET CiM fabric ==\n\n");

  const auto dcfg = dataset_config();
  const data::Dataset train = data::make_synth_cifar_train(dcfg);
  const data::Dataset test = data::make_synth_cifar_test(dcfg);
  std::printf("SynthCIFAR: %zu train / %zu test images (CIFAR-10 stand-in, "
              "see DESIGN.md)\n", train.size(), test.size());

  // --- 1. train (or load) the width-scaled VGG ---------------------------
  // Dropout is disabled for the width-scaled net: the paper's 0.3-0.5
  // schedule is sized for the 35M-parameter original; at 1/8 width it
  // starves training (see EXPERIMENTS.md).
  nn::VggConfig vcfg = nn::VggConfig::reduced(0.125);
  vcfg.with_dropout = false;
  nn::TrainConfig tcfg;
  tcfg.epochs = 8;
  tcfg.batch_size = 16;
  tcfg.optimizer = nn::Optimizer::kAdam;
  tcfg.learning_rate = 1e-3;
  tcfg.lr_decay = 0.9;
  tcfg.verbose = true;
  const std::string weights = weights_path(vcfg, tcfg, dcfg);
  nn::Sequential net = nn::build_vgg(vcfg);
  bool loaded = false;
  {
    std::ifstream probe(weights);
    if (probe) {
      try {
        net.load_weights(weights);
        loaded = true;
        std::printf("loaded cached weights from %s\n", weights.c_str());
      } catch (const std::exception&) {
        loaded = false;
      }
    }
  }
  if (!loaded) {
    std::printf("training VGG(1/8 width) with Adam for %d epochs...\n",
                tcfg.epochs);
    nn::Trainer trainer(net, tcfg);
    trainer.fit(train);
    net.save_weights(weights);
  }
  const double float_acc = nn::Trainer::evaluate(net, test);

  // --- 2. quantize --------------------------------------------------------
  const nn::QuantizedNetwork qnet =
      nn::QuantizedNetwork::from_model(net, train, 24);
  nn::IdealDotEngine ideal;
  const int eval_images = 150;
  const double int8_acc = qnet.evaluate(test, ideal, eval_images);

  // --- 3. calibrate the fabrics -------------------------------------------
  const std::vector<double> temps = {0.0, 27.0, 55.0, 85.0};
  cim::MonteCarloConfig variation;
  variation.runs = 40;
  variation.sigma_vt_fefet = 0.054;
  variation.exec.threads = 0;  // bit-identical at any thread count
  const cim::BehavioralArrayModel proposed =
      cim::BehavioralArrayModel::calibrate(
          cim::ArrayConfig::proposed_2t1fefet(), temps, &variation);
  const cim::BehavioralArrayModel baseline =
      cim::BehavioralArrayModel::calibrate(
          cim::ArrayConfig::baseline_1r_subthreshold(), temps);

  // --- 4. evaluate across temperature -------------------------------------
  util::Table table({"fabric", "T [degC]", "noise", "accuracy",
                     "row error rate"});
  table.add_row({"float32 (software)", "-", "-",
                 util::fmt_percent(float_acc).substr(1), "-"});
  table.add_row({"int8 digital", "-", "-",
                 util::fmt_percent(int8_acc).substr(1), "-"});

  const auto error_rate = [](const nn::CimDotEngine& engine) {
    return engine.row_ops() > 0 ? static_cast<double>(engine.row_errors()) /
                                      static_cast<double>(engine.row_ops())
                                : 0.0;
  };
  double proposed_room_acc = 0.0;
  double worst_noiseless_rate = 0.0;
  for (double t : temps) {
    nn::CimDotEngine::Options opts;
    opts.temperature_c = t;
    nn::CimDotEngine engine(proposed, opts);
    const double acc = qnet.evaluate(test, engine, eval_images);
    if (t == 27.0) proposed_room_acc = acc;
    const double err_rate = error_rate(engine);
    worst_noiseless_rate = std::max(worst_noiseless_rate, err_rate);
    table.add_row({"2T-1FeFET (proposed)", util::fmt(t, 3), "no",
                   util::fmt_percent(acc).substr(1),
                   util::fmt(err_rate * 100.0, 3) + "%"});
  }
  {
    // Monte Carlo noise at room temperature (the paper's accuracy is a MC
    // average).
    nn::CimDotEngine::Options opts;
    opts.temperature_c = 27.0;
    opts.with_variation_noise = true;
    // Rows fan out over the cores; the per-row noise streams keep the
    // result bit-identical to a serial pass. The noiseless passes stay
    // serial: handing each dot_batch to the workers costs more than their
    // rows.
    opts.exec.threads = 0;
    nn::CimDotEngine engine(proposed, opts);
    // A noiseless row on this fabric is one integer dot, while a noisy
    // one draws per 8-cell group, so on a 4-vCPU host this pass is ~50x
    // slower per image than a noiseless one (0.37 s against 0.007 s); a
    // smaller split suffices.
    const double acc = qnet.evaluate(test, engine, 60);
    table.add_row({"2T-1FeFET (proposed)", "27", "sigma=54mV",
                   util::fmt_percent(acc).substr(1),
                   util::fmt(error_rate(engine) * 100.0, 3) + "%"});
  }
  for (double t : {0.0, 85.0}) {
    nn::CimDotEngine::Options opts;
    opts.temperature_c = t;
    nn::CimDotEngine engine(baseline, opts);
    const double acc = qnet.evaluate(test, engine, /*max_images=*/60);
    table.add_row({"1FeFET-1R subthr. (baseline)", util::fmt(t, 3), "no",
                   util::fmt_percent(acc).substr(1),
                   util::fmt(error_rate(engine) * 100.0, 3) + "%"});
  }
  std::printf("\n%s\n", table.render().c_str());

  // --- energy per inference ----------------------------------------------
  const cim::EnergySummary energy =
      cim::measure_energy(cim::ArrayConfig::proposed_2t1fefet(), 27.0);
  nn::CimDotEngine::Options opts;
  nn::CimDotEngine counter(proposed, opts);
  qnet.forward(test.images[0], counter);
  // Each row op is one 8-cell MAC = 9 paper-ops.
  const double e_inference = static_cast<double>(counter.row_ops()) * 9.0 *
                             energy.mean_energy_per_op;
  std::printf(
      "energy: %.3f fJ/op -> %.2f nJ per inference over %lld row MACs\n"
      "        (paper: 3.14 fJ/op, 85.08 nJ/inference on full-width VGG)\n\n",
      energy.mean_energy_per_op * 1e15, e_inference * 1e9,
      static_cast<long long>(counter.row_ops()));

  std::printf(
      "paper vs measured:\n"
      "  accuracy on proposed fabric (27C): %.2f%%  (paper 89.45%% on "
      "CIFAR-10; different dataset, so compare the *drop* vs software)\n"
      "  accuracy drop vs int8 digital: %+.2f pts  (paper: lossless at "
      "room temperature)\n"
      "  temperature-stable 0-85 degC: largest noiseless row error rate "
      "%.3f%%\n",
      proposed_room_acc * 100.0, (proposed_room_acc - int8_acc) * 100.0,
      worst_noiseless_rate * 100.0);
  return 0;
}
