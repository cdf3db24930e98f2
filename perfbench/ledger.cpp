// Performance ledger of the subthreshold-FeFET CiM reproduction: one
// binary, three offline-batch workloads, public library APIs only.
//
//   mc_fig9    run_montecarlo on the proposed 2T-1FeFET row: 100 runs x
//              MAC 0..8, sigma_VT = 54 mV, 27 degC, fanned out over T threads
//   vgg_clean  noiseless int8 inference of the 1/8-width VGG, each forward
//              serial: the proposed fabric at 0/27/55/85 degC and the
//              1FeFET-1R baseline at 85 degC, the batch images side by side
//              over T threads, on engines reused across iterations and
//              warmed up before timing
//   vgg_noisy  the same network at 27 degC with sigma_VT noise, its rows
//              fanned out over T threads, one fresh engine per image
//
// Every workload first stands up the same system (the set-up): synthesize
// SynthCIFAR images, build and quantize the VGG from its init seed,
// calibrate both fabrics (the proposed one with a 40-run Monte Carlo), take
// the ideal-engine logits, and check one image on the proposed fabric
// against them. The workload seed picks one of kCorpus pinned input sets
// (dataset, weight-init, MC and noise seeds); perfbench/reference.json pins
// each set's outputs and deterministic counters. T = min(4, nproc).
//
// Usage:
//   perfbench_ledger --workload W --seed N --seconds S --trace 0|1
//                    --reference FILE [--revision TEXT]
//   perfbench_ledger --write-reference FILE
//   perfbench_ledger --selftest
// The last stdout line of a workload run is the result JSON; exit status 1
// means a correctness gate failed, 2 a usage error.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cim/montecarlo.hpp"
#include "data/synth_cifar.hpp"
#include "exec/parallel.hpp"
#include "exec/stream.hpp"
#include "layers.hpp"
#include "nn/cim_engine.hpp"
#include "nn/model.hpp"
#include "nn/vgg.hpp"
#include "trace/trace.hpp"
#include "util/stats.hpp"

namespace {

using namespace sfc;
using perfbench::Clock;
using perfbench::ms_since;
using verify::Json;

const std::vector<std::string> kWorkloads = {"mc_fig9", "vgg_clean",
                                             "vgg_noisy"};
constexpr std::uint64_t kCorpus = 16;
constexpr int kSetupRepeats = 3;
const std::vector<double> kTemps = {0.0, 27.0, 55.0, 85.0};
constexpr double kRoomC = 27.0;
constexpr double kHotC = 85.0;
constexpr double kSigmaVt = 0.054;

/// T: the Monte Carlo fan-out width.
int default_threads() {
  const int nproc = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  return std::min(4, nproc);
}

double median(const std::vector<double>& values) {
  return util::percentile(values, 50.0);
}

/// Share of the VM's CPU time stolen by the hypervisor since construction,
/// from /proc/stat; 0 where it cannot be read. Steal accrues only while a
/// vCPU has work and waits for a physical core, so wall x (1 - share) is
/// the wall time the work takes on CPUs of its own. On a shared host the
/// share swings by tens of percent between runs, and most with T busy
/// threads.
class StealMeter {
 public:
  StealMeter() : start_(read()) {}

  double share() const {
    const Sample now = read();
    const double busy = now.busy - start_.busy;
    const double steal = now.steal - start_.steal;
    return busy > 0.0 && steal > 0.0 ? steal / (busy + steal) : 0.0;
  }

 private:
  struct Sample {
    double busy = 0.0;
    double steal = 0.0;
  };

  static Sample read() {
    std::ifstream f("/proc/stat");
    std::string label;
    // user nice system idle iowait irq softirq steal, in clock ticks
    double t[8] = {};
    f >> label;
    for (double& v : t) f >> v;
    if (!f || label != "cpu") return {};
    return {t[0] + t[1] + t[2] + t[5] + t[6], t[7]};
  }

  Sample start_;
};

/// Problem size; the self-test shrinks it.
struct Size {
  double vgg_width = 0.125;
  int mc_runs = 100;
  int calibration_runs = 40;
  int batch = 4;  ///< VGG images, cycled by successive iterations
};

struct Inputs {
  std::uint64_t index = 0;  ///< seed % kCorpus: the pinned input set
  std::uint64_t data = 0, init = 0, mc = 0, noise = 0;
};

Inputs inputs_for(std::uint64_t seed) {
  Inputs in;
  in.index = seed % kCorpus;
  in.data = exec::stream_seed(in.index, 1);
  in.init = exec::stream_seed(in.index, 2);
  in.mc = exec::stream_seed(in.index, 3);
  in.noise = exec::stream_seed(in.index, 4);
  return in;
}

/// Host time of QuantizedNetwork::forward, split by TimedDotEngine.
struct NnTimes {
  double forward_ms = 0.0;
  double dot_batch_ms = 0.0;
  double begin_layer_ms = 0.0;

  void add(const NnTimes& o) {
    forward_ms += o.forward_ms;
    dot_batch_ms += o.dot_batch_ms;
    begin_layer_ms += o.begin_layer_ms;
  }
};

std::vector<float> values_of(const nn::Tensor& t) {
  return {t.data(), t.data() + t.size()};
}

std::vector<float> timed_forward(const nn::QuantizedNetwork& qnet,
                                 const data::Image& img, nn::DotEngine& engine,
                                 NnTimes* times) {
  perfbench::TimedDotEngine timed(engine);
  const auto t0 = Clock::now();
  const nn::Tensor out = qnet.forward(img, timed);
  times->forward_ms += ms_since(t0);
  times->dot_batch_ms += timed.dot_batch_ms();
  times->begin_layer_ms += timed.begin_layer_ms();
  return values_of(out);
}

bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

int top1(const std::vector<float>& logits) {
  return static_cast<int>(std::max_element(logits.begin(), logits.end()) -
                          logits.begin());
}

std::string hash_logits(const std::vector<float>& logits) {
  perfbench::Hash h;
  h.bytes(logits.data(), logits.size() * sizeof(float));
  return h.hex();
}

nn::CimDotEngine::Options engine_options(double temperature_c, int threads) {
  nn::CimDotEngine::Options opts;
  opts.temperature_c = temperature_c;
  opts.exec.threads = threads;
  return opts;
}

struct System {
  data::Dataset calibration;
  data::Dataset eval;
  nn::QuantizedNetwork qnet;
  cim::BehavioralArrayModel proposed;
  cim::BehavioralArrayModel baseline;
  std::vector<std::vector<float>> ideal;  ///< ideal logits per batch image
  /// vgg_clean's engines, one set per batch image, reused across iterations
  /// as in steady-state inference: the proposed fabric at each of kTemps,
  /// then the baseline at 85 degC. They hold references to the models above.
  std::vector<std::vector<std::unique_ptr<nn::CimDotEngine>>> clean;
};

struct SetupTimes {
  double total_ms = 0.0;
  double steal_share = 0.0;  ///< StealMeter over total_ms
  double synth_ms = 0.0;
  double quantize_ms = 0.0;
  double calibrate_ms = 0.0;
};

std::unique_ptr<System> stand_up(const Inputs& in, const Size& size,
                                 int threads, SetupTimes* times,
                                 std::vector<std::string>* failures) {
  const auto start = Clock::now();
  auto owner = std::make_unique<System>();
  System& sys = *owner;

  auto t0 = Clock::now();
  data::SynthCifarConfig dcfg;
  dcfg.train_per_class = 3;
  dcfg.test_per_class = 1;
  dcfg.seed = in.data;
  dcfg.noise_sigma = 0.2;
  dcfg.color_jitter = 0.2;
  sys.calibration = data::make_synth_cifar_train(dcfg);
  sys.eval = data::make_synth_cifar_test(dcfg);
  times->synth_ms = ms_since(t0);

  // Built from its init seed and quantized, not trained: inference host
  // cost does not depend on the trained values.
  t0 = Clock::now();
  nn::VggConfig vcfg = nn::VggConfig::reduced(size.vgg_width);
  vcfg.with_dropout = false;
  vcfg.init_seed = in.init;
  nn::Sequential net = nn::build_vgg(vcfg);
  sys.qnet = nn::QuantizedNetwork::from_model(net, sys.calibration, 24);
  times->quantize_ms = ms_since(t0);

  t0 = Clock::now();
  cim::MonteCarloConfig variation;
  variation.runs = size.calibration_runs;
  variation.sigma_vt_fefet = kSigmaVt;
  variation.exec.threads = threads;
  sys.proposed = cim::BehavioralArrayModel::calibrate(
      cim::ArrayConfig::proposed_2t1fefet(), kTemps, &variation);
  sys.baseline = cim::BehavioralArrayModel::calibrate(
      cim::ArrayConfig::baseline_1r_subthreshold(), kTemps);
  times->calibrate_ms = ms_since(t0);

  nn::IdealDotEngine ideal;
  for (int i = 0; i < size.batch; ++i) {
    sys.ideal.push_back(values_of(
        sys.qnet.forward(sys.eval.images[static_cast<std::size_t>(i)], ideal)));
  }
  nn::CimDotEngine smoke(sys.proposed, engine_options(kRoomC, 1));
  if (!same_bits(values_of(sys.qnet.forward(sys.eval.images[0], smoke)),
                 sys.ideal[0])) {
    failures->push_back(
        "set-up: proposed fabric at 27 degC differs from the ideal engine");
  }
  sys.clean.resize(static_cast<std::size_t>(size.batch));
  for (auto& engines : sys.clean) {
    for (double t : kTemps) {
      engines.push_back(std::make_unique<nn::CimDotEngine>(
          sys.proposed, engine_options(t, 1)));
    }
    engines.push_back(std::make_unique<nn::CimDotEngine>(
        sys.baseline, engine_options(kHotC, 1)));
  }
  times->total_ms = ms_since(start);
  return owner;
}

/// One workload iteration: a fixed amount of work whose outputs and
/// counters repeat exactly.
struct Iteration {
  double wall_ms = 0.0;
  double steal_share = 0.0;     ///< StealMeter over wall_ms
  std::vector<double> item_ms;  ///< per MC run or per forward; Runner scales
                                ///< them by 1 - steal_share
  long attempted = 0;           ///< MAC cycles (mc_fig9) or forwards
  long failed = 0;
  long row_ops = 0;
  long row_errors = 0;
  long forwards = 0;
  long top1_agree = 0;
  double mc_max_error_pct = 0.0;
  double mc_efficiency = 0.0;  ///< mc_fig9: task time / (wall x threads)
  NnTimes nn;
  Json pins;  ///< outputs pinned in the reference file

  /// Folds in the items of a part run on another thread.
  void add_items(const Iteration& part) {
    item_ms.insert(item_ms.end(), part.item_ms.begin(), part.item_ms.end());
    attempted += part.attempted;
    failed += part.failed;
    row_ops += part.row_ops;
    row_errors += part.row_errors;
    forwards += part.forwards;
    top1_agree += part.top1_agree;
    nn.add(part.nn);
  }
};

Iteration run_mc(const Inputs& in, const Size& size, int threads,
                 std::vector<std::string>* failures) {
  cim::MonteCarloConfig mc;
  mc.runs = size.mc_runs;
  mc.sigma_vt_fefet = kSigmaVt;
  mc.temperature_c = kRoomC;
  mc.seed = in.mc;
  mc.exec.threads = threads;
  Iteration it;
  const auto t0 = Clock::now();
  const cim::MonteCarloResult r =
      cim::run_montecarlo(cim::ArrayConfig::proposed_2t1fefet(), mc);
  it.wall_ms = ms_since(t0);
  it.item_ms = r.job.task_ms;
  it.mc_efficiency = r.job.speedup() / r.job.threads_used;
  it.attempted = static_cast<long>(mc.runs) *
                 static_cast<long>(r.nominal_levels.size());
  it.failed = it.attempted - static_cast<long>(r.samples.size());
  if (!r.all_converged) failures->push_back("mc_fig9: a MAC cycle failed to converge");
  perfbench::Hash h;
  for (double v : r.nominal_levels) h.value(v);
  for (const auto& s : r.samples) {
    h.value(s.run);
    h.value(s.mac);
    h.value(s.v_acc);
    h.value(s.error_percent);
  }
  it.mc_max_error_pct = r.max_error_percent;
  it.pins = Json::object();
  it.pins.set("samples_hash", Json(h.hex()));
  it.pins.set("max_error_pct", Json(r.max_error_percent));
  return it;
}

/// Forward image `pos`; tallies items and simulated stats.
std::vector<float> forward_item(const System& sys, int pos,
                                nn::CimDotEngine& engine, Iteration* it,
                                long* row_errors) {
  engine.reset_counters();
  const auto t0 = Clock::now();
  std::vector<float> logits = timed_forward(
      sys.qnet, sys.eval.images[static_cast<std::size_t>(pos)], engine, &it->nn);
  it->item_ms.push_back(ms_since(t0));
  ++it->attempted;
  ++it->forwards;
  it->row_ops += engine.row_ops();
  it->row_errors += engine.row_errors();
  *row_errors = engine.row_errors();
  if (top1(logits) == top1(sys.ideal[static_cast<std::size_t>(pos)])) {
    ++it->top1_agree;
  }
  return logits;
}

/// Every batch image, one task per image over `threads`; each forward is
/// serial on the image's own engines. Images run side by side because a
/// single thread follows the load on its one core of a shared host: ten
/// one-image-at-a-time runs spread by 0.22 (interquartile range / median).
Iteration run_vgg_clean(const System& sys, int threads,
                        std::vector<std::string>* failures) {
  const std::size_t n = sys.clean.size();
  std::vector<Iteration> parts(n);
  std::vector<std::vector<std::string>> part_failures(n);
  std::vector<std::vector<float>> baseline(n);
  std::vector<long> baseline_errors(n, 0);
  exec::ExecPolicy policy;
  policy.threads = threads;
  const auto t0 = Clock::now();
  exec::parallel_for(policy, n, [&](std::size_t i) {
    const int pos = static_cast<int>(i);
    long errors = 0;
    for (std::size_t e = 0; e < kTemps.size(); ++e) {
      const auto logits = forward_item(sys, pos, *sys.clean[i][e], &parts[i], &errors);
      if (!same_bits(logits, sys.ideal[i])) {
        ++parts[i].failed;
        part_failures[i].push_back(
            "vgg_clean: image " + std::to_string(i) + " on the proposed fabric at " +
            std::to_string(static_cast<int>(kTemps[e])) +
            " degC differs from the ideal engine");
      }
    }
    baseline[i] = forward_item(sys, pos, *sys.clean[i].back(), &parts[i],
                               &baseline_errors[i]);
  });
  Iteration it;
  it.wall_ms = ms_since(t0);
  Json errors = Json::array();
  Json hashes = Json::array();
  for (std::size_t i = 0; i < n; ++i) {
    it.add_items(parts[i]);
    failures->insert(failures->end(), part_failures[i].begin(), part_failures[i].end());
    errors.as_array().push_back(Json(static_cast<double>(baseline_errors[i])));
    hashes.as_array().push_back(Json(hash_logits(baseline[i])));
  }
  it.pins = Json::object();
  it.pins.set("baseline_row_errors", std::move(errors));
  it.pins.set("baseline_logits_hash", std::move(hashes));
  return it;
}

Iteration run_vgg_noisy(const System& sys, const Inputs& in, int pos,
                        int threads) {
  Iteration it;
  nn::CimDotEngine::Options opts = engine_options(kRoomC, threads);
  opts.with_variation_noise = true;
  opts.noise_seed = exec::stream_seed(in.noise, static_cast<std::uint64_t>(pos));
  // A fresh engine per image restarts its noise streams, so each image's
  // outputs repeat exactly whatever ran before it.
  const auto t0 = Clock::now();
  nn::CimDotEngine engine(sys.proposed, opts);
  long errors = 0;
  const auto logits = forward_item(sys, pos, engine, &it, &errors);
  it.wall_ms = ms_since(t0);
  it.pins = Json::object();
  it.pins.set("prediction", Json(top1(logits)));
  it.pins.set("row_errors", Json(static_cast<double>(errors)));
  it.pins.set("logits_hash", Json(hash_logits(logits)));
  return it;
}

/// Distinct iterations of a workload: vgg_noisy cycles over the batch
/// images, the others cover their whole input in every iteration.
int positions(const std::string& workload, const Size& size) {
  return workload == "vgg_noisy" ? size.batch : 1;
}

Iteration run_iteration(const std::string& workload, const System& sys,
                        const Inputs& in, const Size& size, int pos,
                        int threads, std::vector<std::string>* failures) {
  if (workload == "mc_fig9") return run_mc(in, size, threads, failures);
  if (workload == "vgg_clean") return run_vgg_clean(sys, threads, failures);
  return run_vgg_noisy(sys, in, pos, threads);
}

/// Deterministic counters of a probe window, zero entries dropped so the
/// ledger does not depend on which metrics earlier work registered.
Json ledger_of(const trace::TestProbe& probe) {
  const Json delta = probe.delta_snapshot();
  Json counters = Json::object();
  for (const auto& [name, value] : delta.get("counters").as_object()) {
    if (value.as_number() != 0.0) counters.set(name, value);
  }
  Json hists = Json::object();
  for (const auto& [name, counts] : delta.get("histograms").as_object()) {
    for (const auto& c : counts.as_array()) {
      if (c.as_number() != 0.0) {
        hists.set(name, counts);
        break;
      }
    }
  }
  Json out = Json::object();
  out.set("counters", std::move(counters));
  out.set("histograms", std::move(hists));
  return out;
}

double count(const Json& ledger, const std::string& name) {
  const Json& c = ledger.get("counters");
  return c.has(name) ? c.number_at(name) : 0.0;
}

/// Records a failure unless `got` equals `want`; returns whether it does.
bool check_equal(const Json& got, const Json& want, const std::string& what,
                 std::vector<std::string>* failures) {
  if (got.dump(0) == want.dump(0)) return true;
  failures->push_back(what + " differs from the reference:\n  got  " +
                      got.dump(0) + "\n  want " + want.dump(0));
  return false;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

long peak_rss_kb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string reference;
  std::string revision = "unknown";
  std::string write_reference;
  bool selftest = false;
};

/// Everything a workload run accumulates over its iterations.
struct Tally {
  long attempted = 0, failed = 0, row_ops = 0, row_errors = 0;
  long forwards = 0, top1_agree = 0;
  double mc_max_error_pct = 0.0;
  std::vector<double> item_ms;
  std::vector<double> iteration_ms;
  std::vector<double> steal_share;
  std::vector<double> items_per_s;  ///< per iteration, steal excluded

  void add(const Iteration& it) {
    attempted += it.attempted;
    failed += it.failed;
    row_ops += it.row_ops;
    row_errors += it.row_errors;
    forwards += it.forwards;
    top1_agree += it.top1_agree;
    mc_max_error_pct = std::max(mc_max_error_pct, it.mc_max_error_pct);
    item_ms.insert(item_ms.end(), it.item_ms.begin(), it.item_ms.end());
    iteration_ms.push_back(it.wall_ms);
    steal_share.push_back(it.steal_share);
    items_per_s.push_back(static_cast<double>(it.item_ms.size()) /
                          (it.wall_ms * (1.0 - it.steal_share) / 1000.0));
  }
};

/// Runs iterations against the reference: each one's counters and pinned
/// outputs must equal the reference entry for its batch position.
class Runner {
 public:
  Runner(const Options& opt, const Json& reference, const Size& size)
      : opt_(opt), size_(size), in_(inputs_for(opt.seed)),
        setup_ref_(reference.get("setup")),
        ref_(reference.get(opt.workload).get(std::to_string(in_.index))) {}

  void set_up(SetupTimes* times) {
    sys_.reset();
    const std::size_t before = failures_.size();
    trace::TestProbe probe;
    const StealMeter steal;
    sys_ = stand_up(in_, size_, default_threads(), times, &failures_);
    times->steal_share = steal.share();
    check_equal(ledger_of(probe), setup_ref_, "set-up counter ledger",
                &failures_);
    setup_ok_ = setup_ok_ && failures_.size() == before;
  }

  /// Packs vgg_clean's weight bit-planes before anything is timed.
  void warm_up() {
    if (opt_.workload == "vgg_clean") {
      run_vgg_clean(*sys_, default_threads(), &failures_);
    }
  }

  Iteration iterate() {
    const int pos = next_++ % positions(opt_.workload, size_);
    trace::TestProbe probe;
    const StealMeter steal;
    Iteration it = run_iteration(opt_.workload, *sys_, in_, size_, pos,
                                 default_threads(), &failures_);
    it.steal_share = steal.share();
    for (double& ms : it.item_ms) ms *= 1.0 - it.steal_share;
    last_ledger_ = ledger_of(probe);
    const bool ledger_ok = check_equal(last_ledger_, ref_.get("ledger"),
                                       opt_.workload + " counter ledger", &failures_);
    const bool pins_ok =
        check_equal(it.pins, ref_.get("pins").as_array()[static_cast<std::size_t>(pos)],
                    opt_.workload + " outputs", &failures_);
    // After a failed set-up or a mismatch no item of the iteration counts.
    if (!setup_ok_ || !ledger_ok || !pins_ok) it.failed = it.attempted;
    tally_.add(it);
    return it;
  }

  /// Counter ledger of the last iteration.
  const Json& ledger() const { return last_ledger_; }
  const Tally& tally() const { return tally_; }
  const std::vector<std::string>& failures() const { return failures_; }
  const Inputs& inputs() const { return in_; }
  const System& system() const { return *sys_; }

 private:
  const Options& opt_;
  Size size_;
  Inputs in_;
  const Json& setup_ref_;
  const Json& ref_;
  int next_ = 0;
  bool setup_ok_ = true;
  std::unique_ptr<System> sys_;
  Json last_ledger_;
  Tally tally_;
  std::vector<std::string> failures_;
};

std::vector<Metric> end_to_end(Runner& runner, double seconds) {
  std::vector<double> setup_ms;
  for (int r = 0; r < kSetupRepeats; ++r) {
    SetupTimes st;
    runner.set_up(&st);
    setup_ms.push_back(st.total_ms * (1.0 - st.steal_share));
  }
  runner.warm_up();
  const auto deadline =
      Clock::now() + std::chrono::duration<double>(seconds);
  do {
    runner.iterate();
  } while (Clock::now() < deadline);
  // Medians throughout: the host's speed drifts by ±10 % within a run.
  const Tally& t = runner.tally();
  return {
      {"items_per_s", median(t.items_per_s), "1/s"},
      {"item_ms_p50", median(t.item_ms), "ms"},
      {"setup_s", median(setup_ms) / 1000.0, "s"},
      {"peak_rss_mb", static_cast<double>(peak_rss_kb()) / 1024.0, "MB"},
  };
}

std::vector<Metric> per_layer(Runner& runner, double seconds) {
  const std::vector<std::string> counters = {
      "spice.tran.steps_accepted", "spice.tran.steps_rejected",
      "spice.newton.iterations",   "spice.newton.failures",
      "spice.lu.factorizations",   "spice.lu.frozen_solves",
      "spice.lu.refreezes",        "spice.stampplan.compiles",
      "cim.dot.batches",           "cim.dot.rows",
      "cim.dot.row_ops"};
  // Set-up layers are timed by the set-up's own timers, untraced.
  std::vector<double> synth_ms, quantize_ms, calibrate_ms;
  for (int r = 0; r < kSetupRepeats; ++r) {
    SetupTimes st;
    runner.set_up(&st);
    synth_ms.push_back(st.synth_ms);
    quantize_ms.push_back(st.quantize_ms);
    calibrate_ms.push_back(st.calibrate_ms);
  }
  runner.warm_up();

  std::vector<std::vector<Metric>> passes;
  const auto deadline =
      Clock::now() + std::chrono::duration<double>(seconds);
  do {
    // A pass is one iteration under Tracer, then one untraced iteration
    // that prices the tracing. Its figures are the traced iteration's only.
    trace::Tracer::global().start();
    const Iteration traced = runner.iterate();
    trace::Tracer::global().stop();
    const auto spans =
        perfbench::summarize_spans(trace::Tracer::global().chrome_json());
    const Json ledger = runner.ledger();
    const Iteration plain = runner.iterate();

    const auto& transient = spans["spice.transient"];
    const auto& newton = spans["spice.newton_solve"];
    const double mac_cycles = static_cast<double>(transient.count);
    const double steps = count(ledger, "spice.tran.steps_accepted");
    const double newton_iters = count(ledger, "spice.newton.iterations");
    const NnTimes& nn = traced.nn;

    std::vector<Metric> m;
    for (const auto& name : counters) m.push_back({name, count(ledger, name), "count"});
    m.push_back({"cim.mac_cycles", mac_cycles, "count"});
    m.push_back({"spice.steps_per_mac_cycle", ratio(steps, mac_cycles), "ratio"});
    m.push_back({"spice.newton_iters_per_step",
                 ratio(newton_iters, steps + count(ledger, "spice.tran.steps_rejected")),
                 "ratio"});
    m.push_back({"spice.refreeze_ratio",
                 ratio(count(ledger, "spice.lu.refreezes"),
                       count(ledger, "spice.lu.frozen_solves")),
                 "ratio"});
    m.push_back({"spice.us_per_newton_iteration", ratio(newton.total_us, newton_iters), "us"});
    m.push_back({"spice.newton_solve_self_ms", newton.self_us / 1000.0, "ms"});
    m.push_back({"spice.transient_self_ms", transient.self_us / 1000.0, "ms"});
    m.push_back({"cim.mac_cycle_ms_p50", median(transient.dur_us) / 1000.0, "ms"});
    m.push_back({"exec.mc_efficiency", traced.mc_efficiency, "ratio"});
    m.push_back({"exec.parallel_for_calls", count(ledger, "exec.jobs"), "count"});
    m.push_back({"exec.parallel_for_us_p50", median(spans["exec.parallel_for"].dur_us), "us"});
    m.push_back({"nn.forward_ms", nn.forward_ms, "ms"});
    m.push_back({"nn.dot_batch_ms", nn.dot_batch_ms, "ms"});
    m.push_back({"nn.forward_self_ms",
                 nn.forward_ms - nn.dot_batch_ms - nn.begin_layer_ms, "ms"});
    m.push_back({"nn.dot_batch_ns_per_row_op",
                 ratio(nn.dot_batch_ms * 1e6, count(ledger, "cim.dot.row_ops")), "ns"});
    m.push_back({"trace_overhead_pct",
                 (traced.wall_ms / plain.wall_ms - 1.0) * 100.0, "%"});
    passes.push_back(std::move(m));
  } while (Clock::now() < deadline);

  // Counts repeat exactly across passes (the ledger checks enforce it);
  // times are reported as the median over passes.
  std::vector<Metric> out = passes.front();
  for (std::size_t i = 0; i < out.size(); ++i) {
    std::vector<double> values;
    for (const auto& p : passes) values.push_back(p[i].value);
    out[i].value = median(values);
  }
  const System& sys = runner.system();
  out.push_back({"cim.calibrate_ms", median(calibrate_ms), "ms"});
  out.push_back({"nn.quantize_ms", median(quantize_ms), "ms"});
  out.push_back({"data.synth_ms", median(synth_ms), "ms"});
  out.push_back({"cim.behavioral.mac_ns",
                 perfbench::time_mac_ns(sys.proposed, kRoomC, true), "ns"});
  out.push_back({"cim.behavioral.mac_clean_ns",
                 perfbench::time_mac_ns(sys.proposed, kRoomC, false), "ns"});
  return out;
}

Json load_json(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("cannot open " + path);
  std::stringstream ss;
  ss << f.rdbuf();
  return Json::parse(ss.str());
}

int run_workload(const Options& opt) {
  const Json reference = load_json(opt.reference);
  Runner runner(opt, reference, Size{});
  const int nproc = static_cast<int>(std::thread::hardware_concurrency());
  std::printf(
      "provenance: workload=%s seed=%llu input_set=%llu build_type=%s "
      "SFC_TRACE=%d threads=%d nproc=%d revision=%s\n",
      opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
      static_cast<unsigned long long>(runner.inputs().index),
      PERFBENCH_BUILD_TYPE, PERFBENCH_SFC_TRACE, default_threads(), nproc,
      opt.revision.c_str());

  const std::vector<Metric> metrics = opt.trace
                                          ? per_layer(runner, opt.seconds)
                                          : end_to_end(runner, opt.seconds);
  const Tally& t = runner.tally();
  std::printf("simulated (exact per input set):");
  if (opt.workload == "mc_fig9") {
    std::printf(" mc_max_error_pct=%.17g %%", t.mc_max_error_pct);
  } else {
    std::printf(" row_error_rate=%.17g top1_agreement=%.17g",
                ratio(static_cast<double>(t.row_errors), static_cast<double>(t.row_ops)),
                ratio(static_cast<double>(t.top1_agree), static_cast<double>(t.forwards)));
  }
  std::printf(" failed_frac=%.17g\n",
              ratio(static_cast<double>(t.failed), static_cast<double>(t.attempted)));
  // The p90 is reported, not bounded: on a shared host it follows
  // neighbour load more than the code.
  std::printf("items: %zu, item_ms_p90 = %.17g ms; iterations: %zu, steal %% median %.2f, "
              "wall ms each:",
              t.item_ms.size(), util::percentile(t.item_ms, 90.0),
              t.iteration_ms.size(), 100.0 * median(t.steal_share));
  for (double ms : t.iteration_ms) std::printf(" %.1f", ms);
  std::printf("\n");
  for (const auto& m : metrics) {
    std::printf("%-32s %.17g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const auto& f : runner.failures()) std::fprintf(stderr, "GATE FAILED: %s\n", f.c_str());

  Json metric_json = Json::object();
  for (const auto& m : metrics) {
    Json v = Json::object();
    v.set("value", Json(m.value));
    v.set("unit", Json(m.unit));
    metric_json.set(m.name, std::move(v));
  }
  const bool correct = runner.failures().empty();
  Json result = Json::object();
  result.set("correct", Json(correct));
  result.set("attempted", Json(static_cast<double>(t.attempted)));
  result.set("failed", Json(static_cast<double>(t.failed)));
  result.set("metrics", std::move(metric_json));
  std::printf("%s\n", result.dump(0).c_str());
  return correct ? 0 : 1;
}

/// Pins of every workload at `threads` for one input set: counter ledgers
/// and outputs of each batch position.
Json pin_input_set(std::uint64_t index, const Size& size, int threads,
                   Json* setup_ledger, std::vector<std::string>* failures) {
  const Inputs in = inputs_for(index);
  SetupTimes st;
  trace::TestProbe probe;
  const auto owner = stand_up(in, size, threads, &st, failures);
  const System& sys = *owner;
  *setup_ledger = ledger_of(probe);
  Json out = Json::object();
  for (const auto& w : kWorkloads) {
    Json pins = Json::array();
    Json ledger;
    for (int pos = 0; pos < positions(w, size); ++pos) {
      probe.reset();
      const Iteration it = run_iteration(w, sys, in, size, pos, threads, failures);
      const Json l = ledger_of(probe);
      if (pos > 0 && l.dump(0) != ledger.dump(0)) {
        failures->push_back(w + ": counter ledger varies across images");
      }
      ledger = l;
      pins.as_array().push_back(it.pins);
    }
    Json entry = Json::object();
    entry.set("ledger", std::move(ledger));
    entry.set("pins", std::move(pins));
    out.set(w, std::move(entry));
  }
  return out;
}

int write_reference(const std::string& path) {
  std::vector<std::string> failures;
  Json root = Json::object();
  root.set("schema_version", Json(1.0));
  Json setup;
  for (const auto& w : kWorkloads) root.set(w, Json::object());
  for (std::uint64_t index = 0; index < kCorpus; ++index) {
    Json setup_ledger;
    Json set = pin_input_set(index, Size{}, default_threads(), &setup_ledger, &failures);
    if (index > 0 && setup_ledger.dump(0) != setup.dump(0)) {
      failures.push_back("set-up counter ledger varies across input sets");
    }
    setup = setup_ledger;
    for (const auto& w : kWorkloads) {
      root.as_object()[w].set(std::to_string(index), set.get(w));
    }
    std::fprintf(stderr, "pinned input set %llu\n", static_cast<unsigned long long>(index));
  }
  root.set("setup", std::move(setup));
  for (const auto& f : failures) std::fprintf(stderr, "FAILED: %s\n", f.c_str());
  if (!failures.empty()) return 1;
  verify::write_json_file(path, root);
  return 0;
}

/// Reduced-size check that counters and outputs are identical at 1 thread
/// and at T threads.
int selftest() {
  Size small;
  small.vgg_width = 0.0625;
  small.mc_runs = 8;
  small.calibration_runs = 8;
  small.batch = 2;
  const int threads = default_threads();
  std::vector<std::string> failures;
  Json serial_setup, parallel_setup;
  const Json serial = pin_input_set(1, small, 1, &serial_setup, &failures);
  const Json parallel =
      pin_input_set(1, small, threads, &parallel_setup, &failures);
  check_equal(parallel_setup, serial_setup, "set-up ledger at T threads", &failures);
  for (const auto& w : kWorkloads) {
    check_equal(parallel.get(w), serial.get(w), w + " ledger and outputs at T threads",
                &failures);
  }
  for (const auto& f : failures) std::printf("FAILED: %s\n", f.c_str());
  std::printf("selftest: 1 vs %d threads: %s\n", threads,
              failures.empty() ? "identical" : "MISMATCH");
  return failures.empty() ? 0 : 1;
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench_ledger: %s\nusage: perfbench_ledger --workload "
               "{mc_fig9|vgg_clean|vgg_noisy} --seed N --seconds S --trace "
               "0|1 --reference FILE [--revision TEXT]\n"
               "       perfbench_ledger --write-reference FILE\n"
               "       perfbench_ledger --selftest\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
        return argv[++i];
      };
      if (a == "--workload") opt.workload = value();
      else if (a == "--seed") opt.seed = std::stoull(value());
      else if (a == "--seconds") opt.seconds = std::stod(value());
      else if (a == "--trace") opt.trace = value() != "0";
      else if (a == "--reference") opt.reference = value();
      else if (a == "--revision") opt.revision = value();
      else if (a == "--write-reference") opt.write_reference = value();
      else if (a == "--selftest") opt.selftest = true;
      else return usage(("unknown argument " + a).c_str());
    }
  } catch (const std::exception& e) {
    return usage(e.what());
  }
  try {
    if (opt.selftest) return selftest();
    if (!opt.write_reference.empty()) return write_reference(opt.write_reference);
    if (std::find(kWorkloads.begin(), kWorkloads.end(), opt.workload) ==
        kWorkloads.end()) {
      return usage("unknown workload");
    }
    if (opt.reference.empty()) return usage("--reference is required");
    if (!(opt.seconds > 0.0)) return usage("--seconds must be positive");
    return run_workload(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_ledger: %s\n", e.what());
    return 1;
  }
}
