// Array-level tests: MAC correctness (Eq. 1 behaviour), level monotonicity
// and separability across temperature (Figs. 4 and 8), energy accounting,
// pattern invariance, and write-path programming.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>

#include "cim/energy.hpp"
#include "cim/mac.hpp"
#include "trace/probe.hpp"
#include "trace/trace.hpp"

namespace sfc::cim {
namespace {

const std::vector<double> kTemps = {0.0, 27.0, 85.0};

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

TEST(CiMRow, MacLevelsMonotoneAtRoomTemperature) {
  CiMRow row(ArrayConfig::proposed_2t1fefet());
  row.set_stored(std::vector<int>(8, 1));
  double prev = -1.0;
  for (int k = 0; k <= 8; ++k) {
    std::vector<int> inputs(8, 0);
    for (int i = 0; i < k; ++i) inputs[static_cast<std::size_t>(i)] = 1;
    const MacResult r = row.evaluate(inputs, 27.0);
    ASSERT_TRUE(r.converged);
    EXPECT_GT(r.v_acc, prev) << "k=" << k;
    prev = r.v_acc;
  }
}

TEST(CiMRow, EvaluateLevelsMatchesHandWrittenLadder) {
  // evaluate_levels is the ladder that calibration, Monte Carlo, energy and
  // the goldens read: exactly the k = 0..n loop of evaluate() calls in k
  // order, first k inputs high, with no work or instrumentation added.
  const ArrayConfig cfg = ArrayConfig::proposed_2t1fefet();
  CiMRow hand_row(cfg);
  CiMRow ladder_row(cfg);
  hand_row.set_stored(std::vector<int>(8, 1));
  ladder_row.set_stored(std::vector<int>(8, 1));

#if SFC_TRACE_ENABLED
  trace::TestProbe hand_probe;
#endif
  std::vector<MacResult> hand;
  for (int k = 0; k <= 8; ++k) {
    std::vector<int> inputs(8, 0);
    for (int i = 0; i < k; ++i) inputs[static_cast<std::size_t>(i)] = 1;
    hand.push_back(hand_row.evaluate(inputs, 27.0));
  }
#if SFC_TRACE_ENABLED
  const verify::Json hand_metrics = hand_probe.delta_snapshot();
  trace::TestProbe ladder_probe;
#endif
  const std::vector<MacResult> ladder = ladder_row.evaluate_levels(27.0);
#if SFC_TRACE_ENABLED
  EXPECT_EQ(ladder_probe.delta_snapshot().dump(), hand_metrics.dump());
#endif

  ASSERT_EQ(ladder.size(), hand.size());
  for (std::size_t k = 0; k < ladder.size(); ++k) {
    ASSERT_TRUE(ladder[k].converged) << "k=" << k;
    EXPECT_EQ(bits(ladder[k].v_acc), bits(hand[k].v_acc)) << "k=" << k;
    EXPECT_EQ(bits(ladder[k].energy_joules), bits(hand[k].energy_joules))
        << "k=" << k;
  }
  EXPECT_EQ(level_inputs(8, 3), (std::vector<int>{1, 1, 1, 0, 0, 0, 0, 0}));
}

TEST(CiMRow, MacDependsOnCountNotPattern) {
  // Any pattern with the same number of active (1,1) pairs must give
  // nearly the same output.
  CiMRow row(ArrayConfig::proposed_2t1fefet());
  row.set_stored(std::vector<int>(8, 1));
  const std::vector<std::vector<int>> patterns = {
      {1, 1, 1, 0, 0, 0, 0, 0},
      {0, 0, 0, 0, 0, 1, 1, 1},
      {1, 0, 1, 0, 1, 0, 0, 0},
  };
  std::vector<double> outs;
  for (const auto& p : patterns) {
    const MacResult r = row.evaluate(p, 27.0);
    ASSERT_TRUE(r.converged);
    outs.push_back(r.v_acc);
  }
  for (double v : outs) {
    EXPECT_NEAR(v, outs[0], 1e-4);
  }
}

TEST(CiMRow, StoredZeroAndInputZeroEquivalent) {
  CiMRow row(ArrayConfig::proposed_2t1fefet());
  // 3 active by input gating.
  row.set_stored(std::vector<int>(8, 1));
  const MacResult by_input =
      row.evaluate({1, 1, 1, 0, 0, 0, 0, 0}, 27.0);
  // 3 active by storage gating.
  row.set_stored({1, 1, 1, 0, 0, 0, 0, 0});
  const MacResult by_weight = row.evaluate(std::vector<int>(8, 1), 27.0);
  EXPECT_NEAR(by_input.v_acc, by_weight.v_acc,
              0.15 * std::fabs(by_input.v_acc));
}

TEST(CiMRow, ChargeShareFollowsEq1Scaling) {
  // V_acc = C0 / (n*C0 + Cacc) * sum(V_Oi): compare the measured ratio
  // V_acc / sum(V_Oi) to the capacitor-ratio prediction.
  const ArrayConfig cfg = ArrayConfig::proposed_2t1fefet();
  CiMRow row(cfg);
  row.set_stored(std::vector<int>(8, 1));
  const MacResult r = row.evaluate(std::vector<int>(8, 1), 27.0);
  ASSERT_TRUE(r.converged);
  double v_sum = 0.0;
  for (double v : r.v_cell) v_sum += v;
  const double predicted =
      cfg.cell2t.c0 / (8.0 * cfg.cell2t.c0 + cfg.sense.c_acc);
  EXPECT_NEAR(r.v_acc / v_sum, predicted, predicted * 0.1);
}

TEST(CiMRow, ProposedArraySeparableOverTemperature) {
  // Fig. 8(a): no overlapping MAC levels from 0 to 85 degC.
  const LevelSweepResult sweep =
      mac_level_sweep(ArrayConfig::proposed_2t1fefet(), kTemps);
  const NmrSummary nmr = summarize_nmr(sweep.levels());
  EXPECT_TRUE(nmr.separable);
  EXPECT_GT(nmr.nmr_min, 0.1);
}

TEST(CiMRow, BaselineArrayOverlapsOverTemperature) {
  // Fig. 4: the subthreshold 1FeFET-1R array has overlapping outputs.
  const LevelSweepResult sweep =
      mac_level_sweep(ArrayConfig::baseline_1r_subthreshold(), kTemps);
  const NmrSummary nmr = summarize_nmr(sweep.levels());
  EXPECT_FALSE(nmr.separable);
  EXPECT_LT(nmr.nmr_min, 0.0);
}

TEST(CiMRow, WarmRangeNmrImproves) {
  // Paper: NMR_min rises from 0.22 (0-85C) to 2.3 (20-85C).
  const ArrayConfig cfg = ArrayConfig::proposed_2t1fefet();
  const NmrSummary all =
      summarize_nmr(mac_level_sweep(cfg, {0.0, 27.0, 85.0}).levels());
  const NmrSummary warm =
      summarize_nmr(mac_level_sweep(cfg, {20.0, 27.0, 85.0}).levels());
  EXPECT_GT(warm.nmr_min, all.nmr_min);
}

TEST(CiMRow, LevelsAboveABoundAreTheSweepOfThoseTemperatures) {
  // levels(t) of a sweep is the levels() of a sweep over only its
  // temperatures at or above t, bit for bit.
  ArrayConfig cfg = ArrayConfig::proposed_2t1fefet();
  cfg.cells_per_row = 2;
  const LevelSweepResult sweep = mac_level_sweep(cfg, {0.0, 27.0, 85.0});
  const LevelSweepResult hot = mac_level_sweep(cfg, {27.0, 85.0});
  const std::vector<LevelRange> above = sweep.levels(20.0);
  const std::vector<LevelRange> expected = hot.levels();
  const std::vector<LevelRange> full = sweep.levels();
  ASSERT_EQ(above.size(), expected.size());
  bool narrower = false;
  for (std::size_t k = 0; k < above.size(); ++k) {
    EXPECT_EQ(bits(above[k].lo), bits(expected[k].lo)) << "k=" << k;
    EXPECT_EQ(bits(above[k].hi), bits(expected[k].hi)) << "k=" << k;
    narrower = narrower || above[k].lo != full[k].lo ||
               above[k].hi != full[k].hi;
  }
  EXPECT_TRUE(narrower) << "0 degC sets no level's range";
}

TEST(CiMRow, EnergyScalesWithMacValue) {
  // Fig. 8(b): more active cells -> more charge moved -> more energy.
  const EnergySummary e = measure_energy(ArrayConfig::proposed_2t1fefet(),
                                         27.0);
  ASSERT_EQ(e.energy_per_op_by_mac.size(), 9u);
  EXPECT_GT(e.energy_per_op_by_mac[8], e.energy_per_op_by_mac[1]);
  EXPECT_GT(e.mean_energy_per_op, 0.0);
  // Ultra-low power: well below 10 fJ/op, TOPS/W in the 100s+.
  EXPECT_LT(e.mean_energy_per_op, 10e-15);
  EXPECT_GT(e.tops_per_watt, 100.0);
}

TEST(CiMRow, SourceEnergiesSumToTotal) {
  CiMRow row(ArrayConfig::proposed_2t1fefet());
  row.set_stored(std::vector<int>(8, 1));
  MacResult r = row.evaluate(std::vector<int>(8, 1), 27.0,
                             /*keep_waveforms=*/true);
  ASSERT_TRUE(r.converged);
  const auto& per_source = r.waveforms.source_energy;
  EXPECT_FALSE(per_source.empty());
  double sum = 0.0;
  for (const auto& [source, joules] : per_source) sum += joules;
  EXPECT_NEAR(sum, r.energy_joules, std::fabs(r.energy_joules) * 1e-9);
  EXPECT_GT(r.energy_joules, 0.0);
}

TEST(CiMRow, ProgramPathMatchesDirectSet) {
  // Writing through the +-4V pulse protocol must land in the same state as
  // set_stored.
  const ArrayConfig cfg = ArrayConfig::proposed_2t1fefet();
  CiMRow programmed(cfg);
  programmed.program({1, 0, 1, 0, 1, 0, 1, 0});
  CiMRow forced(cfg);
  forced.set_stored({1, 0, 1, 0, 1, 0, 1, 0});
  EXPECT_EQ(programmed.stored(), forced.stored());

  const std::vector<int> inputs(8, 1);
  const MacResult rp = programmed.evaluate(inputs, 27.0);
  const MacResult rf = forced.evaluate(inputs, 27.0);
  EXPECT_NEAR(rp.v_acc, rf.v_acc, 0.02 * std::fabs(rf.v_acc) + 1e-4);
}

TEST(CiMRow, RepeatedEvaluationIsStable) {
  // Back-to-back MAC cycles must give identical results (caps reset by the
  // precharge ICs, FeFET state untouched by reads).
  CiMRow row(ArrayConfig::proposed_2t1fefet());
  row.set_stored(std::vector<int>(8, 1));
  const std::vector<int> inputs = {1, 0, 1, 1, 0, 0, 1, 0};
  const MacResult r1 = row.evaluate(inputs, 27.0);
  const MacResult r2 = row.evaluate(inputs, 27.0);
  EXPECT_DOUBLE_EQ(r1.v_acc, r2.v_acc);
}

TEST(CiMRow, FourCellRowAlsoSeparable) {
  ArrayConfig cfg = ArrayConfig::proposed_2t1fefet();
  cfg.cells_per_row = 4;
  const LevelSweepResult sweep = mac_level_sweep(cfg, kTemps);
  EXPECT_TRUE(summarize_nmr(sweep.levels()).separable);
}

// Per-cell arguments of the wrong length throw in every build, before
// anything indexes past the row's cells.
ArrayConfig two_cells() {
  ArrayConfig cfg = ArrayConfig::proposed_2t1fefet();
  cfg.cells_per_row = 2;
  return cfg;
}

TEST(CiMRow, EvaluateRejectsWrongInputCount) {
  CiMRow row(two_cells());
  EXPECT_THROW(row.evaluate({1, 1, 1}, 27.0), std::invalid_argument);
  EXPECT_THROW(row.evaluate({1}, 27.0), std::invalid_argument);
}

TEST(CiMRow, SetStoredRejectsWrongWeightCount) {
  CiMRow row(two_cells());
  EXPECT_THROW(row.set_stored({1, 1, 1}), std::invalid_argument);
  EXPECT_THROW(row.set_stored({}), std::invalid_argument);
}

TEST(CiMRow, ProgramRejectsWrongWeightCount) {
  CiMRow row(two_cells());
  EXPECT_THROW(row.program({1, 0, 1}), std::invalid_argument);
  EXPECT_THROW(row.program({1}), std::invalid_argument);
}

TEST(CiMRow, SetFefetVthShiftsRejectsWrongCount) {
  CiMRow row(two_cells());
  EXPECT_THROW(row.set_fefet_vth_shifts({0.01, 0.02, 0.03}),
               std::invalid_argument);
  EXPECT_THROW(row.set_fefet_vth_shifts({0.01}), std::invalid_argument);
}

TEST(CiMRow, LevelInputsRejectsMacOutsideRow) {
  EXPECT_THROW(level_inputs(2, 5), std::invalid_argument);
  EXPECT_THROW(level_inputs(2, -1), std::invalid_argument);
  EXPECT_EQ(level_inputs(2, 2), (std::vector<int>{1, 1}));
}

TEST(CiMRow, LatencyMatchesPaper) {
  const ArrayConfig cfg = ArrayConfig::proposed_2t1fefet();
  EXPECT_NEAR(cfg.timing.t_total(), 6.9e-9, 1e-12);
  // ops per MAC: 8 multiplications + 1 accumulation.
  CiMRow row(cfg);
  row.set_stored(std::vector<int>(8, 1));
  EXPECT_EQ(row.evaluate(std::vector<int>(8, 1), 27.0).ops, 9);
}

/// The what() of the std::runtime_error `run` throws; fails the test
/// when it throws nothing.
std::string failure_of(const std::function<void()>& run) {
  try {
    run();
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  ADD_FAILURE() << "a non-converged cycle did not throw";
  return "";
}

// A cycle that fails to converge throws, naming the cell kind, the
// temperature, the MAC value and the pattern, instead of being left out of
// a range, an average or a normalization. No Newton solve converges in
// one iteration.
TEST(CiMRow, NonConvergedCyclesThrowNamingTheCycle) {
  ArrayConfig proposed = ArrayConfig::proposed_2t1fefet();
  proposed.cells_per_row = 2;
  proposed.newton.max_iterations = 1;
  ArrayConfig baseline = ArrayConfig::baseline_1r_subthreshold();
  baseline.newton.max_iterations = 1;

  const std::string sweep =
      failure_of([&] { mac_level_sweep(proposed, {85.0}); });
  EXPECT_NE(sweep.find("mac_level_sweep: 2T-1FeFET"), std::string::npos)
      << sweep;
  EXPECT_NE(sweep.find("85 degC, MAC 0, input-driven zeros"),
            std::string::npos)
      << sweep;
  const std::string energy =
      failure_of([&] { measure_energy(proposed, 27.0); });
  EXPECT_NE(energy.find("measure_energy: 2T-1FeFET"), std::string::npos)
      << energy;
  const std::string cell =
      failure_of([&] { cell_temperature_response(proposed, {0.0}, 1, 0); });
  EXPECT_NE(cell.find("0 degC, MAC 0, stored 1, input 0"), std::string::npos)
      << cell;
  const std::string current =
      failure_of([&] { cell_current_response(baseline, {27.0}); });
  EXPECT_NE(current.find("subthreshold 1FeFET-1R"), std::string::npos)
      << current;
  EXPECT_NE(current.find("MAC 1, stored 1, input 1"), std::string::npos)
      << current;
  for (const ArrayConfig& cfg : {proposed, baseline}) {
    EXPECT_THROW(cell_fluctuation(cfg, kTemps), std::runtime_error);
  }
}

}  // namespace
}  // namespace sfc::cim
