// Golden-reference regression layer: committed goldens match the live
// code, the tolerance policy behaves, JSON round-trips canonically, a
// deliberately perturbed solver constant is caught, and a published record
// fails its bench when a claim fails.
#include <gtest/gtest.h>
#include <stdlib.h>

#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "cim/array.hpp"
#include "cim/config.hpp"
#include "verify/experiments.hpp"
#include "verify/golden.hpp"
#include "verify/json.hpp"

namespace sfc::verify {
namespace {

std::vector<double> mac_levels(const cim::ArrayConfig& cfg) {
  cim::CiMRow row(cfg);
  row.set_stored(std::vector<int>(static_cast<std::size_t>(row.cells()), 1));
  std::vector<double> out;
  for (const cim::MacResult& r : row.evaluate_levels(27.0)) {
    EXPECT_TRUE(r.converged) << "MAC " << out.size() << " failed to converge";
    out.push_back(r.v_acc);
  }
  return out;
}

/// The Fig. 8 golden's 27 degC ladder alone: the golden a perturbed
/// ladder is compared with.
GoldenRecord golden_ladder_27c() {
  const GoldenRecord fig8 =
      load_golden(default_golden_dir() + "/fig8_2t1fefet_array.json");
  const Quantity& ladder = fig8.at("v_acc_T27");
  GoldenRecord golden(fig8.name(), "the 27 degC ladder");
  golden.set("v_acc_T27", ladder.values, ladder.labels, ladder.tol);
  return golden;
}

TEST(VerifyGolden, AllCommittedGoldensMatchLiveCode) {
  const std::string dir = default_golden_dir();
  const auto& cases = golden_cases();
  ASSERT_EQ(cases.size(), 8u);
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    const GoldenCompare cmp = run_golden_case(c, dir);
    EXPECT_TRUE(cmp.pass) << cmp.summary();
    EXPECT_GT(cmp.values_compared, 0u);
  }
}

// The acceptance demo: nudge a solver constant and the golden layer must
// flag the canonical Fig. 8 experiment. A 2 % error on the accumulation
// capacitor shifts every charge-share level by ~2 %, far beyond the 0.1 %
// relative tolerance stored in the golden file.
TEST(VerifyGolden, PerturbedSenseCapacitanceIsCaught) {
  const GoldenRecord golden = golden_ladder_27c();

  cim::ArrayConfig cfg = cim::ArrayConfig::proposed_2t1fefet();
  cfg.sense.c_acc *= 1.02;
  GoldenRecord actual(golden.name(), "perturbed");
  actual.set("v_acc_T27", mac_levels(cfg), {}, Tolerance{});

  const GoldenCompare cmp = compare_to_golden(golden, actual);
  EXPECT_FALSE(cmp.pass);
  ASSERT_FALSE(cmp.mismatches.empty());
  EXPECT_EQ(cmp.mismatches.front().quantity, "v_acc_T27");
  // The diff names the level that broke, with the stored tolerance band.
  EXPECT_GT(cmp.mismatches.front().allowed, 0.0);
}

// Same demo for a pure Newton-solver constant: a gmin floor of 1 uS hangs
// a visible leak on the 4 fF accumulation node.
TEST(VerifyGolden, PerturbedGminFloorIsCaught) {
  const GoldenRecord golden = golden_ladder_27c();

  cim::ArrayConfig cfg = cim::ArrayConfig::proposed_2t1fefet();
  cfg.newton.gmin_final = 1e-6;
  GoldenRecord actual(golden.name(), "perturbed");
  actual.set("v_acc_T27", mac_levels(cfg), {}, Tolerance{});

  const GoldenCompare cmp = compare_to_golden(golden, actual);
  EXPECT_FALSE(cmp.pass) << cmp.summary();
  ASSERT_FALSE(cmp.mismatches.empty());
  EXPECT_EQ(cmp.mismatches.front().quantity, "v_acc_T27");
}

// publish() prints the record, writes <name>.json to the working directory
// and returns the bench's exit status: 1 when a claim fails, else 0.
TEST(VerifyPublish, FailedClaimFailsTheRunAndTheRecordLoadsBack) {
  namespace fs = std::filesystem;
  std::string dir = (fs::temp_directory_path() / "sfc_publish_XXXXXX").string();
  ASSERT_NE(mkdtemp(dir.data()), nullptr);
  const fs::path cwd = fs::current_path();
  fs::current_path(dir);

  GoldenRecord rec("publish_test", "a record with one failing claim");
  rec.set("column", {1.0, 2.5}, {"a", "b"}, Tolerance{0.0, 1e-3});
  rec.set_scalar("scalar", 0.125, Tolerance{1e-6, 0.0});
  rec.set("series", {3.0, -1.0, 2.0}, {}, Tolerance{});
  rec.claim("this claim holds", true);
  rec.claim("this claim fails", false);
  testing::internal::CaptureStdout();
  const int failed_status = publish(rec);
  const std::string out = testing::internal::GetCapturedStdout();
  EXPECT_EQ(failed_status, 1);
  EXPECT_NE(out.find("[FAILS] this claim fails"), std::string::npos) << out;
  EXPECT_NE(out.find("[holds] this claim holds"), std::string::npos) << out;
  EXPECT_NE(out.find("series: 3 values in [-1, 3]"), std::string::npos)
      << out;

  const GoldenRecord back = load_golden("publish_test.json");
  EXPECT_EQ(back.name(), rec.name());
  EXPECT_EQ(back.description(), rec.description());
  ASSERT_EQ(back.quantities().size(), rec.quantities().size());
  for (const auto& [name, q] : rec.quantities()) {
    SCOPED_TRACE(name);
    const Quantity& loaded = back.at(name);
    EXPECT_EQ(loaded.values, q.values);
    EXPECT_EQ(loaded.labels, q.labels);
    EXPECT_EQ(loaded.tol.abs, q.tol.abs);
    EXPECT_EQ(loaded.tol.rel, q.tol.rel);
  }

  GoldenRecord holds("publish_holds", "every claim holds");
  holds.claim("this claim holds", true);
  testing::internal::CaptureStdout();
  EXPECT_EQ(publish(holds), 0);
  testing::internal::GetCapturedStdout();

  fs::current_path(cwd);
  fs::remove_all(dir);
}

TEST(VerifyGolden, TolerancePolicyIsAbsPlusRel) {
  GoldenRecord golden("t", "");
  golden.set("q", {1.0}, {"only"}, Tolerance{0.01, 0.05});

  GoldenRecord inside("t", "");
  inside.set("q", {1.0 + 0.01 + 0.05 - 1e-9}, {}, Tolerance{});
  EXPECT_TRUE(compare_to_golden(golden, inside).pass);

  GoldenRecord outside("t", "");
  outside.set("q", {1.0 + 0.01 + 0.05 + 1e-6}, {}, Tolerance{});
  const GoldenCompare cmp = compare_to_golden(golden, outside);
  EXPECT_FALSE(cmp.pass);
  ASSERT_EQ(cmp.mismatches.size(), 1u);
  EXPECT_EQ(cmp.mismatches.front().label, "only");
  EXPECT_NEAR(cmp.mismatches.front().allowed, 0.06, 1e-12);
}

// An infinite band passes every finite value, and |inf - 1| <= inf holds
// too: only the finiteness guard fails a NaN or infinite actual value.
TEST(VerifyGolden, NonFiniteActualValuesFail) {
  const double inf = std::numeric_limits<double>::infinity();
  GoldenRecord golden("t", "");
  golden.set("q", {1.0}, {}, Tolerance{inf, 0.0});
  for (double bad : {std::numeric_limits<double>::quiet_NaN(), inf, -inf}) {
    GoldenRecord actual("t", "");
    actual.set("q", {bad}, {}, Tolerance{});
    const GoldenCompare cmp = compare_to_golden(golden, actual);
    EXPECT_FALSE(cmp.pass) << bad;
    EXPECT_EQ(cmp.mismatches.size(), 1u) << bad;
  }
  GoldenRecord finite("t", "");
  finite.set("q", {1e300}, {}, Tolerance{});
  EXPECT_TRUE(compare_to_golden(golden, finite).pass);
}

TEST(VerifyGolden, ComparisonFlagsMissingExtraAndResized) {
  GoldenRecord golden("t", "");
  golden.set("kept", {1.0, 2.0}, {}, Tolerance{1e-9, 0.0});
  golden.set("gone", {3.0}, {}, Tolerance{1e-9, 0.0});

  GoldenRecord actual("t", "");
  actual.set("kept", {1.0, 2.0, 99.0}, {}, Tolerance{});
  actual.set("added", {4.0}, {}, Tolerance{});

  const GoldenCompare cmp = compare_to_golden(golden, actual);
  EXPECT_FALSE(cmp.pass);
  ASSERT_EQ(cmp.missing_quantities.size(), 1u);
  EXPECT_EQ(cmp.missing_quantities.front(), "gone");
  ASSERT_EQ(cmp.extra_quantities.size(), 1u);
  EXPECT_EQ(cmp.extra_quantities.front(), "added");
  ASSERT_EQ(cmp.size_mismatches.size(), 1u);
}

TEST(VerifyGolden, RecordRoundTripsThroughJson) {
  GoldenRecord rec("roundtrip", "serialization fidelity");
  rec.set("v", {0.1, 1.0 / 3.0, -2.5e-15, 12345.0},
          {"a", "b", "c", "d"}, Tolerance{1e-6, 1e-3});
  rec.set_scalar("s", 3.14159, Tolerance{0.0, 1e-2});

  const std::string text = rec.to_json().dump();
  const GoldenRecord back = GoldenRecord::from_json(Json::parse(text));
  EXPECT_EQ(back.name(), rec.name());

  // Bit-exact after one round trip, and the dump itself is a fixed point.
  const GoldenCompare cmp = compare_to_golden(back, rec);
  EXPECT_TRUE(cmp.pass) << cmp.summary();
  EXPECT_EQ(back.at("v").values, rec.at("v").values);
  EXPECT_EQ(back.at("v").labels, rec.at("v").labels);
  EXPECT_EQ(Json::parse(text).dump(), text);
}

TEST(VerifyGolden, JsonDumpHasSortedKeysAndStableNumbers) {
  Json obj = Json::object();
  obj.set("zebra", Json(1.0));
  obj.set("alpha", Json(0.1));
  obj.set("mid", Json(true));
  const std::string text = obj.dump(0);
  const auto pa = text.find("alpha"), pm = text.find("mid"),
             pz = text.find("zebra");
  EXPECT_LT(pa, pm);
  EXPECT_LT(pm, pz);
  // Shortest-round-trip formatting: 0.1 stays "0.1".
  EXPECT_NE(text.find("\"alpha\": 0.1"), std::string::npos) << text;
  // Integral doubles print as integers.
  EXPECT_EQ(Json::format_number(42.0), "42");
}

}  // namespace
}  // namespace sfc::verify
