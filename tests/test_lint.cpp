// Tests for the netlist static analyzer (src/lint): one positive and one
// negative case per rule, the JSON report schema, the paper's CiM rows
// linted at their read bias, a sweep asserting every deck in examples/
// lints clean, and the fuzz cross-check (200 generated-valid decks draw
// zero diagnostics).
#include <algorithm>
#include <filesystem>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "cim/array.hpp"
#include "fefet/fefet.hpp"
#include "lint/analysis.hpp"
#include "lint/interval.hpp"
#include "lint/linter.hpp"
#include "lint/rules.hpp"
#include "spice/netlist.hpp"
#include "spice/primitives.hpp"
#include "verify/fuzz.hpp"
#include "verify/json.hpp"

namespace lint = sfc::lint;
namespace spice = sfc::spice;

namespace {

/// First diagnostic of `rule` in the report, if any.
std::optional<lint::Diagnostic> find_rule(const lint::LintReport& report,
                                          const std::string& rule) {
  for (const auto& d : report.diagnostics()) {
    if (d.rule == rule) return d;
  }
  return std::nullopt;
}

lint::LintReport lint_text(const std::string& text) {
  return lint::lint_source(text).report;
}

}  // namespace

// ---------------------------------------------------------------- rules

TEST(LintRules, FloatingNodeFlagged) {
  // Node x sees only a current source and a capacitor: in DC neither
  // conducts, so the island has no path to ground. Previously this only
  // surfaced inside the Newton solver (gmin-saturated nonsense voltage or
  // a singular matrix); the linter now reports it statically.
  const std::string deck =
      "* floating island\n"
      "V1 a 0 1.0\n"
      "R1 a 0 10k\n"
      "I1 0 x 1u\n"
      "C1 x 0 1p\n"
      ".end\n";
  const lint::LintReport report = lint_text(deck);
  const auto d = find_rule(report, "floating-node");
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->severity, lint::Severity::kError);
  EXPECT_EQ(d->line, 4u);  // anchored at I1, the island's first card
  EXPECT_EQ(d->object, "x");
  EXPECT_EQ(report.exit_code(), 3);
}

TEST(LintRules, FloatingNodeNegativeAndTransientCapacitors) {
  // A bleed resistor fixes the island.
  EXPECT_TRUE(
      lint_text("V1 a 0 1.0\nR1 a 0 10k\nI1 0 x 1u\nC1 x 0 1p\n"
                "RX x 0 1meg\n.end\n")
          .clean());
  // With a .tran directive the capacitor's companion model conducts, so
  // the same topology is legal.
  EXPECT_TRUE(lint_text("V1 a 0 1.0\nR1 a 0 10k\nI1 0 x 1u\nC1 x 0 1p\n"
                        ".tran 1n 10n\n.end\n")
                  .clean());
}

TEST(LintRules, VsourceLoopFlagged) {
  const std::string deck =
      "* parallel sources over-determine node a\n"
      "V1 a 0 1.0\n"
      "V2 a 0 2.0\n"
      "R1 a 0 1k\n"
      ".end\n";
  const lint::LintReport report = lint_text(deck);
  const auto d = find_rule(report, "vsource-loop");
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->severity, lint::Severity::kError);
  EXPECT_EQ(d->line, 3u);  // the second source closes the loop
  EXPECT_EQ(d->object, "V2");
  EXPECT_EQ(report.exit_code(), 3);
}

TEST(LintRules, VsourceLoopViaInductorAndShort) {
  // A source with both terminals on one node is the degenerate loop.
  const auto d =
      find_rule(lint_text("V1 x x 1.0\nR1 x 0 1k\n.end\n"), "vsource-loop");
  ASSERT_TRUE(d.has_value());
  EXPECT_NE(d->message.find("shorted"), std::string::npos);
  // Series-connected sources are fine.
  EXPECT_TRUE(
      lint_text("V1 a 0 1.0\nV2 b a 1.0\nR1 b 0 1k\n.end\n").clean());
}

TEST(LintRules, DanglingTerminalWarned) {
  const std::string deck =
      "V1 a 0 1.0\n"
      "R1 a b 10k\n"
      ".end\n";
  const lint::LintReport report = lint_text(deck);
  const auto d = find_rule(report, "dangling-terminal");
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->severity, lint::Severity::kWarning);
  EXPECT_EQ(d->line, 2u);
  EXPECT_NE(d->message.find("'b'"), std::string::npos);
  EXPECT_EQ(report.exit_code(), 2);  // warnings only
  // Closing the divider clears it.
  EXPECT_TRUE(
      lint_text("V1 a 0 1.0\nR1 a b 10k\nR2 b 0 10k\n.end\n").clean());
}

TEST(LintRules, UnusedNodeNoted) {
  spice::Circuit circuit;
  const spice::NodeId a = circuit.node("a");
  circuit.add<spice::VSource>("V1", a, spice::kGround, 1.0);
  circuit.add<spice::Resistor>("R1", a, spice::kGround, 1e3);
  circuit.node("orphan");
  const lint::LintReport report = lint::lint_circuit(circuit);
  const auto d = find_rule(report, "unused-node");
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->severity, lint::Severity::kNote);
  EXPECT_EQ(d->object, "orphan");
  // Untouched nodes are NOT also reported as floating.
  EXPECT_FALSE(find_rule(report, "floating-node").has_value());
  EXPECT_EQ(report.exit_code(), 1);
}

TEST(LintRules, FefetVthWindowFlagged) {
  // The Preisach model refuses to even construct with an inverted window,
  // so the deck path reports this at parse time under the same rule id.
  const std::string bad =
      "V1 g 0 0.35\n"
      "R1 g d 10k\n"
      "Z1 d g 0 state=1 vthlow=1.8 vthhigh=0.3\n"
      ".end\n";
  const auto d = find_rule(lint_text(bad), "fefet-vth-window");
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->severity, lint::Severity::kError);
  EXPECT_EQ(d->line, 3u);
  EXPECT_NE(d->message.find("Z1"), std::string::npos);
  const std::string good =
      "V1 g 0 0.35\n"
      "R1 g d 10k\n"
      "Z1 d g 0 state=1 vthlow=0.25 vthhigh=1.7\n"
      ".end\n";
  EXPECT_FALSE(find_rule(lint_text(good), "fefet-vth-window").has_value());
}

TEST(LintRules, NonpositiveValueFromParserAndApi) {
  // The parser rejects the card; the linter surfaces it as a diagnostic
  // instead of crashing. An API-built circuit cannot hold such a value:
  // the device constructors reject it (DeviceConstructorsRejectNaN).
  const lint::LintResult result = lint::lint_source("R1 a 0 -5\n.end\n");
  EXPECT_FALSE(result.parsed);
  const auto d = find_rule(result.report, "nonpositive-value");
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->line, 1u);
}

TEST(LintRules, DeviceConstructorsRejectNaN) {
  // The constructors own the value checks that parse-time
  // nonpositive-value and fefet-vth-window report, so a NaN, which passes
  // every `<= 0` comparison, must be refused where it enters too.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  spice::Circuit circuit;
  const spice::NodeId a = circuit.node("a");
  const spice::NodeId g = circuit.node("g");
  EXPECT_THROW(circuit.add<spice::Resistor>("R1", a, spice::kGround, nan),
               std::invalid_argument);
  EXPECT_THROW(circuit.add<spice::Capacitor>("C1", a, spice::kGround, nan),
               std::invalid_argument);
  sfc::fefet::FeFetParams window = sfc::fefet::FeFetParams::reference();
  window.ferroelectric.vth_low = nan;
  EXPECT_THROW(circuit.add<sfc::fefet::FeFet>("Z1", a, g, spice::kGround,
                                              window),
               std::invalid_argument);
  sfc::fefet::FeFetParams channel = sfc::fefet::FeFetParams::reference();
  channel.channel.w = nan;
  EXPECT_THROW(circuit.add<sfc::fefet::FeFet>("Z2", a, g, spice::kGround,
                                              channel),
               std::invalid_argument);
}

TEST(LintRules, TranStepFlagged) {
  const std::string base = "V1 a 0 1.0\nR1 a 0 1k\n";
  EXPECT_TRUE(
      find_rule(lint_text(base + ".tran 2n 1n\n.end\n"), "tran-step")
          .has_value());  // dt > t_stop
  EXPECT_TRUE(
      find_rule(lint_text(base + ".tran 0 5n\n.end\n"), "tran-step")
          .has_value());  // dt <= 0
  EXPECT_TRUE(lint_text(base + ".tran 1n 10n\n.end\n").clean());
}

TEST(LintRules, TempRangeWarned) {
  const std::string base = "V1 a 0 1.0\nR1 a 0 1k\n";
  const auto hot = find_rule(lint_text(base + ".temp 125\n.end\n"),
                             "temp-range");
  ASSERT_TRUE(hot.has_value());
  EXPECT_EQ(hot->severity, lint::Severity::kWarning);
  EXPECT_EQ(hot->line, 3u);
  EXPECT_TRUE(find_rule(lint_text(base + ".temp -40\n.end\n"), "temp-range")
                  .has_value());
  // The paper's validated envelope is 0..85 degC inclusive.
  EXPECT_TRUE(lint_text(base + ".temp 0\n.end\n").clean());
  EXPECT_TRUE(lint_text(base + ".temp 85\n.end\n").clean());
}

TEST(LintRules, UnusedModelWarned) {
  const std::string deck =
      ".model lonely nmos vth0=0.4\n"
      "V1 a 0 1.0\n"
      "R1 a 0 1k\n"
      ".end\n";
  const auto d = find_rule(lint_text(deck), "unused-model");
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->severity, lint::Severity::kWarning);
  EXPECT_EQ(d->line, 1u);
  EXPECT_EQ(d->object, "lonely");
  const std::string used =
      ".model busy nmos vth0=0.4\n"
      "V1 d 0 0.5\n"
      "V2 g 0 0.5\n"
      "M1 d g 0 busy\n"
      ".end\n";
  EXPECT_FALSE(find_rule(lint_text(used), "unused-model").has_value());
}

TEST(LintRules, DcSweepSourceFlagged) {
  EXPECT_TRUE(find_rule(lint_text("V1 a 0 1.0\nR1 a 0 1k\n"
                                  ".dc VX 0 1 0.1\n.end\n"),
                        "dc-sweep-source")
                  .has_value());  // sweep target missing
  EXPECT_TRUE(find_rule(lint_text("V1 a 0 1.0\nR1 a 0 1k\n"
                                  ".dc R1 0 1 0.1\n.end\n"),
                        "dc-sweep-source")
                  .has_value());  // target is not a V source
  EXPECT_TRUE(find_rule(lint_text("V1 a 0 1.0\nR1 a 0 1k\n"
                                  ".dc V1 0 1 0\n.end\n"),
                        "dc-sweep-source")
                  .has_value());  // zero step never terminates
  EXPECT_TRUE(
      lint_text("V1 a 0 1.0\nR1 a 0 1k\n.dc V1 0 1 0.1\n.end\n").clean());
}

TEST(LintRules, EmptyDeckNoted) {
  const lint::LintReport report = lint_text("* nothing but comments\n.end\n");
  const auto d = find_rule(report, "empty-deck");
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->severity, lint::Severity::kNote);
  EXPECT_EQ(report.exit_code(), 1);
}

// ------------------------------------------------------- parse-time rules

TEST(LintParseRules, DuplicateDeviceIsHardErrorWithBothLines) {
  const std::string deck =
      "R1 a 0 1k\n"
      "V1 a 0 1.0\n"
      "R1 a 0 2k\n"
      ".end\n";
  spice::Circuit circuit;
  try {
    spice::parse_netlist(deck, circuit);
    FAIL() << "duplicate device name must be a parse error";
  } catch (const spice::NetlistError& e) {
    EXPECT_EQ(e.rule(), "duplicate-device");
    EXPECT_EQ(e.line(), 3u);
    // The message names both definitions.
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("line 1"), std::string::npos);
  }
  // Through the linter the same failure is a diagnostic, not a crash.
  const lint::LintResult result = lint::lint_source(deck);
  EXPECT_FALSE(result.parsed);
  const auto d = find_rule(result.report, "duplicate-device");
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->line, 3u);
  EXPECT_NE(d->message.find("line 1"), std::string::npos);
}

TEST(LintParseRules, ModelAndSubcktDiagnostics) {
  EXPECT_TRUE(find_rule(lint_text(".model m nmos\n.model m nmos\n.end\n"),
                        "duplicate-model")
                  .has_value());
  EXPECT_TRUE(find_rule(lint_text("V1 d 0 0.5\nM1 d d 0 ghost\n.end\n"),
                        "undefined-model")
                  .has_value());
  EXPECT_TRUE(find_rule(lint_text("X1 a b ghost\n.end\n"), "undefined-subckt")
                  .has_value());
  const std::string mismatch =
      ".subckt cell in out\nR1 in out 1k\n.ends\n"
      "V1 a 0 1.0\n"
      "X1 a cell\n"
      ".end\n";
  EXPECT_TRUE(
      find_rule(lint_text(mismatch), "subckt-port-mismatch").has_value());
}

TEST(LintParseRules, UnknownCardAndDirective) {
  EXPECT_TRUE(
      find_rule(lint_text("Q1 a b c 5\n.end\n"), "unknown-card").has_value());
  EXPECT_TRUE(find_rule(lint_text("V1 a 0 1.0\nR1 a 0 1k\n.frobnicate\n.end\n"),
                        "unknown-directive")
                  .has_value());
}

TEST(LintParseRules, UnsortedPwlTimesAreAnError) {
  // A transient would read this source through a binary search over
  // unsorted points, so the deck must not lint clean.
  const lint::LintResult result =
      lint::lint_source("R1 a 0 1k\nV1 a 0 PWL(1e-9 0 0 1)\n.end\n");
  EXPECT_FALSE(result.parsed);
  const auto d = find_rule(result.report, "parse-error");
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->line, 2u);
  EXPECT_EQ(d->severity, lint::Severity::kError);
  EXPECT_EQ(result.report.exit_code(), 3);
}

// ------------------------------------------------------------ pipeline

TEST(LintPipeline, RuleTableHasAtLeastTenUniqueIds) {
  std::set<std::string> ids;
  for (const auto& rule : lint::builtin_rules()) ids.insert(rule.id);
  EXPECT_GE(ids.size(), 10u);
  EXPECT_EQ(ids.size(), lint::builtin_rules().size()) << "duplicate rule id";
  std::set<std::string> parse_ids;
  for (const auto& rule : lint::parse_rules()) parse_ids.insert(rule.id);
  EXPECT_GE(parse_ids.size(), 5u);
}

TEST(LintPipeline, EveryParseTimeRuleIdIsListed) {
  // One deck per id the parser throws. Each lints to exactly its id, and
  // --list-rules (parse_rules()) names every one of them.
  const std::map<std::string, std::string> decks = {
      {"duplicate-device", "R1 a 0 1k\nR1 a 0 2k\n.end\n"},
      {"duplicate-model", ".model m nmos\n.model m nmos\n.end\n"},
      {"duplicate-subckt",
       ".subckt c p q\nR1 p q 1k\n.ends\n"
       ".subckt c p q\nR1 p q 1k\n.ends\n.end\n"},
      {"undefined-model", "V1 d 0 0.5\nM1 d d 0 ghost\n.end\n"},
      {"undefined-subckt", "X1 a b ghost\n.end\n"},
      {"subckt-port-mismatch",
       ".subckt cell in out\nR1 in out 1k\n.ends\nV1 a 0 1.0\nX1 a cell\n"
       ".end\n"},
      {"nonpositive-value", "R1 a 0 -5\n.end\n"},
      {"fefet-vth-window", "Z1 d g 0 vthlow=1.8 vthhigh=0.3\n.end\n"},
      {"unknown-card", "Q1 a b c 5\n.end\n"},
      {"unknown-directive", ".frobnicate\n.end\n"},
      {"parse-error", "R1 a 0\n.end\n"},
  };
  std::set<std::string> listed;
  for (const auto& rule : lint::parse_rules()) listed.insert(rule.id);
  for (const auto& [id, deck] : decks) {
    const lint::LintResult result = lint::lint_source(deck);
    EXPECT_FALSE(result.parsed) << id;
    ASSERT_EQ(result.report.diagnostics().size(), 1u)
        << id << "\n" << result.report.to_text(id);
    EXPECT_EQ(result.report.diagnostics().front().rule, id);
    EXPECT_EQ(listed.count(id), 1u) << id << " missing from parse_rules()";
  }
  EXPECT_EQ(listed.size(), decks.size());
}

TEST(LintPipeline, ReportIsSortedByLine) {
  const std::string deck =
      "I1 0 x 1u\n"
      "C1 x 0 1p\n"
      "V1 a 0 1.0\n"
      "R1 a b 10k\n"
      ".temp 125\n"
      ".end\n";
  const lint::LintReport report = lint_text(deck);
  ASSERT_GE(report.diagnostics().size(), 3u);
  EXPECT_TRUE(std::is_sorted(
      report.diagnostics().begin(), report.diagnostics().end(),
      [](const lint::Diagnostic& a, const lint::Diagnostic& b) {
        return a.line < b.line;
      }));
}

// ---------------------------------------------------------------- JSON

TEST(LintJson, ReportRoundTripsThroughCanonicalJson) {
  const std::string deck =
      "V1 a 0 1.0\nR1 a b 10k\nI1 0 x 1u\nC1 x 0 1p\n.temp 125\n.end\n";
  const lint::LintReport report = lint_text(deck);
  ASSERT_FALSE(report.clean());
  const sfc::verify::Json j = report.to_json("deck.cir");
  EXPECT_EQ(j.number_at("schema_version"), 1.0);
  EXPECT_EQ(j.string_at("source"), "deck.cir");
  // The canonical text is a fixed point of parse -> dump, and its counts
  // and diagnostics carry the report's findings in order.
  const sfc::verify::Json reparsed = sfc::verify::Json::parse(j.dump());
  EXPECT_EQ(reparsed.dump(), j.dump());
  const sfc::verify::Json& counts = reparsed.get("counts");
  for (const auto s : {lint::Severity::kNote, lint::Severity::kWarning,
                       lint::Severity::kError}) {
    EXPECT_EQ(counts.number_at(lint::severity_name(s)),
              static_cast<double>(report.count(s)));
  }
  const auto& items = reparsed.get("diagnostics").as_array();
  ASSERT_EQ(items.size(), report.diagnostics().size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    const lint::Diagnostic& d = report.diagnostics()[i];
    EXPECT_EQ(items[i].string_at("rule"), d.rule);
    EXPECT_EQ(items[i].string_at("severity"), lint::severity_name(d.severity));
    EXPECT_EQ(items[i].number_at("line"), static_cast<double>(d.line));
    EXPECT_EQ(items[i].string_at("object"), d.object);
    EXPECT_EQ(items[i].string_at("message"), d.message);
    EXPECT_EQ(items[i].string_at("hint"), d.hint);
  }
}

// ------------------------------------------------- semantic passes

TEST(LintSemantic, SubthresholdWindowFlagsHotWordline) {
  // 1.6 V on the gate statically exceeds the erased-state threshold at
  // the hot corner (1.458 V at 85 degC) minus the 0.1 V margin: a stored
  // '0' may conduct, which breaks the read scheme.
  const std::string bad =
      "VG g 0 1.6\n"
      "VD d 0 0.05\n"
      "Z1 d g 0 state=0\n"
      ".end\n";
  const lint::LintReport report = lint_text(bad);
  const auto d = find_rule(report, "subthreshold-window");
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->severity, lint::Severity::kError);
  EXPECT_EQ(d->object, "Z1");
  EXPECT_EQ(report.exit_code(), 3);
  // The paper's 0.35 V read bias is provably inside the window.
  const std::string good =
      "VG g 0 0.35\n"
      "VD d 0 0.05\n"
      "Z1 d g 0 state=0\n"
      ".end\n";
  EXPECT_TRUE(lint_text(good).clean());
}

TEST(LintSemantic, VthTempDriftWarnsOnNarrowWindow) {
  // A 0.15 V programming window shrinks below min_memory_window (0.2 V)
  // over 0..85 degC; the default 1.45 V window does not.
  const std::string narrow =
      "VG g 0 0.1\n"
      "VD d 0 0.05\n"
      "Z1 d g 0 state=1 vthlow=0.8 vthhigh=0.95\n"
      ".end\n";
  const auto d = find_rule(lint_text(narrow), "vth-temp-drift");
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->severity, lint::Severity::kWarning);
  EXPECT_EQ(d->object, "Z1");
  const std::string wide =
      "VG g 0 0.35\n"
      "VD d 0 0.05\n"
      "Z1 d g 0 state=1 vthlow=0.25 vthhigh=1.7\n"
      ".end\n";
  EXPECT_FALSE(find_rule(lint_text(wide), "vth-temp-drift").has_value());
}

TEST(LintSemantic, CimArrayShapeDuplicateGateAndMissingSense) {
  // Two cells of one bitline sharing a wordline can never be addressed
  // individually.
  const std::string dup =
      "VBL bl 0 0.1\n"
      "VG g 0 0.2\n"
      "Z1 bl g 0 state=1\n"
      "Z2 bl g 0 state=0\n"
      ".end\n";
  const auto d = find_rule(lint_text(dup), "cim-array-shape");
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->severity, lint::Severity::kError);
  // A bitline touched by nothing but FeFET cells has no sense branch.
  const std::string unsensed =
      "VG1 g1 0 0.2\n"
      "VG2 g2 0 0.2\n"
      "Z1 bl g1 0 state=0\n"
      "Z2 bl g2 0 state=0\n"
      ".end\n";
  const auto s = find_rule(lint_text(unsensed), "cim-array-shape");
  ASSERT_TRUE(s.has_value());
  EXPECT_NE(s->message.find("sense"), std::string::npos);
  // Distinct wordlines + a sense source is a legal row.
  const std::string good =
      "VBL bl 0 0.1\n"
      "VG1 g1 0 0.2\n"
      "VG2 g2 0 0.2\n"
      "Z1 bl g1 0 state=1\n"
      "Z2 bl g2 0 state=0\n"
      ".end\n";
  EXPECT_FALSE(find_rule(lint_text(good), "cim-array-shape").has_value());
}

TEST(LintSemantic, AdcRangeWarnsWhenBitlineExceedsFullScale) {
  // The bitline is pinned at 1.5 V — statically above the 1.2 V readout
  // full scale.
  const std::string hot =
      "VBL bl 0 1.5\n"
      "VG1 g1 0 0.2\n"
      "VG2 g2 0 0.2\n"
      "Z1 bl g1 0 state=0\n"
      "Z2 bl g2 0 state=0\n"
      ".end\n";
  const auto d = find_rule(lint_text(hot), "adc-range");
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->severity, lint::Severity::kWarning);
  EXPECT_EQ(d->object, "bl");
  const std::string ok =
      "VBL bl 0 1.0\n"
      "VG1 g1 0 0.2\n"
      "VG2 g2 0 0.2\n"
      "Z1 bl g1 0 state=0\n"
      "Z2 bl g2 0 state=0\n"
      ".end\n";
  EXPECT_FALSE(find_rule(lint_text(ok), "adc-range").has_value());
}

// ------------------------------------------- interval operating points

TEST(LintAnalysis, DividerBoundsAreTightAndSound) {
  const std::string deck =
      "V1 a 0 1.2\n"
      "R1 a mid 47k\n"
      "R2 mid 0 33k\n"
      ".end\n";
  spice::Circuit circuit;
  const spice::NetlistDeck parsed = spice::parse_netlist(deck, circuit);
  const lint::OperatingIntervals iv =
      lint::compute_operating_intervals(circuit, &parsed);
  const spice::NodeId a = *circuit.find_node("a");
  const spice::NodeId mid = *circuit.find_node("mid");
  // The pinned node is exact (up to sweep hulling: none here).
  EXPECT_TRUE(iv.dc_at(a).contains(1.2));
  EXPECT_LT(iv.dc_at(a).width(), 1e-9);
  // The Thevenin refinement pins the divider midpoint to ~33/80 of 1.2 V.
  const double expect_mid = 1.2 * 33.0 / 80.0;
  EXPECT_TRUE(iv.dc_at(mid).contains(expect_mid));
  EXPECT_LT(iv.dc_at(mid).width(), 0.01);
  EXPECT_GE(iv.dc_at(mid).lo(), -1e-9);
  EXPECT_LE(iv.dc_at(mid).hi(), 1.2 + 1e-9);
}

TEST(LintAnalysis, EnvelopeBoundsChargeShareByInitialConditions) {
  // Two pre-charged capacitors joined by a resistor: every transient
  // voltage stays inside the hull of {0, ic1, ic2}.
  const std::string deck =
      "C1 n1 0 1p ic=0.8\n"
      "C2 n2 0 1p ic=0.2\n"
      "R1 n1 n2 10k\n"
      ".tran 1n 100n\n"
      ".end\n";
  spice::Circuit circuit;
  const spice::NetlistDeck parsed = spice::parse_netlist(deck, circuit);
  const lint::OperatingIntervals iv =
      lint::compute_operating_intervals(circuit, &parsed);
  ASSERT_TRUE(iv.has_tran);
  const spice::NodeId n1 = *circuit.find_node("n1");
  const lint::Interval env = iv.envelope_at(n1);
  EXPECT_TRUE(env.contains(0.5));  // the charge-share endpoint
  EXPECT_TRUE(env.contains(0.8));  // the initial condition
  EXPECT_LE(env.hi(), 0.8 + 1e-9);
  EXPECT_GE(env.lo(), -1e-9);
}

TEST(LintAnalysis, CurrentSourceTaintsItsComponentOnly) {
  // The current source makes node x unbounded, but the independent
  // divider on the other component keeps its tight bounds.
  const std::string deck =
      "V1 a 0 1.0\n"
      "R1 a mid 10k\n"
      "R2 mid 0 10k\n"
      "I1 0 x 1u\n"
      "R3 x 0 1meg\n"
      ".end\n";
  spice::Circuit circuit;
  const spice::NetlistDeck parsed = spice::parse_netlist(deck, circuit);
  const lint::OperatingIntervals iv =
      lint::compute_operating_intervals(circuit, &parsed);
  EXPECT_TRUE(iv.dc_at(*circuit.find_node("x")).is_universe());
  EXPECT_TRUE(iv.dc_at(*circuit.find_node("mid")).contains(0.5));
  EXPECT_LT(iv.dc_at(*circuit.find_node("mid")).width(), 0.01);
}

// ------------------------------------------- the rows the figures simulate

namespace {

/// Lint a CiM row after one MAC cycle with every input high. evaluate()
/// leaves each WL source on its read pulse; a freshly built row holds its
/// WL sources at 0 V DC, so linting it proves nothing about the read.
lint::LintReport lint_row_after_read(const sfc::cim::ArrayConfig& cfg) {
  sfc::cim::CiMRow row(cfg);
  row.evaluate(sfc::cim::level_inputs(row.cells(), row.cells()), 27.0);
  return lint::lint_circuit(row.circuit());
}

/// The paper's 0.35 V read keeps every FeFET of the row subthreshold over
/// 0..85 degC (a clean report); a 1.5 V read drives each of the 8 FeFETs
/// out of the window.
void expect_read_bias_checked(const sfc::cim::ArrayConfig& cfg) {
  const lint::LintReport paper = lint_row_after_read(cfg);
  EXPECT_TRUE(paper.clean()) << paper.to_text("row");

  sfc::cim::ArrayConfig hot = cfg;
  hot.bias.v_wl_read = 1.5;
  const lint::LintReport report = lint_row_after_read(hot);
  std::set<std::string> flagged;
  for (const lint::Diagnostic& d : report.diagnostics()) {
    EXPECT_EQ(d.rule, "subthreshold-window") << report.to_text("row");
    EXPECT_EQ(d.severity, lint::Severity::kError);
    flagged.insert(d.object);
  }
  EXPECT_EQ(report.diagnostics().size(), 8u) << report.to_text("row");
  EXPECT_EQ(flagged.size(), 8u);
}

}  // namespace

TEST(LintCimRow, ProposedRowReadStaysSubthreshold) {
  expect_read_bias_checked(sfc::cim::ArrayConfig::proposed_2t1fefet());
}

TEST(LintCimRow, BaselineRowReadStaysSubthreshold) {
  expect_read_bias_checked(sfc::cim::ArrayConfig::baseline_1r_subthreshold());
}

// ----------------------------------------------------- examples + fuzz

TEST(LintSweep, EveryExampleDeckLintsClean) {
  namespace fs = std::filesystem;
  std::size_t decks = 0;
  for (const auto& entry : fs::directory_iterator(SFC_EXAMPLES_DIR)) {
    if (entry.path().extension() != ".cir") continue;
    ++decks;
    const lint::LintResult result = lint::lint_file(entry.path().string());
    EXPECT_TRUE(result.parsed) << entry.path();
    EXPECT_TRUE(result.report.clean())
        << entry.path() << "\n"
        << result.report.to_text(entry.path().filename().string());
  }
  EXPECT_GE(decks, 6u) << "examples/ should ship lintable decks";
}

TEST(LintSweep, TwoHundredFuzzDecksLintClean) {
  sfc::verify::FuzzOptions options;
  options.count = 200;
  int checked = 0;
  for (int i = 0; i < options.count; ++i) {
    const sfc::verify::FuzzNetlist nl =
        sfc::verify::generate_netlist(options, i);
    if (nl.cls == sfc::verify::FuzzClass::kCimRow) continue;  // comment-only
    const lint::LintResult result = lint::lint_source(nl.to_cir());
    EXPECT_TRUE(result.parsed) << "case " << i;
    EXPECT_TRUE(result.report.clean())
        << "case " << i << " (" << sfc::verify::fuzz_class_name(nl.cls)
        << ")\n"
        << nl.to_cir() << result.report.to_text("fuzz");
    ++checked;
  }
  EXPECT_GE(checked, 100);
}
