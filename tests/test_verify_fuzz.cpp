// Property-based netlist fuzzer: the 200-case campaign passes
// deterministically, generated decks round-trip through the SPICE parser
// and are pinned byte for byte, and a forced invariant failure yields a
// minimized .cir reproducer.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>

#include "spice/circuit.hpp"
#include "spice/netlist.hpp"
#include "trace/trace.hpp"
#include "verify/fuzz.hpp"

namespace sfc::verify {
namespace {

// Acceptance gate: >= 200 seeded random netlists, deterministic, well
// inside the 60 s ctest budget (the whole campaign runs in ~1 s).
TEST(VerifyFuzz, Campaign200CasesPassesAndIsDeterministic) {
  FuzzOptions opt;
  opt.count = 200;
  opt.dump_dir = testing::TempDir();
  const FuzzReport a = run_fuzz(opt);
  EXPECT_TRUE(a.pass()) << a.summary();
  EXPECT_EQ(a.executed, 200);
  int total = 0;
  for (int c = 0; c < 4; ++c) {
    EXPECT_GT(a.per_class[c], 0) << "class " << c << " never generated";
    total += a.per_class[c];
  }
  EXPECT_EQ(total, 200);

  const FuzzReport b = run_fuzz(opt);
  EXPECT_EQ(a.observable_hash, b.observable_hash)
      << "same options must reproduce bit-identical observables";
}

TEST(VerifyFuzz, DifferentSeedsExploreDifferentCircuits) {
  FuzzOptions opt;
  opt.count = 20;
  opt.dump_dir = testing::TempDir();
  const FuzzReport a = run_fuzz(opt);
  opt.seed ^= 0xdeadbeefULL;
  const FuzzReport b = run_fuzz(opt);
  EXPECT_NE(a.observable_hash, b.observable_hash);
}

TEST(VerifyFuzz, GeneratedDecksRoundTripThroughParser) {
  const FuzzOptions opt;
  int parsed_devices = 0;
  for (int i = 0; i < 40; ++i) {
    const FuzzNetlist nl = generate_netlist(opt, i);
    SCOPED_TRACE(std::string(fuzz_class_name(nl.cls)) + " #" +
                 std::to_string(i));
    const std::string deck = nl.to_cir("unit-test");
    spice::Circuit circuit;
    spice::NetlistDeck directives;
    ASSERT_NO_THROW(directives = spice::parse_netlist(deck, circuit)) << deck;
    if (nl.cls == FuzzClass::kCimRow) continue;  // comment-only deck
    EXPECT_EQ(circuit.devices().size(), nl.cards.size()) << deck;
    EXPECT_TRUE(directives.has_temperature);
    EXPECT_NEAR(directives.temperature_c, nl.temperature_c, 1e-9);
    if (nl.t_stop > 0.0) {
      ASSERT_EQ(directives.tran.size(), 1u);
      EXPECT_NEAR(directives.tran.front().t_stop, nl.t_stop, 1e-18);
    }
    parsed_devices += static_cast<int>(circuit.devices().size());
  }
  EXPECT_GT(parsed_devices, 100);

  // FNV-1a-64 over the first 200 default decks, in order: a changed draw
  // or card format fails here, not only in the campaign hash.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (int i = 0; i < 200; ++i) {
    for (const unsigned char c : generate_netlist(opt, i).to_cir()) {
      h ^= c;
      h *= 0x100000001b3ULL;
    }
  }
  EXPECT_EQ(h, 0x6147a1d8473d4c19ULL);
}

TEST(VerifyFuzz, MultiLineFailureNoteKeepsTheReproducerParseable) {
  // A lint_clean note carries the whole lint report, one finding a line.
  const FuzzNetlist nl = generate_netlist({}, 0);
  const std::string deck =
      nl.to_cir("lint_clean: generated-valid deck produced 1 diagnostic(s):\n"
                "netlist:3: warning: [x] y");
  spice::Circuit circuit;
  ASSERT_NO_THROW(spice::parse_netlist(deck, circuit)) << deck;
  if (nl.cls != FuzzClass::kCimRow) {
    EXPECT_EQ(circuit.devices().size(), nl.cards.size()) << deck;
  }
  EXPECT_NE(deck.find("\n* netlist:3: warning: [x] y\n"), std::string::npos)
      << deck;
}

TEST(VerifyFuzz, ForcedFailureProducesMinimizedReproducer) {
  FuzzOptions opt;
  opt.count = 30;
  opt.dump_dir = testing::TempDir();
  // Impossible tolerance: every charge-share case must now "fail", which
  // exercises the shrinking + reproducer-dump path end to end.
  opt.charge_tol_rel = 0.0;
  opt.charge_tol_abs = 1e-30;
  const FuzzReport rep = run_fuzz(opt);
  ASSERT_FALSE(rep.pass());
  ASSERT_FALSE(rep.failures.empty());

  const FuzzFailure& f = rep.failures.front();
  EXPECT_EQ(f.invariant, "charge_conservation");
  EXPECT_FALSE(f.detail.empty());
  EXPECT_LE(f.cards_after_shrink, f.cards_before_shrink);
  EXPECT_GT(f.cards_after_shrink, 0);

  // The minimized netlist still violates the same invariant...
  const auto still_failing = check_invariants(f.minimized, opt);
  ASSERT_TRUE(still_failing.has_value());
  EXPECT_EQ(still_failing->invariant, f.invariant);
  // ...and no single further card removal keeps it failing (1-minimal).
  for (std::size_t i = 0; i < f.minimized.cards.size(); ++i) {
    FuzzNetlist smaller = f.minimized;
    smaller.cards.erase(smaller.cards.begin() +
                        static_cast<std::ptrdiff_t>(i));
    const auto g = check_invariants(smaller, opt);
    EXPECT_FALSE(g && g->invariant == f.invariant)
        << "card " << i << " was removable";
  }

  // The dumped artifact exists, carries provenance, and parses.
  ASSERT_FALSE(f.reproducer_path.empty());
  std::ifstream in(f.reproducer_path);
  ASSERT_TRUE(in.good()) << f.reproducer_path;
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string deck = ss.str();
  EXPECT_NE(deck.find("charge_conservation"), std::string::npos);
  EXPECT_NE(deck.find("seed=0x"), std::string::npos);
  spice::Circuit circuit;
  ASSERT_NO_THROW(spice::parse_netlist(deck, circuit)) << deck;
  EXPECT_EQ(circuit.devices().size(), f.minimized.cards.size());
}

// The parser numbers circuit nodes in the order the cards first name them:
// with C1 on n1 listed first, "n1" is circuit node 0. The envelope oracle
// must check each capacitor against its own node's envelope. Each node
// holds two capacitors, so no terminal dangles and the deck lints clean.
TEST(VerifyFuzz, EnvelopeOracleLooksUpNodesByName) {
  FuzzNetlist nl;
  nl.cls = FuzzClass::kChargeShare;
  nl.t_stop = 20e-9;
  nl.dt = 1e-10;
  nl.cards = {"C1 n1 0 5e-15 ic=1", "C2 n0 0 5e-15 ic=0",
              "C3 n1 0 5e-15 ic=1", "C4 n0 0 5e-15 ic=0"};
  const FuzzOptions opt;
  const auto failure = check_invariants(nl, opt);
  EXPECT_FALSE(failure.has_value())
      << failure->invariant << ": " << failure->detail;
}

#if SFC_TRACE_ENABLED
// SpanScope's exception-safety contract, exercised at campaign scale: a
// fuzz run under an active tracer — including a forced-failure campaign
// that drives the engine's error and shrink paths — must end with zero
// open spans on the asserting thread.
TEST(VerifyFuzz, TracedCampaignLeavesNoSpanOpen) {
  trace::Tracer& tracer = trace::Tracer::global();
  tracer.start();
  trace::TestProbe probe;

  FuzzOptions opt;
  opt.count = 60;
  opt.dump_dir = testing::TempDir();
  const FuzzReport ok = run_fuzz(opt);
  EXPECT_TRUE(ok.pass()) << ok.summary();

  // Impossible tolerance: every charge-share case fails its invariant,
  // so shrinking repeatedly re-simulates partial netlists — lots of
  // engine entries/exits, some through non-converged paths.
  opt.charge_tol_rel = 0.0;
  opt.charge_tol_abs = 1e-30;
  const FuzzReport bad = run_fuzz(opt);
  EXPECT_FALSE(bad.pass());

  tracer.stop();
  EXPECT_EQ(trace::open_span_count(), 0)
      << "an engine error path leaked an open span";
  EXPECT_GT(tracer.event_count(), 0u);
  EXPECT_GT(probe.counter_delta("spice.newton.iterations"), 0u);
}
#else
TEST(VerifyFuzz, TracedCampaignLeavesNoSpanOpen) {
  GTEST_SKIP() << "built with SFC_TRACE=OFF; spans compile to no-ops";
}
#endif

// The lint cross-check is one of the invariants the shrinker re-checks,
// so a deck the linter rejects is minimized like any other failure. Here
// n1 dangles from R2: the deck solves, but lints with a warning.
TEST(VerifyFuzz, LintFailureShrinks) {
  FuzzNetlist nl;
  nl.cls = FuzzClass::kDcKcl;
  nl.cards = {"V1 n0 0 1", "R1 n0 0 1k", "R2 n0 n1 1k"};
  const FuzzOptions opt;
  const auto failure = check_invariants(nl, opt);
  ASSERT_TRUE(failure.has_value());
  EXPECT_EQ(failure->invariant, "lint_clean");
  EXPECT_NE(failure->detail.find("dangling-terminal"), std::string::npos)
      << failure->detail;
  const FuzzNetlist shrunk = shrink_netlist(nl, opt);
  EXPECT_LT(shrunk.cards.size(), nl.cards.size());
  const auto still_failing = check_invariants(shrunk, opt);
  ASSERT_TRUE(still_failing.has_value());
  EXPECT_EQ(still_failing->invariant, "lint_clean");
}

TEST(VerifyFuzz, ShrinkerIsIdentityOnPassingNetlist) {
  const FuzzOptions opt;
  const FuzzNetlist nl = generate_netlist(opt, 0);
  ASSERT_FALSE(check_invariants(nl, opt).has_value());
  const FuzzNetlist same = shrink_netlist(nl, opt);
  EXPECT_EQ(same.cards, nl.cards);
}

TEST(VerifyFuzz, ClassMixMatchesSchedule) {
  const FuzzOptions opt;
  // Index 13 of every 25-block is the paper-shaped CiM row; the rest
  // cycle through the three generic classes.
  EXPECT_EQ(generate_netlist(opt, 13).cls, FuzzClass::kCimRow);
  EXPECT_EQ(generate_netlist(opt, 38).cls, FuzzClass::kCimRow);
  EXPECT_EQ(generate_netlist(opt, 0).cls, FuzzClass::kDcKcl);
  EXPECT_EQ(generate_netlist(opt, 1).cls, FuzzClass::kChargeShare);
  EXPECT_EQ(generate_netlist(opt, 2).cls, FuzzClass::kSubthresholdTemp);
}

}  // namespace
}  // namespace sfc::verify
