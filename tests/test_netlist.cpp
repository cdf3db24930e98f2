// Netlist parser tests: numbers with suffixes, every card type, stimulus
// grammar, directives, and error reporting with line numbers.
#include <gtest/gtest.h>

#include "devices/mosfet.hpp"
#include "fefet/fefet.hpp"
#include "spice/engine.hpp"
#include "spice/netlist.hpp"
#include "spice/primitives.hpp"

namespace sfc::spice {
namespace {

TEST(SpiceNumber, SuffixesParse) {
  EXPECT_DOUBLE_EQ(parse_spice_number("4.7k"), 4700.0);
  EXPECT_DOUBLE_EQ(parse_spice_number("5f"), 5e-15);
  EXPECT_DOUBLE_EQ(parse_spice_number("10meg"), 1e7);
  EXPECT_DOUBLE_EQ(parse_spice_number("1.2"), 1.2);
  EXPECT_DOUBLE_EQ(parse_spice_number("-0.35"), -0.35);
  EXPECT_DOUBLE_EQ(parse_spice_number("100n"), 1e-7);
  EXPECT_DOUBLE_EQ(parse_spice_number("2u"), 2e-6);
  EXPECT_DOUBLE_EQ(parse_spice_number("3m"), 3e-3);
  EXPECT_DOUBLE_EQ(parse_spice_number("1g"), 1e9);
  EXPECT_DOUBLE_EQ(parse_spice_number("7p"), 7e-12);
}

TEST(SpiceNumber, RejectsGarbage) {
  EXPECT_THROW(parse_spice_number("abc"), std::runtime_error);
  EXPECT_THROW(parse_spice_number("1.2x"), std::runtime_error);
  // Not finite: stod reads nan and inf, and a suffix can overflow.
  for (const char* token : {"nan", "NaN", "inf", "-Infinity", "1e308k",
                            "1e303meg", "1e400"}) {
    EXPECT_THROW(parse_spice_number(token), std::runtime_error) << token;
  }
}

TEST(Netlist, VoltageDividerDeck) {
  const std::string deck = R"(
* simple divider
V1 in 0 10
R1 in mid 1k
R2 mid 0 3k
.temp 45
.end
)";
  Circuit ckt;
  const NetlistDeck d = parse_netlist(deck, ckt);
  EXPECT_TRUE(d.has_temperature);
  EXPECT_DOUBLE_EQ(d.temperature_c, 45.0);

  Engine engine(ckt, d.temperature_c);
  const DcResult op = engine.dc_operating_point();
  ASSERT_TRUE(op.converged);
  EXPECT_NEAR(op.voltage("mid"), 7.5, 1e-6);
}

TEST(Netlist, PulseSourceAndTran) {
  const std::string deck = R"(
V1 in 0 PULSE(0 1.2 1n 0.1n 0.1n 3n 10n)
R1 in out 1k
C1 out 0 1p ic=0
.tran 0.05n 8n
)";
  Circuit ckt;
  const NetlistDeck d = parse_netlist(deck, ckt);
  ASSERT_EQ(d.tran.size(), 1u);
  EXPECT_DOUBLE_EQ(d.tran[0].dt, 0.05e-9);
  EXPECT_DOUBLE_EQ(d.tran[0].t_stop, 8e-9);

  Engine engine(ckt, 27.0);
  TransientOptions opts;
  opts.dt = d.tran[0].dt;
  const TransientResult tr = engine.transient(d.tran[0].t_stop, opts);
  ASSERT_TRUE(tr.converged);
  EXPECT_GT(tr.at("out", 4e-9), 0.8);  // charged during pulse
}

TEST(Netlist, MosfetWithModelCard) {
  const std::string deck = R"(
.model mynmos nmos vth0=0.45 n=1.3
VDD d 0 1.2
VG g 0 1.2
M1 d g 0 mynmos w=100n l=20n
)";
  Circuit ckt;
  parse_netlist(deck, ckt);
  auto* m1 = dynamic_cast<devices::Mosfet*>(ckt.find("M1"));
  ASSERT_NE(m1, nullptr);
  EXPECT_DOUBLE_EQ(m1->params().vth0, 0.45);
  EXPECT_DOUBLE_EQ(m1->params().n_factor, 1.3);
  EXPECT_DOUBLE_EQ(m1->params().w, 100e-9);
  EXPECT_DOUBLE_EQ(m1->params().l, 20e-9);

  Engine engine(ckt, 27.0);
  const DcResult op = engine.dc_operating_point();
  ASSERT_TRUE(op.converged);
}

TEST(Netlist, SwitchDiodeInductorCards) {
  const std::string deck = R"(
V1 in 0 2.0
VC c 0 1.2
S1 in out c ron=200 roff=1e9 vt=0.5
D1 out 0 is=1e-15
I1 0 out DC 1m
)";
  Circuit ckt;
  parse_netlist(deck, ckt);
  EXPECT_NE(ckt.find("S1"), nullptr);
  EXPECT_NE(ckt.find("D1"), nullptr);
  EXPECT_NE(ckt.find("I1"), nullptr);
}

TEST(Netlist, PwlAndSinSources) {
  const std::string deck = R"(
V1 a 0 PWL(0 0 1n 1 2n 0.5)
V2 b 0 SIN(0.6 0.2 1e9)
R1 a 0 1k
R2 b 0 1k
)";
  Circuit ckt;
  parse_netlist(deck, ckt);
  auto* v1 = dynamic_cast<VSource*>(ckt.find("V1"));
  ASSERT_NE(v1, nullptr);
  EXPECT_DOUBLE_EQ(v1->waveform().at(0.5e-9), 0.5);
  auto* v2 = dynamic_cast<VSource*>(ckt.find("V2"));
  ASSERT_NE(v2, nullptr);
  EXPECT_NEAR(v2->waveform().at(0.25e-9), 0.8, 1e-9);
}

TEST(Netlist, DcSweepDirective) {
  const std::string deck = R"(
V1 in 0 0
R1 in 0 1k
.dc V1 0 1.2 0.1
)";
  Circuit ckt;
  const NetlistDeck d = parse_netlist(deck, ckt);
  ASSERT_EQ(d.dc.size(), 1u);
  EXPECT_EQ(d.dc[0].source, "V1");
  EXPECT_DOUBLE_EQ(d.dc[0].stop, 1.2);
}

TEST(Netlist, CommentsAndEndHandled) {
  const std::string deck = R"(
* leading comment
R1 a 0 1k ; trailing comment
.end
R2 never 0 1k
)";
  Circuit ckt;
  parse_netlist(deck, ckt);
  EXPECT_NE(ckt.find("R1"), nullptr);
  EXPECT_EQ(ckt.find("R2"), nullptr);  // after .end
}

TEST(Netlist, ErrorsCarryLineNumbers) {
  // L, G and E are not card letters of this netlist dialect.
  for (const std::string card :
       {"Q1 x y z", "L1 a 0 1u", "G1 0 a b 0 2m", "E1 a 0 b 0 4"}) {
    Circuit ckt;
    try {
      parse_netlist("R1 a 0 1k\n" + card + "\n", ckt);
      FAIL() << "expected parse error for '" << card << "'";
    } catch (const NetlistError& e) {
      EXPECT_EQ(e.rule(), "unknown-card") << card;
      EXPECT_EQ(e.line(), 2u) << card;
      EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
          << card;
    }
  }
}

TEST(Netlist, NonFiniteValuesFailAtTheirLine) {
  for (const std::string card :
       {"R1 a b nan", "V1 a 0 1e308k", "C1 b 0 1p ic=nan",
        ".model m nmos vth0=nan", ".temp nan", ".model m nmos vth0=abc"}) {
    Circuit ckt;
    try {
      parse_netlist("R0 a 0 1k\n" + card + "\n", ckt);
      FAIL() << "expected parse error for '" << card << "'";
    } catch (const NetlistError& e) {
      EXPECT_EQ(e.line(), 2u) << card << ": " << e.what();
    }
  }
}

TEST(Netlist, ImpossibleStimuliFailAtTheirLine) {
  // Unsorted PWL times; a negative PULSE width; a PULSE period shorter
  // than rise + width + fall.
  for (const std::string card :
       {"V1 a 0 PWL(1e-9 0 0 1)", "V1 a 0 PULSE(0 1 0 1n 1n -2n 10n)",
        "V1 a 0 PULSE(0 1 0 1n 1n 5n 2n)"}) {
    Circuit ckt;
    try {
      parse_netlist("R1 a 0 1k\n" + card + "\n", ckt);
      FAIL() << "expected parse error for '" << card << "'";
    } catch (const NetlistError& e) {
      EXPECT_EQ(e.rule(), "parse-error") << card << ": " << e.what();
      EXPECT_EQ(e.line(), 2u) << card << ": " << e.what();
    }
  }
}

TEST(Netlist, UnknownModelRejected) {
  Circuit ckt;
  EXPECT_THROW(parse_netlist("M1 d g 0 nosuchmodel\n", ckt),
               std::runtime_error);
}

TEST(Netlist, MalformedPulseRejected) {
  Circuit ckt;
  EXPECT_THROW(parse_netlist("V1 a 0 PULSE(0 1)\n", ckt), std::runtime_error);
}

TEST(Netlist, SubcircuitExpansion) {
  const std::string deck = R"(
.subckt divider top bottom
R1 top mid 1k
R2 mid bottom 1k
.ends
V1 in 0 8
Xa in m1 divider
Xb m1 0 divider
)";
  Circuit ckt;
  parse_netlist(deck, ckt);
  // Two instances -> four resistors with instance-qualified names.
  EXPECT_NE(ckt.find("R1:Xa"), nullptr);
  EXPECT_NE(ckt.find("R2:Xa"), nullptr);
  EXPECT_NE(ckt.find("R1:Xb"), nullptr);
  EXPECT_NE(ckt.find("R2:Xb"), nullptr);

  Engine engine(ckt, 27.0);
  const DcResult op = engine.dc_operating_point();
  ASSERT_TRUE(op.converged);
  // Four equal resistors in series from 8 V: the Xa/Xb boundary sits at
  // half, and each internal mid node at the quarter points.
  EXPECT_NEAR(op.voltage("m1"), 4.0, 1e-6);
  EXPECT_NEAR(op.voltage("mid:Xa"), 6.0, 1e-6);
  EXPECT_NEAR(op.voltage("mid:Xb"), 2.0, 1e-6);
}

TEST(Netlist, NestedSubcircuits) {
  const std::string deck = R"(
.subckt unit a b
Ru a b 1k
.ends
.subckt pair top bottom
X1 top m unit
X2 m bottom unit
.ends
V1 in 0 4
Xp in 0 pair
)";
  Circuit ckt;
  parse_netlist(deck, ckt);
  Engine engine(ckt, 27.0);
  const DcResult op = engine.dc_operating_point();
  ASSERT_TRUE(op.converged);
  EXPECT_NEAR(op.voltage("m:Xp"), 2.0, 1e-6);
}

TEST(Netlist, SubcircuitErrors) {
  Circuit ckt;
  // Unknown subckt.
  EXPECT_THROW(parse_netlist("X1 a b nosuch\n", ckt), std::runtime_error);
  // Port count mismatch.
  Circuit ckt2;
  EXPECT_THROW(
      parse_netlist(".subckt u a b\nR1 a b 1k\n.ends\nX1 n1 u\n", ckt2),
      std::runtime_error);
  // Unterminated subckt.
  Circuit ckt3;
  EXPECT_THROW(parse_netlist(".subckt u a b\nR1 a b 1k\n", ckt3),
               std::runtime_error);
}

TEST(Netlist, AcDirective) {
  const std::string deck = R"(
V1 in 0 1
R1 in 0 1k
.ac 10 1k 1meg
)";
  Circuit ckt;
  const NetlistDeck d = parse_netlist(deck, ckt);
  ASSERT_EQ(d.ac.size(), 1u);
  EXPECT_EQ(d.ac[0].points_per_decade, 10);
  EXPECT_DOUBLE_EQ(d.ac[0].f_start, 1e3);
  EXPECT_DOUBLE_EQ(d.ac[0].f_stop, 1e6);
}

TEST(Netlist, FefetCard) {
  const std::string deck = R"(
VBL bl 0 1.2
VWL g 0 0.35
Z1 bl g out state=1 vthlow=0.25 vthhigh=1.7
R1 out 0 10meg
)";
  Circuit ckt;
  parse_netlist(deck, ckt);
  auto* z1 = dynamic_cast<sfc::fefet::FeFet*>(ckt.find("Z1"));
  ASSERT_NE(z1, nullptr);
  EXPECT_TRUE(z1->stored_bit());
  EXPECT_NEAR(z1->ferroelectric().vth(27.0), 0.25, 1e-9);

  Engine engine(ckt, 27.0);
  const DcResult op = engine.dc_operating_point();
  ASSERT_TRUE(op.converged);
  EXPECT_GT(op.voltage("out"), 0.05);  // stored '1' conducts at 0.35 V
}

TEST(Netlist, FefetInsideSubcircuit) {
  const std::string deck = R"(
.subckt bitcell bl wl out
Z1 bl wl out state=1
C1 out 0 5f ic=0
.ends
VBL bl 0 1.2
VWL wl 0 0.35
X0 bl wl o0 bitcell
X1 bl wl o1 bitcell
)";
  Circuit ckt;
  parse_netlist(deck, ckt);
  EXPECT_NE(ckt.find("Z1:X0"), nullptr);
  EXPECT_NE(ckt.find("C1:X1"), nullptr);
  EXPECT_TRUE(ckt.has_node("o0"));
  EXPECT_TRUE(ckt.has_node("o1"));
}

}  // namespace
}  // namespace sfc::spice
