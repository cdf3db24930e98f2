// Netlist playground: run a SPICE-style deck through the analog engine.
// Reads the deck from a file (or uses a built-in FeFET read-path demo),
// executes the .dc / .tran directives and prints results.
//
//   $ ./netlist_playground               # built-in demo deck
//   $ ./netlist_playground my_deck.cir   # your own
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "spice/engine.hpp"
#include "spice/netlist.hpp"
#include "spice/sweep.hpp"

namespace {

const char* kDemoDeck = R"(* MOSFET common-source stage with a pulsed input
.model n14 nmos vth0=0.35 n=1.25
VDD vdd 0 1.2
VIN in 0 PULSE(0 0.9 1n 0.1n 0.1n 4n 10n)
RD vdd out 100k
M1 out in 0 n14 w=112n l=14n
CL out 0 2f
.tran 0.02n 10n
.dc VIN 0 1.2 0.05
.temp 27
.end
)";

}  // namespace

int main(int argc, char** argv) {
  using namespace sfc::spice;

  std::string text;
  if (argc > 1) {
    std::ifstream in(argv[1]);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", argv[1]);
      return 1;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    text = buffer.str();
    std::printf("deck: %s\n", argv[1]);
  } else {
    text = kDemoDeck;
    std::printf("running the built-in demo deck:\n%s\n", kDemoDeck);
  }

  Circuit circuit;
  NetlistDeck deck;
  try {
    deck = parse_netlist(text, circuit);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "parse error: %s\n", e.what());
    return 1;
  }
  const double temp = deck.temperature_c;
  std::printf("%s\n", circuit.summary().c_str());

  // Operating point first.
  Engine engine(circuit, temp);
  const DcResult op = engine.dc_operating_point();
  std::printf("DC operating point (T = %.1f degC, converged = %s):\n", temp,
              op.converged ? "yes" : "NO");
  for (const auto& [node, volts] : op.voltages) {
    std::printf("  V(%s) = %.6f V\n", node.c_str(), volts);
  }

  for (const auto& dc : deck.dc) {
    auto* src = dynamic_cast<VSource*>(circuit.find(dc.source));
    if (!src) {
      std::fprintf(stderr, ".dc: no voltage source '%s'\n", dc.source.c_str());
      continue;
    }
    std::printf("\n.dc %s %.3g -> %.3g step %.3g:\n", dc.source.c_str(),
                dc.start, dc.stop, dc.step);
    SweepSpec spec;
    try {
      spec.values = linspace_step(dc.start, dc.stop, dc.step);
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, ".dc %s: %s\n", dc.source.c_str(), e.what());
      continue;
    }
    spec.apply = [name = dc.source](Circuit& c, double v) {
      static_cast<VSource*>(c.find(name))->set_dc(v);
    };
    spec.temperature_c = temp;
    const auto points = run_sweep(circuit, spec);
    std::printf("  %-10s", dc.source.c_str());
    std::vector<std::string> nodes;
    for (const auto& [node, volts] : points.front().op.voltages) {
      nodes.push_back(node);
      std::printf(" %-10s", ("V(" + node + ")").c_str());
    }
    std::printf("\n");
    for (const auto& p : points) {
      std::printf("  %-10.4f", p.value);
      for (const auto& node : nodes) {
        std::printf(" %-10.5f", p.op.voltage(node));
      }
      std::printf("\n");
    }
  }

  for (const auto& ac : deck.ac) {
    std::printf("\n.ac %d pts/dec, %.3g -> %.3g Hz (excite sources with "
                "set_ac_magnitude; quiet deck shows 0):\n",
                ac.points_per_decade, ac.f_start, ac.f_stop);
    // Excite the first voltage source found.
    for (const auto& dev : circuit.devices()) {
      if (auto* src = dynamic_cast<VSource*>(
              circuit.find(dev->name()))) {
        src->set_ac_magnitude(1.0);
        std::printf("  exciting %s with 1 V AC\n", src->name().c_str());
        break;
      }
    }
    const auto freqs =
        log_frequency_grid(ac.f_start, ac.f_stop, ac.points_per_decade);
    const AcResult res = engine.ac(freqs);
    if (!res.converged) {
      std::printf("  AC analysis failed\n");
      continue;
    }
    std::printf("  %-12s", "f [Hz]");
    for (const auto& [node, volts] : op.voltages) {
      (void)volts;
      std::printf(" |V(%s)| [dB]", node.c_str());
    }
    std::printf("\n");
    for (std::size_t i = 0; i < res.num_points();
         i += std::max<std::size_t>(1, res.num_points() / 12)) {
      std::printf("  %-12.4g", res.frequencies()[i]);
      for (const auto& [node, volts] : op.voltages) {
        (void)volts;
        std::printf(" %12.2f", res.magnitude_db(node, i));
      }
      std::printf("\n");
    }
  }

  for (const auto& tr : deck.tran) {
    std::printf("\n.tran dt=%.3g t_stop=%.3g:\n", tr.dt, tr.t_stop);
    TransientOptions opts;
    opts.dt = tr.dt;
    const TransientResult result = engine.transient(tr.t_stop, opts);
    if (!result.converged) {
      std::printf("  transient failed to converge\n");
      continue;
    }
    std::printf("  %zu samples recorded; final values:\n",
                result.num_samples());
    for (const auto& name : result.signal_names()) {
      std::printf("    %s = %.6g\n", name.c_str(),
                  result.final_value(name));
    }
    std::printf("  source energy delivered:\n");
    for (const auto& [src, joules] : result.source_energy) {
      std::printf("    %s: %.4g J\n", src.c_str(), joules);
    }
  }
  return 0;
}
