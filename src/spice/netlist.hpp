// SPICE-like netlist front end.
//
// Supported cards (case-insensitive, '*'/';' comments, value suffixes
// f p n u m k meg g):
//   R<name> n1 n2 <ohms>
//   C<name> n1 n2 <farads> [ic=<volts>]
//   V<name> n+ n- <dc> | DC <v> | PULSE(v1 v2 td tr tf pw per) |
//                  PWL(t1 v1 t2 v2 ...) | SIN(off amp freq [td])
//   I<name> n+ n- ... (same stimulus grammar)
//   S<name> n1 n2 ctrl [ron=] [roff=] [vt=] [vw=]
//   M<name> d g s <model> [w=] [l=]
//   D<name> a c [is=] [n=]
//   Z<name> d g s [state=0|1] [vthlow=] [vthhigh=] [w=] [l=]   (FeFET)
//   X<name> n1 n2 ... <subckt>                                 (instance)
//   .subckt <name> p1 p2 ...
//     ... body cards (ports map to instance nodes, internal nodes and
//         device names are prefixed with the instance name) ...
//   .ends
//   .model <name> nmos|pmos [vth0= n= mu0= cox= lambda= tcvth= muexp= tnom=]
//   .tran <dt> <tstop>
//   .dc <vsource> <start> <stop> <step>
//   .ac <points_per_decade> <f_start> <f_stop>
//   .temp <celsius>
//   .end
//
// parse_netlist builds the circuit into an existing Circuit object and
// returns the analysis directives for the caller to run.
#pragma once

#include <string>
#include <vector>

#include "spice/circuit.hpp"

namespace sfc::spice {

/// Structured parse failure: carries the offending source line and a
/// stable machine-readable rule id ("duplicate-device", "undefined-model",
/// "subckt-port-mismatch", "nonpositive-value", "unknown-card",
/// "unknown-directive", "parse-error", ...). The lint layer converts these
/// into Diagnostic records; the what() text keeps the historical
/// "netlist line N: ..." format.
class NetlistError : public std::runtime_error {
 public:
  NetlistError(std::string rule, std::size_t line, const std::string& message)
      : std::runtime_error("netlist line " + std::to_string(line) + ": " +
                           message),
        rule_(std::move(rule)),
        line_(line) {}

  const std::string& rule() const { return rule_; }
  std::size_t line() const { return line_; }

 private:
  std::string rule_;
  std::size_t line_;
};

struct TranDirective {
  double dt = 0.0;
  double t_stop = 0.0;
  std::size_t line = 0;  ///< source line of the .tran card (0 = API-built)
};

struct DcSweepDirective {
  std::string source;
  double start = 0.0;
  double stop = 0.0;
  double step = 0.0;
  std::size_t line = 0;
};

struct AcDirective {
  int points_per_decade = 10;
  double f_start = 1.0;
  double f_stop = 1e9;
  std::size_t line = 0;
};

/// A .model card as seen by the parser; `uses` counts instance cards that
/// referenced it (the lint unused-model rule reads this).
struct ModelDef {
  std::string name;
  std::size_t line = 0;
  int uses = 0;
};

struct NetlistDeck {
  std::vector<TranDirective> tran;
  std::vector<DcSweepDirective> dc;
  std::vector<AcDirective> ac;
  std::vector<ModelDef> models;
  double temperature_c = 27.0;
  bool has_temperature = false;
  std::size_t temperature_line = 0;
};

/// Parse `text` into `circuit`. Throws NetlistError (a std::runtime_error)
/// with a line-numbered message on malformed input. Device cards remember
/// their source line via Device::source_line(); redefining a device or
/// model name is a hard error reporting both lines.
NetlistDeck parse_netlist(const std::string& text, Circuit& circuit);

/// Parse a SPICE number with magnitude suffix ("4.7k", "5f", "10meg").
/// Throws std::runtime_error if the token is not a finite number.
double parse_spice_number(const std::string& token);

}  // namespace sfc::spice
