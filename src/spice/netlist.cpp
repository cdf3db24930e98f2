#include "spice/netlist.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <deque>
#include <map>
#include <sstream>
#include <stdexcept>

#include "devices/diode.hpp"
#include "devices/mosfet.hpp"
#include "fefet/fefet.hpp"
#include "spice/primitives.hpp"

namespace sfc::spice {
namespace {

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return s;
}

[[noreturn]] void fail(std::size_t line_no, const std::string& msg) {
  throw NetlistError("parse-error", line_no, msg);
}

[[noreturn]] void fail_rule(const char* rule, std::size_t line_no,
                            const std::string& msg) {
  throw NetlistError(rule, line_no, msg);
}

/// Split a card into tokens; '(' ')' ',' become separators but '=' is
/// kept so key=value pairs survive as "key" "=" "value".
std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::string current;
  auto push = [&] {
    if (!current.empty()) {
      tokens.push_back(current);
      current.clear();
    }
  };
  for (char c : line) {
    if (std::isspace(static_cast<unsigned char>(c)) || c == '(' || c == ')' ||
        c == ',') {
      push();
    } else if (c == '=') {
      push();
      tokens.emplace_back("=");
    } else {
      current += c;
    }
  }
  push();
  return tokens;
}

/// key=value map from tokens[start..]; non-kv tokens are appended to
/// `positional`.
std::map<std::string, std::string> keyvalues(
    const std::vector<std::string>& tokens, std::size_t start,
    std::vector<std::string>& positional) {
  std::map<std::string, std::string> kv;
  std::size_t i = start;
  while (i < tokens.size()) {
    if (i + 1 < tokens.size() && tokens[i + 1] == "=") {
      if (i + 2 >= tokens.size()) return kv;
      kv[lower(tokens[i])] = tokens[i + 2];
      i += 3;
    } else {
      positional.push_back(tokens[i]);
      ++i;
    }
  }
  return kv;
}

/// How many leading tokens (after the device name) are node names, per
/// card letter. X cards are handled separately.
int node_token_count(char card) {
  switch (card) {
    case 'r':
    case 'c':
    case 'v':
    case 'i':
    case 'd':
      return 2;
    case 's':
    case 'm':
    case 'z':
      return 3;
    default:
      return 0;
  }
}

bool is_ground_token(const std::string& t) {
  const std::string l = lower(t);
  return l == "0" || l == "gnd" || l == "vss";
}

struct Subckt {
  std::vector<std::string> ports;
  std::vector<std::pair<std::string, std::size_t>> body;  // line, line_no
};

}  // namespace

double parse_spice_number(const std::string& token) {
  const std::string t = lower(token);
  std::size_t pos = 0;
  double value;
  try {
    value = std::stod(t, &pos);
  } catch (const std::exception&) {
    throw std::runtime_error("not a number: '" + token + "'");
  }
  const std::string suffix = t.substr(pos);
  if (suffix.rfind("meg", 0) == 0) {
    value *= 1e6;
  } else if (!suffix.empty()) {
    switch (suffix[0]) {
      case 'a': value *= 1e-18; break;
      case 'f': value *= 1e-15; break;
      case 'p': value *= 1e-12; break;
      case 'n': value *= 1e-9; break;
      case 'u': value *= 1e-6; break;
      case 'm': value *= 1e-3; break;
      case 'k': value *= 1e3; break;
      case 'g': value *= 1e9; break;
      case 't': value *= 1e12; break;
      default:
        throw std::runtime_error("unknown suffix on '" + token + "'");
    }
  }
  // stod reads "nan" and "inf", and a suffix can overflow a finite value.
  if (!std::isfinite(value)) {
    throw std::runtime_error("not a finite number: '" + token + "'");
  }
  return value;
}

namespace {

/// Parse a source stimulus starting at tokens[i]. Grammar:
///   <number> | dc <number> | pulse v1 v2 td tr tf pw per |
///   pwl t1 v1 t2 v2 ... | sin off amp freq [td]
Waveform parse_stimulus(const std::vector<std::string>& tokens, std::size_t i,
                        std::size_t line_no) {
  if (i >= tokens.size()) fail(line_no, "missing source value");
  const std::string kind = lower(tokens[i]);
  auto num = [&](std::size_t k) {
    if (k >= tokens.size()) fail(line_no, "missing stimulus parameter");
    return parse_spice_number(tokens[k]);
  };
  if (kind == "dc") return Waveform::dc(num(i + 1));
  // An impossible PULSE or PWL is a malformed card, not a bad device
  // value, so its invalid_argument is reported here as a parse error.
  try {
    if (kind == "pulse") {
      if (i + 7 >= tokens.size()) fail(line_no, "PULSE needs 7 parameters");
      return Waveform::pulse(num(i + 1), num(i + 2), num(i + 3), num(i + 4),
                             num(i + 5), num(i + 6), num(i + 7));
    }
    if (kind == "pwl") {
      std::vector<std::pair<double, double>> pts;
      for (std::size_t k = i + 1; k < tokens.size(); k += 2) {
        if (k + 1 >= tokens.size()) {
          fail(line_no, "PWL needs time/value pairs");
        }
        pts.emplace_back(num(k), num(k + 1));
      }
      return Waveform::pwl(std::move(pts));
    }
  } catch (const std::invalid_argument& e) {
    fail(line_no, e.what());
  }
  if (kind == "sin") {
    if (i + 3 >= tokens.size()) fail(line_no, "SIN needs >= 3 parameters");
    const double delay = (i + 4 < tokens.size()) ? num(i + 4) : 0.0;
    return Waveform::sine(num(i + 1), num(i + 2), num(i + 3), delay);
  }
  return Waveform::dc(num(i));
}

}  // namespace

NetlistDeck parse_netlist(const std::string& text, Circuit& circuit) {
  NetlistDeck deck;
  std::map<std::string, devices::MosfetParams> models;
  std::map<std::string, std::size_t> model_index;  // name -> deck.models slot
  std::map<std::string, Subckt> subckts;
  std::map<std::string, std::size_t> subckt_lines;
  // First-definition line of every device card seen (including X instance
  // names). Name redefinition is a hard error reporting both lines.
  std::map<std::string, std::size_t> device_lines;

  // Queue of pending lines; subcircuit expansion pushes to the front.
  std::deque<std::pair<std::string, std::size_t>> queue;
  {
    std::istringstream stream(text);
    std::string line;
    std::size_t line_no = 0;
    while (std::getline(stream, line)) {
      ++line_no;
      queue.emplace_back(line, line_no);
    }
  }

  bool ended = false;
  while (!queue.empty() && !ended) {
    auto [line, line_no] = queue.front();
    queue.pop_front();

    const std::size_t semi = line.find(';');
    if (semi != std::string::npos) line = line.substr(0, semi);
    std::vector<std::string> tokens = tokenize(line);
    if (tokens.empty()) continue;
    if (tokens[0][0] == '*') continue;
    const std::string head = lower(tokens[0]);

    auto node = [&](std::size_t i) {
      if (i >= tokens.size()) fail(line_no, "missing node");
      return circuit.node(tokens[i]);
    };
    auto num_token = [&](const std::string& token) {
      try {
        return parse_spice_number(token);
      } catch (const std::exception& e) {
        fail(line_no, e.what());
      }
    };
    auto num = [&](std::size_t i) {
      if (i >= tokens.size()) fail(line_no, "missing value");
      return num_token(tokens[i]);
    };

    if (head[0] == '.') {
      if (head == ".end") {
        ended = true;
      } else if (head == ".temp") {
        deck.temperature_c = num(1);
        deck.has_temperature = true;
        deck.temperature_line = line_no;
      } else if (head == ".tran") {
        TranDirective tr;
        tr.dt = num(1);
        tr.t_stop = num(2);
        tr.line = line_no;
        deck.tran.push_back(tr);
      } else if (head == ".dc") {
        if (tokens.size() < 5) fail(line_no, ".dc needs source start stop step");
        DcSweepDirective dc;
        dc.source = tokens[1];
        dc.start = num(2);
        dc.stop = num(3);
        dc.step = num(4);
        dc.line = line_no;
        deck.dc.push_back(dc);
      } else if (head == ".ac") {
        if (tokens.size() < 4) fail(line_no, ".ac needs points fstart fstop");
        AcDirective ac;
        ac.points_per_decade = static_cast<int>(num(1));
        ac.f_start = num(2);
        ac.f_stop = num(3);
        ac.line = line_no;
        deck.ac.push_back(ac);
      } else if (head == ".subckt") {
        if (tokens.size() < 3) fail(line_no, ".subckt needs name and ports");
        Subckt sub;
        const std::string sub_name = lower(tokens[1]);
        if (auto prev = subckt_lines.find(sub_name);
            prev != subckt_lines.end()) {
          fail_rule("duplicate-subckt", line_no,
                    "subcircuit '" + tokens[1] +
                        "' redefined (previous definition at line " +
                        std::to_string(prev->second) + ")");
        }
        subckt_lines.emplace(sub_name, line_no);
        for (std::size_t i = 2; i < tokens.size(); ++i) {
          sub.ports.push_back(tokens[i]);
        }
        // Capture the body until .ends.
        bool closed = false;
        while (!queue.empty()) {
          auto [body_line, body_no] = queue.front();
          queue.pop_front();
          const auto body_tokens = tokenize(body_line);
          if (!body_tokens.empty() &&
              lower(body_tokens[0]) == ".ends") {
            closed = true;
            break;
          }
          sub.body.emplace_back(body_line, body_no);
        }
        if (!closed) fail(line_no, ".subckt without matching .ends");
        subckts[sub_name] = std::move(sub);
      } else if (head == ".ends") {
        fail(line_no, ".ends without .subckt");
      } else if (head == ".model") {
        if (tokens.size() < 3) fail(line_no, ".model needs name and type");
        const std::string model_name = lower(tokens[1]);
        if (auto prev = model_index.find(model_name);
            prev != model_index.end()) {
          fail_rule("duplicate-model", line_no,
                    "model '" + tokens[1] +
                        "' redefined (previous definition at line " +
                        std::to_string(deck.models[prev->second].line) + ")");
        }
        const std::string type = lower(tokens[2]);
        devices::MosfetParams p;
        if (type == "nmos") {
          p = devices::MosfetParams::finfet14_nmos();
        } else if (type == "pmos") {
          p = devices::MosfetParams::finfet14_pmos();
        } else {
          fail(line_no, "unknown model type '" + type + "'");
        }
        std::vector<std::string> positional;
        auto kv = keyvalues(tokens, 3, positional);
        for (const auto& [key, value] : kv) {
          const double v = num_token(value);
          if (key == "vth0") p.vth0 = v;
          else if (key == "n") p.n_factor = v;
          else if (key == "mu0") p.mu0 = v;
          else if (key == "cox") p.cox = v;
          else if (key == "lambda") p.lambda = v;
          else if (key == "tcvth") p.tc_vth = v;
          else if (key == "muexp") p.mu_exponent = v;
          else if (key == "tnom") p.t_nominal_c = v;
          else if (key == "w") p.w = v;
          else if (key == "l") p.l = v;
          else fail(line_no, "unknown model parameter '" + key + "'");
        }
        models[model_name] = p;
        model_index.emplace(model_name, deck.models.size());
        deck.models.push_back(ModelDef{model_name, line_no, 0});
      } else {
        fail_rule("unknown-directive", line_no,
                  "unknown directive '" + head + "'");
      }
      continue;
    }

    const std::string name = tokens[0];
    const char card = static_cast<char>(std::tolower(
        static_cast<unsigned char>(head[0])));

    // Redefining a device name is a hard error naming both lines
    // (historically some paths silently let the last definition win).
    if (auto prev = device_lines.find(name); prev != device_lines.end()) {
      fail_rule("duplicate-device", line_no,
                "device '" + name +
                    "' redefined (previous definition at line " +
                    std::to_string(prev->second) + ")");
    }
    if (circuit.find(name) != nullptr) {
      fail_rule("duplicate-device", line_no,
                "device '" + name +
                    "' already exists in the target circuit "
                    "(defined before parsing)");
    }
    device_lines.emplace(name, line_no);

    if (card == 'x') {
      // Subcircuit instance: X<name> node... <subckt>.
      if (tokens.size() < 2) fail(line_no, "X card needs nodes and subckt");
      const std::string sub_name = lower(tokens.back());
      auto it = subckts.find(sub_name);
      if (it == subckts.end()) {
        fail_rule("undefined-subckt", line_no,
                  "unknown subcircuit '" + tokens.back() + "'");
      }
      const Subckt& sub = it->second;
      const std::size_t n_nodes = tokens.size() - 2;
      if (n_nodes != sub.ports.size()) {
        fail_rule("subckt-port-mismatch", line_no,
                  "subcircuit '" + sub_name + "' expects " +
                      std::to_string(sub.ports.size()) + " nodes, got " +
                      std::to_string(n_nodes));
      }
      std::map<std::string, std::string> port_map;
      for (std::size_t i = 0; i < sub.ports.size(); ++i) {
        port_map[lower(sub.ports[i])] = tokens[i + 1];
      }
      auto map_node = [&](const std::string& t) {
        if (is_ground_token(t)) return t;
        auto pit = port_map.find(lower(t));
        if (pit != port_map.end()) return pit->second;
        return t + ":" + name;  // internal node, made instance-unique
      };
      // Expand body lines (prefixed names, mapped nodes) to the front of
      // the queue, preserving order.
      std::vector<std::pair<std::string, std::size_t>> expanded;
      for (const auto& [body_line, body_no] : sub.body) {
        auto body_tokens = tokenize(body_line);
        if (body_tokens.empty() || body_tokens[0][0] == '*') continue;
        const char body_card = static_cast<char>(std::tolower(
            static_cast<unsigned char>(body_tokens[0][0])));
        if (body_tokens[0][0] == '.') {
          fail(body_no, "directives are not allowed inside .subckt");
        }
        body_tokens[0] += ":" + name;  // unique device name, card letter kept
        int n_map = node_token_count(body_card);
        if (body_card == 'x') {
          n_map = static_cast<int>(body_tokens.size()) - 2;
        }
        for (int i = 1; i <= n_map && static_cast<std::size_t>(i) < body_tokens.size(); ++i) {
          body_tokens[static_cast<std::size_t>(i)] =
              map_node(body_tokens[static_cast<std::size_t>(i)]);
        }
        std::string rebuilt;
        for (std::size_t i = 0; i < body_tokens.size(); ++i) {
          if (i) rebuilt += ' ';
          // Restore key=value grouping (tokenizer split on '=').
          rebuilt += body_tokens[i];
        }
        expanded.emplace_back(rebuilt, body_no);
      }
      for (auto rit = expanded.rbegin(); rit != expanded.rend(); ++rit) {
        queue.push_front(*rit);
      }
      continue;
    }

    try {
    switch (card) {
      case 'r':
        circuit.add<Resistor>(name, node(1), node(2), num(3));
        break;
      case 'c': {
        std::vector<std::string> positional;
        auto kv = keyvalues(tokens, 4, positional);
        double ic = Capacitor::kNoIc;
        if (auto it = kv.find("ic"); it != kv.end()) {
          ic = parse_spice_number(it->second);
        }
        circuit.add<Capacitor>(name, node(1), node(2), num(3), ic);
        break;
      }
      case 'v':
        circuit.add<VSource>(name, node(1), node(2),
                             parse_stimulus(tokens, 3, line_no));
        break;
      case 'i':
        circuit.add<ISource>(name, node(1), node(2),
                             parse_stimulus(tokens, 3, line_no));
        break;
      case 's': {
        std::vector<std::string> positional;
        auto kv = keyvalues(tokens, 4, positional);
        VSwitch::Params p;
        if (auto it = kv.find("ron"); it != kv.end()) p.r_on = parse_spice_number(it->second);
        if (auto it = kv.find("roff"); it != kv.end()) p.r_off = parse_spice_number(it->second);
        if (auto it = kv.find("vt"); it != kv.end()) p.v_threshold = parse_spice_number(it->second);
        if (auto it = kv.find("vw"); it != kv.end()) p.v_width = parse_spice_number(it->second);
        circuit.add<VSwitch>(name, node(1), node(2), node(3), p);
        break;
      }
      case 'm': {
        if (tokens.size() < 5) fail(line_no, "MOSFET needs d g s model");
        const std::string model_name = lower(tokens[4]);
        devices::MosfetParams p;
        if (auto it = models.find(model_name); it != models.end()) {
          p = it->second;
          ++deck.models[model_index.at(model_name)].uses;
        } else if (model_name == "nmos") {
          p = devices::MosfetParams::finfet14_nmos();
        } else if (model_name == "pmos") {
          p = devices::MosfetParams::finfet14_pmos();
        } else {
          fail_rule("undefined-model", line_no,
                    "unknown model '" + model_name + "'");
        }
        std::vector<std::string> positional;
        auto kv = keyvalues(tokens, 5, positional);
        if (auto it = kv.find("w"); it != kv.end()) p.w = parse_spice_number(it->second);
        if (auto it = kv.find("l"); it != kv.end()) p.l = parse_spice_number(it->second);
        circuit.add<devices::Mosfet>(name, node(1), node(2), node(3), p);
        break;
      }
      case 'd': {
        std::vector<std::string> positional;
        auto kv = keyvalues(tokens, 3, positional);
        devices::DiodeParams p;
        if (auto it = kv.find("is"); it != kv.end()) p.i_sat = parse_spice_number(it->second);
        if (auto it = kv.find("n"); it != kv.end()) p.emission = parse_spice_number(it->second);
        circuit.add<devices::Diode>(name, node(1), node(2), p);
        break;
      }
      case 'z': {
        // FeFET: Z<name> d g s [state=] [vthlow=] [vthhigh=] [w=] [l=].
        std::vector<std::string> positional;
        auto kv = keyvalues(tokens, 4, positional);
        fefet::FeFetParams p = fefet::FeFetParams::reference();
        if (auto it = kv.find("vthlow"); it != kv.end()) {
          p.ferroelectric.vth_low = parse_spice_number(it->second);
        }
        if (auto it = kv.find("vthhigh"); it != kv.end()) {
          p.ferroelectric.vth_high = parse_spice_number(it->second);
        }
        if (auto it = kv.find("w"); it != kv.end()) p.channel.w = parse_spice_number(it->second);
        if (auto it = kv.find("l"); it != kv.end()) p.channel.l = parse_spice_number(it->second);
        if (p.ferroelectric.vth_low >= p.ferroelectric.vth_high) {
          fail_rule("fefet-vth-window", line_no,
                    "FeFET '" + name + "' has vthlow >= vthhigh: the memory "
                    "window is empty or inverted");
        }
        auto& dev = circuit.add<fefet::FeFet>(name, node(1), node(2), node(3), p);
        if (auto it = kv.find("state"); it != kv.end()) {
          dev.ferroelectric().set_polarization(
              parse_spice_number(it->second) > 0.5 ? 1.0 : -1.0);
        }
        break;
      }
      default:
        fail_rule("unknown-card", line_no, "unknown card '" + name + "'");
    }
    } catch (const NetlistError&) {
      throw;
    } catch (const std::invalid_argument& e) {
      // Device constructors validate their values (non-positive R/C...);
      // re-attach the source line they cannot know about.
      fail_rule("nonpositive-value", line_no, e.what());
    } catch (const std::runtime_error& e) {
      fail(line_no, e.what());
    }
    if (Device* dev = circuit.find(name)) dev->set_source_line(line_no);
  }
  return deck;
}

}  // namespace sfc::spice
