// Command-line front end of the verification subsystem (src/verify).
//
//   verify_runner golden [--dir DIR] [--case NAME] [--regen]
//       Recompute the canonical paper experiments and compare them to the
//       stored goldens (or rewrite the goldens with --regen).
//   verify_runner fuzz [--count N] [--seed S] [--dump DIR]
//       Run the property-based netlist fuzz campaign; failing cases are
//       shrunk and dumped as .cir reproducers.
//   verify_runner check-metrics PATH [--golden GOLDEN]
//       Validate a --metrics snapshot (trace registry dump): schema, and —
//       with --golden — that the non-timing counter/histogram key sets
//       exactly match the golden (metric-name stability gate).
//
// Every subcommand also accepts --trace OUT.json / --metrics OUT.json (or
// --trace=OUT.json / --metrics=OUT.json): span-trace the run itself
// (Chrome trace format) and dump the metrics registry when it is done —
// the observability hooks of src/trace (trace::install_cli_observability).
//
// Exit status 0 = everything passed, 1 = a verification failure,
// 2 = usage / IO error, including an observability output that could not
// be written.
#include <climits>
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "trace/cli.hpp"
#include "trace/trace.hpp"
#include "util/parse.hpp"
#include "verify/fuzz.hpp"
#include "verify/golden.hpp"
#include "verify/json.hpp"

namespace {

using sfc::verify::Json;

int usage() {
  std::fprintf(stderr,
               "usage: verify_runner golden [--dir DIR] [--case NAME] [--regen]\n"
               "       verify_runner fuzz [--count N] [--seed S] [--dump DIR]\n"
               "       verify_runner check-metrics PATH [--golden GOLDEN]\n"
               "(any subcommand: --trace OUT.json --metrics OUT.json)\n");
  return 2;
}

/// Consume "--flag VALUE" from argv; returns nullptr when absent.
const char* flag_value(std::vector<const char*>& args, const char* flag) {
  for (std::size_t i = 0; i + 1 < args.size(); ++i) {
    if (std::strcmp(args[i], flag) == 0) {
      const char* v = args[i + 1];
      args.erase(args.begin() + static_cast<std::ptrdiff_t>(i),
                 args.begin() + static_cast<std::ptrdiff_t>(i) + 2);
      return v;
    }
  }
  return nullptr;
}

bool flag_present(std::vector<const char*>& args, const char* flag) {
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (std::strcmp(args[i], flag) == 0) {
      args.erase(args.begin() + static_cast<std::ptrdiff_t>(i));
      return true;
    }
  }
  return false;
}

int cmd_golden(std::vector<const char*> args) {
  const char* dir_flag = flag_value(args, "--dir");
  const char* case_flag = flag_value(args, "--case");
  const bool regen = flag_present(args, "--regen");
  if (!args.empty()) return usage();
  const std::string dir =
      dir_flag ? std::string(dir_flag) : sfc::verify::default_golden_dir();

  bool all_pass = true;
  int ran = 0;
  for (const auto& c : sfc::verify::golden_cases()) {
    if (case_flag && c.name != case_flag) continue;
    ++ran;
    if (regen) {
      const std::string path = dir + "/" + c.file();
      sfc::verify::save_golden(path, c.build());
      std::printf("regenerated %s\n", path.c_str());
      continue;
    }
    const sfc::verify::GoldenCompare cmp = sfc::verify::run_golden_case(c, dir);
    std::printf("%s: %s\n", c.name.c_str(), cmp.summary().c_str());
    all_pass = all_pass && cmp.pass;
  }
  if (ran == 0) {
    std::fprintf(stderr, "no golden case named '%s'\n", case_flag);
    return 2;
  }
  return all_pass ? 0 : 1;
}

int cmd_fuzz(std::vector<const char*> args) {
  sfc::verify::FuzzOptions opt;
  if (const char* v = flag_value(args, "--count")) {
    const auto count = sfc::util::parse_unsigned(v, 10, INT_MAX);
    if (!count) return usage();
    opt.count = static_cast<int>(*count);
  }
  if (const char* v = flag_value(args, "--seed")) {
    const auto seed = sfc::util::parse_unsigned(v, 0, UINT64_MAX);
    if (!seed) return usage();
    opt.seed = *seed;
  }
  if (const char* v = flag_value(args, "--dump")) opt.dump_dir = v;
  if (!args.empty() || opt.count <= 0) return usage();
  const sfc::verify::FuzzReport rep = sfc::verify::run_fuzz(opt);
  std::printf("%s\n", rep.summary().c_str());
  return rep.pass() ? 0 : 1;
}

/// Deterministic counter/histogram names of a metrics snapshot, sorted
/// (Json objects are std::map). Timing (`*_us` / `*_ms`) metrics vary run
/// to run and are excluded from the stability contract.
std::vector<std::string> metric_names(const Json& snapshot,
                                      const char* section) {
  std::vector<std::string> names;
  if (snapshot.has(section) && snapshot.get(section).is_object()) {
    for (const auto& [name, value] : snapshot.get(section).as_object()) {
      if (!sfc::trace::is_timing_metric(name)) names.push_back(name);
    }
  }
  return names;
}

/// Schema + key-set stability contract for --metrics snapshots.
int cmd_check_metrics(std::vector<const char*> args) {
  const char* golden_flag = flag_value(args, "--golden");
  if (args.size() != 1) return usage();
  Json j;
  try {
    j = sfc::verify::read_json_file(args[0]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "check-metrics: %s\n", e.what());
    return 2;
  }
  std::vector<std::string> problems;
  if (!j.is_object() || !j.has("schema_version") ||
      !j.get("schema_version").is_number()) {
    problems.push_back("root must be an object with numeric 'schema_version'");
  }
  if (j.is_object() && j.has("counters") && j.get("counters").is_object()) {
    for (const auto& [name, value] : j.get("counters").as_object()) {
      if (!value.is_number() || value.as_number() < 0.0) {
        problems.push_back("counter '" + name + "' must be non-negative");
      }
    }
  } else {
    problems.push_back("missing object 'counters'");
  }
  if (golden_flag && problems.empty()) {
    try {
      const Json g = sfc::verify::read_json_file(golden_flag);
      for (const char* section : {"counters", "histograms"}) {
        const auto have = metric_names(j, section);
        const auto want = g.strings_at(section);
        if (have != want) {
          std::string msg = std::string(section) + " key set drifted; have:";
          for (const auto& n : have) msg += " " + n;
          problems.push_back(msg);
        }
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "check-metrics: %s: %s\n", golden_flag, e.what());
      return 2;
    }
  }
  if (!problems.empty()) {
    for (const auto& p : problems) {
      std::fprintf(stderr, "check-metrics: %s: %s\n", args[0], p.c_str());
    }
    return 1;
  }
  std::printf("check-metrics: %s: %s\n", args[0],
              golden_flag ? "schema and key set OK" : "schema OK");
  return 0;
}

/// Dispatch one subcommand; returns the exit status.
int run(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  std::vector<const char*> args(argv + 2, argv + argc);
  try {
    if (cmd == "golden") return cmd_golden(std::move(args));
    if (cmd == "fuzz") return cmd_fuzz(std::move(args));
    if (cmd == "check-metrics") return cmd_check_metrics(std::move(args));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "verify_runner %s: %s\n", cmd.c_str(), e.what());
    return 2;
  }
  return usage();
}

}  // namespace

int main(int argc, char** argv) {
  sfc::trace::install_cli_observability(&argc, argv);
  const int rc = run(argc, argv);
  return sfc::trace::finish_cli_observability() ? rc : 2;
}
