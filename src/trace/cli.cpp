#include "trace/cli.hpp"

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "trace/registry.hpp"
#include "trace/span.hpp"

namespace sfc::trace {
namespace {

// atexit has no user data, so the flushed paths live in statics.
std::string& trace_path() {
  static std::string path;
  return path;
}

std::string& metrics_path() {
  static std::string path;
  return path;
}

void finish_at_exit() { finish_cli_observability(); }

}  // namespace

void install_cli_observability(int* argc, char** argv) {
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--trace" && i + 1 < *argc) {
      trace_path() = argv[++i];
    } else if (arg.rfind("--trace=", 0) == 0) {
      trace_path() = arg.substr(8);
    } else if (arg == "--metrics" && i + 1 < *argc) {
      metrics_path() = argv[++i];
    } else if (arg.rfind("--metrics=", 0) == 0) {
      metrics_path() = arg.substr(10);
    } else {
      argv[out++] = argv[i];
    }
  }
  *argc = out;
  if (trace_path().empty() && metrics_path().empty()) return;
  // Touch both singletons *before* registering the atexit handler:
  // static destruction runs in reverse construction order, so anything
  // first constructed later (e.g. the Registry, on the first counter hit
  // mid-run) would be destroyed before the handler that reads it.
  Registry::global();
  Tracer& tracer = Tracer::global();
  if (!trace_path().empty()) tracer.start();
  std::atexit(finish_at_exit);
}

bool finish_cli_observability() {
  bool ok = true;
  if (!trace_path().empty()) {
    Tracer::global().stop();
    try {
      Tracer::global().write_chrome(trace_path());
      std::fprintf(stderr, "trace: wrote %s\n", trace_path().c_str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "trace: %s\n", e.what());
      ok = false;
    }
  }
  if (!metrics_path().empty()) {
    try {
      write_metrics_file(metrics_path());
      std::fprintf(stderr, "metrics: wrote %s\n", metrics_path().c_str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "metrics: %s\n", e.what());
      ok = false;
    }
  }
  // Written (or failed) once: leave nothing for the atexit hook.
  trace_path().clear();
  metrics_path().clear();
  return ok;
}

}  // namespace sfc::trace
