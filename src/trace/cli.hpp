// One-call CLI wiring for the observability hooks: strip the shared
// --trace PATH / --metrics PATH flags from argv, start the span tracer when
// requested, and write both outputs when the program is done. Every
// executable that offers the two flags goes through here, so no main
// re-implements their parsing.
#pragma once

namespace sfc::trace {

/// Consume `--trace PATH` / `--metrics PATH` (and `--trace=PATH` /
/// `--metrics=PATH`) from argv. When --trace is present, starts
/// Tracer::global() immediately. Either flag registers an atexit hook that
/// stops the tracer and writes Chrome trace JSON to the --trace PATH and a
/// dump of Registry::global() to the --metrics PATH. I/O failures at exit
/// print to stderr but do not change the exit status; programs whose exit
/// status must report them call finish_cli_observability() instead. Call
/// once, before argv is parsed.
void install_cli_observability(int* argc, char** argv);

/// Write the requested outputs now, as the atexit hook would. Returns false
/// when an output could not be written (the reason goes to stderr), true
/// otherwise, including when no output was requested. Afterwards the atexit
/// hook does nothing.
bool finish_cli_observability();

}  // namespace sfc::trace
