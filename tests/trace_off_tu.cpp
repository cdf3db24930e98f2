// Compiled into test_trace with the trace gate forced OFF, while the rest
// of the binary keeps the build's default. Proves the SFC_TRACE=OFF
// contract at the language level: the SFC_TRACE_* macros expand to
// ((void)0), so no counter is registered and — crucially — macro arguments
// are never evaluated. Only the macros differ between the two flavours;
// the trace classes themselves are identical in both, so mixing the two
// TUs in one binary is ODR-clean.
#undef SFC_TRACE_ENABLED
#define SFC_TRACE_ENABLED 0
#include "trace/trace.hpp"

namespace sfc::trace::test_off {

int run_disabled_instrumentation() {
  int evaluations = 0;
  SFC_TRACE_SPAN("test.off_tu.span");
  SFC_TRACE_COUNT("test.off_tu.counter", ++evaluations);
  SFC_TRACE_HIST("test.off_tu.histogram", ++evaluations);
  return evaluations;
}

}  // namespace sfc::trace::test_off
