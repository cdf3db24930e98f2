// Umbrella header of the observability layer (target sfc_trace):
// instrumented code includes this and uses only the SFC_TRACE_* macros.
//
// Compile-time gate
// -----------------
// SFC_TRACE_ENABLED (default 1; the CMake option SFC_TRACE=OFF passes 0)
// decides whether the macros expand to instrumentation or to nothing.
// With the gate off no atomic, clock read, or registry reference remains
// in the hot path — scripts/check.sh builds and smokes both flavours.
// The classes themselves are always compiled, so a disabled build still
// links against code that constructs a Registry explicitly (tests,
// TestProbe) — only the *macros* vanish.
//
// Runtime gates
// -------------
// Counters and histograms are always live when compiled in. A counter
// event is a relaxed load and store on the calling thread's own shard
// slot, and a histogram record a few relaxed atomics on shared buckets:
// cheap enough for every Newton iteration.
// Spans additionally check Tracer::global().enabled() and record nothing
// until Tracer::start() — so `--trace` runs pay for buffering, ordinary
// runs pay one predictable branch.
#pragma once

#ifndef SFC_TRACE_ENABLED
#define SFC_TRACE_ENABLED 1
#endif

#include "trace/probe.hpp"
#include "trace/registry.hpp"
#include "trace/span.hpp"

#define SFC_TRACE_CONCAT_IMPL(a, b) a##b
#define SFC_TRACE_CONCAT(a, b) SFC_TRACE_CONCAT_IMPL(a, b)

#if SFC_TRACE_ENABLED

/// RAII span covering the rest of the enclosing scope.
#define SFC_TRACE_SPAN(name) \
  ::sfc::trace::SpanScope SFC_TRACE_CONCAT(sfc_trace_span_, __LINE__) { name }

/// counter[name] += n. The registry lookup runs once per call site
/// (function-local static); the increment is a load and a store on the
/// calling thread's shard slot.
#define SFC_TRACE_COUNT(name, n)                                      \
  do {                                                                \
    static ::sfc::trace::Counter& sfc_trace_counter_ =                \
        ::sfc::trace::Registry::global().counter(name);               \
    sfc_trace_counter_.add(static_cast<std::uint64_t>(n));            \
  } while (0)

/// histogram[name].record(value), default iteration_buckets() bounds.
#define SFC_TRACE_HIST(name, value)                                   \
  do {                                                                \
    static ::sfc::trace::Histogram& sfc_trace_hist_ =                 \
        ::sfc::trace::Registry::global().histogram(name);             \
    sfc_trace_hist_.record(static_cast<double>(value));               \
  } while (0)

#else  // SFC_TRACE_ENABLED == 0: every macro compiles to nothing.

#define SFC_TRACE_SPAN(name) ((void)0)
#define SFC_TRACE_COUNT(name, n) ((void)0)
#define SFC_TRACE_HIST(name, value) ((void)0)

#endif  // SFC_TRACE_ENABLED
