// Compile-time kill switch: this TU is built with -DCOSCHED_OBS_DISABLED
// (see tests/CMakeLists.txt), so every COSCHED_TRACE_* and COSCHED_LOG
// macro must expand to a no-op — no trace events, profile phases or log
// records, even with every runtime switch on. The switch changes macro
// expansions only, so this TU links into the same test binary as the
// instrumented ones without changing any shared definition.
#include <gtest/gtest.h>

#include "obs/log.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"

namespace cosched {
namespace {

#ifndef COSCHED_OBS_DISABLED
#error "this TU must be compiled with COSCHED_OBS_DISABLED"
#endif

TEST(ObsTracingDisabled, MacrosAreNoOpsEvenWhenRuntimeEnabled) {
  Tracer& tracer = Tracer::global();
  tracer.set_enabled(false);
  tracer.reset();
  tracer.set_enabled(true);

  {
    COSCHED_TRACE_SPAN(span, "compiled.out", 1.0, "k=v");
    COSCHED_TRACE_SPAN(plain, "compiled.out.plain");
    COSCHED_TRACE_INSTANT("compiled.out.instant");
    COSCHED_TRACE_COUNTER("compiled.out.counter", 42.0);
  }

  tracer.set_enabled(false);
  EXPECT_EQ(tracer.event_count(), 0u);
  EXPECT_EQ(tracer.dump_text(), "");
  tracer.reset();
}

// The span macro is the profiler's phase timer too, so it must leave no
// profile node either, also from a branch position.
TEST(ObsProfilingDisabled, PhaseMacroLeavesNoResidue) {
  Profiler& profiler = Profiler::global();
  profiler.reset();
  profiler.set_enabled(true);
  {
    COSCHED_TRACE_SPAN(phase, "compiled.out.phase");
  }
  if (true)
    COSCHED_TRACE_SPAN(branch_phase, "branch-position");
  profiler.set_enabled(false);
  EXPECT_EQ(profiler.render_collapsed().find("compiled.out.phase"),
            std::string::npos);
  EXPECT_EQ(profiler.render_collapsed().find("branch-position"),
            std::string::npos);
  profiler.reset();
}

// The macros must also be valid statements in branch positions — the
// do-while no-op form, not a bare expansion that breaks if/else.
TEST(ObsTracingDisabled, MacrosParseInBranchPositions) {
  bool flag = true;
  if (flag)
    COSCHED_TRACE_INSTANT("then-branch");
  else
    COSCHED_TRACE_COUNTER("else-branch", 1.0);
  if (flag)
    COSCHED_TRACE_SPAN(branch_span, "branch-position");
  EXPECT_EQ(Tracer::global().event_count(), 0u);
}

TEST(ObsLoggingDisabled, MacroIsNoOpEvenAtPassingLevel) {
  Logger logger;  // fresh instance: no cross-test pollution of global()
  logger.set_level(LogLevel::Debug);
  // The disabled macro must not evaluate its arguments against the global
  // logger either; use global() with a known-clean baseline.
  Logger& global = Logger::global();
  global.reset();
  global.set_level(LogLevel::Debug);
  COSCHED_LOG(LogLevel::Error, "compiled.out", "never recorded",
              {log_kv("n", std::int64_t{1})});
  if (true)
    COSCHED_LOG(LogLevel::Error, "branch", "then");
  else
    COSCHED_LOG(LogLevel::Error, "branch", "else");
  EXPECT_EQ(global.records_total(LogLevel::Error), 0u);
  EXPECT_EQ(global.buffered_records(), 0u);
  // The runtime API stays callable: direct log() is a deliberate act and
  // still works in kill-switch builds.
  logger.log(LogLevel::Info, "direct", "explicit call");
  EXPECT_EQ(logger.records_total(LogLevel::Info), 1u);
  global.set_level(LogLevel::Info);
}

}  // namespace
}  // namespace cosched
