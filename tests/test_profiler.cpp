// Tests for the continuous profiler (src/obs/profiler): deterministic
// accumulation of the merged cross-thread wall-time tree, collapsed-stack
// rendering for flamegraph tooling, the runtime switch, reset semantics,
// the span macro feeding it independently of the tracer, and the
// acceptance pin — replaying a workload under the global profiler
// shows replan.fresh_solve owning the majority of online.replan wall time
// (the HA* solve is the hot phase; /debug/profile must show that shape).
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "astar/search.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "online/scheduler.hpp"
#include "online/trace.hpp"
#include "test_helpers.hpp"

namespace cosched {
namespace {

std::map<std::string, Profiler::NodeView> by_path(const Profiler& profiler) {
  std::map<std::string, Profiler::NodeView> out;
  for (const Profiler::NodeView& node : profiler.snapshot())
    out[node.path] = node;
  return out;
}

TEST(Profiler, MergedTreeFoldsThreadsByPath) {
  Profiler profiler;  // private instance: fully deterministic synthetic times
  profiler.enter("online.replan");
  profiler.enter("replan.fresh_solve");
  profiler.leave(700);
  profiler.enter("replan.commit");
  profiler.leave(100);
  profiler.leave(1000);
  profiler.enter("online.replan");
  profiler.enter("replan.fresh_solve");
  profiler.leave(800);
  profiler.leave(800);

  // A second thread's tree folds into the same paths at snapshot time.
  std::thread worker([&] {
    profiler.enter("online.replan");
    profiler.enter("replan.fresh_solve");
    profiler.leave(200);
    profiler.leave(200);
  });
  worker.join();

  std::map<std::string, Profiler::NodeView> nodes = by_path(profiler);
  ASSERT_EQ(nodes.count("online.replan"), 1u);
  EXPECT_EQ(nodes["online.replan"].count, 3u);
  EXPECT_EQ(nodes["online.replan"].total_ns, 2000u);
  EXPECT_EQ(nodes["online.replan"].depth, 0);
  // self = total minus direct children (1700 solve + 100 commit).
  EXPECT_EQ(nodes["online.replan"].self_ns, 200u);
  ASSERT_EQ(nodes.count("online.replan;replan.fresh_solve"), 1u);
  EXPECT_EQ(nodes["online.replan;replan.fresh_solve"].count, 3u);
  EXPECT_EQ(nodes["online.replan;replan.fresh_solve"].total_ns, 1700u);
  EXPECT_EQ(nodes["online.replan;replan.fresh_solve"].depth, 1);
  EXPECT_EQ(nodes["online.replan;replan.commit"].total_ns, 100u);
}

TEST(Profiler, CollapsedStackIsFlamegraphReady) {
  Profiler profiler;
  profiler.enter("serve");
  profiler.enter("decode");
  profiler.leave(2500);
  profiler.leave(4000);
  // One "path self_microseconds" line per visited node, parents first,
  // siblings sorted — byte-stable for a fixed enter/leave sequence.
  EXPECT_EQ(profiler.render_collapsed(), "serve 1\nserve;decode 2\n");

  std::string text = profiler.render_text();
  EXPECT_NE(text.find("serve count=1 total_ms=0.004 self_ms=0.002"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("  decode count=1"), std::string::npos) << text;
}

TEST(Profiler, ResetZeroesCountsButKeepsTheTreeUsable) {
  Profiler profiler;
  profiler.enter("phase");
  profiler.leave(5000);
  ASSERT_NE(profiler.render_collapsed(), "");
  profiler.reset();
  // Zeroed nodes disappear from the collapsed view (flamegraphs of an idle
  // window stay empty instead of full of stale paths)...
  EXPECT_EQ(profiler.render_collapsed(), "");
  // ...and the structure still accumulates fresh samples.
  profiler.enter("phase");
  profiler.leave(3000);
  EXPECT_EQ(profiler.render_collapsed(), "phase 3\n");
}

TEST(Profiler, RuntimeSwitchGatesTheMacroLayer) {
  Profiler& profiler = Profiler::global();
  profiler.set_enabled(false);
  profiler.reset();
  { COSCHED_TRACE_SPAN(off_span, "never.recorded"); }
  EXPECT_EQ(profiler.render_collapsed().find("never.recorded"),
            std::string::npos);

  profiler.set_enabled(true);
  { COSCHED_TRACE_SPAN(on_span, "test.phase"); }
  profiler.set_enabled(false);
  std::map<std::string, Profiler::NodeView> nodes = by_path(profiler);
  ASSERT_EQ(nodes.count("test.phase"), 1u);
  EXPECT_EQ(nodes["test.phase"].count, 1u);
  profiler.reset();
}

// One span feeds both consumers, each behind its own runtime switch. The
// fixture starts and ends every test with both global instances off and
// empty, head sampling off.
class SpanProfiler : public ::testing::Test {
 protected:
  void SetUp() override { TearDown(); }
  void TearDown() override {
    tracer.set_enabled(false);
    tracer.set_sample_every(1);
    Tracer::clear_current_context();
    tracer.reset();
    profiler.set_enabled(false);
    profiler.reset();
  }
  Tracer& tracer = Tracer::global();
  Profiler& profiler = Profiler::global();
};

// Tracer off, profiler on: the span still times its phase (nested spans
// nest), records no trace event and never builds its args.
TEST_F(SpanProfiler, FeedsTheProfilerWithTheTracerOff) {
  int args_built = 0;
  profiler.set_enabled(true);
  {
    COSCHED_TRACE_SPAN(outer, "test.outer", -1.0,
                       (++args_built, std::string("k=v")));
    COSCHED_TRACE_SPAN(inner, "test.inner");
  }
  EXPECT_EQ(tracer.event_count(), 0u);
  EXPECT_EQ(args_built, 0);
  std::map<std::string, Profiler::NodeView> nodes = by_path(profiler);
  EXPECT_EQ(nodes["test.outer"].count, 1u) << profiler.render_collapsed();
  EXPECT_EQ(nodes["test.outer;test.inner"].count, 1u);

  // Tracer on: the same span records its begin/end pair and its args.
  tracer.set_enabled(true);
  {
    COSCHED_TRACE_SPAN(traced, "test.outer", -1.0,
                       (++args_built, std::string("k=v")));
  }
  EXPECT_EQ(tracer.event_count(), 2u);
  EXPECT_EQ(args_built, 1);
  EXPECT_NE(tracer.dump_text().find("k=v"), std::string::npos);
}

// Head sampling drops a trace's events, not its profile.
TEST_F(SpanProfiler, SampledOutTraceStillFeedsTheProfiler) {
  tracer.set_sample_every(1000000);  // effectively: drop every trace
  tracer.set_sample_seed(7);
  std::uint64_t dropped_id = 0;
  for (std::uint64_t id = 1; id <= 64 && dropped_id == 0; ++id)
    if (!tracer.make_context(id).sampled) dropped_id = id;
  ASSERT_NE(dropped_id, 0u) << "no sampled-out id found in 64 tries";

  tracer.set_enabled(true);
  profiler.set_enabled(true);
  {
    TraceContextScope scope(tracer.make_context(dropped_id));
    COSCHED_TRACE_SPAN(span, "test.sampled_out", -1.0, "k=v");
  }
  EXPECT_EQ(tracer.event_count(), 0u);
  EXPECT_EQ(by_path(profiler)["test.sampled_out"].count, 1u)
      << profiler.render_collapsed();
}

// Beam-mode HA* (an explicit beam width) runs its depth-synchronized
// search inside the solve: the profile shows astar.search;astar.beam.
TEST_F(SpanProfiler, BeamSolveShowsTheBeamPhase) {
  profiler.set_enabled(true);
  Problem problem = testhelpers::random_serial_problem(16, 4, 12);
  SearchOptions options;
  options.heuristic_search = true;
  options.beam_width = 4;
  ASSERT_TRUE(CoScheduleSearch(problem, options).run().found);
  std::map<std::string, Profiler::NodeView> nodes = by_path(profiler);
  EXPECT_EQ(nodes["astar.search;astar.beam"].count, 1u)
      << profiler.render_collapsed();
  EXPECT_EQ(nodes["astar.search;astar.precompute"].count, 1u);
}

// The acceptance pin behind /debug/profile: on a replayed workload the
// fresh solve is where replan time goes — the profile of a loaded server
// must show replan.fresh_solve owning the majority of online.replan wall
// time, with the solver's own phases nested beneath it.
TEST(Profiler, FreshSolveOwnsTheMajorityOfReplanTime) {
  Profiler& profiler = Profiler::global();
  profiler.reset();
  profiler.set_enabled(true);

  // Sized so the HA* solve robustly dominates the fixed per-replan
  // bookkeeping even on slow virtualized clocks: more machines and
  // processes grow the solve superlinearly while the per-replan
  // overhead (admission, journal, commit) stays roughly constant.
  TraceSpec spec;
  spec.job_count = 24;
  spec.mean_interarrival = 2.0;
  spec.work_lo = 8.0;
  spec.work_hi = 24.0;
  spec.parallel_fraction = 0.4;
  spec.max_parallel_processes = 4;
  spec.seed = 11;
  OnlineSchedulerOptions options;
  options.cores = 4;
  options.machines = 4;
  options.admission.every_k = 2;
  options.solver = OnlineSolverKind::HAStar;
  options.log_process_finish = false;
  OnlineScheduler service(options);
  service.run(generate_trace(spec));
  profiler.set_enabled(false);

  std::map<std::string, Profiler::NodeView> nodes = by_path(profiler);
  ASSERT_EQ(nodes.count("online.replan"), 1u) << profiler.render_text();
  ASSERT_EQ(nodes.count("online.replan;replan.fresh_solve"), 1u)
      << profiler.render_text();
  const Profiler::NodeView& replan = nodes["online.replan"];
  const Profiler::NodeView& solve = nodes["online.replan;replan.fresh_solve"];
  EXPECT_GT(replan.count, 0u);
  EXPECT_GT(solve.count, 0u);
  EXPECT_GE(replan.count, solve.count);
  EXPECT_GT(replan.total_ns, 0u);
  EXPECT_GT(solve.total_ns * 2, replan.total_ns) << profiler.render_text();
  // The solver's own phase sits inside the fresh solve.
  EXPECT_EQ(nodes.count("online.replan;replan.fresh_solve;astar.search"), 1u)
      << profiler.render_text();

  // The collapsed render carries the full paths flamegraph.pl folds.
  std::string collapsed = profiler.render_collapsed();
  EXPECT_NE(collapsed.find("online.replan "), std::string::npos) << collapsed;
  EXPECT_NE(collapsed.find("online.replan;replan.fresh_solve"),
            std::string::npos)
      << collapsed;
  profiler.reset();
}

}  // namespace
}  // namespace cosched
