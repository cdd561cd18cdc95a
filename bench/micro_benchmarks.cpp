// Google-benchmark microbenches for the library's hot paths: the
// degradation oracles (bare and behind the shared oracle cache), node
// evaluation, candidate generation, the per-solve node table, cache
// simulation, the SDC merge, and small end-to-end solves.
#include <benchmark/benchmark.h>

#include "astar/search.hpp"
#include "cache/lru_cache_sim.hpp"
#include "cache/sdc_model.hpp"
#include "core/builders.hpp"
#include "core/node_eval.hpp"
#include "core/oracle_cache.hpp"
#include "graph/node_enumerator.hpp"
#include "graph/node_table.hpp"
#include "ip/ip_model.hpp"
#include "ip/branch_and_bound.hpp"
#include "vm/hungarian.hpp"
#include "vm/migration.hpp"
#include "baseline/random_schedule.hpp"
#include "util/rng.hpp"

namespace {

using namespace cosched;

Problem make_problem(std::int32_t jobs, std::uint32_t cores) {
  SyntheticProblemSpec spec;
  spec.cores = cores;
  spec.serial_jobs = jobs;
  spec.seed = 7;
  return build_synthetic_problem(spec);
}

void BM_SyntheticOracle(benchmark::State& state) {
  Problem p = make_problem(64, 4);
  ProcessId co[3] = {1, 2, 3};
  for (auto _ : state) {
    benchmark::DoNotOptimize(p.full_model->degradation(0, co));
  }
}
BENCHMARK(BM_SyntheticOracle);

// The same query through CachingDegradationModel, warm: what every node
// weight the online service computes pays on top of BM_SyntheticOracle.
void BM_CachedOracle(benchmark::State& state) {
  Problem p = make_problem(64, 4);
  CachingDegradationModel cached(p.full_model,
                                 std::make_shared<DegradationCache>(), {},
                                 BaseModelConcurrency::ConcurrentSafe);
  ProcessId co[3] = {1, 2, 3};
  for (auto _ : state) {
    benchmark::DoNotOptimize(cached.degradation(0, co));
  }
}
BENCHMARK(BM_CachedOracle);

void BM_SdcOracle(benchmark::State& state) {
  SdcSyntheticSpec spec;
  spec.cores = 4;
  spec.serial_jobs = 16;
  Problem p = build_sdc_synthetic_problem(spec);
  ProcessId co[3] = {1, 2, 3};
  // First call memoizes; steady state measures the memo hit path.
  for (auto _ : state) {
    benchmark::DoNotOptimize(p.full_model->degradation(0, co));
  }
}
BENCHMARK(BM_SdcOracle);

void BM_NodeWeight(benchmark::State& state) {
  Problem p = make_problem(64, 4);
  NodeEvaluator eval(p, *p.full_model);
  std::vector<ProcessId> node{0, 5, 17, 40};
  for (auto _ : state) {
    benchmark::DoNotOptimize(eval.weight(node));
  }
}
BENCHMARK(BM_NodeWeight);

void BM_LruCacheAccess(benchmark::State& state) {
  LruCacheSim sim(CacheConfig{64, 16, 128});
  std::uint64_t line = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.access(line));
    line = (line * 2862933555777941757ULL + 3037000493ULL) % 4096;
  }
}
BENCHMARK(BM_LruCacheAccess);

void BM_SdcCompete(benchmark::State& state) {
  StackDistanceProfile a({9, 8, 7, 6, 5, 4, 4, 3, 3, 2, 2, 2, 1, 1, 1, 1},
                         20);
  StackDistanceProfile b = a.scaled(0.7);
  StackDistanceProfile c = a.scaled(1.4);
  StackDistanceProfile d = a.scaled(0.2);
  std::vector<const StackDistanceProfile*> profiles{&a, &b, &c, &d};
  for (auto _ : state) {
    benchmark::DoNotOptimize(sdc_compete(profiles));
  }
}
BENCHMARK(BM_SdcCompete);

void BM_KBestExact(benchmark::State& state) {
  Problem p = make_problem(static_cast<std::int32_t>(state.range(0)), 4);
  NodeEvaluator eval(p, *p.full_model);
  std::vector<ProcessId> pool;
  for (ProcessId q = 1; q < p.n(); ++q) pool.push_back(q);
  for (auto _ : state) {
    benchmark::DoNotOptimize(k_best_valid_nodes(
        eval, 0, pool, 4, p.machine_count(),
        CandidateSelection::ExactSort));
  }
}
BENCHMARK(BM_KBestExact)->Arg(16)->Arg(24)->Arg(32);

void BM_KBestSurrogate(benchmark::State& state) {
  Problem p = make_problem(static_cast<std::int32_t>(state.range(0)), 4);
  NodeEvaluator eval(p, *p.full_model);
  std::vector<ProcessId> pool;
  for (ProcessId q = 1; q < p.n(); ++q) pool.push_back(q);
  for (auto _ : state) {
    benchmark::DoNotOptimize(k_best_valid_nodes(
        eval, 0, pool, 4, p.machine_count(),
        CandidateSelection::SurrogateHeap));
  }
}
BENCHMARK(BM_KBestSurrogate)->Arg(64)->Arg(128)->Arg(256);

// One solve's node table at n = 32, u = 4 (C(32,4) = 35,960 nodes): the
// bare model (arg 0) and the online service's warm shared cache (arg 1).
void BM_NodeTableFill(benchmark::State& state) {
  Problem p = make_problem(32, 4);
  CachingDegradationModel cached(p.full_model,
                                 std::make_shared<DegradationCache>(), {},
                                 BaseModelConcurrency::ConcurrentSafe);
  const DegradationModel& model =
      state.range(0) == 0 ? *p.full_model : cached;
  NodeEvaluator eval(p, model);
  for (auto _ : state) {
    NodeTable table(eval);
    benchmark::DoNotOptimize(table.size());
  }
  state.SetLabel(state.range(0) == 0 ? "bare model" : "cached model");
}
BENCHMARK(BM_NodeTableFill)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_OaStarSolve(benchmark::State& state) {
  Problem p = make_problem(static_cast<std::int32_t>(state.range(0)), 4);
  for (auto _ : state) {
    auto r = solve_oastar(p);
    benchmark::DoNotOptimize(r.objective);
  }
}
BENCHMARK(BM_OaStarSolve)->Arg(12)->Arg(16)->Unit(
    benchmark::kMillisecond);

void BM_HaStarSolve(benchmark::State& state) {
  Problem p = make_problem(static_cast<std::int32_t>(state.range(0)), 4);
  SearchOptions opt;
  opt.beam_width = p.machine_count();  // uniform beam regime across sizes
  for (auto _ : state) {
    auto r = solve_hastar(p, opt);
    benchmark::DoNotOptimize(r.objective);
  }
}
BENCHMARK(BM_HaStarSolve)->Arg(24)->Arg(48)->Arg(96)->Unit(
    benchmark::kMillisecond);

void BM_Hungarian(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(3);
  std::vector<std::vector<Real>> cost(n, std::vector<Real>(n));
  for (auto& row : cost)
    for (auto& c : row) c = rng.uniform_real(0.0, 100.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solve_assignment_min(cost));
  }
}
BENCHMARK(BM_Hungarian)->Arg(16)->Arg(64)->Arg(256);

void BM_MinMigrations(benchmark::State& state) {
  Problem p = make_problem(static_cast<std::int32_t>(state.range(0)), 4);
  Rng rng(5);
  Solution a = solve_random(p, rng);
  Solution b = solve_random(p, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(min_migrations(a, b));
  }
}
BENCHMARK(BM_MinMigrations)->Arg(64)->Arg(256);

void BM_IpRootLp(benchmark::State& state) {
  Problem p = make_problem(12, 4);
  auto model = build_ip_model(p, *p.full_model,
                              Aggregation::MaxPerParallelJob);
  for (auto _ : state) {
    SimplexSolver solver;
    benchmark::DoNotOptimize(solver.solve(model.lp));
  }
}
BENCHMARK(BM_IpRootLp)->Unit(benchmark::kMillisecond);

}  // namespace
