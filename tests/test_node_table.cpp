// The per-solve node table against the code it replaces: its level scan
// must return what k_best_valid_nodes(…, ExactSort) returns, and the level
// statistics read from it must equal LevelStats::build_exact, bit for bit.
#include <gtest/gtest.h>

#include <algorithm>

#include "graph/level_stats.hpp"
#include "graph/node_enumerator.hpp"
#include "graph/node_table.hpp"
#include "test_helpers.hpp"
#include "util/combinatorics.hpp"
#include "util/rng.hpp"

namespace cosched {
namespace {

using testhelpers::random_pc_problem;
using testhelpers::random_pe_problem;

struct Batch {
  std::int32_t n;
  std::uint32_t u;
  bool comm;  ///< PC when true, PE otherwise
  std::uint64_t seed;
};

/// n processes: half of them in two parallel jobs, the rest serial.
Problem make_batch(const Batch& b) {
  const std::int32_t per_job = b.n / 4;
  const std::int32_t serial = b.n - 2 * per_job;
  std::vector<std::int32_t> sizes{per_job, per_job};
  return b.comm ? random_pc_problem(serial, sizes, b.u, b.seed)
                : random_pe_problem(serial, sizes, b.u, b.seed);
}

std::vector<Batch> batches() {
  std::vector<Batch> out;
  std::uint64_t seed = 1;
  for (std::int32_t n : {8, 12, 16, 32})
    for (std::uint32_t u : {2u, 4u})
      for (bool comm : {false, true}) out.push_back({n, u, comm, seed++});
  return out;
}

TEST(NodeTable, ScanMatchesExactKBestBitForBit) {
  for (const Batch& b : batches()) {
    Problem p = make_batch(b);
    ASSERT_EQ(p.n(), b.n);
    NodeEvaluator eval(p, *p.full_model);
    NodeTable table(eval);
    const auto u = static_cast<std::int32_t>(b.u);
    Rng rng(b.seed * 977);
    for (int trial = 0; trial < 40; ++trial) {
      // A random scheduled set; the level to expand is its first clear id.
      DynamicBitset scheduled(static_cast<std::size_t>(b.n));
      const std::uint64_t density = rng.uniform(4);  // 0 = nothing scheduled
      for (std::int32_t q = 0; q < b.n; ++q)
        if (density > 0 && rng.uniform(4) < density)
          scheduled.set(static_cast<std::size_t>(q));
      const auto lead = static_cast<ProcessId>(scheduled.find_first_clear());
      std::vector<ProcessId> pool;
      for (ProcessId q = lead + 1; q < b.n; ++q)
        if (!scheduled.test(static_cast<std::size_t>(q))) pool.push_back(q);
      if (lead >= b.n || static_cast<std::int32_t>(pool.size()) < u - 1)
        continue;
      const std::int32_t k =
          trial % 5 == 0 ? 1'000'000
                         : 1 + static_cast<std::int32_t>(rng.uniform(
                                   static_cast<std::uint64_t>(2 * b.n / u)));
      auto want = k_best_valid_nodes(eval, lead, pool, u, k,
                                     CandidateSelection::ExactSort);
      auto got = table.k_best_valid(lead, scheduled, k);
      ASSERT_EQ(got.size(), want.size())
          << "n=" << b.n << " u=" << u << " trial " << trial;
      for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i].node, want[i].node) << "rank " << i;
        EXPECT_EQ(got[i].weight, want[i].weight) << "rank " << i;
        EXPECT_EQ(got[i].member_d, want[i].member_d) << "rank " << i;
      }
    }
  }
}

TEST(NodeTable, LevelStatsFromTableEqualExactBuild) {
  for (const Batch& b : batches()) {
    Problem p = make_batch(b);
    NodeEvaluator eval(p, *p.full_model);
    NodeTable table(eval);
    ASSERT_EQ(table.size(), binomial(static_cast<std::uint64_t>(b.n), b.u));
    for (HWeightMode mode : {HWeightMode::Admissible, HWeightMode::PaperFull}) {
      LevelStats want = LevelStats::build_exact(eval, mode);
      LevelStats got = LevelStats::from_table(table, eval, mode,
                                              /*node_list=*/true);
      LevelStats minima_only = LevelStats::from_table(table, eval, mode,
                                                      /*node_list=*/false);
      EXPECT_EQ(got.total_nodes(), want.total_nodes());
      for (ProcessId lead = 0; lead + static_cast<ProcessId>(b.u) <= b.n;
           ++lead) {
        EXPECT_EQ(got.min_level_weight(lead), want.min_level_weight(lead));
        EXPECT_EQ(minima_only.min_level_weight(lead),
                  want.min_level_weight(lead));
      }
      const std::int32_t levels = b.n / static_cast<std::int32_t>(b.u);
      for (ProcessId level_gt = -1; level_gt < b.n; ++level_gt)
        for (std::int32_t k = 0; k <= levels; ++k)
          EXPECT_EQ(got.strategy1_h(level_gt, k),
                    want.strategy1_h(level_gt, k));
      EXPECT_THROW(minima_only.strategy1_h(-1, 1), ContractViolation);
    }
  }
}

// Levels come out cheapest first under k_best_valid_nodes' comparator,
// ties broken by the node's ids.
TEST(NodeTable, LevelsAreSortedByWeightThenNode) {
  Problem p = make_batch({16, 4, false, 5});
  NodeEvaluator eval(p, *p.full_model);
  NodeTable table(eval);
  for (ProcessId lead = 0; lead + 4 <= 16; ++lead) {
    ASSERT_LT(table.level_begin(lead), table.level_end(lead));
    for (std::size_t i = table.level_begin(lead) + 1;
         i < table.level_end(lead); ++i) {
      EXPECT_EQ(table.members(i)[0], lead);
      Real prev = eval.weight(table.members(i - 1));
      Real cur = eval.weight(table.members(i));
      ASSERT_LE(prev, cur);
      if (prev == cur) {
        auto a = table.members(i - 1), b = table.members(i);
        EXPECT_TRUE(std::lexicographical_compare(a.begin(), a.end(),
                                                 b.begin(), b.end()));
      }
    }
  }
}

}  // namespace
}  // namespace cosched
