#include "graph/level_stats.hpp"

#include <algorithm>

#include "graph/node_enumerator.hpp"
#include "graph/node_table.hpp"
#include "util/combinatorics.hpp"

namespace cosched {

LevelStats LevelStats::empty_exact(const Problem& problem, bool node_list) {
  LevelStats stats;
  stats.exact_ = true;
  stats.node_list_ = node_list;
  stats.n_ = problem.n();
  stats.u_ = problem.u();
  stats.total_nodes_ = binomial(static_cast<std::uint64_t>(stats.n_),
                                static_cast<std::uint64_t>(stats.u_));
  stats.min_level_weight_.assign(static_cast<std::size_t>(stats.n_),
                                 kInfinity);
  if (node_list)
    stats.sorted_nodes_.reserve(static_cast<std::size_t>(stats.total_nodes_));
  return stats;
}

void LevelStats::add_node(ProcessId lead, Real h_weight) {
  auto& mw = min_level_weight_[static_cast<std::size_t>(lead)];
  if (h_weight < mw) mw = h_weight;
  if (node_list_)
    sorted_nodes_.emplace_back(static_cast<float>(h_weight), lead);
}

void LevelStats::sort_node_list() {
  std::sort(sorted_nodes_.begin(), sorted_nodes_.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
}

LevelStats LevelStats::build_exact(const NodeEvaluator& eval,
                                   HWeightMode mode,
                                   std::uint64_t max_nodes, bool node_list) {
  const Problem& problem = eval.problem();
  const std::int32_t n = problem.n();
  const std::int32_t u = problem.u();
  LevelStats stats = empty_exact(problem, node_list);
  COSCHED_EXPECTS(stats.total_nodes_ <= max_nodes);

  // Levels exist for lead in [0, n-u].
  std::vector<ProcessId> pool;
  for (ProcessId lead = 0; lead + u <= n; ++lead) {
    pool.clear();
    for (ProcessId p = lead + 1; p < n; ++p) pool.push_back(p);
    for_each_valid_node(lead, pool, u, [&](std::span<const ProcessId> node) {
      stats.add_node(lead, eval.h_weight(node, mode));
      return true;
    });
  }
  stats.sort_node_list();
  return stats;
}

LevelStats LevelStats::from_table(const NodeTable& table,
                                  const NodeEvaluator& eval, HWeightMode mode,
                                  bool node_list) {
  const Problem& problem = eval.problem();
  LevelStats stats = empty_exact(problem, node_list);
  COSCHED_EXPECTS(table.size() == stats.total_nodes_);
  for (ProcessId lead = 0; lead + stats.u_ <= stats.n_; ++lead)
    for (std::size_t i = table.level_begin(lead); i < table.level_end(lead);
         ++i)
      stats.add_node(lead, eval.h_weight(table.members(i), table.member_d(i),
                                         mode));
  stats.sort_node_list();
  return stats;
}

LevelStats LevelStats::build_approx(const NodeEvaluator& eval,
                                    HWeightMode mode) {
  const Problem& problem = eval.problem();
  const DegradationModel& model = eval.model();
  const std::int32_t n = problem.n();
  const std::int32_t u = problem.u();

  LevelStats stats;
  stats.exact_ = false;
  stats.n_ = n;
  stats.u_ = u;
  stats.total_nodes_ =
      binomial(static_cast<std::uint64_t>(n), static_cast<std::uint64_t>(u));
  stats.min_level_weight_.assign(static_cast<std::size_t>(n), kInfinity);

  // Estimate each level's on-path node weight with *typical* (median-
  // pressure) co-runners rather than the globally cheapest ones: the
  // cheapest co-runners can each be used by only one level of a real path,
  // so a per-level "true minimum" underestimates the remaining cost so
  // badly that the search degenerates toward Dijkstra. A typical-co-runner
  // estimate keeps h near the real per-level cost; HA* (the only consumer
  // of approximate stats) does not require admissibility.
  std::vector<ProcessId> by_pressure(static_cast<std::size_t>(n));
  for (std::int32_t p = 0; p < n; ++p)
    by_pressure[static_cast<std::size_t>(p)] = p;
  std::sort(by_pressure.begin(), by_pressure.end(),
            [&](ProcessId a, ProcessId b) {
              return model.pressure(a) < model.pressure(b);
            });

  std::vector<ProcessId> node;
  for (ProcessId lead = 0; lead + u <= n; ++lead) {
    node.clear();
    node.push_back(lead);
    // Walk outward from the pressure median so the chosen co-runners are
    // representative of an average machine's load.
    std::size_t mid = by_pressure.size() / 2;
    for (std::size_t offset = 0;
         offset < by_pressure.size() &&
         static_cast<std::int32_t>(node.size()) < u;
         ++offset) {
      std::size_t idx =
          (offset % 2 == 0) ? mid + offset / 2
                            : mid - 1 - offset / 2 + (mid == 0 ? 1 : 0);
      if (idx >= by_pressure.size()) continue;
      ProcessId cand = by_pressure[idx];
      if (cand == lead) continue;
      node.push_back(cand);
    }
    COSCHED_ENSURES(static_cast<std::int32_t>(node.size()) == u);
    std::sort(node.begin(), node.end());
    stats.min_level_weight_[static_cast<std::size_t>(lead)] =
        eval.h_weight(node, mode);
  }
  return stats;
}

Real LevelStats::min_level_weight(ProcessId lead) const {
  COSCHED_EXPECTS(lead >= 0 && lead < n_);
  return min_level_weight_[static_cast<std::size_t>(lead)];
}

Real LevelStats::strategy2_h(const std::vector<ProcessId>& unscheduled,
                             std::int32_t k) const {
  if (k <= 0) return 0.0;
  thread_local std::vector<Real> weights;
  weights.clear();
  for (ProcessId p : unscheduled) {
    if (p + u_ > n_) continue;  // cannot lead a level
    Real w = min_level_weight_[static_cast<std::size_t>(p)];
    if (w < kInfinity) weights.push_back(w);
  }
  // Fewer candidate levels than remaining machines can only happen near the
  // end of the graph; the missing terms lower-bound to 0.
  std::int32_t take = std::min<std::int32_t>(
      k, static_cast<std::int32_t>(weights.size()));
  if (take <= 0) return 0.0;
  std::nth_element(weights.begin(), weights.begin() + (take - 1),
                   weights.end());
  Real h = 0.0;
  for (std::int32_t i = 0; i < take; ++i) h += weights[static_cast<std::size_t>(i)];
  return h;
}

Real LevelStats::strategy1_h(ProcessId level_gt, std::int32_t k) const {
  COSCHED_EXPECTS(exact_ && node_list_);
  if (k <= 0) return 0.0;
  Real h = 0.0;
  std::int32_t taken = 0;
  for (const auto& [w, level] : sorted_nodes_) {
    if (level <= level_gt) continue;
    h += static_cast<Real>(w);
    if (++taken == k) break;
  }
  return h;
}

}  // namespace cosched
