#include "graph/node_table.hpp"

#include <algorithm>
#include <numeric>

#include "util/combinatorics.hpp"

namespace cosched {

NodeTable::NodeTable(const NodeEvaluator& eval) : u_(eval.problem().u()) {
  const std::int32_t n = eval.problem().n();
  const std::size_t u = unsigned_u();
  const auto total = static_cast<std::size_t>(
      binomial(static_cast<std::uint64_t>(n), static_cast<std::uint64_t>(u)));
  members_.reserve(total * u);
  member_d_.reserve(total * u);

  // One level at a time: weigh in enumeration order into scratch, then
  // append in (weight, node) order — k_best_valid_nodes' comparator.
  std::vector<ProcessId> ids;
  std::vector<Real> d, weights, d_scratch;
  std::vector<std::uint32_t> order;
  std::vector<ProcessId> pool;
  for (ProcessId lead = 0; lead + u_ <= n; ++lead) {
    level_begin_.push_back(size());
    ids.clear();
    d.clear();
    weights.clear();
    pool.clear();
    for (ProcessId p = lead + 1; p < n; ++p) pool.push_back(p);
    for_each_valid_node(lead, pool, u_, [&](std::span<const ProcessId> node) {
      weights.push_back(eval.weight(node, d_scratch));
      ids.insert(ids.end(), node.begin(), node.end());
      d.insert(d.end(), d_scratch.begin(), d_scratch.end());
      return true;
    });
    order.resize(weights.size());
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                if (weights[a] != weights[b]) return weights[a] < weights[b];
                return std::lexicographical_compare(
                    ids.begin() + a * u, ids.begin() + (a + 1) * u,
                    ids.begin() + b * u, ids.begin() + (b + 1) * u);
              });
    for (std::uint32_t i : order) {
      members_.insert(members_.end(), ids.begin() + i * u,
                      ids.begin() + (i + 1) * u);
      member_d_.insert(member_d_.end(), d.begin() + i * u,
                       d.begin() + (i + 1) * u);
    }
  }
  level_begin_.push_back(size());
}

std::size_t NodeTable::level_begin(ProcessId lead) const {
  COSCHED_EXPECTS(lead >= 0 &&
                  static_cast<std::size_t>(lead) < level_begin_.size());
  return level_begin_[static_cast<std::size_t>(lead)];
}

std::vector<NodeCandidate> NodeTable::k_best_valid(
    ProcessId lead, const DynamicBitset& scheduled, std::int32_t k) const {
  COSCHED_EXPECTS(k >= 1);
  COSCHED_EXPECTS(!scheduled.test(static_cast<std::size_t>(lead)));
  std::vector<NodeCandidate> out;
  for (std::size_t i = level_begin(lead), end = level_end(lead); i < end;
       ++i) {
    std::span<const ProcessId> node = members(i);
    // node[0] is the lead itself, clear by contract.
    if (std::any_of(node.begin() + 1, node.end(), [&](ProcessId p) {
          return scheduled.test(static_cast<std::size_t>(p));
        }))
      continue;
    NodeCandidate& c = out.emplace_back();
    c.node.assign(node.begin(), node.end());
    c.member_d.assign(member_d(i).begin(), member_d(i).end());
    for (Real di : c.member_d) c.weight += di;
    if (static_cast<std::int32_t>(out.size()) == k) break;
  }
  return out;
}

}  // namespace cosched
