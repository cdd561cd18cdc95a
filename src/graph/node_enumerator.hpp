// Lazy enumeration of a level's valid nodes during search expansion.
//
// When the search expands a subpath, the valid level is led by the smallest
// unscheduled process id; valid nodes are {lead} ∪ any (u-1)-subset of the
// remaining unscheduled ids. OA* visits all of them; HA* only the k
// cheapest by node weight (k = n/u, the MER function). At small scale the k
// cheapest are found by full enumeration + partial selection; at large
// scale they are generated best-first over a separable pressure surrogate
// and re-ranked by true weight (DESIGN.md §3 "HA*").
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/node_eval.hpp"

namespace cosched {

/// A candidate node with its evaluation.
struct NodeCandidate {
  std::vector<ProcessId> node;  ///< sorted; node[0] == lead
  Real weight = 0.0;            ///< Σ member degradations
  std::vector<Real> member_d;   ///< degradation per member, node order
};

/// Invokes `fn` for every valid node of the level led by `lead`, where
/// `pool` holds the unscheduled ids greater than `lead` (sorted ascending).
/// `fn` returns false to stop. The span passed to `fn` is reused.
void for_each_valid_node(
    ProcessId lead, const std::vector<ProcessId>& pool, std::int32_t u,
    const std::function<bool(std::span<const ProcessId>)>& fn);

enum class CandidateSelection {
  Auto,          ///< Exact when the level is small, surrogate otherwise
  ExactSort,     ///< enumerate + select k smallest true weights
  SurrogateHeap, ///< best-first over pressure sums, re-rank by true weight
};

/// What `selection` means for a level whose pool holds `pool_size` ids:
/// Auto is ExactSort while the level has at most 50,000 nodes.
CandidateSelection resolve_selection(CandidateSelection selection,
                                     std::size_t pool_size, std::int32_t u);

/// Returns up to `k` valid nodes of the level, cheapest true weight first.
/// `overgen` (surrogate mode) controls how many candidates are generated per
/// requested node before re-ranking.
std::vector<NodeCandidate> k_best_valid_nodes(
    const NodeEvaluator& eval, ProcessId lead,
    const std::vector<ProcessId>& pool, std::int32_t u, std::int32_t k,
    CandidateSelection selection, std::size_t overgen = 4);

}  // namespace cosched
