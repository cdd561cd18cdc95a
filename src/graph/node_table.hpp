// Dense per-solve node table: every node of the co-scheduling graph weighed
// once, each level sorted ascending by (weight, node) — the paper's sorted
// levels (Section III). HA*'s exact candidate selection becomes a scan of
// one level that skips nodes with a scheduled member: no enumeration, no
// sort and no model query per expansion (DESIGN.md §3 "HA*").
//
// Node i of the table is stored as u member ids and u member degradations
// (member order); its weight is their sum in member order, the same
// additions NodeEvaluator::weight makes, so it is bit-identical.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/node_eval.hpp"
#include "graph/node_enumerator.hpp"
#include "util/dynamic_bitset.hpp"

namespace cosched {

class NodeTable {
 public:
  NodeTable() = default;

  /// Weighs all C(n,u) nodes (u model queries each, one pass) and sorts
  /// each level by (weight, node). Memory: C(n,u) · u · (4 + 8) bytes.
  explicit NodeTable(const NodeEvaluator& eval);

  bool empty() const { return level_begin_.empty(); }
  std::size_t size() const {
    return u_ == 0 ? 0 : member_d_.size() / unsigned_u();
  }

  /// Levels exist for lead in [0, n-u]; level `lead` holds the table's
  /// nodes [level_begin(lead), level_end(lead)), cheapest first.
  std::size_t level_begin(ProcessId lead) const;
  std::size_t level_end(ProcessId lead) const { return level_begin(lead + 1); }

  std::span<const ProcessId> members(std::size_t i) const {
    return {members_.data() + i * unsigned_u(), unsigned_u()};
  }
  std::span<const Real> member_d(std::size_t i) const {
    return {member_d_.data() + i * unsigned_u(), unsigned_u()};
  }

  /// Up to `k` cheapest nodes of level `lead` with no member set in
  /// `scheduled`, in (weight, node) order: exactly k_best_valid_nodes(…,
  /// ExactSort) over the ids > lead that are clear in `scheduled`.
  std::vector<NodeCandidate> k_best_valid(ProcessId lead,
                                          const DynamicBitset& scheduled,
                                          std::int32_t k) const;

 private:
  std::size_t unsigned_u() const { return static_cast<std::size_t>(u_); }

  std::int32_t u_ = 0;
  std::vector<std::size_t> level_begin_;  ///< per lead, plus one past the end
  std::vector<ProcessId> members_;        ///< u ids per node
  std::vector<Real> member_d_;            ///< u degradations per node
};

}  // namespace cosched
