#ifndef SMR_CQ_CQ_EVALUATOR_H_
#define SMR_CQ_CQ_EVALUATOR_H_

#include <cstdint>
#include <memory>
#include <span>

#include "cq/conjunctive_query.h"
#include "graph/graph.h"
#include "graph/local_graph.h"
#include "graph/node_order.h"
#include "mapreduce/instance_sink.h"
#include "util/cost_model.h"

namespace smr {

/// Evaluates conjunctive queries over the single edge relation E of a data
/// graph (each undirected edge stored once, oriented by a node order). This
/// is the multiway-join-plus-selection of Section 3 run at a reducer — or,
/// standalone, a complete serial algorithm for enumerating instances.
///
/// The join is a backtracking expansion along a fixed plan, run entirely in
/// the rank space of a LocalGraph. The first subgoal is seeded from the
/// oriented edge list, in canonical edge order. Each later step binds one
/// variable by sorted-set intersection: take the successor list (subgoal
/// (anchor, var)) or predecessor list (subgoal (var, anchor)) of an
/// already-bound anchor, drop the nodes other variables already hold, then
/// intersect with the matching list of every check subgoal — a subgoal
/// whose endpoints are both bound once `var` is — in turn (graph/
/// intersect.h). Survivors are visited in ascending rank from a successor
/// list and descending rank from a predecessor list. A pattern with several
/// components seeds each further component from the edge list, and
/// variables in no subgoal range over all nodes. The arithmetic condition
/// is applied as a final selection, exactly as footnote 5 of the paper
/// prescribes.
///
/// The cost counters keep the paper's probe-per-candidate accounting, so
/// they equal those of a join that draws each anchor neighbor and probes the
/// edge index subgoal by subgoal, stopping at the first miss. Per bound
/// step: candidates += |anchor list|, and index_probes += |L_0| + ... +
/// |L_{k-1}|, where L_0 is the anchor list without bound nodes, L_i what is
/// left of it after the first i checks, and k the step's number of checks.
/// Every complete assignment counts one more candidate before the selection,
/// and every selected one an output.
class CqEvaluator {
 public:
  /// Evaluates over `graph` ranked by `order`; builds its own rank-space
  /// copy of the graph, so `graph` need not outlive the evaluator.
  CqEvaluator(const Graph& graph, NodeOrder order);

  /// Evaluates over a view some builder produced (a reducer's share). The
  /// view must stay valid while the evaluator is used.
  explicit CqEvaluator(const LocalGraph& local);

  /// Enumerates all solutions of `cq`; emits assignments (variable ->
  /// node id) into `sink`. Returns the number of solutions.
  uint64_t Evaluate(const ConjunctiveQuery& cq, InstanceSink* sink,
                    CostCounter* cost) const;

  /// Evaluates every CQ in the set; the generation guarantees of Section 3
  /// make the union produce each instance exactly once.
  uint64_t EvaluateAll(std::span<const ConjunctiveQuery> cqs,
                       InstanceSink* sink, CostCounter* cost) const;

 private:
  std::unique_ptr<LocalGraphBuilder> owned_;
  const LocalGraph* local_;
};

}  // namespace smr

#endif  // SMR_CQ_CQ_EVALUATOR_H_
