#ifndef SMR_TESTS_REFERENCE_CQ_EVALUATOR_H_
#define SMR_TESTS_REFERENCE_CQ_EVALUATOR_H_

// Test-only reference for the reducer kernel: the draw-then-probe CQ join
// and the sort-based subgraph relabeling that the library's rank-space
// intersection join (cq/cq_evaluator.h) and LocalGraphBuilder
// (graph/local_graph.h) replaced. The differential tests hold the library
// to this oracle emission for emission and counter for counter.
//
// The join draws every neighbor of an anchor variable from an id-space
// OrientedAdjacency (predecessor lists from the reversed order, so they run
// by descending rank), rejects nodes other variables hold, then probes the
// edge index once per check subgoal, stopping at the first miss.

#include <algorithm>
#include <numeric>
#include <span>
#include <utility>
#include <vector>

#include "cq/conjunctive_query.h"
#include "graph/graph.h"
#include "graph/node_order.h"
#include "graph/subgraph.h"
#include "mapreduce/instance_sink.h"
#include "util/cost_model.h"

namespace smr::reference {

/// One step of the join plan. Normally binds `var` from the adjacency of
/// `anchor_var` (successors if the connecting subgoal is (anchor, var),
/// predecessors if it is (var, anchor)) and then verifies `check_subgoals`.
/// When the CQ has several connected components, a step can instead be an
/// `edge_seed`: bind (var, var2) by scanning the whole oriented edge list,
/// starting the next component.
struct PlanStep {
  bool edge_seed = false;
  int var = -1;
  int var2 = -1;       // edge_seed only
  int anchor_var = -1;
  bool anchor_is_smaller = false;  // true: subgoal (anchor, var)
  std::vector<std::pair<int, int>> check_subgoals;
};

struct JoinPlan {
  int seed_a = -1;  // first subgoal: E(X_seed_a, X_seed_b)
  int seed_b = -1;
  std::vector<std::pair<int, int>> seed_checks;
  std::vector<PlanStep> steps;
  std::vector<int> free_vars;  // variables in no subgoal at all
};

inline JoinPlan BuildPlan(const ConjunctiveQuery& cq) {
  JoinPlan plan;
  const auto& subgoals = cq.subgoals();
  std::vector<bool> bound(cq.num_vars(), false);
  std::vector<bool> used_subgoal(subgoals.size(), false);

  plan.seed_a = subgoals[0].first;
  plan.seed_b = subgoals[0].second;
  bound[plan.seed_a] = bound[plan.seed_b] = true;
  used_subgoal[0] = true;

  while (true) {
    // Prefer a subgoal with exactly one bound endpoint; if none exists but
    // unused subgoals remain, the CQ has another connected component — seed
    // it from the edge list.
    int chosen = -1;
    int unseeded = -1;
    for (size_t s = 0; s < subgoals.size(); ++s) {
      if (used_subgoal[s]) continue;
      const auto [a, b] = subgoals[s];
      if (bound[a] != bound[b]) {
        chosen = static_cast<int>(s);
        break;
      }
      if (unseeded < 0 && !bound[a] && !bound[b]) {
        unseeded = static_cast<int>(s);
      }
    }
    if (chosen < 0 && unseeded < 0) break;
    PlanStep step;
    if (chosen >= 0) {
      const auto [a, b] = subgoals[chosen];
      step.anchor_is_smaller = bound[a];
      step.anchor_var = bound[a] ? a : b;
      step.var = bound[a] ? b : a;
      used_subgoal[chosen] = true;
      bound[step.var] = true;
    } else {
      const auto [a, b] = subgoals[unseeded];
      step.edge_seed = true;
      step.var = a;
      step.var2 = b;
      used_subgoal[unseeded] = true;
      bound[a] = bound[b] = true;
    }
    // Any other not-yet-used subgoal whose endpoints are now both bound
    // becomes a check at this step.
    for (size_t s = 0; s < subgoals.size(); ++s) {
      if (used_subgoal[s]) continue;
      const auto [x, y] = subgoals[s];
      if (bound[x] && bound[y]) {
        step.check_subgoals.push_back(subgoals[s]);
        used_subgoal[s] = true;
      }
    }
    plan.steps.push_back(std::move(step));
  }
  // Variables in no subgoal at all (isolated pattern nodes): bound by
  // scanning all nodes.
  for (int v = 0; v < cq.num_vars(); ++v) {
    if (!bound[v]) plan.free_vars.push_back(v);
  }
  return plan;
}

struct EvalState {
  const ConjunctiveQuery* cq;
  const Graph* graph;
  const NodeOrder* order;
  const OrientedAdjacency* successors;
  const OrientedAdjacency* predecessors;
  const JoinPlan* plan;
  InstanceSink* sink;
  CostCounter* cost;
  std::vector<NodeId> assignment;
  std::vector<bool> bound;
  std::vector<int> scratch_order;
  uint64_t found = 0;

  bool SubgoalHolds(int a, int b) {
    if (cost != nullptr) ++cost->index_probes;
    return order->Less(assignment[a], assignment[b]) &&
           graph->HasEdge(assignment[a], assignment[b]);
  }

  bool Distinct(NodeId node) {
    for (size_t x = 0; x < assignment.size(); ++x) {
      if (bound[x] && assignment[x] == node) return false;
    }
    return true;
  }

  void EmitIfAllowed() {
    // Induced total order of the variables, smallest node first.
    scratch_order.resize(assignment.size());
    std::iota(scratch_order.begin(), scratch_order.end(), 0);
    std::sort(scratch_order.begin(), scratch_order.end(), [this](int a, int b) {
      return order->Less(assignment[a], assignment[b]);
    });
    if (cost != nullptr) ++cost->candidates;
    if (!cq->OrderAllowed(scratch_order)) return;
    ++found;
    if (cost != nullptr) ++cost->outputs;
    if (sink != nullptr) sink->Emit(assignment);
  }

  void BindFreeVars(size_t index) {
    if (index == plan->free_vars.size()) {
      EmitIfAllowed();
      return;
    }
    const int var = plan->free_vars[index];
    for (NodeId node = 0; node < graph->num_nodes(); ++node) {
      if (!Distinct(node)) continue;
      assignment[var] = node;
      bound[var] = true;
      BindFreeVars(index + 1);
      bound[var] = false;
    }
  }

  void Step(size_t depth) {
    if (depth == plan->steps.size()) {
      BindFreeVars(0);
      return;
    }
    const PlanStep& step = plan->steps[depth];
    if (step.edge_seed) {
      for (const Edge& e : graph->edges()) {
        if (cost != nullptr) ++cost->candidates;
        const Edge oriented = order->Orient(e);
        if (!Distinct(oriented.first) || !Distinct(oriented.second)) continue;
        assignment[step.var] = oriented.first;
        assignment[step.var2] = oriented.second;
        bound[step.var] = bound[step.var2] = true;
        bool ok = true;
        for (const auto& [a, b] : step.check_subgoals) {
          if (!SubgoalHolds(a, b)) {
            ok = false;
            break;
          }
        }
        if (ok) Step(depth + 1);
        bound[step.var] = bound[step.var2] = false;
      }
      return;
    }
    const NodeId anchor_node = assignment[step.anchor_var];
    const auto candidates = step.anchor_is_smaller
                                ? successors->Successors(anchor_node)
                                : predecessors->Successors(anchor_node);
    for (NodeId node : candidates) {
      if (cost != nullptr) ++cost->candidates;
      if (!Distinct(node)) continue;
      assignment[step.var] = node;
      bound[step.var] = true;
      bool ok = true;
      for (const auto& [a, b] : step.check_subgoals) {
        if (!SubgoalHolds(a, b)) {
          ok = false;
          break;
        }
      }
      if (ok) Step(depth + 1);
      bound[step.var] = false;
    }
  }
};

/// The reference evaluator over a whole graph and node order.
class DrawThenProbeEvaluator {
 public:
  DrawThenProbeEvaluator(const Graph& graph, NodeOrder order)
      : graph_(graph),
        order_(std::move(order)),
        successors_(graph, order_),
        predecessors_(graph, order_.Reversed()) {}

  uint64_t Evaluate(const ConjunctiveQuery& cq, InstanceSink* sink,
                    CostCounter* cost) const {
    if (cq.subgoals().empty()) return 0;
    const JoinPlan plan = BuildPlan(cq);
    EvalState state;
    state.cq = &cq;
    state.graph = &graph_;
    state.order = &order_;
    state.successors = &successors_;
    state.predecessors = &predecessors_;
    state.plan = &plan;
    state.sink = sink;
    state.cost = cost;
    state.assignment.assign(cq.num_vars(), 0);
    state.bound.assign(cq.num_vars(), false);

    for (const Edge& e : graph_.edges()) {
      if (cost != nullptr) ++cost->edges_scanned;
      const Edge oriented = order_.Orient(e);
      state.assignment[plan.seed_a] = oriented.first;
      state.assignment[plan.seed_b] = oriented.second;
      state.bound[plan.seed_a] = state.bound[plan.seed_b] = true;
      bool ok = true;
      for (const auto& [a, b] : plan.seed_checks) {
        if (!state.SubgoalHolds(a, b)) {
          ok = false;
          break;
        }
      }
      if (ok) state.Step(0);
      state.bound[plan.seed_a] = state.bound[plan.seed_b] = false;
    }
    return state.found;
  }

  uint64_t EvaluateAll(std::span<const ConjunctiveQuery> cqs,
                       InstanceSink* sink, CostCounter* cost) const {
    uint64_t total = 0;
    for (const ConjunctiveQuery& cq : cqs) total += Evaluate(cq, sink, cost);
    return total;
  }

 private:
  const Graph& graph_;
  NodeOrder order_;
  OrientedAdjacency successors_;
  OrientedAdjacency predecessors_;
};

/// The sort-based relabeling: sort + unique over all 2m endpoints, then a
/// lower_bound per endpoint, then a Graph over the local edges (which
/// rejects self-loops and collapses duplicates).
inline Subgraph SortedBuildSubgraph(std::span<const Edge> edges) {
  std::vector<NodeId> nodes;
  nodes.reserve(edges.size() * 2);
  for (const Edge& e : edges) {
    nodes.push_back(e.first);
    nodes.push_back(e.second);
  }
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
  auto local_id = [&nodes](NodeId global) {
    return static_cast<NodeId>(
        std::lower_bound(nodes.begin(), nodes.end(), global) - nodes.begin());
  };
  std::vector<Edge> local_edges;
  local_edges.reserve(edges.size());
  for (const Edge& e : edges) {
    local_edges.emplace_back(local_id(e.first), local_id(e.second));
  }
  return Subgraph{Graph(static_cast<NodeId>(nodes.size()),
                        std::move(local_edges)),
                  std::move(nodes)};
}

}  // namespace smr::reference

#endif  // SMR_TESTS_REFERENCE_CQ_EVALUATOR_H_
