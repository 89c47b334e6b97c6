#include "cq/cq_evaluator.h"

#include <algorithm>
#include <numeric>
#include <utility>
#include <vector>

#include "graph/intersect.h"

namespace smr {

namespace {

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
  std::vector<PlanStep> steps;
  std::vector<int> free_vars;  // variables in no subgoal at all
};

JoinPlan BuildPlan(const ConjunctiveQuery& cq) {
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
  const LocalGraph* local;
  const JoinPlan* plan;
  InstanceSink* sink;
  CostCounter* cost;
  std::vector<uint32_t> assignment;  // variable -> rank
  std::vector<uint8_t> bound;
  std::vector<int> scratch_order;
  std::vector<NodeId> emitted;  // assignment mapped to node ids
  // Two intersection buffers per plan step, `stride` slots each.
  std::vector<NodeId> buffers;
  size_t stride = 0;
  uint64_t found = 0;

  bool SubgoalHolds(int a, int b) {
    ++cost->index_probes;
    const uint32_t ra = assignment[a];
    const uint32_t rb = assignment[b];
    return ra < rb && ContainsSorted(local->Successors(ra), rb);
  }

  bool ChecksHold(const std::vector<std::pair<int, int>>& checks) {
    for (const auto& [a, b] : checks) {
      if (!SubgoalHolds(a, b)) return false;
    }
    return true;
  }

  bool Distinct(uint32_t rank) const {
    for (size_t x = 0; x < assignment.size(); ++x) {
      if (bound[x] && assignment[x] == rank) return false;
    }
    return true;
  }

  void EmitIfAllowed() {
    // Induced total order of the variables, smallest node first.
    scratch_order.resize(assignment.size());
    std::iota(scratch_order.begin(), scratch_order.end(), 0);
    std::sort(scratch_order.begin(), scratch_order.end(),
              [this](int a, int b) { return assignment[a] < assignment[b]; });
    ++cost->candidates;
    if (!cq->OrderAllowed(scratch_order)) return;
    ++found;
    ++cost->outputs;
    if (sink == nullptr) return;
    for (size_t x = 0; x < assignment.size(); ++x) {
      emitted[x] = local->id_of_rank[assignment[x]];
    }
    sink->Emit(emitted);
  }

  void BindFreeVars(size_t index) {
    if (index == plan->free_vars.size()) {
      EmitIfAllowed();
      return;
    }
    const int var = plan->free_vars[index];
    for (NodeId node = 0; node < local->num_nodes; ++node) {
      const uint32_t rank = local->rank_of_local[node];
      if (!Distinct(rank)) continue;
      assignment[var] = rank;
      bound[var] = 1;
      BindFreeVars(index + 1);
      bound[var] = 0;
    }
  }

  void SeedStep(size_t depth, const PlanStep& step) {
    for (const Edge& e : local->oriented_edges) {
      ++cost->candidates;
      if (!Distinct(e.first) || !Distinct(e.second)) continue;
      assignment[step.var] = e.first;
      assignment[step.var2] = e.second;
      bound[step.var] = bound[step.var2] = 1;
      if (ChecksHold(step.check_subgoals)) Step(depth + 1);
      bound[step.var] = bound[step.var2] = 0;
    }
  }

  void Bind(size_t depth, const PlanStep& step, NodeId rank) {
    assignment[step.var] = rank;
    bound[step.var] = 1;
    Step(depth + 1);
    bound[step.var] = 0;
  }

  void Step(size_t depth) {
    if (depth == plan->steps.size()) {
      BindFreeVars(0);
      return;
    }
    const PlanStep& step = plan->steps[depth];
    if (step.edge_seed) {
      SeedStep(depth, step);
      return;
    }
    const uint32_t anchor = assignment[step.anchor_var];
    const std::span<const NodeId> anchor_list =
        step.anchor_is_smaller ? local->Successors(anchor)
                               : local->Predecessors(anchor);
    cost->candidates += anchor_list.size();
    const bool ascending = step.anchor_is_smaller;
    const size_t k = step.check_subgoals.size();
    if (k == 0) {
      for (size_t i = 0; i < anchor_list.size(); ++i) {
        const NodeId rank =
            anchor_list[ascending ? i : anchor_list.size() - 1 - i];
        if (Distinct(rank)) Bind(depth, step, rank);
      }
      return;
    }
    // L_0: the anchor list without nodes other variables hold. Distinct
    // variables hold distinct nodes, so each bound node in the list counts
    // once.
    size_t held = 0;
    for (size_t x = 0; x < assignment.size(); ++x) {
      if (bound[x] && ContainsSorted(anchor_list, assignment[x])) ++held;
    }
    cost->index_probes += anchor_list.size() - held;
    // Each check involves `var` and one bound variable (every subgoal bound
    // earlier was consumed by an earlier step): var in Successors(other)
    // for a check (other, var), in Predecessors(other) for (var, other).
    std::span<const NodeId> survivors = anchor_list;
    NodeId* const pair = buffers.data() + 2 * depth * stride;
    for (size_t i = 0; i < k; ++i) {
      const auto [a, b] = step.check_subgoals[i];
      const std::span<const NodeId> check =
          a == step.var ? local->Predecessors(assignment[b])
                        : local->Successors(assignment[a]);
      // Output room: min(|survivors|, |check|) + kIntersectSlack <= stride.
      NodeId* const out = pair + (i % 2) * stride;
      size_t count = IntersectInto(survivors, check, out);
      if (i == 0 && held > 0) {
        count = static_cast<size_t>(
            std::remove_if(out, out + count,
                           [this](NodeId rank) { return !Distinct(rank); }) -
            out);
      }
      survivors = {out, count};
      if (count == 0) return;
      if (i + 1 < k) cost->index_probes += count;
    }
    for (size_t i = 0; i < survivors.size(); ++i) {
      Bind(depth, step, survivors[ascending ? i : survivors.size() - 1 - i]);
    }
  }
};

}  // namespace

CqEvaluator::CqEvaluator(const Graph& graph, NodeOrder order)
    : owned_(std::make_unique<LocalGraphBuilder>()),
      local_(&owned_->Build(graph, order)) {}

CqEvaluator::CqEvaluator(const LocalGraph& local) : local_(&local) {}

uint64_t CqEvaluator::Evaluate(const ConjunctiveQuery& cq, InstanceSink* sink,
                               CostCounter* cost) const {
  if (cq.subgoals().empty()) return 0;
  const JoinPlan plan = BuildPlan(cq);
  CostCounter dummy;
  EvalState state;
  state.cq = &cq;
  state.local = local_;
  state.plan = &plan;
  state.sink = sink;
  state.cost = cost != nullptr ? cost : &dummy;
  state.assignment.assign(cq.num_vars(), 0);
  state.bound.assign(cq.num_vars(), 0);
  state.emitted.assign(cq.num_vars(), 0);
  state.stride = local_->max_list + kIntersectSlack;
  state.buffers.resize(2 * plan.steps.size() * state.stride);

  for (const Edge& e : local_->oriented_edges) {
    ++state.cost->edges_scanned;
    state.assignment[plan.seed_a] = e.first;
    state.assignment[plan.seed_b] = e.second;
    state.bound[plan.seed_a] = state.bound[plan.seed_b] = 1;
    state.Step(0);
    state.bound[plan.seed_a] = state.bound[plan.seed_b] = 0;
  }
  return state.found;
}

uint64_t CqEvaluator::EvaluateAll(std::span<const ConjunctiveQuery> cqs,
                                  InstanceSink* sink,
                                  CostCounter* cost) const {
  uint64_t total = 0;
  for (const ConjunctiveQuery& cq : cqs) {
    total += Evaluate(cq, sink, cost);
  }
  return total;
}

}  // namespace smr
