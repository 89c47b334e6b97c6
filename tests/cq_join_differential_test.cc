// Differential property test of the reducer kernel against its test-only
// oracle (tests/reference_cq_evaluator.h): the rank-space intersection join
// and the LocalGraphBuilder must reproduce the draw-then-probe join over a
// sort-relabeled Subgraph exactly — the same emissions in the same order,
// and every CostCounter field equal — on seeded random graphs under three
// node orders, for connected patterns and for a disconnected one that
// exercises edge-seed steps and free variables, on whole graphs and on
// reducer-shaped shares with duplicate and reversed edges.

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cq/cq_evaluator.h"
#include "cq/cq_generation.h"
#include "graph/generators.h"
#include "graph/local_graph.h"
#include "graph/node_order.h"
#include "graph/subgraph.h"
#include "serial/triangles.h"
#include "tests/reference_cq_evaluator.h"
#include "util/hashing.h"
#include "util/rng.h"

namespace smr {
namespace {

struct JoinRun {
  std::vector<std::vector<NodeId>> emissions;
  CostCounter cost;
  uint64_t found = 0;
};

void ExpectSameRun(const JoinRun& want, const JoinRun& got,
                   const std::string& what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(got.found, want.found);
  EXPECT_EQ(got.cost.edges_scanned, want.cost.edges_scanned);
  EXPECT_EQ(got.cost.candidates, want.cost.candidates);
  EXPECT_EQ(got.cost.index_probes, want.cost.index_probes);
  EXPECT_EQ(got.cost.outputs, want.cost.outputs);
  ASSERT_EQ(got.emissions.size(), want.emissions.size());
  for (size_t i = 0; i < want.emissions.size(); ++i) {
    ASSERT_EQ(got.emissions[i], want.emissions[i]) << "emission " << i;
  }
}

/// Collects emissions after mapping local ids through `local_to_global`.
class GlobalizingSink : public InstanceSink {
 public:
  GlobalizingSink(const std::vector<NodeId>& local_to_global, JoinRun* run)
      : local_to_global_(local_to_global), run_(run) {}

  void Emit(std::span<const NodeId> assignment) override {
    std::vector<NodeId> global;
    for (NodeId node : assignment) global.push_back(local_to_global_[node]);
    run_->emissions.push_back(std::move(global));
  }

 private:
  const std::vector<NodeId>& local_to_global_;
  JoinRun* run_;
};

/// Collects emissions as they are.
class RecordingSink : public InstanceSink {
 public:
  explicit RecordingSink(JoinRun* run) : run_(run) {}

  void Emit(std::span<const NodeId> assignment) override {
    run_->emissions.emplace_back(assignment.begin(), assignment.end());
  }

 private:
  JoinRun* run_;
};

struct NamedPattern {
  std::string name;
  SampleGraph pattern;
};

std::vector<NamedPattern> Patterns() {
  return {
      {"triangle", SampleGraph::Triangle()},
      {"square", SampleGraph::Square()},
      {"lollipop", SampleGraph::Lollipop()},
      {"C5", SampleGraph::Cycle(5)},
      {"K4", SampleGraph::Clique(4)},
      {"path4", SampleGraph::Path(4)},
      {"star4", SampleGraph::Star(4)},
      // Two edge components (the second is an edge-seed step) and variable
      // 4 in no subgoal (a free variable).
      {"disconnected", SampleGraph(5, {{0, 1}, {2, 3}})},
  };
}

struct NamedOrder {
  std::string name;
  NodeOrder order;
};

std::vector<NamedOrder> Orders(const Graph& g, uint64_t seed) {
  return {{"identity", NodeOrder::Identity(g.num_nodes())},
          {"degree", NodeOrder::ByDegree(g)},
          {"bucket", NodeOrder::ByBucket(g.num_nodes(),
                                         BucketHasher(3, seed))}};
}

TEST(CqJoinDifferential, WholeGraphsMatchDrawThenProbe) {
  const std::vector<NamedPattern> patterns = Patterns();
  std::vector<uint64_t> found_by_pattern(patterns.size(), 0);
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    // 11 to 33 nodes at average degree 4, 6 or 8.
    const NodeId n = static_cast<NodeId>(9 + 2 * seed);
    const Graph g = ErdosRenyi(n, (2 + seed % 3) * n, seed);
    for (const NamedOrder& order : Orders(g, seed)) {
      for (size_t i = 0; i < patterns.size(); ++i) {
        const NamedPattern& named = patterns[i];
        const auto cqs = CqsForSample(named.pattern);
        JoinRun want;
        RecordingSink want_sink(&want);
        want.found = reference::DrawThenProbeEvaluator(g, order.order)
                         .EvaluateAll(cqs, &want_sink, &want.cost);
        JoinRun got;
        RecordingSink got_sink(&got);
        got.found =
            CqEvaluator(g, order.order).EvaluateAll(cqs, &got_sink, &got.cost);
        ExpectSameRun(want, got,
                      named.name + " / " + order.name + " order / seed " +
                          std::to_string(seed));
        found_by_pattern[i] += want.found;
      }
    }
  }
  for (size_t i = 0; i < patterns.size(); ++i) {
    EXPECT_GT(found_by_pattern[i], 0u) << patterns[i].name << " never matched";
  }
}

/// A reducer-shaped share of `g`: a random third of its edges, each
/// possibly reversed, with some edges repeated, in mapper order or
/// shuffled.
std::vector<Edge> Share(const Graph& g, Rng* rng, bool shuffled) {
  std::vector<Edge> values;
  for (const Edge& e : g.edges()) {
    if (rng->Below(3) != 0) continue;
    values.push_back(rng->Below(2) == 0 ? e : Edge{e.second, e.first});
    if (rng->Below(5) == 0) values.push_back({e.second, e.first});
    if (rng->Below(7) == 0) values.push_back(e);
  }
  if (shuffled) {
    for (size_t i = values.size(); i > 1; --i) {
      std::swap(values[i - 1], values[rng->Below(i)]);
    }
  }
  return values;
}

TEST(CqJoinDifferential, ReducerSharesMatchSortedRelabel) {
  const std::vector<NamedPattern> patterns = Patterns();
  // One builder across every share, as a worker reuses it across reducers.
  LocalGraphBuilder builder;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    const Graph g = ErdosRenyi(60, 300, seed);
    Rng rng(seed);
    for (const NamedOrder& order : Orders(g, seed)) {
      for (const bool shuffled : {false, true}) {
        const std::vector<Edge> values = Share(g, &rng, shuffled);
        const Subgraph sub = reference::SortedBuildSubgraph(values);
        const NodeOrder local_order =
            NodeOrder::Project(order.order, sub.local_to_global);

        const Subgraph wrapped = BuildSubgraph(values);
        EXPECT_EQ(wrapped.local_to_global, sub.local_to_global);
        EXPECT_EQ(wrapped.graph.edges(), sub.graph.edges());

        const LocalGraph& local = builder.Build(values, order.order);
        EXPECT_EQ(builder.local_to_global(), sub.local_to_global);
        EXPECT_EQ(builder.local_edges(), sub.graph.edges());
        const std::string what = order.name + " order / seed " +
                                 std::to_string(seed) +
                                 (shuffled ? " / shuffled" : " / in order");
        for (const NamedPattern& named : patterns) {
          if (named.name == "disconnected") continue;  // quadratic output
          const auto cqs = CqsForSample(named.pattern);
          JoinRun want;
          GlobalizingSink want_sink(sub.local_to_global, &want);
          want.found =
              reference::DrawThenProbeEvaluator(sub.graph, local_order)
                  .EvaluateAll(cqs, &want_sink, &want.cost);
          JoinRun got;
          RecordingSink got_sink(&got);
          got.found =
              CqEvaluator(local).EvaluateAll(cqs, &got_sink, &got.cost);
          ExpectSameRun(want, got, named.name + " / " + what);
        }
        JoinRun want;
        GlobalizingSink want_sink(sub.local_to_global, &want);
        want.found =
            EnumerateTriangles(sub.graph, local_order, &want_sink, &want.cost);
        JoinRun got;
        RecordingSink got_sink(&got);
        got.found = EnumerateTriangles(local, &got_sink, &got.cost);
        ExpectSameRun(want, got, "EnumerateTriangles / " + what);
      }
    }
  }
}

std::string MessageOf(const std::function<void()>& build) {
  try {
    build();
  } catch (const std::invalid_argument& error) {
    return error.what();
  }
  return "(no exception)";
}

TEST(CqJoinDifferential, SelfLoopInShareThrowsGraphMessage) {
  const std::vector<Edge> values = {{4, 9}, {9, 11}, {7, 7}, {2, 4}};
  const std::string want = MessageOf([&] { Graph(20, values); });
  EXPECT_EQ(want, "self-loop in edge list");
  EXPECT_EQ(MessageOf([&] { reference::SortedBuildSubgraph(values); }), want);
  EXPECT_EQ(MessageOf([&] { BuildSubgraph(values); }), want);
  LocalGraphBuilder builder;
  EXPECT_EQ(MessageOf([&] { builder.Build(values, NodeOrder::Identity(20)); }),
            want);
  // The builder stays usable after a rejected share.
  const std::vector<Edge> valid = {{4, 9}, {9, 11}};
  const LocalGraph& local = builder.Build(valid, NodeOrder::Identity(20));
  EXPECT_EQ(local.num_nodes, 3u);
  EXPECT_EQ(local.oriented_edges.size(), 2u);
}

TEST(CqJoinDifferential, OutOfRangeEndpointThrowsGraphMessage) {
  const std::vector<Edge> values = {{1, 2}, {3, 20}};
  const std::string want = MessageOf([&] { Graph(20, values); });
  EXPECT_EQ(want, "edge endpoint out of range");
  LocalGraphBuilder builder;
  EXPECT_EQ(MessageOf([&] { builder.Build(values, NodeOrder::Identity(20)); }),
            want);
}

}  // namespace
}  // namespace smr
