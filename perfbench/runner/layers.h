#ifndef SMR_PERFBENCH_LAYERS_H_
#define SMR_PERFBENCH_LAYERS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cq/conjunctive_query.h"
#include "graph/graph.h"
#include "graph/node_order.h"
#include "mapreduce/execution_policy.h"
#include "mapreduce/job.h"
#include "mapreduce/spill.h"
#include "tracer.h"

namespace perfbench {

/// Per-layer replays for the traced run. Each one calls a layer's public
/// functions directly, from outside the library, on inputs shaped like
/// what the measured job hands that layer, and records the calls as spans.
/// The job itself is never instrumented: the only hook inside it is the
/// SpillBackend below, which the engine already accepts through
/// ExecutionPolicy::spill_backend.

/// Spill-file factory that forwards to the process default and times
/// every Append (spill write) and ReadAt (spill read-back). Calls may come
/// from several reduce threads at once, so the totals are atomics and each
/// call is recorded as a span under the driving thread's innermost open
/// span.
class TimedSpillBackend : public smr::SpillBackend {
 public:
  explicit TimedSpillBackend(Tracer* tracer) : tracer_(tracer) {}

  std::unique_ptr<smr::SpillFile> Create() override;

  void Reset() {
    write_ns_ = 0;
    read_ns_ = 0;
  }
  double write_seconds() const { return Seconds(write_ns_.load()); }
  double read_seconds() const { return Seconds(read_ns_.load()); }

  /// Books one timed file call; called by the files Create() returns.
  void Record(bool write, int64_t start_ns, int64_t end_ns);

 private:
  Tracer* tracer_;
  std::atomic<int64_t> write_ns_{0};
  std::atomic<int64_t> read_ns_{0};
};

/// Reducer inputs shaped like one round's: `groups` edge lists whose mean
/// size is `mean_edges`. Each group is the subgraph induced by a seeded
/// random node subset sized so its expected edge count is `mean_edges` —
/// the same structure a bucket-oriented reducer receives (the edges
/// induced by the union of its buckets' nodes). Edges are listed in
/// data-graph order and oriented by `order`, as the mapper emits them.
std::vector<std::vector<smr::Edge>> SampleReducerGroups(
    const smr::Graph& graph, const smr::NodeOrder& order, uint64_t groups,
    double mean_edges, uint64_t seed);

struct KernelReplay {
  double subgraph_s = 0;  ///< BuildSubgraph over every group
  double evaluate_s = 0;  ///< CqEvaluator construction + EvaluateAll
  uint64_t reduce_ops = 0;
};

/// The bucket reducer's kernel calls over `groups`, one pass per layer:
/// spans graph.subgraph, core.project (NodeOrder::Project; core's share,
/// which core.unattributed_s keeps) and cq.evaluate.
KernelReplay ReplayReducerKernels(
    const std::vector<std::vector<smr::Edge>>& groups,
    const smr::NodeOrder& global_order,
    const std::vector<smr::ConjunctiveQuery>& cqs, Tracer* tracer);

struct IntersectReplay {
  double seconds = 0;
  uint64_t common_neighbors = 0;  ///< sum over edges; 3 x triangles
};

/// IntersectCount of both endpoints' neighbor lists for every data edge
/// (span graph.intersect).
IntersectReplay ReplayIntersect(const smr::Graph& graph, Tracer* tracer);

/// What the engine saw of one round, read off JobMetrics.
struct RoundShape {
  std::string name;
  uint64_t inputs = 0;
  uint64_t pairs = 0;
  uint64_t distinct_keys = 0;
  uint64_t key_space = 0;
  uint64_t max_reducer_input = 0;
  bool combined = false;  ///< the shuffle shipped fewer pairs than emitted
};

std::vector<RoundShape> ShapesOf(const smr::JobMetrics& job);

/// Engine-only replay of a job's rounds: the same inputs, pairs, distinct
/// keys, largest reducer input, key space and combiner, through
/// JobDriver::RunRound, with a reducer that only counts. One key receives
/// the largest input, spread evenly through the emission order; the other
/// pairs go round-robin over the remaining keys. Input index vectors are
/// built once here so a replay times only the engine.
class EngineReplay {
 public:
  explicit EngineReplay(std::vector<RoundShape> shapes);

  /// Runs every round under `policy` inside a span called `span_name`,
  /// one child span per round, and returns the span's seconds. Throws
  /// std::runtime_error if a round's pairs, reducers or largest reducer
  /// input differ from the shape it replays.
  double Run(const smr::ExecutionPolicy& policy, Tracer* tracer,
             const std::string& span_name) const;

  /// Runs every round once, untraced, and returns each round's metrics.
  std::vector<smr::MapReduceMetrics> Rounds(
      const smr::ExecutionPolicy& policy) const;

  uint64_t total_pairs() const;

 private:
  smr::MapReduceMetrics RunRound(smr::JobDriver* driver, size_t r) const;

  std::vector<RoundShape> shapes_;
  std::vector<std::vector<uint64_t>> inputs_;
};

/// RecordCodec<Edge>::EncodePair then DecodePair over `pairs` pairs
/// (data-graph edges as values, keys spread over `key_space`), in
/// 256 KiB batches like the process backend's (span mapreduce.codec).
/// Returns the span's seconds; throws if a decoded pair differs from the
/// encoded one.
double ReplayCodec(const smr::Graph& graph, uint64_t pairs,
                   uint64_t key_space, Tracer* tracer);

}  // namespace perfbench

#endif  // SMR_PERFBENCH_LAYERS_H_
