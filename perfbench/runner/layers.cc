#include "layers.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "cq/cq_evaluator.h"
#include "graph/intersect.h"
#include "graph/subgraph.h"
#include "mapreduce/codec.h"
#include "mapreduce/instance_sink.h"
#include "util/rng.h"

namespace perfbench {

namespace {

unsigned ThreadTrack() {
  static std::atomic<unsigned> next{1};
  thread_local const unsigned track = next.fetch_add(1);
  return track;
}

class TimedSpillFile : public smr::SpillFile {
 public:
  TimedSpillFile(std::unique_ptr<smr::SpillFile> inner,
                 TimedSpillBackend* owner)
      : inner_(std::move(inner)), owner_(owner) {}

  void Append(const void* data, size_t bytes) override {
    const int64_t start = NowNs();
    inner_->Append(data, bytes);
    owner_->Record(true, start, NowNs());
  }

  void ReadAt(uint64_t offset, void* out, size_t bytes) override {
    const int64_t start = NowNs();
    inner_->ReadAt(offset, out, bytes);
    owner_->Record(false, start, NowNs());
  }

  const std::string& path() const override { return inner_->path(); }

 private:
  std::unique_ptr<smr::SpillFile> inner_;
  TimedSpillBackend* owner_;
};

uint64_t MulDiv(uint64_t a, uint64_t b, uint64_t c) {
  return static_cast<uint64_t>(static_cast<unsigned __int128>(a) * b / c);
}

uint64_t MulMod(uint64_t a, uint64_t b, uint64_t c) {
  return static_cast<uint64_t>(static_cast<unsigned __int128>(a) * b % c);
}

// A multiplier coprime with `modulus`, so j -> j * stride mod modulus
// visits every residue once per `modulus` consecutive j.
uint64_t CoprimeStride(uint64_t modulus) {
  if (modulus <= 1) return 1;
  uint64_t stride = 2654435761u % modulus;
  if (stride == 0) stride = 1;
  while (std::gcd(stride, modulus) != 1) ++stride;
  return stride;
}

}  // namespace

std::unique_ptr<smr::SpillFile> TimedSpillBackend::Create() {
  return std::make_unique<TimedSpillFile>(smr::DefaultSpillBackend().Create(),
                                          this);
}

void TimedSpillBackend::Record(bool write, int64_t start_ns, int64_t end_ns) {
  (write ? write_ns_ : read_ns_).fetch_add(end_ns - start_ns);
  if (tracer_ != nullptr) {
    tracer_->Add(write ? "mapreduce.spill_write" : "mapreduce.spill_read",
                 start_ns, end_ns, tracer_->current(), ThreadTrack());
  }
}

std::vector<std::vector<smr::Edge>> SampleReducerGroups(
    const smr::Graph& graph, const smr::NodeOrder& order, uint64_t groups,
    double mean_edges, uint64_t seed) {
  const uint64_t n = graph.num_nodes();
  const double m = static_cast<double>(graph.num_edges());
  std::vector<std::vector<smr::Edge>> out(groups);
  if (n < 2 || m == 0 || mean_edges <= 0) return out;
  // E[induced edges of k random nodes] = m k (k - 1) / (n (n - 1)).
  const double k_real =
      0.5 + std::sqrt(0.25 + mean_edges * static_cast<double>(n) *
                                 static_cast<double>(n - 1) / m);
  const uint64_t k =
      std::clamp<uint64_t>(static_cast<uint64_t>(std::llround(k_real)), 2, n);
  smr::Rng rng(seed);
  std::vector<smr::NodeId> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  std::vector<uint64_t> stamp(n, 0);
  for (uint64_t g = 0; g < groups; ++g) {
    const uint64_t tag = g + 1;
    for (uint64_t i = 0; i < k; ++i) {  // partial Fisher-Yates
      std::swap(perm[i], perm[i + rng.Below(n - i)]);
      stamp[perm[i]] = tag;
    }
    std::vector<smr::Edge>& edges = out[g];
    for (uint64_t i = 0; i < k; ++i) {
      const smr::NodeId u = perm[i];
      for (const smr::NodeId v : graph.Neighbors(u)) {
        if (u < v && stamp[v] == tag) edges.emplace_back(u, v);
      }
    }
    std::sort(edges.begin(), edges.end());
    for (smr::Edge& e : edges) e = order.Orient(e);
  }
  return out;
}

KernelReplay ReplayReducerKernels(
    const std::vector<std::vector<smr::Edge>>& groups,
    const smr::NodeOrder& global_order,
    const std::vector<smr::ConjunctiveQuery>& cqs, Tracer* tracer) {
  KernelReplay replay;
  std::vector<smr::Subgraph> subgraphs;
  subgraphs.reserve(groups.size());
  {
    ScopedSpan span(tracer, "graph.subgraph");
    for (const auto& edges : groups) {
      subgraphs.push_back(smr::BuildSubgraph(edges));
    }
    replay.subgraph_s = span.Close();
  }
  std::vector<smr::NodeOrder> orders;
  orders.reserve(groups.size());
  {
    ScopedSpan span(tracer, "core.project");
    for (const smr::Subgraph& local : subgraphs) {
      orders.push_back(
          smr::NodeOrder::Project(global_order, local.local_to_global));
    }
  }
  smr::CountingSink sink;
  smr::CostCounter cost;
  {
    ScopedSpan span(tracer, "cq.evaluate");
    for (size_t i = 0; i < subgraphs.size(); ++i) {
      const smr::CqEvaluator evaluator(subgraphs[i].graph,
                                       std::move(orders[i]));
      evaluator.EvaluateAll(cqs, &sink, &cost);
    }
    replay.evaluate_s = span.Close();
  }
  replay.reduce_ops = cost.Total();
  return replay;
}

IntersectReplay ReplayIntersect(const smr::Graph& graph, Tracer* tracer) {
  IntersectReplay replay;
  ScopedSpan span(tracer, "graph.intersect");
  for (const smr::Edge& e : graph.edges()) {
    replay.common_neighbors += smr::IntersectCount(graph.Neighbors(e.first),
                                                   graph.Neighbors(e.second));
  }
  replay.seconds = span.Close();
  return replay;
}

std::vector<RoundShape> ShapesOf(const smr::JobMetrics& job) {
  std::vector<RoundShape> shapes;
  for (const smr::JobRoundMetrics& round : job.rounds) {
    const smr::MapReduceMetrics& m = round.metrics;
    shapes.push_back({round.name, m.input_records, m.key_value_pairs,
                      m.distinct_keys, m.key_space, m.max_reducer_input,
                      m.shuffle.pairs_shipped < m.key_value_pairs});
  }
  return shapes;
}

EngineReplay::EngineReplay(std::vector<RoundShape> shapes)
    : shapes_(std::move(shapes)) {
  for (const RoundShape& shape : shapes_) {
    std::vector<uint64_t> inputs(shape.inputs);
    std::iota(inputs.begin(), inputs.end(), 0);
    inputs_.push_back(std::move(inputs));
  }
}

uint64_t EngineReplay::total_pairs() const {
  uint64_t total = 0;
  for (const RoundShape& shape : shapes_) total += shape.pairs;
  return total;
}

smr::MapReduceMetrics EngineReplay::RunRound(smr::JobDriver* driver,
                                             size_t r) const {
  const RoundShape& shape = shapes_[r];
  const uint64_t inputs = shape.inputs;
  const uint64_t pairs = shape.pairs;
  const uint64_t keys = shape.distinct_keys;
  const uint64_t heavy = keys <= 1 ? pairs : shape.max_reducer_input;
  // Keys stay dense in the declared space, as every strategy keeps them.
  const uint64_t space = std::max(shape.key_space, keys);
  const uint64_t stride = keys > 1 ? CoprimeStride(keys - 1) : 1;
  smr::RoundSpec<uint64_t, smr::Edge> spec;
  spec.name = shape.name;
  spec.key_space = shape.key_space;
  spec.emissions_per_input =
      inputs == 0 ? 0.0
                  : static_cast<double>(pairs) / static_cast<double>(inputs);
  // Input i emits pairs [i P / I, (i + 1) P / I). Pair j goes to key index
  // 0 when it is one of the `heavy` pairs spaced evenly over [0, P);
  // otherwise, as the r-th other pair, to key index 1 + r * stride mod
  // (D - 1), so every key receives pairs and none more than key 0.
  spec.mapper = [=](const uint64_t& i, smr::Emitter<smr::Edge>* out) {
    const uint64_t end = MulDiv(i + 1, pairs, inputs);
    for (uint64_t j = MulDiv(i, pairs, inputs); j < end; ++j) {
      const uint64_t heavy_before = MulDiv(j, heavy, pairs);
      const uint64_t index =
          MulDiv(j + 1, heavy, pairs) > heavy_before
              ? 0
              : 1 + MulMod(j - heavy_before, stride, keys - 1);
      out->Emit(MulDiv(index, space, keys),
                smr::Edge{static_cast<smr::NodeId>(j),
                          static_cast<smr::NodeId>(index)});
    }
  };
  spec.reducer = [](uint64_t, std::span<const smr::Edge> values,
                    smr::ReduceContext* context) {
    context->cost->edges_scanned += values.size();
  };
  if (shape.combined) {
    spec.combiner = [](smr::Edge& acc, const smr::Edge& incoming) {
      acc.first += incoming.first;
    };
  }
  const smr::MapReduceMetrics metrics = driver->RunRound(
      spec, std::span<const uint64_t>(inputs_[r]), nullptr, nullptr);
  if (metrics.key_value_pairs != pairs || metrics.distinct_keys != keys ||
      metrics.max_reducer_input != shape.max_reducer_input) {
    throw std::runtime_error(
        "engine replay of round '" + shape.name + "' produced " +
        std::to_string(metrics.key_value_pairs) + " pairs over " +
        std::to_string(metrics.distinct_keys) + " keys, at most " +
        std::to_string(metrics.max_reducer_input) + " per reducer; expected " +
        std::to_string(pairs) + " over " + std::to_string(keys) +
        ", at most " + std::to_string(shape.max_reducer_input));
  }
  return metrics;
}

double EngineReplay::Run(const smr::ExecutionPolicy& policy, Tracer* tracer,
                         const std::string& span_name) const {
  smr::JobDriver driver(policy);
  ScopedSpan whole(tracer, span_name);
  for (size_t r = 0; r < shapes_.size(); ++r) {
    ScopedSpan round_span(tracer, "mapreduce.round:" + shapes_[r].name);
    RunRound(&driver, r);
  }
  return whole.Close();
}

std::vector<smr::MapReduceMetrics> EngineReplay::Rounds(
    const smr::ExecutionPolicy& policy) const {
  smr::JobDriver driver(policy);
  std::vector<smr::MapReduceMetrics> rounds;
  for (size_t r = 0; r < shapes_.size(); ++r) {
    rounds.push_back(RunRound(&driver, r));
  }
  return rounds;
}

double ReplayCodec(const smr::Graph& graph, uint64_t pairs,
                   uint64_t key_space, Tracer* tracer) {
  using Codec = smr::RecordCodec<smr::Edge>;
  constexpr size_t kBatchBytes = 256 * 1024;
  const auto& edges = graph.edges();
  if (edges.empty()) return 0;
  const uint64_t space = std::max<uint64_t>(key_space, 1);
  const auto key_of = [space](uint64_t j) {
    return MulMod(j, 2654435761u, space);
  };
  std::vector<unsigned char> wire;
  wire.reserve(kBatchBytes + Codec::kMaxFrameSize);
  ScopedSpan span(tracer, "mapreduce.codec");
  uint64_t j = 0;
  while (j < pairs) {
    wire.clear();
    const uint64_t first = j;
    for (; j < pairs && wire.size() < kBatchBytes; ++j) {
      Codec::EncodePair(key_of(j), edges[j % edges.size()], &wire);
    }
    size_t offset = 0;
    for (uint64_t i = first; i < j; ++i) {
      uint64_t key = 0;
      smr::Edge value;
      size_t consumed = 0;
      const smr::DecodeStatus status =
          Codec::DecodePair(wire.data() + offset, wire.size() - offset, &key,
                            &value, &consumed);
      if (status != smr::DecodeStatus::kOk || key != key_of(i) ||
          value != edges[i % edges.size()]) {
        throw std::runtime_error("codec replay: pair " + std::to_string(i) +
                                 " did not round-trip");
      }
      offset += consumed;
    }
  }
  return span.Close();
}

}  // namespace perfbench
