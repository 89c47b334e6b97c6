// perfbench_runner: the repository benchmark's measuring program.
//
//   perfbench_runner --workload NAME --seed N --seconds S --trace 0|1
//                    [--size full|small] [--trace-out FILE]
//                    [--corrupt-reference]
//
// Runs one workload against the public API (StrategyRegistry::Run with an
// EnumerationQuery), checks every job's output against a serial reference,
// and prints one JSON object as the last line of stdout: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. Exit code
// 0 when every check passed, 1 when any failed, 2 on a usage error.
// perfbench/run.py builds this program from the checkout and runs it;
// BENCHMARK.json lists the workloads and metrics.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <exception>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/plan_advisor.h"
#include "core/strategy.h"
#include "cq/cq_generation.h"
#include "graph/generators.h"
#include "graph/intersect.h"
#include "graph/node_order.h"
#include "graph/sample_graph.h"
#include "layers.h"
#include "serial/triangles.h"
#include "tracer.h"
#include "util/hashing.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {
namespace {

using smr::BackendMode;
using smr::NodeId;

// ---------------------------------------------------------------------------
// Workloads (why each exists is recorded in BENCHMARK.json)
// ---------------------------------------------------------------------------

struct Size {
  NodeId nodes;
  uint64_t edges_or_degree;  // ER edge count, or PA edges per new node
  uint64_t budget_bytes;     // shuffle budget; 0 = unbounded
};

struct Workload {
  const char* name;
  // Census pipeline on a PreferentialAttachment graph; otherwise bucket:8
  // on an ErdosRenyi graph.
  bool census;
  Size full;
  Size small;  // the self-test's smoke size
  unsigned threads;
  BackendMode backend;
  unsigned process_workers;

  const char* strategy() const { return census ? "census" : "bucket:8"; }
};

// tri-bucket-ooc's shuffle budget: 4 MiB at full size (the ER round spills
// about 9x over it), 64 KiB at the smoke size.
const Workload kWorkloads[] = {
    {"tri-bucket-er", false, {20000, 300000, 0}, {2000, 15000, 0}, 1,
     BackendMode::kThread, 0},
    {"tri-census-pa", true, {200000, 5, 0}, {5000, 5, 0}, 2,
     BackendMode::kThread, 0},
    {"tri-bucket-ooc", false, {20000, 300000, 4u << 20},
     {2000, 15000, 64u << 10}, 1, BackendMode::kProcess, 2},
};

struct Options {
  const Workload* workload = nullptr;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  bool small = false;
  bool corrupt_reference = false;
  std::string trace_out;
};

[[noreturn]] void Usage(const std::string& error) {
  std::cerr << "perfbench_runner: " << error
            << "\nusage: perfbench_runner --workload NAME --seed N "
               "--seconds S --trace 0|1 [--size full|small] "
               "[--trace-out FILE] [--corrupt-reference]\nworkloads:";
  for (const Workload& w : kWorkloads) std::cerr << ' ' << w.name;
  std::cerr << '\n';
  std::exit(2);
}

template <typename T>
T ParseNumber(std::string_view flag, std::string_view text) {
  T value{};
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || end != text.data() + text.size()) {
    Usage("bad value for " + std::string(flag) + ": '" + std::string(text) +
          "'");
  }
  return value;
}

Options ParseOptions(int argc, char** argv) {
  Options options;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (flag == "--corrupt-reference") {
      options.corrupt_reference = true;
      continue;
    }
    if (i + 1 >= argc) Usage("missing value for " + std::string(flag));
    const std::string_view value = argv[++i];
    if (flag == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (value == w.name) options.workload = &w;
      }
      if (options.workload == nullptr) {
        Usage("unknown workload '" + std::string(value) + "'");
      }
    } else if (flag == "--seed") {
      options.seed = ParseNumber<uint64_t>(flag, value);
      have_seed = true;
    } else if (flag == "--seconds") {
      options.seconds = ParseNumber<double>(flag, value);
      if (!(options.seconds > 0 && options.seconds <= 600)) {
        Usage("--seconds must be in (0, 600]");
      }
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("--trace takes 0 or 1");
      options.trace = value == "1";
      have_trace = true;
    } else if (flag == "--size") {
      if (value != "full" && value != "small") {
        Usage("--size takes full or small");
      }
      options.small = value == "small";
    } else if (flag == "--trace-out") {
      options.trace_out = std::string(value);
    } else {
      Usage("unknown flag " + std::string(flag));
    }
  }
  if (options.workload == nullptr || !have_seed || !have_seconds ||
      !have_trace) {
    Usage("--workload, --seed, --seconds and --trace are required");
  }
  return options;
}

// ---------------------------------------------------------------------------
// Host, clocks and resources
// ---------------------------------------------------------------------------

bool ReleaseBuild() {
  return std::string_view(PERFBENCH_BUILD_TYPE) == "Release";
}

std::string HostJson(const Options& options) {
  std::ostringstream os;
  os << "{\"nproc\":" << sysconf(_SC_NPROCESSORS_ONLN) << ",\"simd\":\""
     << smr::SimdLevelName(smr::ActiveSimdLevel()) << "\",\"compiler\":\""
     << PERFBENCH_COMPILER << "\",\"build_type\":\"" << PERFBENCH_BUILD_TYPE
     << "\",\"release_build\":" << (ReleaseBuild() ? "true" : "false")
     << ",\"workload\":\"" << options.workload->name << "\",\"seed\":"
     << options.seed << ",\"size\":\"" << (options.small ? "small" : "full")
     << "\",\"trace\":" << (options.trace ? 1 : 0) << "}";
  return os.str();
}

double CpuSeconds(int who) {
  rusage usage{};
  getrusage(who, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) *
             1e-6;
}

// CPU of this process plus every reaped child (the process backend's
// workers are reaped before a round returns).
double ProcessCpuSeconds() {
  return CpuSeconds(RUSAGE_SELF) + CpuSeconds(RUSAGE_CHILDREN);
}

double PeakRssMb(int who) {
  rusage usage{};
  getrusage(who, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : (values[mid - 1] + values[mid]) / 2;
}

// ---------------------------------------------------------------------------
// Set-up and the output gate
// ---------------------------------------------------------------------------

struct Setup {
  smr::SampleGraph pattern = smr::SampleGraph::Triangle();
  std::optional<smr::Graph> graph;
  std::vector<smr::ConjunctiveQuery> cqs;
};

smr::Graph Generate(const Workload& w, const Size& size, uint64_t seed) {
  if (w.census) {
    return smr::PreferentialAttachment(
        size.nodes, static_cast<int>(size.edges_or_degree), seed);
  }
  return smr::ErdosRenyi(size.nodes, size.edges_or_degree, seed);
}

/// Tallies, per node, the instances an enumeration emits.
class TallySink : public smr::InstanceSink {
 public:
  explicit TallySink(NodeId nodes) : per_node_(nodes, 0) {}
  void Emit(std::span<const NodeId> assignment) override {
    ++count_;
    for (const NodeId node : assignment) ++per_node_[node];
  }
  uint64_t count() const { return count_; }
  const std::vector<uint64_t>& per_node() const { return per_node_; }

 private:
  std::vector<uint64_t> per_node_;
  uint64_t count_ = 0;
};

struct Reference {
  uint64_t triangles = 0;
  std::vector<uint64_t> per_node;
  uint64_t comm_pairs = 0;  // closed form for the workload's strategy
};

Reference ComputeReference(const Workload& w, const smr::Graph& graph,
                           bool corrupt) {
  TallySink tally(graph.num_nodes());
  smr::CostCounter cost;
  smr::EnumerateTriangles(graph, smr::NodeOrder::ByDegree(graph), &tally,
                          &cost);
  Reference ref;
  ref.triangles = tally.count() + (corrupt ? 1 : 0);
  ref.per_node = tally.per_node();
  const uint64_t m = graph.num_edges();
  // bucket:8 on the triangle ships C(b + p - 3, p - 2) = 8 pairs per edge.
  // census ships m (two-paths) + ordered wedges + m (join) + 3T (counting).
  ref.comm_pairs = w.census
                       ? 2 * m + smr::CountOrderedWedges(graph) +
                             3 * ref.triangles
                       : 8 * m;
  return ref;
}

struct Job {
  double wall_s = 0;
  double cpu_s = 0;
  std::optional<smr::EnumerationResult> result;
  std::string failure;  // empty = passed every check
};

smr::ExecutionPolicy PolicyFor(const Workload& w, uint64_t budget,
                               smr::SpillBackend* spill) {
  return smr::ExecutionPolicy::WithThreads(w.threads)
      .WithBackend(w.backend, w.process_workers)
      .WithBudget(budget)
      .WithSpillBackend(spill);
}

std::string CheckJob(const Workload& w, const smr::EnumerationResult& result,
                     const TallySink& sink, const Reference& ref,
                     const smr::JobMetrics* first) {
  std::ostringstream why;
  if (result.instances != ref.triangles) {
    why << "instances " << result.instances << " != reference "
        << ref.triangles << "; ";
  }
  const std::vector<uint64_t>& per_node =
      w.census ? result.per_node : sink.per_node();
  if (!w.census && sink.count() != ref.triangles) {
    why << "sink received " << sink.count() << " instances, reference "
        << ref.triangles << "; ";
  }
  if (per_node != ref.per_node) {
    size_t v = 0;
    while (v < per_node.size() && v < ref.per_node.size() &&
           per_node[v] == ref.per_node[v]) {
      ++v;
    }
    why << "per-node triangle counts differ from the reference at node " << v
        << "; ";
  }
  if (result.job.TotalCommunication() != ref.comm_pairs) {
    why << "comm_pairs " << result.job.TotalCommunication()
        << " != closed form " << ref.comm_pairs << "; ";
  }
  if (first != nullptr && !(result.job == *first)) {
    why << "semantic JobMetrics differ from the first job's; ";
  }
  return why.str();
}

Job RunJob(const Workload& w, const Setup& setup, const Reference& ref,
           const smr::ExecutionPolicy& policy, uint64_t seed,
           const smr::JobMetrics* first) {
  TallySink sink(setup.graph->num_nodes());
  smr::EnumerationQuery query =
      smr::EnumerationQuery::Undirected(setup.pattern, *setup.graph);
  query.WithStrategy(w.strategy()).WithSeed(seed).WithPolicy(policy).WithSink(
      &sink);
  query.cqs = &setup.cqs;
  Job job;
  const double cpu0 = ProcessCpuSeconds();
  const int64_t t0 = NowNs();
  try {
    job.result = smr::StrategyRegistry::Global().Run(query);
  } catch (const std::exception& error) {
    job.failure = std::string("job threw: ") + error.what();
  }
  job.wall_s = Seconds(NowNs() - t0);
  job.cpu_s = ProcessCpuSeconds() - cpu0;
  if (job.result) job.failure = CheckJob(w, *job.result, sink, ref, first);
  return job;
}

// ---------------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string FormatValue(double value) {
  if (!std::isfinite(value)) value = 0;
  char buffer[64];
  if (value == std::floor(value) && std::fabs(value) < 1e15) {
    std::snprintf(buffer, sizeof buffer, "%.0f", value);
  } else {
    std::snprintf(buffer, sizeof buffer, "%.12g", value);
  }
  return buffer;
}

void PrintSamples(const char* label, const std::vector<double>& samples) {
  std::cout << label << " samples:";
  for (const double s : samples) std::cout << ' ' << FormatValue(s);
  std::cout << '\n';
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// Run-wide bookkeeping shared by both modes.
struct RunState {
  const Options& options;
  const Workload& w;
  Size size;
  Setup setup;
  Reference ref;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t worker_retries = 0;  // process-backend attempts that failed
  bool checks_ok = true;
  std::optional<smr::JobMetrics> first_job;
  std::vector<double> setup_s;  // every set-up, in order
  double loop_setup_s = 0;      // set-up seconds spent inside the job loop
  uint64_t graph_fingerprint = 0;

  explicit RunState(const Options& o)
      : options(o),
        w(*o.workload),
        size(o.small ? o.workload->small : o.workload->full) {}

  void Fail(const std::string& what) {
    checks_ok = false;
    std::cerr << "check failed: " << what << '\n';
  }

  // Runs one job and books it against the gate.
  Job Book(const smr::ExecutionPolicy& policy) {
    Job job = RunJob(w, setup, ref, policy, options.seed,
                     first_job ? &*first_job : nullptr);
    ++attempted;
    if (job.result) {
      if (!first_job) first_job = job.result->job;
      for (const auto& round : job.result->job.rounds) {
        worker_retries += round.metrics.shuffle.worker_retries;
      }
    }
    if (!job.failure.empty()) {
      ++failed;
      std::cerr << "job " << attempted << " failed: " << job.failure << '\n';
    }
    return job;
  }

  bool correct() const { return checks_ok && failed == 0 && first_job; }

  // Emits the human-readable lines, then the result object as the last
  // line of stdout; returns the exit code.
  int Finish(const std::vector<Metric>& metrics,
             const std::vector<Metric>& extra) const {
    for (const auto* list : {&metrics, &extra}) {
      for (const Metric& m : *list) {
        std::cout << "metric " << m.name << " = " << FormatValue(m.value)
                  << ' ' << m.unit << '\n';
      }
    }
    std::cout << "{\"correct\": " << (correct() ? "true" : "false")
              << ", \"attempted\": " << attempted
              << ", \"failed\": " << failed << ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
      std::cout << (i ? ", " : "") << '"' << metrics[i].name
                << "\": {\"value\": " << FormatValue(metrics[i].value)
                << ", \"unit\": \"" << metrics[i].unit << "\"}";
    }
    std::cout << "}}" << std::endl;
    return correct() ? 0 : 1;
  }
};

uint64_t Fingerprint(const smr::Graph& graph) {
  uint64_t hash = smr::SplitMix64(graph.num_nodes());
  for (const smr::Edge& e : graph.edges()) {
    hash = smr::SplitMix64(
        hash ^ ((static_cast<uint64_t>(e.first) << 32) | e.second));
  }
  return hash;
}

/// One timed set-up: graph generation plus CQ generation. The graph is
/// regenerated in place; generation is deterministic in the seed, so every
/// job sees the same graph (checked by fingerprint, outside the timing).
void SetUp(RunState* run, Tracer* tracer) {
  run->setup.graph.reset();
  ScopedSpan setup(tracer, "setup");
  {
    ScopedSpan span(tracer, "graph.generate");
    run->setup.graph = Generate(run->w, run->size, run->options.seed);
  }
  {
    ScopedSpan span(tracer, "cq.generate");
    run->setup.cqs = smr::CqsForSample(run->setup.pattern);
  }
  run->setup_s.push_back(setup.Close());
  const uint64_t fingerprint = Fingerprint(*run->setup.graph);
  if (run->setup_s.size() == 1) {
    run->graph_fingerprint = fingerprint;
  } else if (fingerprint != run->graph_fingerprint) {
    run->Fail("set-up " + std::to_string(run->setup_s.size()) +
              " generated a different graph for the same seed");
  }
}

// Set-ups are sampled between jobs through the whole loop, so they see
// the same host conditions as the jobs: after each job, set-ups run until
// they have taken this share of the loop's time. At least kMinSetups are
// taken in all.
constexpr double kSetupShare = 0.3;
constexpr size_t kMinSetups = 5;

void SetUpBetweenJobs(RunState* run, Tracer* tracer, int64_t loop_start) {
  while (run->loop_setup_s < kSetupShare * Seconds(NowNs() - loop_start)) {
    SetUp(run, tracer);
    run->loop_setup_s += run->setup_s.back();
  }
}

void TopUpSetups(RunState* run, Tracer* tracer) {
  while (run->setup_s.size() < kMinSetups) SetUp(run, tracer);
}

std::vector<Metric> CostMetrics(const smr::JobMetrics& job) {
  uint64_t reduce_ops = 0;
  for (const auto& round : job.rounds) {
    reduce_ops += round.metrics.reduce_cost.Total();
  }
  return {{"comm_pairs", static_cast<double>(job.TotalCommunication()),
           "count"},
          {"reduce_ops", static_cast<double>(reduce_ops), "count"}};
}

uint64_t MaxReducerInput(const smr::JobMetrics& job) {
  uint64_t max_input = 0;
  for (const auto& round : job.rounds) {
    max_input = std::max(max_input, round.metrics.max_reducer_input);
  }
  return max_input;
}

uint64_t WireBytes(const smr::JobMetrics& job) {
  uint64_t bytes = 0;
  for (const auto& round : job.rounds) {
    bytes += round.metrics.shuffle.map_bytes_on_wire +
             round.metrics.shuffle.reduce_bytes_on_wire;
  }
  return bytes;
}

constexpr size_t kMinJobs = 3;
constexpr size_t kMaxJobs = 100000;

// ---------------------------------------------------------------------------
// --trace 0: end-to-end metrics
// ---------------------------------------------------------------------------

int RunEndToEnd(RunState* run) {
  SetUp(run, nullptr);
  run->ref = ComputeReference(run->w, *run->setup.graph,
                              run->options.corrupt_reference);
  const smr::ExecutionPolicy policy =
      PolicyFor(run->w, run->size.budget_bytes, nullptr);
  run->Book(policy);  // warm-up: checked, not timed
  std::vector<double> wall, cpu;
  const int64_t start = NowNs();
  while (wall.size() < kMinJobs ||
         (wall.size() < kMaxJobs &&
          Seconds(NowNs() - start) < run->options.seconds)) {
    const Job job = run->Book(policy);
    wall.push_back(job.wall_s);
    cpu.push_back(job.cpu_s);
    SetUpBetweenJobs(run, nullptr, start);
  }
  TopUpSetups(run, nullptr);
  PrintSamples("setup_s", run->setup_s);
  PrintSamples("job_s", wall);
  // The largest resident set any one process of the workload reached: this
  // process, or its biggest forked worker.
  const double peak_rss_mb =
      std::max(PeakRssMb(RUSAGE_SELF), PeakRssMb(RUSAGE_CHILDREN));

  std::vector<Metric> metrics = {
      {"setup_s", Median(run->setup_s), "s"},
      {"job_s", Median(wall), "s"},
      {"job_cpu_s", Median(cpu), "s"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
  };
  std::vector<Metric> extra = {
      {"jobs_timed", static_cast<double>(wall.size()), "count"},
      {"setups_timed", static_cast<double>(run->setup_s.size()), "count"},
      {"jobs_failed_ratio",
       Ratio(static_cast<double>(run->failed),
             static_cast<double>(run->attempted)),
       "ratio"},
  };
  if (run->first_job) {
    for (Metric& m : CostMetrics(*run->first_job)) metrics.push_back(m);
    extra.push_back({"max_reducer_input",
                     static_cast<double>(MaxReducerInput(*run->first_job)),
                     "count"});
    extra.push_back({"wire_bytes",
                     static_cast<double>(WireBytes(*run->first_job)),
                     "bytes"});
  }
  return run->Finish(metrics, extra);
}

// ---------------------------------------------------------------------------
// --trace 1: per-layer metrics from spans
// ---------------------------------------------------------------------------

int RunTraced(RunState* run) {
  const Workload& w = run->w;
  Tracer tracer;
  SetUp(run, &tracer);
  const smr::Graph& graph = *run->setup.graph;
  run->ref = ComputeReference(w, graph, run->options.corrupt_reference);
  {
    ScopedSpan span(&tracer, "reference");
    const smr::NodeOrder order = smr::NodeOrder::ByDegree(graph);
    for (int i = 0; i < 3; ++i) {
      smr::CountingSink sink;
      smr::CostCounter cost;
      ScopedSpan enumerate(&tracer, "serial.enumerate");
      smr::EnumerateTriangles(graph, order, &sink, &cost);
    }
  }

  // Layers are replayed only on the workloads whose jobs reach them; the
  // others report 0. Reducer kernels run in bucket:8's reducers, never in
  // census's. Only the process backend frames pairs with the codec and
  // only its budgeted workload spills.
  const bool kernels = !w.census;
  const bool over_the_wire = w.backend == BackendMode::kProcess;
  TimedSpillBackend spill(&tracer);
  const smr::ExecutionPolicy plain =
      PolicyFor(w, run->size.budget_bytes, nullptr);
  const smr::ExecutionPolicy traced_policy =
      PolicyFor(w, run->size.budget_bytes, over_the_wire ? &spill : nullptr);
  // The in-memory replay runs on threads, as many as the workload's
  // workers.
  const smr::ExecutionPolicy in_memory_policy =
      smr::ExecutionPolicy::WithThreads(std::max(w.threads, w.process_workers));

  run->Book(plain);  // warm-up, and the shape the replays copy
  if (!run->first_job) {
    return run->Finish({}, {});
  }
  const smr::JobMetrics job_shape = *run->first_job;
  const smr::MapReduceMetrics& headline = job_shape.rounds.back().metrics;
  const smr::NodeOrder kernel_order =
      kernels ? smr::NodeOrder::ByBucket(
                    graph.num_nodes(), smr::BucketHasher(8, run->options.seed))
              : smr::NodeOrder::ByDegree(graph);
  const auto groups =
      kernels ? SampleReducerGroups(graph, kernel_order, headline.distinct_keys,
                                    headline.MeanReducerInput(),
                                    run->options.seed)
              : std::vector<std::vector<smr::Edge>>{};
  const EngineReplay replay(ShapesOf(job_shape));
  // The replay reproduces each round's pairs, reducers and largest reducer
  // input exactly (it throws otherwise); what the combiner ships depends on
  // which map worker emits which key, so that is compared here.
  {
    const std::vector<smr::MapReduceMetrics> replayed = replay.Rounds(plain);
    for (size_t r = 0; r < replayed.size(); ++r) {
      const smr::MapReduceMetrics& job = job_shape.rounds[r].metrics;
      std::cout << "replay round " << job_shape.rounds[r].name
                << ": pairs_shipped " << replayed[r].shuffle.pairs_shipped
                << " (job " << job.shuffle.pairs_shipped
                << "), max_reducer_input " << replayed[r].max_reducer_input
                << " (job " << job.max_reducer_input << ")\n";
    }
  }
  uint64_t key_space = 0;
  for (const auto& round : job_shape.rounds) {
    key_space = std::max(key_space, round.metrics.key_space);
  }

  std::vector<double> untraced_wall, untraced_cpu, traced_wall;
  std::vector<double> subgraph_s, evaluate_s, ns_per_op, intersect_ns;
  std::vector<double> round_s, inmem_s, spill_write_s, spill_read_s,
      codec_ns;
  const int64_t start = NowNs();
  while (traced_wall.size() < kMinJobs ||
         (traced_wall.size() < kMaxJobs &&
          Seconds(NowNs() - start) < run->options.seconds)) {
    const Job untraced = run->Book(plain);
    untraced_wall.push_back(untraced.wall_s);
    untraced_cpu.push_back(untraced.cpu_s);

    ScopedSpan job_span(&tracer, "job");
    spill.Reset();
    {
      ScopedSpan run_span(&tracer, "strategy.run");
      traced_wall.push_back(run->Book(traced_policy).wall_s);
    }
    if (over_the_wire) {
      spill_write_s.push_back(spill.write_seconds());
      spill_read_s.push_back(spill.read_seconds());
    }

    if (kernels) {
      const KernelReplay replayed =
          ReplayReducerKernels(groups, kernel_order, run->setup.cqs, &tracer);
      subgraph_s.push_back(replayed.subgraph_s);
      evaluate_s.push_back(replayed.evaluate_s);
      ns_per_op.push_back(Ratio(replayed.evaluate_s * 1e9,
                                static_cast<double>(replayed.reduce_ops)));
    }

    const IntersectReplay intersect = ReplayIntersect(graph, &tracer);
    intersect_ns.push_back(Ratio(intersect.seconds * 1e9,
                                 static_cast<double>(graph.num_edges())));
    if (intersect.common_neighbors != 3 * run->ref.triangles) {
      run->Fail("sum of IntersectCount over edges " +
                std::to_string(intersect.common_neighbors) +
                " != 3 x reference triangles " +
                std::to_string(3 * run->ref.triangles));
    }

    round_s.push_back(replay.Run(plain, &tracer, "mapreduce.replay"));
    if (over_the_wire) {
      inmem_s.push_back(
          replay.Run(in_memory_policy, &tracer, "mapreduce.replay_inmem"));
      const uint64_t shipped = job_shape.TotalPairsShipped();
      codec_ns.push_back(
          Ratio(ReplayCodec(graph, shipped, key_space, &tracer) * 1e9,
                static_cast<double>(shipped)));
    }
    job_span.Close();
    SetUpBetweenJobs(run, &tracer, start);
  }
  TopUpSetups(run, &tracer);

  const double job_s = Median(untraced_wall);
  const double serial_s = Median(tracer.Durations("serial.enumerate"));
  const double round_median = Median(round_s);
  // Reducer kernels run on the job's path only for bucket:8, spread over
  // its parallel reduce workers.
  const double kernel_s = (Median(subgraph_s) + Median(evaluate_s)) /
                          std::max(w.threads, w.process_workers);

  uint64_t shuffle_bytes = 0, bytes_spilled = 0, counting = 0, sorted = 0,
           spawned = 0, reused = 0;
  double skew = 0;
  for (const auto& round : job_shape.rounds) {
    const smr::ShuffleStats& s = round.metrics.shuffle;
    shuffle_bytes += s.shuffle_bytes;
    bytes_spilled += s.bytes_spilled;
    counting += s.counting_partitions;
    sorted += s.sorted_partitions;
    spawned += s.pool_threads_spawned;
    reused += s.pool_tasks_reused;
    skew = std::max(skew, s.PartitionSkew(s.pairs_shipped));
  }
  const double comm = static_cast<double>(job_shape.TotalCommunication());
  const double shipped = static_cast<double>(job_shape.TotalPairsShipped());
  const double wire = static_cast<double>(WireBytes(job_shape));

  const std::vector<Metric> metrics = {
      {"graph.generate_s", Median(tracer.Durations("graph.generate")), "s"},
      {"graph.subgraph_s", Median(subgraph_s), "s"},
      {"graph.intersect_ns_per_edge", Median(intersect_ns), "ns"},
      {"cq.evaluate_s", Median(evaluate_s), "s"},
      {"cq.ns_per_reduce_op", Median(ns_per_op), "ns"},
      {"serial.enumerate_s", serial_s, "s"},
      {"core.convertibility_ratio", Ratio(Median(untraced_cpu), serial_s),
       "ratio"},
      {"core.unattributed_s", job_s - round_median - kernel_s, "s"},
      {"core.max_reducer_input",
       static_cast<double>(MaxReducerInput(job_shape)), "count"},
      {"mapreduce.round_s", round_median, "s"},
      {"mapreduce.ns_per_pair",
       Ratio(round_median * 1e9, static_cast<double>(replay.total_pairs())),
       "ns"},
      {"mapreduce.round_inmem_s", Median(inmem_s), "s"},
      {"mapreduce.spill_write_s", Median(spill_write_s), "s"},
      {"mapreduce.spill_read_s", Median(spill_read_s), "s"},
      {"mapreduce.codec_ns_per_pair", Median(codec_ns), "ns"},
      {"mapreduce.pairs_shipped", shipped, "count"},
      {"mapreduce.combine_ratio", Ratio(shipped, comm), "ratio"},
      {"mapreduce.shuffle_bytes", static_cast<double>(shuffle_bytes),
       "bytes"},
      {"mapreduce.reducers_used",
       static_cast<double>(job_shape.MaxRoundReducers()), "count"},
      {"mapreduce.skew", skew, "ratio"},
      {"mapreduce.counting_share",
       Ratio(static_cast<double>(counting),
             static_cast<double>(counting + sorted)),
       "ratio"},
      {"mapreduce.pool_reuse_ratio",
       Ratio(static_cast<double>(reused),
             static_cast<double>(reused + spawned)),
       "ratio"},
      {"mapreduce.bytes_spilled", static_cast<double>(bytes_spilled),
       "bytes"},
      {"mapreduce.spill_amplification",
       Ratio(static_cast<double>(bytes_spilled),
             static_cast<double>(shuffle_bytes)),
       "ratio"},
      {"mapreduce.wire_bytes", wire, "bytes"},
      {"mapreduce.wire_bytes_per_pair", Ratio(wire, shipped), "bytes"},
      {"mapreduce.worker_retries", static_cast<double>(run->worker_retries),
       "count"},
      {"mapreduce.worker_peak_rss_mb", PeakRssMb(RUSAGE_CHILDREN), "MB"},
      {"trace.overhead_s", Median(traced_wall) - job_s, "s"},
  };
  const std::vector<Metric> extra = {
      {"traced_jobs", static_cast<double>(traced_wall.size()), "count"},
      {"untraced_job_s", job_s, "s"},
      {"trace_spans", static_cast<double>(tracer.size()), "count"},
  };
  if (!run->options.trace_out.empty() &&
      !tracer.WriteChromeTrace(run->options.trace_out,
                               HostJson(run->options))) {
    run->Fail("could not write trace file " + run->options.trace_out);
  }
  return run->Finish(metrics, extra);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options options = ParseOptions(argc, argv);
  std::cout << "host: " << HostJson(options) << std::endl;
  if (!ReleaseBuild()) {
    std::cout << "WARNING: timings come from a " << PERFBENCH_BUILD_TYPE
              << " build, not Release" << std::endl;
  }
  try {
    RunState run(options);
    return options.trace ? RunTraced(&run) : RunEndToEnd(&run);
  } catch (const std::exception& error) {
    std::cerr << "perfbench_runner: " << error.what() << '\n';
    return 1;
  }
}
