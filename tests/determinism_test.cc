// Regression guard for the scheduling fast path: the simulated
// executor must be bit-deterministic. Every graph/cluster/options
// combination is executed twice and the two RunReports compared
// field-for-field — any divergence in the incremental ready queue,
// slot indexes or locality cache's tie-breaking shows up here as a
// report mismatch. (The cross-build variant of this check is
// tools/report_digest.cc.)

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "check/digest.h"
#include "hw/cluster.h"
#include "obs/metrics.h"
#include "runtime/fault.h"
#include "runtime/multiproc_executor.h"
#include "runtime/simulated_executor.h"
#include "runtime/task_graph.h"
#include "runtime/thread_pool_executor.h"
#include "wf/build.h"
#include "wf/generator.h"
#include "wf/import.h"

namespace taskbench::runtime {
namespace {

perf::TaskCost CostFor(uint64_t bytes, bool gpu) {
  perf::TaskCost cost;
  cost.parallel.flops = static_cast<double>(bytes) * 8;
  cost.parallel.bytes = static_cast<double>(bytes);
  cost.serial.flops = static_cast<double>(bytes) / 4;
  cost.serial.bytes = static_cast<double>(bytes) / 4;
  cost.input_bytes = bytes;
  cost.output_bytes = bytes;
  if (gpu) {
    cost.h2d_bytes = bytes;
    cost.d2h_bytes = bytes;
    cost.num_transfers = 2;
    cost.gpu_working_set_bytes = 2 * bytes;
  }
  return cost;
}

/// A DAG mixing every dependency and placement pattern the executor
/// distinguishes: a shared-input fan of CPU and GPU tasks, a chain
/// over an INOUT accumulator, and a fan-in reduce. Wide enough that
/// tasks contend for slots (tie-breaks exercised), deep enough that
/// the ready set changes while tasks are in flight.
TaskGraph BuildGraph() {
  TaskGraph graph;
  std::vector<DataId> pool;
  for (int i = 0; i < 8; ++i) {
    pool.push_back(graph.AddData(1 << 20, "", i % 4));
  }
  std::vector<DataId> mids;
  for (int t = 0; t < 96; ++t) {
    const DataId out = graph.AddData(256 << 10);
    mids.push_back(out);
    TaskSpec spec;
    spec.type = t % 3 == 0 ? "gpu_stage" : "cpu_stage";
    spec.processor = t % 3 == 0 ? Processor::kGpu : Processor::kCpu;
    spec.cost = CostFor(256 << 10, spec.processor == Processor::kGpu);
    spec.params = {{pool[static_cast<size_t>(t % 8)], Dir::kIn},
                   {out, Dir::kOut}};
    EXPECT_TRUE(graph.Submit(std::move(spec)).ok());
  }
  const DataId acc = graph.AddData(1 << 20);
  for (int t = 0; t < 16; ++t) {
    TaskSpec spec;
    spec.type = "chain";
    spec.processor = Processor::kCpu;
    spec.cost = CostFor(128 << 10, false);
    spec.params = {{mids[static_cast<size_t>(t)], Dir::kIn},
                   {acc, Dir::kInOut}};
    EXPECT_TRUE(graph.Submit(std::move(spec)).ok());
  }
  TaskSpec reduce;
  reduce.type = "reduce";
  reduce.processor = Processor::kCpu;
  reduce.cost = CostFor(2 << 20, false);
  reduce.params.push_back({graph.AddData(64 << 10), Dir::kOut});
  reduce.params.push_back({acc, Dir::kIn});
  for (int t = 0; t < 96; t += 7) {
    reduce.params.push_back({mids[static_cast<size_t>(t)], Dir::kIn});
  }
  EXPECT_TRUE(graph.Submit(std::move(reduce)).ok());
  return graph;
}

void ExpectIdenticalReports(const RunReport& a, const RunReport& b) {
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.scheduler_overhead, b.scheduler_overhead);
  EXPECT_EQ(a.sim_events, b.sim_events);
  ASSERT_EQ(a.records.size(), b.records.size());
  for (size_t i = 0; i < a.records.size(); ++i) {
    const TaskRecord& ra = a.records[i];
    const TaskRecord& rb = b.records[i];
    SCOPED_TRACE(testing::Message() << "record " << i);
    EXPECT_EQ(ra.task, rb.task);
    EXPECT_EQ(ra.type, rb.type);
    EXPECT_EQ(ra.level, rb.level);
    EXPECT_EQ(ra.processor, rb.processor);
    EXPECT_EQ(ra.node, rb.node);
    EXPECT_EQ(ra.slot, rb.slot);
    EXPECT_EQ(ra.start, rb.start);
    EXPECT_EQ(ra.end, rb.end);
    EXPECT_EQ(ra.stages.deserialize, rb.stages.deserialize);
    EXPECT_EQ(ra.stages.serial_fraction, rb.stages.serial_fraction);
    EXPECT_EQ(ra.stages.parallel_fraction, rb.stages.parallel_fraction);
    EXPECT_EQ(ra.stages.cpu_gpu_comm, rb.stages.cpu_gpu_comm);
    EXPECT_EQ(ra.stages.serialize, rb.stages.serialize);
    EXPECT_EQ(ra.attempt, rb.attempt);
  }
  ASSERT_EQ(a.attempts.size(), b.attempts.size());
  for (size_t i = 0; i < a.attempts.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "attempt " << i);
    EXPECT_EQ(a.attempts[i].task, b.attempts[i].task);
    EXPECT_EQ(a.attempts[i].attempt, b.attempts[i].attempt);
    EXPECT_EQ(a.attempts[i].node, b.attempts[i].node);
    EXPECT_EQ(a.attempts[i].start, b.attempts[i].start);
    EXPECT_EQ(a.attempts[i].end, b.attempts[i].end);
    EXPECT_EQ(a.attempts[i].outcome, b.attempts[i].outcome);
  }
  EXPECT_EQ(a.faults.faults_injected, b.faults.faults_injected);
  EXPECT_EQ(a.faults.storage_faults, b.faults.storage_faults);
  EXPECT_EQ(a.faults.retries, b.faults.retries);
  EXPECT_EQ(a.faults.recomputed_tasks, b.faults.recomputed_tasks);
  EXPECT_EQ(a.faults.lost_blocks, b.faults.lost_blocks);
}

TEST(DeterminismTest, RepeatedRunsProduceIdenticalReports) {
  const TaskGraph graph = BuildGraph();
  for (auto policy : {SchedulingPolicy::kTaskGenerationOrder,
                      SchedulingPolicy::kDataLocality,
                      SchedulingPolicy::kCostModel}) {
    for (auto storage : {hw::StorageArchitecture::kSharedDisk,
                         hw::StorageArchitecture::kLocalDisk}) {
      for (bool hybrid : {false, true}) {
        SCOPED_TRACE(testing::Message()
                     << ToString(policy) << "/" << hw::ToString(storage)
                     << "/hybrid=" << hybrid);
        RunOptions options;
        options.policy = policy;
        options.storage = storage;
        options.hybrid = hybrid;
        SimulatedExecutor executor(hw::MinotauroCluster(), options);
        auto first = executor.Execute(graph);
        auto second = executor.Execute(graph);
        ASSERT_TRUE(first.ok()) << first.status().ToString();
        ASSERT_TRUE(second.ok()) << second.status().ToString();
        ExpectIdenticalReports(*first, *second);
      }
    }
  }
}

/// A fresh executor (not just a fresh run) must also reproduce the
/// report: no hidden state may leak through the const executor.
TEST(DeterminismTest, FreshExecutorReproducesReport) {
  const TaskGraph graph = BuildGraph();
  RunOptions options;
  options.policy = SchedulingPolicy::kDataLocality;
  options.storage = hw::StorageArchitecture::kLocalDisk;
  auto first = SimulatedExecutor(hw::MinotauroCluster(), options)
                   .Execute(graph);
  auto second = SimulatedExecutor(hw::MinotauroCluster(), options)
                    .Execute(graph);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  ExpectIdenticalReports(*first, *second);
}

/// The same bit-determinism must hold under fault injection: the
/// fault plan's events and the seeded storage-fault stream are part
/// of the deterministic event order, so a replay reproduces every
/// retry and recovery decision.
TEST(DeterminismTest, FaultPlansReplayIdentically) {
  const TaskGraph graph = BuildGraph();
  RunOptions baseline_options;
  baseline_options.storage = hw::StorageArchitecture::kLocalDisk;
  auto baseline = SimulatedExecutor(hw::MinotauroCluster(), baseline_options)
                      .Execute(graph);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  for (auto policy : {SchedulingPolicy::kTaskGenerationOrder,
                      SchedulingPolicy::kDataLocality,
                      SchedulingPolicy::kCostModel}) {
    SCOPED_TRACE(ToString(policy));
    RunOptions options;
    options.policy = policy;
    options.storage = hw::StorageArchitecture::kLocalDisk;
    options.max_retries = 6;
    options.retry_backoff_s = 1e-3;
    FaultEvent crash;
    crash.kind = FaultKind::kNodeCrash;
    crash.time = baseline->makespan / 2;
    crash.node = 1;
    options.faults.events.push_back(crash);
    // A slow node makes the cost-model policy launch speculative
    // hedges, whose dispatch/cancel edges must also replay exactly.
    FaultEvent slow;
    slow.kind = FaultKind::kSlowNode;
    slow.time = baseline->makespan / 10;
    slow.node = 2;
    slow.factor = 1.9;
    options.faults.events.push_back(slow);
    options.faults.storage_fault_rate = 0.01;
    options.faults.seed = 17;
    auto first = SimulatedExecutor(hw::MinotauroCluster(), options)
                     .Execute(graph);
    auto second = SimulatedExecutor(hw::MinotauroCluster(), options)
                      .Execute(graph);
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    ASSERT_TRUE(second.ok()) << second.status().ToString();
    ExpectIdenticalReports(*first, *second);
  }
}

// ---- Imported / generated workflow determinism ----------------------

wf::Instance MontageFixture() {
  const std::string path =
      std::string(TASKBENCH_TEST_DATA_DIR) + "/wf/montage_trimmed.json";
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << path;
  std::ostringstream text;
  text << in.rdbuf();
  auto instance = wf::ImportWfFormat(text.str());
  EXPECT_TRUE(instance.ok()) << instance.status().ToString();
  return instance.ok() ? *instance : wf::Instance{};
}

/// FNV-1a over every datum's final bytes, in registration order — the
/// wall-clock-free fingerprint real executors are compared on (their
/// report timings can never be bit-stable across runner counts).
uint64_t ValueDigest(const Executor& executor, const TaskGraph& graph,
                     const std::vector<DataId>& data) {
  uint64_t digest = check::kFnvOffsetBasis;
  for (const DataId id : data) {
    auto value = executor.Fetch(graph, id);
    EXPECT_TRUE(value.ok()) << value.status().ToString();
    if (!value.ok()) continue;
    const int64_t dims[2] = {value->rows(), value->cols()};
    digest = check::FoldBytes(digest, dims, sizeof(dims));
    digest = check::FoldBytes(digest, value->data(),
                              static_cast<size_t>(value->size()) * 8);
  }
  return digest;
}

/// The simulated executor must replay an imported real-workflow trace
/// bit-identically — same guarantee the synthetic DAG above checks,
/// now over WfFormat-imported costs, types and GPU placements.
TEST(DeterminismTest, ImportedWorkflowSimReportsAreDeterministic) {
  const wf::Instance instance = MontageFixture();
  wf::BuildOptions options;
  options.materialize = false;  // sim-only: true WfFormat byte sizes
  for (auto policy : {SchedulingPolicy::kTaskGenerationOrder,
                      SchedulingPolicy::kDataLocality,
                      SchedulingPolicy::kCostModel}) {
    SCOPED_TRACE(ToString(policy));
    RunOptions run_options;
    run_options.policy = policy;
    auto first_build = wf::BuildInstance(instance, options);
    auto second_build = wf::BuildInstance(instance, options);
    ASSERT_TRUE(first_build.ok()) << first_build.status().ToString();
    ASSERT_TRUE(second_build.ok());
    auto first = SimulatedExecutor(hw::MinotauroCluster(), run_options)
                     .Execute(first_build->graph);
    auto second = SimulatedExecutor(hw::MinotauroCluster(), run_options)
                      .Execute(second_build->graph);
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    ASSERT_TRUE(second.ok()) << second.status().ToString();
    ExpectIdenticalReports(*first, *second);
  }
}

/// The imported fixture's result values must be bit-identical across
/// runs, thread counts, and executors — thread pool (1/2/4 workers)
/// and the forked multi-process plane (2/4 workers) all land on one
/// digest, twice each.
TEST(DeterminismTest, ImportedWorkflowValuesBitExactAcrossExecutors) {
  const wf::Instance instance = MontageFixture();
  std::vector<uint64_t> digests;
  auto run_pool = [&](int threads) {
    auto built = wf::BuildInstance(instance, wf::BuildOptions{});
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    RunOptions options;
    options.num_threads = threads;
    ThreadPoolExecutor executor(options);
    auto report = executor.Execute(built->graph);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    digests.push_back(ValueDigest(executor, built->graph, built->data));
  };
  auto run_multiproc = [&](int workers) {
    auto built = wf::BuildInstance(instance, wf::BuildOptions{});
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    RunOptions options;
    options.num_procs = workers;
    MultiProcExecutor executor(options);
    obs::MetricsRegistry metrics;
    RunContext ctx;
    ctx.metrics = &metrics;
    auto report = executor.Execute(built->graph, ctx);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(metrics.gauge("pool.procs")->value(), workers);
    digests.push_back(ValueDigest(executor, built->graph, built->data));
  };
  for (int repeat = 0; repeat < 2; ++repeat) {
    run_pool(1);
    run_pool(2);
    run_pool(4);
    if (MultiProcExecutor::Supported()) {
      run_multiproc(2);
      run_multiproc(4);
    }
  }
  ASSERT_GE(digests.size(), 6u);
  for (size_t i = 1; i < digests.size(); ++i) {
    EXPECT_EQ(digests[i], digests[0]) << "leg " << i;
  }
}

/// Same bit-exactness for a generated WfBench instance with GPU task
/// types, heavy tails and stragglers in play.
TEST(DeterminismTest, GeneratedWorkflowValuesBitExactAcrossExecutors) {
  wf::GenOptions gen;
  gen.seed = 42;
  gen.levels = 5;
  gen.width = 4;
  gen.heavy_tail_alpha = 1.4;
  gen.straggler_fraction = 0.15;
  gen.types = wf::DefaultTaskTypes(2);
  const wf::Instance instance = wf::GenerateWfBench(gen);
  std::vector<uint64_t> digests;
  auto run_pool = [&](int threads) {
    auto built = wf::BuildInstance(instance, wf::BuildOptions{});
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    RunOptions options;
    options.num_threads = threads;
    ThreadPoolExecutor executor(options);
    auto report = executor.Execute(built->graph);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    digests.push_back(ValueDigest(executor, built->graph, built->data));
  };
  run_pool(1);
  run_pool(4);
  run_pool(4);
  if (MultiProcExecutor::Supported()) {
    auto built = wf::BuildInstance(instance, wf::BuildOptions{});
    ASSERT_TRUE(built.ok());
    RunOptions options;
    options.num_procs = 2;
    MultiProcExecutor executor(options);
    obs::MetricsRegistry metrics;
    RunContext ctx;
    ctx.metrics = &metrics;
    auto report = executor.Execute(built->graph, ctx);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(metrics.gauge("pool.procs")->value(), 2);
    digests.push_back(ValueDigest(executor, built->graph, built->data));
  }
  for (size_t i = 1; i < digests.size(); ++i) {
    EXPECT_EQ(digests[i], digests[0]) << "leg " << i;
  }
}

}  // namespace
}  // namespace taskbench::runtime
