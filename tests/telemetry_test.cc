// End-to-end telemetry tests: both executors collecting into a
// MetricsRegistry, the scheduler phase breakdown, and the exported
// metrics/trace JSON documents.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/logging.h"
#include "data/matrix.h"
#include "hw/cluster.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "runtime/metrics_export.h"
#include "runtime/multiproc_executor.h"
#include "runtime/run_options.h"
#include "runtime/simulated_executor.h"
#include "runtime/task_graph.h"
#include "runtime/thread_pool_executor.h"
#include "runtime/trace.h"

namespace taskbench::runtime {
namespace {

/// Two-level diamond per lane: lane chains exercise dependencies and
/// give the simulated scheduler a steady ready set.
TaskGraph SimGraph(int lanes, int levels, const char* type = "work") {
  TaskGraph graph;
  std::vector<DataId> front(static_cast<size_t>(lanes));
  for (int w = 0; w < lanes; ++w) front[w] = graph.AddData(1'000'000);
  for (int l = 0; l < levels; ++l) {
    for (int w = 0; w < lanes; ++w) {
      const DataId out = graph.AddData(1'000'000);
      TaskSpec spec;
      spec.type = type;
      spec.params = {{front[static_cast<size_t>(w)], Dir::kIn},
                     {out, Dir::kOut}};
      spec.cost.parallel.flops = 1e9;
      spec.cost.input_bytes = 1'000'000;
      spec.cost.output_bytes = 1'000'000;
      TB_CHECK_OK(graph.Submit(spec).status());
      front[static_cast<size_t>(w)] = out;
    }
  }
  return graph;
}

RunReport RunSim(const TaskGraph& graph, RunOptions options) {
  SimulatedExecutor executor(hw::MinotauroCluster(), options);
  auto report = executor.Execute(graph);
  TB_CHECK_OK(report.status());
  return std::move(*report);
}

TEST(TelemetryTest, SimulatedRunPopulatesRegistry) {
  const TaskGraph graph = SimGraph(4, 5);
  obs::MetricsRegistry registry;
  RunOptions options;
  options.metrics = &registry;
  const RunReport report = RunSim(graph, options);

  EXPECT_EQ(registry.counter("sched.decisions")->value(),
            graph.num_tasks());
  EXPECT_EQ(registry.histogram("sched.ready_tasks")->count(),
            graph.num_tasks());
  EXPECT_GE(registry.histogram("sched.ready_tasks")->min(), 1.0);
  EXPECT_GT(registry.gauge("sim.max_pending_events")->value(), 0.0);
  EXPECT_GT(registry.counter("sim.events")->value(), 0);

  // Per-type stage histograms: one sample per completed task.
  const auto* duration = registry.histogram("task.work.duration_s");
  EXPECT_EQ(duration->count(), static_cast<int64_t>(report.records.size()));
  EXPECT_GT(duration->sum(), 0.0);
  EXPECT_EQ(registry.histogram("task.work.compute_s")->count(),
            duration->count());
  EXPECT_EQ(registry.histogram("task.work.deserialize_s")->count(),
            duration->count());
  EXPECT_EQ(registry.histogram("task.work.serialize_s")->count(),
            duration->count());
}

TEST(TelemetryTest, TelemetryDoesNotChangeTheRun) {
  const TaskGraph graph = SimGraph(3, 4);
  RunOptions options;
  const RunReport off = RunSim(graph, options);
  obs::MetricsRegistry registry;
  options.metrics = &registry;
  const RunReport on = RunSim(graph, options);

  EXPECT_EQ(off.makespan, on.makespan);
  EXPECT_EQ(off.scheduler_overhead, on.scheduler_overhead);
  EXPECT_EQ(off.sim_events, on.sim_events);
  ASSERT_EQ(off.records.size(), on.records.size());
  for (size_t i = 0; i < off.records.size(); ++i) {
    EXPECT_EQ(off.records[i].task, on.records[i].task);
    EXPECT_EQ(off.records[i].start, on.records[i].start);
    EXPECT_EQ(off.records[i].end, on.records[i].end);
  }
}

TEST(TelemetryTest, PhaseBreakdownSumsToSchedulerOverhead) {
  const TaskGraph graph = SimGraph(4, 4);
  for (const SchedulingPolicy policy :
       {SchedulingPolicy::kTaskGenerationOrder,
        SchedulingPolicy::kDataLocality}) {
    for (const hw::StorageArchitecture storage :
         {hw::StorageArchitecture::kSharedDisk,
          hw::StorageArchitecture::kLocalDisk}) {
      RunOptions options;
      options.policy = policy;
      options.storage = storage;
      const RunReport report = RunSim(graph, options);
      ASSERT_GT(report.scheduler_overhead, 0.0);
      EXPECT_TRUE(report.sched_phases.any());
      const double total = report.sched_phases.total();
      EXPECT_NEAR(total, report.scheduler_overhead,
                  0.01 * report.scheduler_overhead)
          << "policy=" << ToString(policy)
          << " storage=" << hw::ToString(storage);
    }
  }
}

TEST(TelemetryTest, PhaseBreakdownScalesUnderOverrideKnob) {
  const TaskGraph graph = SimGraph(2, 3);
  RunOptions options;
  options.scheduler_overhead_override_s = 2e-3;
  const RunReport report = RunSim(graph, options);
  ASSERT_GT(report.scheduler_overhead, 0.0);
  EXPECT_NEAR(report.sched_phases.total(), report.scheduler_overhead,
              0.01 * report.scheduler_overhead);
  // The split keeps the policy's proportions: ready-pop dominates
  // slot-pick in the task-generation-order scheduler (0.5 : 0.3).
  EXPECT_GT(report.sched_phases.ready_pop_s,
            report.sched_phases.slot_pick_s);
}

TEST(TelemetryTest, ZeroOverrideZeroesTheBreakdown) {
  const TaskGraph graph = SimGraph(2, 2);
  RunOptions options;
  options.scheduler_overhead_override_s = 0;
  const RunReport report = RunSim(graph, options);
  EXPECT_EQ(report.scheduler_overhead, 0.0);
  EXPECT_FALSE(report.sched_phases.any());
  EXPECT_EQ(report.sched_phases.total(), 0.0);
}

TEST(TelemetryTest, FaultCountersAppearWhenFaultsFire) {
  const TaskGraph graph = SimGraph(2, 3);
  obs::MetricsRegistry registry;
  RunOptions options;
  options.metrics = &registry;
  options.max_retries = 8;
  options.faults.storage_fault_rate = 0.5;
  options.faults.seed = 7;
  const RunReport report = RunSim(graph, options);
  EXPECT_GT(report.faults.storage_faults, 0);
  EXPECT_GT(report.faults.retries, 0);
  EXPECT_EQ(registry.counter("faults.injected")->value(),
            report.faults.faults_injected);
  EXPECT_EQ(registry.counter("faults.retries")->value(),
            report.faults.retries);
  EXPECT_EQ(registry.counter("faults.storage_faults")->value(),
            report.faults.storage_faults);
}

TEST(TelemetryTest, ThreadPoolRunPopulatesRegistry) {
  TaskGraph graph;
  std::vector<DataId> chain;
  const int kTasks = 12;
  DataId cur = graph.AddData(data::Matrix(4, 4, 1.0));
  for (int i = 0; i < kTasks; ++i) {
    const DataId next = graph.AddData(static_cast<uint64_t>(128));
    TaskSpec spec;
    spec.type = "copy";
    spec.params = {{cur, Dir::kIn}, {next, Dir::kOut}};
    spec.kernel = [](const std::vector<const data::Matrix*>& inputs,
                     const std::vector<data::Matrix*>& outputs) -> Status {
      *outputs[0] = *inputs[0];
      return Status::OK();
    };
    TB_CHECK_OK(graph.Submit(spec).status());
    cur = next;
  }

  obs::MetricsRegistry registry;
  RunOptions options;
  options.num_threads = 3;
  options.metrics = &registry;
  ThreadPoolExecutor executor(options);
  auto report = executor.Execute(graph);
  ASSERT_TRUE(report.ok());

  EXPECT_EQ(registry.counter("pool.tasks")->value(), kTasks);
  EXPECT_EQ(registry.gauge("pool.workers")->value(), 3.0);
  EXPECT_EQ(registry.histogram("task.copy.duration_s")->count(), kTasks);
  EXPECT_GT(registry.histogram("task.copy.duration_s")->sum(), 0.0);
  // The thread-pool path leaves the simulated-master breakdown empty.
  EXPECT_FALSE(report->sched_phases.any());
}

/// A storage-mode graph every executor can run: `kLanes` "scale"
/// tasks read one shared input (block-cache hits) and feed
/// "accumulate" tasks that update one INOUT sum (cache invalidations).
constexpr int kLanes = 6;

TaskGraph ParityGraph() {
  TaskGraph graph;
  const DataId shared = graph.AddData(data::Matrix(8, 8, 2.0));
  const DataId sum = graph.AddData(data::Matrix(8, 8, 0.0));
  for (int lane = 0; lane < kLanes; ++lane) {
    const DataId scaled = graph.AddData(static_cast<uint64_t>(8 * 8 * 8));
    TaskSpec scale;
    scale.type = "scale";
    scale.params = {{shared, Dir::kIn}, {scaled, Dir::kOut}};
    scale.cost.parallel.flops = 1e6;
    scale.kernel = [lane](const std::vector<const data::Matrix*>& inputs,
                          const std::vector<data::Matrix*>& outputs) {
      *outputs[0] = *inputs[0];
      for (int64_t r = 0; r < outputs[0]->rows(); ++r) {
        for (int64_t c = 0; c < outputs[0]->cols(); ++c) {
          outputs[0]->At(r, c) *= lane + 1;
        }
      }
      return Status::OK();
    };
    TB_CHECK_OK(graph.Submit(scale).status());
    TaskSpec accumulate;
    accumulate.type = "accumulate";
    accumulate.params = {{scaled, Dir::kIn}, {shared, Dir::kIn},
                         {sum, Dir::kInOut}};
    accumulate.cost.parallel.flops = 1e6;
    accumulate.kernel = [](const std::vector<const data::Matrix*>& inputs,
                           const std::vector<data::Matrix*>& outputs) {
      for (int64_t r = 0; r < outputs[0]->rows(); ++r) {
        for (int64_t c = 0; c < outputs[0]->cols(); ++c) {
          outputs[0]->At(r, c) += inputs[0]->At(r, c) - inputs[1]->At(r, c);
        }
      }
      return Status::OK();
    };
    TB_CHECK_OK(graph.Submit(accumulate).status());
  }
  return graph;
}

/// The registry's JSON rendering, to test for a name without
/// creating the instrument.
std::string RegistryJson(const obs::MetricsRegistry& registry) {
  std::ostringstream out;
  registry.WriteJson(out);
  return out.str();
}

// The same stage-histogram schema from every executor, and the same
// cache counters from both real ones (they share one attempt body and
// one run epilogue). The multi-process leg runs first: it must fork
// from a process without other threads.
TEST(TelemetryTest, StageAndCacheTelemetryMatchAcrossExecutors) {
  RunOptions options;
  options.num_threads = 2;
  options.num_procs = 2;
  options.use_storage = true;
  options.block_cache = true;

  obs::MetricsRegistry procs_registry;
  {
    TaskGraph graph = ParityGraph();
    RunContext ctx;
    ctx.metrics = &procs_registry;
    MultiProcExecutor procs(options);
    ASSERT_TRUE(procs.Execute(graph, ctx).ok());
  }
  obs::MetricsRegistry threads_registry;
  {
    TaskGraph graph = ParityGraph();
    RunContext ctx;
    ctx.metrics = &threads_registry;
    ThreadPoolExecutor threads(options);
    ASSERT_TRUE(threads.Execute(graph, ctx).ok());
  }
  obs::MetricsRegistry sim_registry;
  {
    const TaskGraph graph = ParityGraph();
    RunContext ctx;
    ctx.metrics = &sim_registry;
    SimulatedExecutor sim(hw::MinotauroCluster(), options);
    ASSERT_TRUE(sim.Execute(graph, ctx).ok());
  }

  for (obs::MetricsRegistry* registry :
       {&procs_registry, &threads_registry, &sim_registry}) {
    const std::string json = RegistryJson(*registry);
    for (const char* type : {"scale", "accumulate"}) {
      for (const char* stage :
           {"deserialize", "compute", "serialize", "duration"}) {
        const std::string name =
            std::string("task.") + type + "." + stage + "_s";
        ASSERT_NE(json.find('"' + name + '"'), std::string::npos) << name;
        EXPECT_EQ(registry->histogram(name)->count(), kLanes) << name;
      }
    }
  }
  for (obs::MetricsRegistry* registry : {&procs_registry, &threads_registry}) {
    const std::string json = RegistryJson(*registry);
    for (const char* name : {"cache.hits", "cache.misses", "cache.evictions",
                             "cache.invalidations", "cache.peak_bytes"}) {
      EXPECT_NE(json.find('"' + std::string(name) + '"'), std::string::npos)
          << name;
    }
  }
  // Every IN and INOUT read asks the cache once, on either transport.
  const auto lookups = [](obs::MetricsRegistry& registry) {
    return registry.counter("cache.hits")->value() +
           registry.counter("cache.misses")->value();
  };
  EXPECT_EQ(lookups(threads_registry), 4 * kLanes);
  EXPECT_EQ(lookups(procs_registry), lookups(threads_registry));
}

TEST(TelemetryTest, MetricsJsonIsValid) {
  const TaskGraph graph = SimGraph(3, 3);
  obs::MetricsRegistry registry;
  RunOptions options;
  options.metrics = &registry;
  const RunReport report = RunSim(graph, options);

  std::ostringstream out;
  StreamMetricsJson(report, &registry, out);
  const std::string json = out.str();
  EXPECT_TRUE(obs::ValidateJson(json).ok()) << json;
  EXPECT_NE(json.find("\"schema\": \"taskbench.metrics.v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"scheduler_phases\""), std::string::npos);
  EXPECT_NE(json.find("sched.decisions"), std::string::npos);
}

TEST(TelemetryTest, MetricsJsonWithNullRegistryIsValid) {
  const TaskGraph graph = SimGraph(2, 2);
  const RunReport report = RunSim(graph, RunOptions{});
  std::ostringstream out;
  StreamMetricsJson(report, nullptr, out);
  EXPECT_TRUE(obs::ValidateJson(out.str()).ok()) << out.str();
  EXPECT_NE(out.str().find("\"metrics\": {}"), std::string::npos);
}

TEST(TelemetryTest, FlowEventsConnectProducersToConsumers) {
  const TaskGraph graph = SimGraph(2, 3);
  const RunReport report = RunSim(graph, RunOptions{});
  TraceOptions trace_options;
  trace_options.graph = &graph;
  trace_options.flow_events = true;
  const std::string json = ChromeTraceJson(report, trace_options);
  EXPECT_TRUE(obs::ValidateJson(json).ok()) << json;
  // Each of the 2 lanes has 2 dependency edges (3 levels) -> 4 flow
  // pairs.
  EXPECT_NE(json.find("\"ph\": \"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"f\""), std::string::npos);
  // Without the flag the trace carries no flow events.
  const std::string plain = ChromeTraceJson(report);
  EXPECT_EQ(plain.find("\"ph\": \"s\""), std::string::npos);
}

}  // namespace
}  // namespace taskbench::runtime
