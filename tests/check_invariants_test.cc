// The post-hoc invariant checker must accept real reports from both
// executors and reject deliberately corrupted ones — each mutation
// here models a distinct executor bug class (lost record, time
// travel, phantom scheduler work, over-committed node, attempt-log
// corruption). Also covers the online checker's RunOptions wiring.

#include <gtest/gtest.h>

#include "check/invariants.h"
#include "check/workload.h"
#include "hw/cluster.h"
#include "runtime/run_options.h"
#include "runtime/simulated_executor.h"
#include "runtime/thread_pool_executor.h"

namespace taskbench::check {
namespace {

using runtime::RunReport;
using runtime::TaskGraph;

WorkloadSpec Spec() {
  WorkloadSpec spec;
  spec.family = Family::kFanOutFanIn;
  spec.seed = 4;
  spec.dim = 10;
  spec.width = 5;
  spec.gpu_every = 2;
  return spec;
}

struct SimRun {
  BuiltWorkload built;
  RunReport report;
  hw::ClusterSpec cluster;
};

SimRun RunSim() {
  auto built = BuildWorkload(Spec());
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  SimRun out{std::move(built).value(), {}, hw::MinotauroCluster()};
  runtime::RunOptions options;
  runtime::SimulatedExecutor executor(out.cluster, options);
  auto report = executor.Execute(out.built.graph);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  out.report = std::move(report).value();
  return out;
}

InvariantContext SimContext(const SimRun& run) {
  InvariantContext context;
  context.cluster = &run.cluster;
  context.simulated = true;
  return context;
}

TEST(VerifyReportTest, AcceptsGenuineSimulatedReport) {
  SimRun run = RunSim();
  Status s = VerifyReport(run.built.graph, run.report, SimContext(run));
  EXPECT_TRUE(s.ok()) << s.ToString();
}

TEST(VerifyReportTest, AcceptsGenuineThreadPoolReport) {
  auto built = BuildWorkload(Spec());
  ASSERT_TRUE(built.ok());
  runtime::RunOptions options;
  options.num_threads = 3;
  options.use_storage = true;
  runtime::ThreadPoolExecutor executor(options);
  auto report = executor.Execute(built->graph);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  InvariantContext context;
  context.num_threads = 3;
  Status s = VerifyReport(built->graph, *report, context);
  EXPECT_TRUE(s.ok()) << s.ToString();
}

TEST(VerifyReportTest, RejectsMissingRecord) {
  SimRun run = RunSim();
  run.report.records.pop_back();
  EXPECT_FALSE(
      VerifyReport(run.built.graph, run.report, SimContext(run)).ok());
}

TEST(VerifyReportTest, RejectsRecordBeyondMakespan) {
  SimRun run = RunSim();
  run.report.records[0].end = run.report.makespan * 2 + 1;
  EXPECT_FALSE(
      VerifyReport(run.built.graph, run.report, SimContext(run)).ok());
}

TEST(VerifyReportTest, RejectsNegativeOrInvertedInterval) {
  SimRun run = RunSim();
  auto& rec = run.report.records[1];
  rec.start = rec.end + 1e-3;
  EXPECT_FALSE(
      VerifyReport(run.built.graph, run.report, SimContext(run)).ok());
}

TEST(VerifyReportTest, RejectsDependencyOrderViolation) {
  SimRun run = RunSim();
  // The fan-in reduce is the last task; pretend it started at 0,
  // before its producers finished.
  auto& rec = run.report.records.back();
  ASSERT_FALSE(run.built.graph.task(rec.task).deps.empty());
  rec.start = 0;
  EXPECT_FALSE(
      VerifyReport(run.built.graph, run.report, SimContext(run)).ok());
}

TEST(VerifyReportTest, RejectsPhantomSchedulerOverhead) {
  SimRun run = RunSim();
  run.report.scheduler_overhead += 1.0;  // phases no longer sum to it
  EXPECT_FALSE(
      VerifyReport(run.built.graph, run.report, SimContext(run)).ok());
}

TEST(VerifyReportTest, RejectsOverCommittedNode) {
  WorkloadSpec spec = Spec();
  spec.width = 20;  // 22 tasks > the 16 cores of one Minotauro node
  auto built = BuildWorkload(spec);
  ASSERT_TRUE(built.ok());
  const hw::ClusterSpec cluster = hw::MinotauroCluster();
  runtime::SimulatedExecutor executor(cluster, runtime::RunOptions{});
  auto result = executor.Execute(built->graph);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  RunReport report = std::move(result).value();
  ASSERT_GT(report.records.size(), 16u);
  // Cram every record onto node 0's cores spanning the full makespan:
  // busy time then exceeds makespan x core capacity. faulted=true
  // keeps the (also-broken) dependency ordering out of the way so the
  // busy-time check is what fires.
  for (auto& rec : report.records) {
    rec.node = 0;
    rec.processor = Processor::kCpu;
    rec.start = 0;
    rec.end = report.makespan;
  }
  InvariantContext context;
  context.cluster = &cluster;
  context.simulated = true;
  context.faulted = true;
  Status s = VerifyReport(built->graph, report, context);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("busy"), std::string::npos)
      << s.ToString();
}

TEST(VerifyReportTest, RejectsAttemptsOnFaultFreeSimRun) {
  SimRun run = RunSim();
  run.report.attempts.push_back({0, 1, 0, Processor::kCpu, 0, 0,
                                 runtime::AttemptOutcome::kCompleted});
  EXPECT_FALSE(
      VerifyReport(run.built.graph, run.report, SimContext(run)).ok());
}

TEST(VerifyReportTest, RejectsNonMonotonicAttemptNumbers) {
  SimRun run = RunSim();
  InvariantContext context = SimContext(run);
  context.faulted = true;
  run.report.faults.retries = 1;
  run.report.attempts.push_back({0, 2, 0, Processor::kCpu, 0.0, 0.1,
                                 runtime::AttemptOutcome::kStorageFault});
  run.report.attempts.push_back({0, 2, 0, Processor::kCpu, 0.2, 0.3,
                                 runtime::AttemptOutcome::kCompleted});
  EXPECT_FALSE(
      VerifyReport(run.built.graph, run.report, context).ok());
}

/// A faulted report where task 0's first attempt fails at 0.1 while a
/// second attempt (a hedge twin, started at 0.05) completes.
SimRun HedgePairWithOneFailure(int64_t hedges, int64_t absorbed) {
  SimRun run = RunSim();
  run.report.faults.hedges = hedges;
  run.report.faults.hedge_absorbed = absorbed;
  run.report.attempts.push_back({0, 1, 0, Processor::kCpu, 0.0, 0.1,
                                 runtime::AttemptOutcome::kStorageFault});
  run.report.attempts.push_back({0, 2, 1, Processor::kCpu, 0.05, 0.3,
                                 runtime::AttemptOutcome::kCompleted});
  return run;
}

TEST(VerifyReportTest, AcceptsFailureAbsorbedByHedgeTwin) {
  SimRun run = HedgePairWithOneFailure(/*hedges=*/1, /*absorbed=*/1);
  InvariantContext context = SimContext(run);
  context.faulted = true;
  const Status s = VerifyReport(run.built.graph, run.report, context);
  EXPECT_TRUE(s.ok()) << s.ToString();
}

TEST(VerifyReportTest, RejectsFailureNeitherRetriedNorAbsorbed) {
  SimRun run = HedgePairWithOneFailure(/*hedges=*/1, /*absorbed=*/0);
  InvariantContext context = SimContext(run);
  context.faulted = true;
  const Status s = VerifyReport(run.built.graph, run.report, context);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("non-completed"), std::string::npos)
      << s.ToString();
}

TEST(VerifyReportTest, RejectsMoreAbsorbedFailuresThanHedges) {
  SimRun run = HedgePairWithOneFailure(/*hedges=*/0, /*absorbed=*/1);
  InvariantContext context = SimContext(run);
  context.faulted = true;
  const Status s = VerifyReport(run.built.graph, run.report, context);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("hedges launched"), std::string::npos)
      << s.ToString();
}

TEST(VerifyReportTest, OnlineSimCheckerPassesCleanRuns) {
  // check_invariants defaults on; an explicit off must also work and
  // produce the identical report (the checker observes, never steers).
  auto built = BuildWorkload(Spec());
  ASSERT_TRUE(built.ok());
  const hw::ClusterSpec cluster = hw::MinotauroCluster();
  runtime::RunOptions on;
  ASSERT_TRUE(on.check_invariants);
  runtime::RunOptions off;
  off.check_invariants = false;
  runtime::SimulatedExecutor with(cluster, on);
  runtime::SimulatedExecutor without(cluster, off);
  auto a = with.Execute(built->graph);
  auto b = without.Execute(built->graph);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(a->makespan, b->makespan);
  EXPECT_EQ(a->sim_events, b->sim_events);
}

TEST(VerifyReportTest, OnlineThreadPoolCheckerPassesCleanRuns) {
  for (bool use_storage : {false, true}) {
    auto built = BuildWorkload(Spec());
    ASSERT_TRUE(built.ok());
    runtime::RunOptions options;
    options.num_threads = 4;
    options.use_storage = use_storage;
    ASSERT_TRUE(options.check_invariants);
    runtime::ThreadPoolExecutor executor(options);
    auto report = executor.Execute(built->graph);
    EXPECT_TRUE(report.ok())
        << "storage=" << use_storage << ": " << report.status().ToString();
  }
}

}  // namespace
}  // namespace taskbench::check
