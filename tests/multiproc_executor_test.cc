#include "runtime/multiproc_executor.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "check/invariants.h"
#include "check/workload.h"
#include "common/random.h"
#include "data/generators.h"
#include "obs/metrics.h"
#include "runtime/cancellation.h"
#include "runtime/task_graph.h"
#include "runtime/thread_pool_executor.h"

#if !defined(_WIN32)
#include <sys/mman.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <new>
#include <thread>
#include <utility>
#endif

namespace taskbench::runtime {
namespace {

KernelFn AddOneKernel() {
  return [](const std::vector<const data::Matrix*>& inputs,
            const std::vector<data::Matrix*>& outputs) -> Status {
    data::Matrix m = *inputs[0];
    for (int64_t i = 0; i < m.size(); ++i) m.data()[i] += 1.0;
    *outputs[0] = std::move(m);
    return Status::OK();
  };
}

TaskSpec SimpleTask(DataId in, DataId out, KernelFn kernel) {
  TaskSpec spec;
  spec.type = "simple";
  spec.params = {{in, Dir::kIn}, {out, Dir::kOut}};
  spec.kernel = std::move(kernel);
  return spec;
}

RunOptions ProcOptions(int procs) {
  RunOptions options;
  options.num_procs = procs;
  return options;
}

TEST(MultiProcExecutorTest, SupportedOnThisPlatform) {
#if defined(_WIN32)
  EXPECT_FALSE(MultiProcExecutor::Supported());
#else
  EXPECT_TRUE(MultiProcExecutor::Supported());
#endif
}

#if !defined(_WIN32)

TEST(MultiProcExecutorTest, RunsDependencyChain) {
  TaskGraph graph;
  const DataId d0 = graph.AddData(data::Matrix(2, 2, 0.0));
  const DataId d1 = graph.AddData(static_cast<uint64_t>(32));
  const DataId d2 = graph.AddData(static_cast<uint64_t>(32));
  const DataId d3 = graph.AddData(static_cast<uint64_t>(32));
  ASSERT_TRUE(graph.Submit(SimpleTask(d0, d1, AddOneKernel())).ok());
  ASSERT_TRUE(graph.Submit(SimpleTask(d1, d2, AddOneKernel())).ok());
  ASSERT_TRUE(graph.Submit(SimpleTask(d2, d3, AddOneKernel())).ok());

  MultiProcExecutor executor(ProcOptions(2));
  auto report = executor.Execute(graph);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->records.size(), 3u);
  EXPECT_GT(report->makespan, 0.0);
  EXPECT_FALSE(report->faults.any());
  EXPECT_TRUE(report->attempts.empty());
  for (const TaskRecord& rec : report->records) {
    EXPECT_GE(rec.node, 0);
    EXPECT_LT(rec.node, 2);
    EXPECT_LE(rec.start, rec.end);
  }

  auto result = executor.FetchData(graph, d3);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(*result == data::Matrix(2, 2, 3.0));

  check::InvariantContext context;
  context.num_threads = 2;
  EXPECT_TRUE(check::VerifyReport(graph, *report, context).ok());
}

TEST(MultiProcExecutorTest, PublishesToThePerRunMetricsRegistry) {
  TaskGraph graph;
  const DataId d0 = graph.AddData(data::Matrix(2, 2, 0.0));
  const DataId d1 = graph.AddData(static_cast<uint64_t>(32));
  ASSERT_TRUE(graph.Submit(SimpleTask(d0, d1, AddOneKernel())).ok());

  // Only the RunContext carries a registry: RunOptions::metrics is null.
  MultiProcExecutor executor(ProcOptions(3));
  ASSERT_EQ(executor.options().metrics, nullptr);
  obs::MetricsRegistry metrics;
  RunContext ctx;
  ctx.metrics = &metrics;
  auto report = executor.Execute(graph, ctx);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(metrics.gauge("pool.procs")->value(), 3);
  EXPECT_EQ(metrics.histogram("task.simple.deserialize_s")->count(), 1);
  EXPECT_EQ(metrics.histogram("task.simple.duration_s")->count(), 1);
}

TEST(MultiProcExecutorTest, SimulationOnlyGraphIsRejected) {
  TaskGraph graph;
  const DataId a = graph.AddData(static_cast<uint64_t>(64));
  const DataId b = graph.AddData(static_cast<uint64_t>(64));
  TaskSpec spec;
  spec.type = "no_kernel";
  spec.params = {{a, Dir::kIn}, {b, Dir::kOut}};
  ASSERT_TRUE(graph.Submit(std::move(spec)).ok());
  MultiProcExecutor executor(ProcOptions(2));
  auto report = executor.Execute(graph);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kFailedPrecondition);
}

// The correctness bar of the scale-out plane: every check-workload
// family must produce bit-identical result values whether it runs on
// one thread, one forked worker, or four forked workers.
TEST(MultiProcExecutorTest, ValuesBitExactAcrossProcessCounts) {
  for (const uint64_t seed : {3u, 11u}) {
    const check::WorkloadSpec spec = check::GenerateSpec(seed);

    auto baseline_built = check::BuildWorkload(spec);
    ASSERT_TRUE(baseline_built.ok());
    RunOptions thread_options;
    thread_options.num_threads = 1;
    thread_options.use_storage = false;
    ThreadPoolExecutor baseline(thread_options);
    ASSERT_TRUE(baseline.Execute(baseline_built->graph).ok());

    for (const int procs : {1, 2, 4}) {
      auto built = check::BuildWorkload(spec);
      ASSERT_TRUE(built.ok());
      MultiProcExecutor executor(ProcOptions(procs));
      obs::MetricsRegistry metrics;
      RunContext ctx;
      ctx.metrics = &metrics;
      auto report = executor.Execute(built->graph, ctx);
      ASSERT_TRUE(report.ok())
          << procs << " procs, seed " << seed << ": "
          << report.status().ToString();
      EXPECT_EQ(metrics.gauge("pool.procs")->value(), procs);

      check::InvariantContext context;
      context.num_threads = procs;
      ASSERT_TRUE(check::VerifyReport(built->graph, *report, context).ok());

      for (const DataId d : built->compare) {
        auto got = executor.FetchData(built->graph, d);
        auto want = baseline.FetchData(baseline_built->graph, d);
        ASSERT_TRUE(got.ok() && want.ok());
        ASSERT_TRUE(*got == *want)
            << "datum " << d << " diverged at " << procs
            << " procs on seed " << seed;
      }
    }
  }
}

TEST(MultiProcExecutorTest, TooSmallArenaFailsWithArenaMessage) {
  TaskGraph graph;
  const DataId in = graph.AddData(data::Matrix(64, 64, 1.0));  // 32 KiB
  const DataId out = graph.AddData(static_cast<uint64_t>(64 * 64 * 8));
  ASSERT_TRUE(graph.Submit(SimpleTask(in, out, AddOneKernel())).ok());

  RunOptions options = ProcOptions(2);
  options.shm_arena_bytes = 4096;  // cannot even stage the input
  MultiProcExecutor executor(options);
  auto report = executor.Execute(graph);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(report.status().message().find("shm arena"), std::string::npos);
}

TEST(MultiProcExecutorTest, ArenaExhaustionMidRunFailsTheRun) {
  // Blocks fit individually but the never-free arena cannot hold the
  // whole chain of versions.
  TaskGraph graph;
  const DataId d0 = graph.AddData(data::Matrix(16, 16, 0.0));  // 2 KiB each
  DataId prev = d0;
  for (int i = 0; i < 12; ++i) {
    const DataId next = graph.AddData(static_cast<uint64_t>(16 * 16 * 8));
    ASSERT_TRUE(graph.Submit(SimpleTask(prev, next, AddOneKernel())).ok());
    prev = next;
  }
  RunOptions options = ProcOptions(2);
  options.shm_arena_bytes = 8192;  // ~3 records of 2 KiB + framing
  MultiProcExecutor executor(options);
  auto report = executor.Execute(graph);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.status().ToString().find("arena"), std::string::npos);
}

// A worker killed mid-task (the kernel _exits the whole process, as a
// segfault or OOM kill would) must be detected via waitpid, its task
// re-dispatched to a surviving worker, and the run completed — with
// the loss visible in the fault counters and the attempt log.
TEST(MultiProcExecutorTest, WorkerCrashMidTaskIsRetriedOnSurvivor) {
  // MAP_SHARED counter mapped before graph construction, so the
  // kernel closure (inherited by every worker at fork) sees one
  // shared count: the first attempt dies, the retry completes.
  void* page = mmap(nullptr, 4096, PROT_READ | PROT_WRITE,
                    MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  ASSERT_NE(page, MAP_FAILED);
  auto* crashes_left = new (page) std::atomic<int>(1);

  TaskGraph graph;
  const DataId in = graph.AddData(data::Matrix(4, 4, 1.0));
  const DataId out = graph.AddData(static_cast<uint64_t>(128));
  TaskSpec spec;
  spec.type = "crashy";
  spec.params = {{in, Dir::kIn}, {out, Dir::kOut}};
  spec.kernel = [crashes_left](
                    const std::vector<const data::Matrix*>& inputs,
                    const std::vector<data::Matrix*>& outputs) -> Status {
    if (crashes_left->fetch_sub(1, std::memory_order_acq_rel) > 0) {
      _exit(17);  // die mid-task, taking the whole worker process down
    }
    *outputs[0] = *inputs[0];
    return Status::OK();
  };
  ASSERT_TRUE(graph.Submit(std::move(spec)).ok());

  RunOptions options = ProcOptions(2);
  options.max_retries = 2;
  options.retry_backoff_s = 1e-4;
  MultiProcExecutor executor(options);
  auto report = executor.Execute(graph);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  EXPECT_EQ(report->faults.dead_nodes, 1);
  EXPECT_GE(report->faults.retries, 1);
  EXPECT_EQ(report->faults.lost_blocks, 0);  // blocks live in the arena
  ASSERT_EQ(report->records.size(), 1u);
  EXPECT_EQ(report->records[0].attempt, 2);

  bool saw_node_lost = false;
  for (const TaskAttempt& attempt : report->attempts) {
    if (attempt.outcome == AttemptOutcome::kNodeLost) saw_node_lost = true;
  }
  EXPECT_TRUE(saw_node_lost);

  auto result = executor.FetchData(graph, out);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(*result == data::Matrix(4, 4, 1.0));

  check::InvariantContext context;
  context.num_threads = 2;
  context.faulted = true;
  EXPECT_TRUE(check::VerifyReport(graph, *report, context).ok());

  munmap(page, 4096);
}

// Crash-retry on INOUT accumulators must apply every task exactly
// once. Workers only *stage* outputs; the coordinator performs the
// directory stores when it consumes the completion, so a crashed
// attempt can never leak a half-applied update into its retry's
// input. A double-applied increment would show up as 4.0 instead of
// 3.0 in the final accumulator.
TEST(MultiProcExecutorTest, CrashedInOutAttemptIsAppliedExactlyOnce) {
  void* page = mmap(nullptr, 4096, PROT_READ | PROT_WRITE,
                    MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  ASSERT_NE(page, MAP_FAILED);
  auto* crashes_left = new (page) std::atomic<int>(1);

  TaskGraph graph;
  const DataId acc = graph.AddData(data::Matrix(4, 4, 0.0));
  for (int i = 0; i < 3; ++i) {
    TaskSpec spec;
    spec.type = "accumulate";
    spec.params = {{acc, Dir::kInOut}};
    const bool crashy = i == 1;
    spec.kernel = [crashes_left, crashy](
                      const std::vector<const data::Matrix*>& inputs,
                      const std::vector<data::Matrix*>& outputs) -> Status {
      (void)inputs;
      if (crashy &&
          crashes_left->fetch_sub(1, std::memory_order_acq_rel) > 0) {
        _exit(17);  // die mid-chain, taking the worker down
      }
      data::Matrix& m = *outputs[0];  // aliases the INOUT input value
      for (int64_t j = 0; j < m.size(); ++j) m.data()[j] += 1.0;
      return Status::OK();
    };
    ASSERT_TRUE(graph.Submit(std::move(spec)).ok());
  }

  RunOptions options = ProcOptions(2);
  options.max_retries = 2;
  options.retry_backoff_s = 1e-4;
  MultiProcExecutor executor(options);
  auto report = executor.Execute(graph);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  EXPECT_EQ(report->faults.dead_nodes, 1);
  EXPECT_GE(report->faults.retries, 1);
  ASSERT_EQ(report->records.size(), 3u);

  auto result = executor.FetchData(graph, acc);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(*result == data::Matrix(4, 4, 3.0))
      << "INOUT chain applied a crashed attempt's update twice";

  check::InvariantContext context;
  context.num_threads = 2;
  context.faulted = true;
  EXPECT_TRUE(check::VerifyReport(graph, *report, context).ok());

  munmap(page, 4096);
}

// The versioned block cache must stay coherent across the INOUT
// crash-retry exactly-once path. A crashed attempt stages its output
// and write-through-caches it under the staged tag, but the
// coordinator never publishes that tag into the directory, so the
// entry is unreachable by construction (and dies with the worker).
// Surviving workers hold cache entries for *earlier* versions of the
// accumulator; after the retry republishes it under a fresh tag,
// those entries must miss. A stale hit anywhere would double-apply
// or drop an increment — the accumulator is the detector.
TEST(MultiProcExecutorTest, BlockCacheStaysCoherentAcrossCrashRetry) {
  void* page = mmap(nullptr, 4096, PROT_READ | PROT_WRITE,
                    MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  ASSERT_NE(page, MAP_FAILED);
  auto* crashes_left = new (page) std::atomic<int>(1);

  // Every task reads the same shared base block (the cache's bread
  // and butter) and accumulates it into one INOUT datum; the middle
  // task crashes its worker on the first attempt.
  TaskGraph graph;
  const DataId base = graph.AddData(data::Matrix(4, 4, 1.0));
  const DataId acc = graph.AddData(data::Matrix(4, 4, 0.0));
  for (int i = 0; i < 3; ++i) {
    TaskSpec spec;
    spec.type = "accumulate";
    spec.params = {{base, Dir::kIn}, {acc, Dir::kInOut}};
    const bool crashy = i == 1;
    spec.kernel = [crashes_left, crashy](
                      const std::vector<const data::Matrix*>& inputs,
                      const std::vector<data::Matrix*>& outputs) -> Status {
      if (crashy &&
          crashes_left->fetch_sub(1, std::memory_order_acq_rel) > 0) {
        _exit(17);  // die mid-chain, taking the worker down
      }
      data::Matrix& m = *outputs[0];  // aliases the INOUT input value
      for (int64_t j = 0; j < m.size(); ++j) {
        m.data()[j] += inputs[0]->data()[j];
      }
      return Status::OK();
    };
    ASSERT_TRUE(graph.Submit(std::move(spec)).ok());
  }

  obs::MetricsRegistry metrics;
  RunOptions options = ProcOptions(2);
  options.block_cache = true;
  options.max_retries = 2;
  options.retry_backoff_s = 1e-4;
  options.metrics = &metrics;
  MultiProcExecutor executor(options);
  auto report = executor.Execute(graph);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  EXPECT_EQ(report->faults.dead_nodes, 1);
  EXPECT_GE(report->faults.retries, 1);
  ASSERT_EQ(report->records.size(), 3u);
  // The cache was actually in the loop: every first read of a block
  // on a worker is a miss.
  EXPECT_GE(metrics.counter("cache.misses")->value(), 1);

  auto result = executor.FetchData(graph, acc);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(*result == data::Matrix(4, 4, 3.0))
      << "a stale cached accumulator version leaked through crash-retry";

  check::InvariantContext context;
  context.num_threads = 2;
  context.faulted = true;
  EXPECT_TRUE(check::VerifyReport(graph, *report, context).ok());

  munmap(page, 4096);
}

// Without faults, INOUT republication is the hot invalidation path:
// the same datum is rewritten under a fresh tag on every link of the
// chain while also sitting in worker caches. One worker would serve
// the whole chain from cache if versioning were key-only — the
// version check must force a fresh read per link.
TEST(MultiProcExecutorTest, BlockCacheInOutRewriteNeverServesStale) {
  TaskGraph graph;
  const DataId acc = graph.AddData(data::Matrix(4, 4, 0.0));
  for (int i = 0; i < 6; ++i) {
    TaskSpec spec;
    spec.type = "increment";
    spec.params = {{acc, Dir::kInOut}};
    spec.kernel = [](const std::vector<const data::Matrix*>& inputs,
                     const std::vector<data::Matrix*>& outputs) -> Status {
      (void)inputs;
      data::Matrix& m = *outputs[0];
      for (int64_t j = 0; j < m.size(); ++j) m.data()[j] += 1.0;
      return Status::OK();
    };
    ASSERT_TRUE(graph.Submit(std::move(spec)).ok());
  }

  RunOptions options = ProcOptions(2);
  options.block_cache = true;
  MultiProcExecutor executor(options);
  auto report = executor.Execute(graph);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  auto result = executor.FetchData(graph, acc);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(*result == data::Matrix(4, 4, 6.0));

  check::InvariantContext context;
  context.num_threads = 2;
  EXPECT_TRUE(check::VerifyReport(graph, *report, context).ok());
}

#if defined(__linux__)
// fork() without exec from a multi-threaded process inherits other
// threads' locked mutexes into every worker; Execute must refuse
// with a clear error instead of letting workers deadlock.
TEST(MultiProcExecutorTest, MultiThreadedCallerIsRejected) {
  TaskGraph graph;
  const DataId in = graph.AddData(data::Matrix(2, 2, 0.0));
  const DataId out = graph.AddData(static_cast<uint64_t>(32));
  ASSERT_TRUE(graph.Submit(SimpleTask(in, out, AddOneKernel())).ok());

  std::atomic<bool> stop{false};
  std::thread lingering([&stop] {
    while (!stop.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  MultiProcExecutor executor(ProcOptions(2));
  auto report = executor.Execute(graph);
  stop.store(true, std::memory_order_release);
  lingering.join();

  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(report.status().message().find("single-threaded"),
            std::string::npos);
}
#endif  // __linux__

// The graphs below share one shape and differ in block size and input
// values: a = rand, b = rand, x = a + b, y = x + a, acc += x, acc += y.
// Two runs of the same size lay their records out identically, so they
// publish the same directory tags for different values.
KernelFn SumKernel() {
  return [](const std::vector<const data::Matrix*>& inputs,
            const std::vector<data::Matrix*>& outputs) -> Status {
    data::Matrix m = *inputs[0];
    for (int64_t i = 0; i < m.size(); ++i) m.data()[i] += inputs[1]->data()[i];
    *outputs[0] = std::move(m);
    return Status::OK();
  };
}

struct ShapedGraph {
  TaskGraph graph;
  std::vector<DataId> data;
};

ShapedGraph BuildShapedGraph(int64_t n, uint64_t seed) {
  ShapedGraph out;
  TaskGraph& g = out.graph;
  Rng rng(seed);
  data::Matrix a_value(n, n);
  data::Matrix b_value(n, n);
  data::FillUniform(&a_value, &rng);
  data::FillUniform(&b_value, &rng);
  const uint64_t bytes = static_cast<uint64_t>(n * n * 8);
  const DataId a = g.AddData(std::move(a_value));
  const DataId b = g.AddData(std::move(b_value));
  const DataId x = g.AddData(bytes);
  const DataId y = g.AddData(bytes);
  const DataId acc = g.AddData(data::Matrix(n, n, 0.0));
  auto submit = [&g](std::vector<Param> params) {
    TaskSpec spec;
    spec.type = "sum";
    spec.params = std::move(params);
    spec.kernel = SumKernel();
    EXPECT_TRUE(g.Submit(std::move(spec)).ok());
  };
  submit({{a, Dir::kIn}, {b, Dir::kIn}, {x, Dir::kOut}});
  submit({{x, Dir::kIn}, {a, Dir::kIn}, {y, Dir::kOut}});
  submit({{x, Dir::kIn}, {acc, Dir::kInOut}});
  submit({{y, Dir::kIn}, {acc, Dir::kInOut}});
  out.data = {a, b, x, y, acc};
  return out;
}

std::vector<data::Matrix> FetchAll(const Executor& executor,
                                   const ShapedGraph& built) {
  std::vector<data::Matrix> values;
  for (const DataId d : built.data) {
    auto value = executor.Fetch(built.graph, d);
    EXPECT_TRUE(value.ok()) << value.status().ToString();
    values.push_back(value.ok() ? std::move(value).value() : data::Matrix());
  }
  return values;
}

/// Values of the shaped graph run alone on a fresh executor (which is
/// gone, arena and all, when this returns).
std::vector<data::Matrix> FreshRunValues(const RunOptions& options, int64_t n,
                                         uint64_t seed) {
  ShapedGraph built = BuildShapedGraph(n, seed);
  MultiProcExecutor fresh(options);
  auto report = fresh.Execute(built.graph);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  return FetchAll(fresh, built);
}

#if defined(__linux__)
/// [start, end) of the one block arena this process maps (shm objects
/// are named "/tb-arena-*" and unlinked at creation); {0, 0} unless
/// exactly one is mapped.
std::pair<uintptr_t, uintptr_t> ArenaMapping() {
  std::ifstream maps("/proc/self/maps");
  std::pair<uintptr_t, uintptr_t> found{0, 0};
  int count = 0;
  for (std::string line; std::getline(maps, line);) {
    if (line.find("/tb-arena-") == std::string::npos) continue;
    unsigned long long start = 0;
    unsigned long long end = 0;
    if (std::sscanf(line.c_str(), "%llx-%llx", &start, &end) != 2) continue;
    found = {static_cast<uintptr_t>(start), static_cast<uintptr_t>(end)};
    ++count;
  }
  return count == 1 ? found : std::pair<uintptr_t, uintptr_t>{0, 0};
}
#endif  // __linux__

// One executor runs small, larger (the arena is re-created), then
// small again (the arena is reused) graphs of one shape with
// different inputs. The first and third runs publish the same tags for
// different values, so any state that outlived a run — a cached block,
// a directory slot, a cursor — would serve the wrong values here.
TEST(MultiProcExecutorTest, RetainedArenaServesEachRunBitExact) {
  struct Step {
    int64_t n;
    uint64_t seed;
  };
  // 16^2 blocks fit the 1 MiB arena floor; 160^2 blocks need ~2.9 MB,
  // and 1 MiB is still over a quarter of that.
  const Step steps[] = {{16, 1}, {160, 2}, {16, 3}};
  for (const bool cache : {false, true}) {
    RunOptions options = ProcOptions(2);
    options.block_cache = cache;
    MultiProcExecutor executor(options);
    std::vector<std::vector<data::Matrix>> runs;
#if defined(__linux__)
    EXPECT_EQ(ArenaMapping().second, 0u) << "the arena is mapped lazily";
    std::vector<std::pair<uintptr_t, uintptr_t>> mappings;
#endif
    for (const Step& step : steps) {
      ShapedGraph built = BuildShapedGraph(step.n, step.seed);
      auto report = executor.Execute(built.graph);
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      runs.push_back(FetchAll(executor, built));
#if defined(__linux__)
      mappings.push_back(ArenaMapping());
      ASSERT_NE(mappings.back().second, 0u);
#endif
      const std::vector<data::Matrix> want =
          FreshRunValues(options, step.n, step.seed);
      ASSERT_EQ(runs.back().size(), want.size());
      for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_TRUE(runs.back()[i] == want[i])
            << "datum " << built.data[i] << " of the n=" << step.n
            << " run diverged from a fresh executor (cache " << cache << ")";
      }
    }
    // Same tags, different values: the check above could tell them apart.
    EXPECT_FALSE(runs[0].back() == runs[2].back());
#if defined(__linux__)
    const auto size = [](const std::pair<uintptr_t, uintptr_t>& m) {
      return m.second - m.first;
    };
    EXPECT_GT(size(mappings[1]), size(mappings[0])) << "not re-created";
    EXPECT_EQ(mappings[2], mappings[1]) << "not reused";
#endif
  }
}

// A failed or cancelled run rewinds the arena over the previous run's
// records, so Fetch must refuse rather than serve them.
TEST(MultiProcExecutorTest, FetchAfterFailedOrCancelledRunServesNothing) {
  auto build = [](bool fail) {
    TaskGraph graph;
    const DataId in = graph.AddData(data::Matrix(2, 2, 0.0));
    const DataId out = graph.AddData(static_cast<uint64_t>(32));
    KernelFn kernel = AddOneKernel();
    if (fail) {
      kernel = [](const std::vector<const data::Matrix*>&,
                  const std::vector<data::Matrix*>&) -> Status {
        return Status::Internal("injected kernel error");
      };
    }
    EXPECT_TRUE(graph.Submit(SimpleTask(in, out, std::move(kernel))).ok());
    return std::make_pair(std::move(graph), out);
  };
  auto [good, out] = build(false);
  auto [bad, bad_out] = build(true);

  MultiProcExecutor executor(ProcOptions(2));  // max_retries = 0
  auto unrun = executor.FetchData(good, out);
  ASSERT_FALSE(unrun.ok());
  EXPECT_EQ(unrun.status().code(), StatusCode::kFailedPrecondition);

  ASSERT_TRUE(executor.Execute(good).ok());
  auto first = executor.FetchData(good, out);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_TRUE(*first == data::Matrix(2, 2, 1.0));

  auto failed = executor.Execute(bad);
  ASSERT_FALSE(failed.ok());
  EXPECT_NE(failed.status().ToString().find("injected kernel error"),
            std::string::npos);
  for (const TaskGraph* graph : {&good, &bad}) {
    auto value = executor.FetchData(*graph, bad_out);
    ASSERT_FALSE(value.ok());
    EXPECT_EQ(value.status().code(), StatusCode::kFailedPrecondition);
  }

  ASSERT_TRUE(executor.Execute(good).ok());
  ASSERT_TRUE(executor.FetchData(good, out).ok());
  CancellationToken token;
  token.Cancel();
  RunContext ctx;
  ctx.cancel = &token;
  auto cancelled = executor.Execute(good, ctx);
  ASSERT_FALSE(cancelled.ok());
  EXPECT_EQ(cancelled.status().code(), StatusCode::kCancelled);
  auto value = executor.FetchData(good, out);
  ASSERT_FALSE(value.ok());
  EXPECT_EQ(value.status().code(), StatusCode::kFailedPrecondition);
}

// Execute never writes the graph entries, so running one TaskGraph
// twice starts from its initial values both times — as the
// storage-mode thread pool does.
TEST(MultiProcExecutorTest, RerunningOneGraphStartsFromInitialValues) {
  TaskGraph graph;
  const DataId acc = graph.AddData(data::Matrix(4, 4, 0.0));
  for (int i = 0; i < 3; ++i) {
    TaskSpec spec;
    spec.type = "increment";
    spec.params = {{acc, Dir::kInOut}};
    spec.kernel = [](const std::vector<const data::Matrix*>&,
                     const std::vector<data::Matrix*>& outputs) -> Status {
      data::Matrix& m = *outputs[0];
      for (int64_t j = 0; j < m.size(); ++j) m.data()[j] += 1.0;
      return Status::OK();
    };
    ASSERT_TRUE(graph.Submit(std::move(spec)).ok());
  }
  RunOptions pool_options;
  pool_options.num_threads = 2;
  pool_options.use_storage = true;
  MultiProcExecutor procs(ProcOptions(2));
  ThreadPoolExecutor pool(pool_options);
  for (Executor* executor : std::vector<Executor*>{&procs, &pool}) {
    for (int run = 0; run < 2; ++run) {
      ASSERT_TRUE(executor->Run(graph).ok());
      auto value = executor->Fetch(graph, acc);
      ASSERT_TRUE(value.ok()) << value.status().ToString();
      EXPECT_TRUE(*value == data::Matrix(4, 4, 3.0))
          << executor->name() << " run " << run;
      EXPECT_TRUE(*graph.data(acc).value == data::Matrix(4, 4, 0.0))
          << executor->name() << " wrote the graph entry";
    }
  }
}

#if defined(__linux__)
// Fetch deserializes straight out of the retained arena; a record
// corrupted after the run must fail its CRC there, not be served.
TEST(MultiProcExecutorTest, CorruptRecordIsRejectedAtFetch) {
  TaskGraph graph;
  const DataId in = graph.AddData(data::Matrix(4, 4, 1.0));
  const DataId out = graph.AddData(static_cast<uint64_t>(128));
  ASSERT_TRUE(graph.Submit(SimpleTask(in, out, AddOneKernel())).ok());
  MultiProcExecutor executor(ProcOptions(2));
  ASSERT_TRUE(executor.Execute(graph).ok());
  ASSERT_TRUE(executor.FetchData(graph, in).ok());

  const uintptr_t base = ArenaMapping().first;
  ASSERT_NE(base, 0u);
  // `in` is staged first: its record sits right after the 64-byte
  // arena header, as [u64 size | 28-byte wire header | payload].
  auto* payload = reinterpret_cast<uint8_t*>(base + 64 + 8 + 28);
  payload[5] ^= 0x40;
  auto corrupt = executor.FetchData(graph, in);
  ASSERT_FALSE(corrupt.ok());
  EXPECT_NE(corrupt.status().message().find("checksum mismatch"),
            std::string::npos)
      << corrupt.status().ToString();
  auto intact = executor.FetchData(graph, out);
  ASSERT_TRUE(intact.ok()) << intact.status().ToString();
  EXPECT_TRUE(*intact == data::Matrix(4, 4, 2.0));
}
#endif  // __linux__

TEST(MultiProcExecutorTest, CrashWithoutRetryBudgetFailsTheRun) {
  void* page = mmap(nullptr, 4096, PROT_READ | PROT_WRITE,
                    MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  ASSERT_NE(page, MAP_FAILED);
  auto* unused = new (page) std::atomic<int>(0);
  (void)unused;

  TaskGraph graph;
  const DataId in = graph.AddData(data::Matrix(4, 4, 1.0));
  const DataId out = graph.AddData(static_cast<uint64_t>(128));
  TaskSpec spec;
  spec.type = "always_crashy";
  spec.params = {{in, Dir::kIn}, {out, Dir::kOut}};
  spec.kernel = [](const std::vector<const data::Matrix*>&,
                   const std::vector<data::Matrix*>&) -> Status {
    _exit(17);
  };
  ASSERT_TRUE(graph.Submit(std::move(spec)).ok());

  MultiProcExecutor executor(ProcOptions(2));  // max_retries = 0
  auto report = executor.Execute(graph);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.status().ToString().find("lost with worker"),
            std::string::npos);
  munmap(page, 4096);
}

#endif  // !_WIN32

}  // namespace
}  // namespace taskbench::runtime
