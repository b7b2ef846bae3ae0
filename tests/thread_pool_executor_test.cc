#include "runtime/thread_pool_executor.h"

#include <atomic>
#include <chrono>
#include <string>

#include <gtest/gtest.h>

#include "data/generators.h"

namespace taskbench::runtime {
namespace {

KernelFn CopyKernel() {
  return [](const std::vector<const data::Matrix*>& inputs,
            const std::vector<data::Matrix*>& outputs) -> Status {
    *outputs[0] = *inputs[0];
    return Status::OK();
  };
}

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

class ThreadPoolExecutorModes : public ::testing::TestWithParam<bool> {
 protected:
  ThreadPoolExecutor MakeExecutor(int threads = 4) {
    RunOptions options;
    options.num_threads = threads;
    options.use_storage = GetParam();
    return ThreadPoolExecutor(options);
  }
};

TEST_P(ThreadPoolExecutorModes, RunsSingleTask) {
  TaskGraph graph;
  const DataId in = graph.AddData(data::Matrix(3, 3, 2.0));
  const DataId out = graph.AddData(static_cast<uint64_t>(72));
  ASSERT_TRUE(graph.Submit(SimpleTask(in, out, AddOneKernel())).ok());

  ThreadPoolExecutor executor = MakeExecutor();
  auto report = executor.Execute(graph);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->records.size(), 1u);
  EXPECT_GT(report->makespan, 0.0);

  auto result = executor.FetchData(graph, out);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->ApproxEquals(data::Matrix(3, 3, 3.0)));
}

TEST_P(ThreadPoolExecutorModes, HonorsDependencyChain) {
  TaskGraph graph;
  const DataId d0 = graph.AddData(data::Matrix(2, 2, 0.0));
  const DataId d1 = graph.AddData(static_cast<uint64_t>(32));
  const DataId d2 = graph.AddData(static_cast<uint64_t>(32));
  const DataId d3 = graph.AddData(static_cast<uint64_t>(32));
  ASSERT_TRUE(graph.Submit(SimpleTask(d0, d1, AddOneKernel())).ok());
  ASSERT_TRUE(graph.Submit(SimpleTask(d1, d2, AddOneKernel())).ok());
  ASSERT_TRUE(graph.Submit(SimpleTask(d2, d3, AddOneKernel())).ok());

  ThreadPoolExecutor executor = MakeExecutor();
  auto report = executor.Execute(graph);
  ASSERT_TRUE(report.ok());
  auto result = executor.FetchData(graph, d3);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->ApproxEquals(data::Matrix(2, 2, 3.0)));

  // Level ordering respected in wall-clock: each task starts after
  // its dependency ended.
  const auto& records = report->records;
  EXPECT_GE(records[1].start, records[0].end - 1e-9);
  EXPECT_GE(records[2].start, records[1].end - 1e-9);
}

TEST_P(ThreadPoolExecutorModes, RunsWideGraphsConcurrently) {
  TaskGraph graph;
  const DataId in = graph.AddData(data::Matrix(8, 8, 1.0));
  std::vector<DataId> outs;
  for (int i = 0; i < 32; ++i) {
    const DataId out = graph.AddData(static_cast<uint64_t>(512));
    ASSERT_TRUE(graph.Submit(SimpleTask(in, out, CopyKernel())).ok());
    outs.push_back(out);
  }
  ThreadPoolExecutor executor = MakeExecutor(8);
  auto report = executor.Execute(graph);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->records.size(), 32u);
  for (const DataId out : outs) {
    auto result = executor.FetchData(graph, out);
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(result->ApproxEquals(data::Matrix(8, 8, 1.0)));
  }
}

TEST_P(ThreadPoolExecutorModes, InOutUpdatesInPlace) {
  TaskGraph graph;
  const DataId acc = graph.AddData(data::Matrix(2, 2, 10.0));
  TaskSpec spec;
  spec.type = "bump";
  spec.params = {{acc, Dir::kInOut}};
  spec.kernel = [](const std::vector<const data::Matrix*>& inputs,
                   const std::vector<data::Matrix*>& outputs) -> Status {
    EXPECT_EQ(inputs.size(), 1u);
    EXPECT_EQ(inputs[0], outputs[0]);  // aliased view
    for (int64_t i = 0; i < outputs[0]->size(); ++i) {
      outputs[0]->data()[i] *= 2.0;
    }
    return Status::OK();
  };
  ASSERT_TRUE(graph.Submit(spec).ok());
  ASSERT_TRUE(graph.Submit(spec).ok());  // WAW chained second update

  ThreadPoolExecutor executor = MakeExecutor();
  auto report = executor.Execute(graph);
  ASSERT_TRUE(report.ok());
  auto result = executor.FetchData(graph, acc);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->ApproxEquals(data::Matrix(2, 2, 40.0)));
}

TEST_P(ThreadPoolExecutorModes, KernelFailureAbortsRun) {
  TaskGraph graph;
  const DataId in = graph.AddData(data::Matrix(2, 2, 1.0));
  const DataId out = graph.AddData(static_cast<uint64_t>(32));
  TaskSpec spec = SimpleTask(in, out, nullptr);
  spec.kernel = [](const std::vector<const data::Matrix*>&,
                   const std::vector<data::Matrix*>&) -> Status {
    return Status::Internal("kernel exploded");
  };
  ASSERT_TRUE(graph.Submit(spec).ok());

  ThreadPoolExecutor executor = MakeExecutor();
  auto report = executor.Execute(graph);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInternal);
}

TEST_P(ThreadPoolExecutorModes, MissingKernelIsFailedPrecondition) {
  TaskGraph graph;
  const DataId in = graph.AddData(data::Matrix(2, 2, 1.0));
  const DataId out = graph.AddData(static_cast<uint64_t>(32));
  TaskSpec spec;
  spec.type = "no-kernel";
  spec.params = {{in, Dir::kIn}, {out, Dir::kOut}};
  ASSERT_TRUE(graph.Submit(spec).ok());

  ThreadPoolExecutor executor = MakeExecutor();
  auto report = executor.Execute(graph);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kFailedPrecondition);
}

// Mirrors MultiProcExecutorTest.SimulationOnlyGraphIsRejected: a graph
// without kernels is refused before anything is staged, not found
// inside the first attempt and then retried through the backoff
// (3 retries at 1 s base would sleep 7 s).
TEST(ThreadPoolExecutorTest, SimulationOnlyGraphIsRejected) {
  TaskGraph graph;
  const DataId a = graph.AddData(static_cast<uint64_t>(64));
  const DataId b = graph.AddData(static_cast<uint64_t>(64));
  TaskSpec spec;
  spec.type = "no_kernel";
  spec.params = {{a, Dir::kIn}, {b, Dir::kOut}};
  ASSERT_TRUE(graph.Submit(std::move(spec)).ok());
  RunOptions options;
  options.num_threads = 2;
  options.max_retries = 3;
  options.retry_backoff_s = 1;
  ThreadPoolExecutor executor(options);
  const auto start = std::chrono::steady_clock::now();
  auto report = executor.Execute(graph);
  const double elapsed_s = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(report.status().message().find("has no kernel"),
            std::string::npos)
      << report.status().ToString();
  EXPECT_LT(elapsed_s, 0.5);
}

TEST_P(ThreadPoolExecutorModes, RecordsStageTimes) {
  TaskGraph graph;
  const DataId in = graph.AddData(data::Matrix(64, 64, 1.0));
  const DataId out = graph.AddData(static_cast<uint64_t>(64 * 64 * 8));
  ASSERT_TRUE(graph.Submit(SimpleTask(in, out, CopyKernel())).ok());
  ThreadPoolExecutor executor = MakeExecutor(1);
  auto report = executor.Execute(graph);
  ASSERT_TRUE(report.ok());
  const auto& rec = report->records[0];
  EXPECT_GE(rec.stages.parallel_fraction, 0.0);
  if (GetParam()) {
    // Storage mode measures real (de)serialization.
    EXPECT_GT(rec.stages.deserialize, 0.0);
    EXPECT_GT(rec.stages.serialize, 0.0);
  }
  EXPECT_GE(rec.end, rec.start);
}

TEST_P(ThreadPoolExecutorModes, EmptyGraphSucceeds) {
  TaskGraph graph;
  ThreadPoolExecutor executor = MakeExecutor();
  auto report = executor.Execute(graph);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->records.empty());
  EXPECT_EQ(report->makespan, 0.0);
}

INSTANTIATE_TEST_SUITE_P(StorageModes, ThreadPoolExecutorModes,
                         ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "WithStorage" : "InMemory";
                         });

// The k-means shape: partial = f(block, centroids), then a merge
// updates centroids in place. A duplicate of the partial task still
// reading centroids after the merge wrote them would store a wrong
// partial, so it must not be hedgeable; a reader of a datum whose one
// writer ran before it may be.
TEST(ThreadPoolExecutorTest, HedgingSkipsReadersOfLaterRewrittenData) {
  TaskGraph graph;
  const DataId block = graph.AddData(data::Matrix(2, 2, 1.0));
  const DataId centroids = graph.AddData(data::Matrix(2, 2, 0.0));
  const DataId partial = graph.AddData(static_cast<uint64_t>(32));
  const DataId copy = graph.AddData(static_cast<uint64_t>(32));
  TaskSpec partial_sum;
  partial_sum.type = "partial";
  partial_sum.params = {
      {block, Dir::kIn}, {centroids, Dir::kIn}, {partial, Dir::kOut}};
  partial_sum.kernel = AddOneKernel();
  auto t_partial = graph.Submit(partial_sum);
  TaskSpec merge;
  merge.type = "merge";
  merge.params = {{partial, Dir::kIn}, {centroids, Dir::kInOut}};
  merge.kernel = AddOneKernel();
  auto t_merge = graph.Submit(merge);
  auto t_copy = graph.Submit(SimpleTask(partial, copy, AddOneKernel()));
  ASSERT_TRUE(t_partial.ok() && t_merge.ok() && t_copy.ok());

  const std::vector<char> hedgeable = internal::HedgeableTasks(graph);
  ASSERT_EQ(hedgeable.size(), 3u);
  EXPECT_EQ(hedgeable[static_cast<size_t>(*t_partial)], 0)
      << "reads centroids, which the merge rewrites later";
  EXPECT_EQ(hedgeable[static_cast<size_t>(*t_merge)], 0) << "INOUT";
  EXPECT_EQ(hedgeable[static_cast<size_t>(*t_copy)], 1)
      << "reads a datum whose only writer ran before it";
}

TEST(ThreadPoolExecutorTest, ManyThreadsManyTasksStress) {
  TaskGraph graph;
  const DataId in = graph.AddData(data::Matrix(4, 4, 1.0));
  DataId current = in;
  // Alternating fan-out/fan-in waves.
  for (int wave = 0; wave < 5; ++wave) {
    std::vector<DataId> outs;
    for (int i = 0; i < 16; ++i) {
      const DataId out = graph.AddData(static_cast<uint64_t>(128));
      ASSERT_TRUE(graph.Submit(SimpleTask(current, out, AddOneKernel())).ok());
      outs.push_back(out);
    }
    // Fan-in: sum all outputs into one.
    const DataId joined = graph.AddData(static_cast<uint64_t>(128));
    TaskSpec join;
    join.type = "join";
    for (DataId out : outs) join.params.push_back({out, Dir::kIn});
    join.params.push_back({joined, Dir::kOut});
    join.kernel = [](const std::vector<const data::Matrix*>& inputs,
                     const std::vector<data::Matrix*>& outputs) -> Status {
      data::Matrix acc = *inputs[0];
      for (size_t i = 1; i < inputs.size(); ++i) {
        TB_ASSIGN_OR_RETURN(acc, data::Add(acc, *inputs[i]));
      }
      *outputs[0] = std::move(acc);
      return Status::OK();
    };
    ASSERT_TRUE(graph.Submit(join).ok());
    current = joined;
  }
  RunOptions options;
  options.num_threads = 8;
  options.use_storage = true;
  ThreadPoolExecutor executor(options);
  auto report = executor.Execute(graph);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->records.size(), 5u * 17u);
  auto result = executor.FetchData(graph, current);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows(), 4);
}

}  // namespace
}  // namespace taskbench::runtime
