#ifndef TASKBENCH_RUNTIME_THREAD_POOL_EXECUTOR_H_
#define TASKBENCH_RUNTIME_THREAD_POOL_EXECUTOR_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "data/matrix.h"
#include "runtime/executor.h"
#include "runtime/metrics.h"
#include "runtime/run_options.h"
#include "runtime/task_graph.h"
#include "storage/block_cache.h"
#include "storage/block_storage.h"

namespace taskbench::runtime {

/// Executes a TaskGraph for real on host threads.
///
/// This is the genuine task-runtime path: kernels compute actual
/// matrices, dependencies are honored, and per-task stage times are
/// measured with a monotonic clock. Used by the examples and by the
/// correctness tests (distributed results must equal the dense
/// single-node computation); the simulated executor reuses the same
/// graphs to model cluster-scale behaviour.
///
/// Fault tolerance: a failed task attempt (kernel error, storage
/// Get/Put failure — e.g. from a fault-injecting BlockStorage) is
/// retried up to `options.max_retries` times with exponential
/// wall-clock backoff before the run fails. The default budget of 0
/// preserves the historic fail-fast behaviour.
///
/// Concurrent Execute calls on one instance are safe: all run state
/// is call-local except the block store, whose keys are namespaced by
/// RunContext::scope — the property the resident WorkflowService
/// depends on to run many submissions through one executor at once.
/// Cancellation (RunContext::cancel) is polled between task claims,
/// between retry attempts and inside backoff waits; a cancelled run
/// fails with StatusCode::kCancelled without starting further tasks.
class ThreadPoolExecutor final : public Executor {
 public:
  /// `store` may be null when options.use_storage is false; a
  /// private InMemoryStorage is created otherwise.
  ThreadPoolExecutor(RunOptions options,
                     std::shared_ptr<storage::BlockStorage> store = nullptr);

  /// Runs the graph. Initial data values are taken from the graph;
  /// results are fetched with FetchData afterwards. Fails once a
  /// task's retry budget is exhausted (remaining tasks are not
  /// started).
  Result<RunReport> Execute(TaskGraph& graph, const RunContext& ctx);
  Result<RunReport> Execute(TaskGraph& graph) {
    return Execute(graph, RunContext{});
  }

  /// Reads a datum's current value after Execute (deserializing from
  /// storage when enabled). Scoped runs (RunContext::scope != 0)
  /// delete their storage keys when they finish — a resident service
  /// must not grow the store without bound — so post-run values of a
  /// scoped storage-mode run are read from the graph entries
  /// (memory mode writes them back) rather than fetched here.
  Result<data::Matrix> FetchData(const TaskGraph& graph, DataId id) const;

  // Executor interface.
  using Executor::Run;
  std::string name() const override { return "thread-pool"; }
  const RunOptions& options() const override { return options_; }
  Result<RunReport> Run(TaskGraph& graph, const RunContext& ctx) override {
    return Execute(graph, ctx);
  }
  bool materializes() const override { return true; }
  Result<data::Matrix> Fetch(const TaskGraph& graph,
                             DataId id) const override {
    return FetchData(graph, id);
  }

 private:
  RunOptions options_;
  std::shared_ptr<storage::BlockStorage> store_;
  /// Whether store_ is executor-private (constructed by us). The
  /// FetchData read cache below is only safe then: an externally
  /// shared store can be rewritten by another executor behind our
  /// back, and Fetch has no version source to detect it.
  bool private_store_ = false;
  /// Post-run Fetch cache (block_cache mode, storage only): repeated
  /// FetchData calls on the same result blocks — the bench baseline
  /// comparison pattern — deserialize once instead of per call.
  /// Cleared at the start of every Execute; guarded by fetch_mu_
  /// because Fetch is const and may race a concurrent Execute.
  mutable std::mutex fetch_mu_;
  mutable std::unique_ptr<storage::BlockCache> fetch_cache_;
};

namespace internal {

/// Per task, whether a speculative duplicate may re-run it: replaying
/// it must be idempotent and unable to see a different input. So the
/// task has no INOUT param, every datum it touches has at most one
/// writer, and no datum it reads is written by a later task (that
/// write could land while a duplicate is still reading).
std::vector<char> HedgeableTasks(const TaskGraph& graph);

}  // namespace internal

}  // namespace taskbench::runtime

#endif  // TASKBENCH_RUNTIME_THREAD_POOL_EXECUTOR_H_
