#ifndef TASKBENCH_RUNTIME_TASK_ATTEMPT_H_
#define TASKBENCH_RUNTIME_TASK_ATTEMPT_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "data/matrix.h"
#include "perf/cost_model.h"
#include "runtime/metrics.h"
#include "runtime/run_options.h"
#include "runtime/task_graph.h"
#include "storage/block_cache.h"

namespace taskbench::obs {
class Histogram;
}  // namespace taskbench::obs

namespace taskbench::runtime {

/// The transport half of a task attempt (the §4.2 stage split:
/// gather → kernel → publish, see RunTaskAttempt): how one executor
/// reads and writes the blocks a task's params name. `param` indexes
/// `task.spec.params`; time spent (de)serializing is added to the
/// given accumulator.
class BlockIo {
 public:
  virtual ~BlockIo() = default;

  /// Read-only value of IN param `param`, shared with the data plane
  /// (or the worker's block cache) where the transport can.
  virtual Result<std::shared_ptr<const data::Matrix>> ReadShared(
      const Task& task, size_t param, double* deserialize_s) = 0;

  /// Private copy of INOUT param `param` that the kernel may mutate.
  virtual Result<data::Matrix> ReadOwned(const Task& task, size_t param,
                                         double* deserialize_s) = 0;

  /// Writes `value` as the new version of OUT/INOUT param `param`.
  virtual Status Write(const Task& task, size_t param, data::Matrix value,
                       double* serialize_s) = 0;
};

/// BlockIo over serialized blocks through an optional per-worker
/// version-keyed BlockCache, the policy both real storage planes
/// share: a shared read hits (a refcount bump) or deserializes and
/// inserts; an owned read copies a hit, and on a miss deserializes
/// without inserting (its reader is about to overwrite the datum); a
/// write stores, then moves the value into the cache at the published
/// version. Transports supply versions and the bytes.
class SerializedBlockIo : public BlockIo {
 public:
  /// `cache` may be null (uncached reads).
  explicit SerializedBlockIo(storage::BlockCache* cache) : cache_(cache) {}

  Result<std::shared_ptr<const data::Matrix>> ReadShared(
      const Task& task, size_t param, double* deserialize_s) final;
  Result<data::Matrix> ReadOwned(const Task& task, size_t param,
                                 double* deserialize_s) final;
  Status Write(const Task& task, size_t param, data::Matrix value,
               double* serialize_s) final;

 protected:
  /// Version of the block param `param` reads (an INOUT's pre-write
  /// version): the cache key of the read.
  virtual Result<uint64_t> ReadVersion(const Task& task, size_t param) = 0;
  /// Deserializes `version` of datum `d`.
  virtual Result<data::Matrix> Load(DataId d, uint64_t version) = 0;
  /// Serializes `value` as param `param`'s output; returns the version
  /// it is published under.
  virtual Result<uint64_t> Store(const Task& task, size_t param,
                                 const data::Matrix& value) = 0;
  /// Checks a cache hit against the transport's own version
  /// bookkeeping (invariant checking).
  virtual Status VerifyHit(DataId, uint64_t) { return Status::OK(); }

 private:
  Result<data::Matrix> TimedLoad(DataId d, uint64_t version,
                                 double* deserialize_s);

  storage::BlockCache* cache_;
};

/// Runs one attempt of `task`: gathers its IN values (shared) and
/// INOUT values (owned) through `io`, runs the kernel on views of them
/// (IN values first, then INOUT values aliasing their output slots),
/// and writes every OUT and INOUT value back through `io` in param
/// order. Adds the stage times to `*stages`: deserialize, kernel time
/// as parallel_fraction, serialize. The kernel must be set
/// (CheckKernels).
Status RunTaskAttempt(const Task& task, BlockIo& io,
                      perf::StageTimes* stages);

/// FailedPrecondition naming the first task without a kernel: graphs
/// built for simulation only cannot run on `executor` ("thread-pool",
/// "multi-process"). Checked before anything is staged or retried.
Status CheckKernels(const TaskGraph& graph, const char* executor);

/// Wait before retrying a task whose attempt `failed_attempt` (1-based)
/// failed: retry_backoff_s * 2^(failed_attempt - 1), exponent capped at
/// 30. Simulated seconds on the simulator, wall-clock seconds on the
/// real executors.
double RetryBackoffSeconds(const RunOptions& options, int failed_attempt);

/// Per-worker block cache budget: RunOptions::block_cache_bytes, or
/// storage::kDefaultBlockCacheBytes when that is 0.
uint64_t BlockCacheBytes(const RunOptions& options);

/// The per-task-type stage histograms
/// `task.<type>.{deserialize,compute,serialize,duration}_s`, resolved
/// once per type so recording a task is four pointer bumps. `compute`
/// is the user-code time (serial + parallel + CPU-GPU communication).
class TaskStageHistograms {
 public:
  TaskStageHistograms(const TaskGraph& graph, obs::MetricsRegistry& registry);

  void Record(const TaskRecord& rec);

 private:
  struct TypeHists {
    obs::Histogram* deserialize = nullptr;
    obs::Histogram* compute = nullptr;
    obs::Histogram* serialize = nullptr;
    obs::Histogram* duration = nullptr;
  };
  std::vector<TypeHists> types_;
  std::vector<uint32_t> type_of_task_;
};

/// The epilogue of a successful real run, returning its makespan (the
/// last record's end). With `check`, verifies conservation: workers
/// run tasks one at a time on one clock, so total busy time cannot
/// exceed workers × makespan. With a registry, records the stage
/// histograms of `records` and, when `caches` (one entry per worker)
/// is non-empty, the `cache.*` counters summed over the workers.
Result<double> FinishRealRun(
    const TaskGraph& graph, const std::vector<TaskRecord>& records,
    int workers, bool check, obs::MetricsRegistry* registry,
    const std::vector<storage::BlockCache::Stats>& caches);

/// The value on the graph entry of `id`: the post-run read of the
/// memory-mode thread pool, which writes final values back onto the
/// graph. Refuses unknown ids (InvalidArgument) and valueless data
/// (NotFound).
Result<data::Matrix> FetchGraphValue(const TaskGraph& graph, DataId id);

}  // namespace taskbench::runtime

#endif  // TASKBENCH_RUNTIME_TASK_ATTEMPT_H_
