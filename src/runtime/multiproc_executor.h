#ifndef TASKBENCH_RUNTIME_MULTIPROC_EXECUTOR_H_
#define TASKBENCH_RUNTIME_MULTIPROC_EXECUTOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "data/matrix.h"
#include "runtime/executor.h"
#include "runtime/metrics.h"
#include "runtime/run_options.h"
#include "runtime/task_graph.h"
#include "storage/shm_arena.h"

namespace taskbench::runtime {

/// Scale-out execution plane: runs a TaskGraph on forked worker
/// *processes* that exchange blocks through a POSIX shared-memory
/// arena — the single-box stand-in for the paper's distributed
/// cluster, with NUMA domains playing the role of nodes.
///
/// Architecture (docs/SCALE_OUT.md has the full picture):
///  - The coordinator (the calling process) builds the graph, maps a
///    shared-memory block arena plus a control segment (both kept
///    across runs, see Execute), and forks `options.num_procs`
///    single-threaded workers for each run. Forking *after*
///    graph construction means kernels (std::function, inherently
///    unserializable) ride into the workers via copy-on-write for
///    free — no code shipping, no kernel registry.
///  - Dispatch is per-worker lock-free SPSC rings in the control
///    segment: a task ring in, a completion ring out. The coordinator
///    never touches block bytes; workers serialize results straight
///    into the arena (`Serializer` wire format, same as the storage
///    path) and *stage* them — the coordinator performs the shared-
///    directory stores when it consumes the completion, so a block
///    still moves between workers without being copied through the
///    coordinator, but publication is atomic with completion: a
///    worker dying after staging leaves the directory untouched and a
///    retried attempt re-reads pre-attempt values (INOUT tasks are
///    never double-applied).
///  - Placement is topology-aware: workers are striped over the NUMA
///    domains (and optionally pinned), and a ready task prefers a
///    worker in the domain that produced most of its input bytes —
///    the same locality policy the simulated scheduler applies across
///    cluster nodes.
///  - Fault tolerance reuses the retry semantics of the thread-pool
///    path: a worker death (detected via waitpid) turns its in-flight
///    tasks into kNodeLost attempts that are re-dispatched to
///    surviving workers under `options.max_retries`; published blocks
///    live in the arena, not in the dead worker, so nothing is
///    recomputed.
///
/// POSIX-only (fork + shm_open); `Supported()` is false on platforms
/// without them and Execute fails with Unimplemented there.
///
/// Execute must be called from a single-threaded process: workers are
/// forked without exec, so a lock held by any other caller thread at
/// fork time (allocator, logging, metrics mutexes) stays locked
/// forever inside every worker, deadlocking its first allocation.
/// Execute detects extra threads (via /proc/self/task, Linux) and
/// fails with FailedPrecondition instead of hanging; join worker
/// threads (the thread-pool executor joins inside its own Execute)
/// before running this one. A thread joined just before the call may
/// linger in /proc for a moment, so the count gets up to 100 ms to
/// settle at one.
class MultiProcExecutor final : public Executor {
 public:
  explicit MultiProcExecutor(RunOptions options);

  /// True when this platform can run the multi-process plane.
  static bool Supported();

  /// Runs the graph across worker processes. Initial data values are
  /// taken from the graph and the graph entries are never written, so
  /// re-running the same graph starts from its initial values again.
  ///
  /// The executor retains its shm arena and control segment between
  /// runs. Both are mapped at the first Execute, not at construction.
  /// A later run rewinds the arena (only after every worker of the
  /// previous run was reaped) and maps a new one only when the graph's
  /// estimated need does not fit or is under a quarter of the retained
  /// capacity, so retained shared memory stays bounded by the recent
  /// runs' needs. The memory is released when the executor is
  /// destroyed. On success Execute also retains the final directory
  /// tags, which FetchData reads.
  ///
  /// Cancellation (RunContext::cancel) is polled on every coordinator
  /// scheduling pass; telemetry goes to RunContext::metrics, or to
  /// options().metrics when that is null. RunContext::scope is
  /// ignored: one executor runs one graph at a time over its one
  /// arena, which the single-threaded-caller rule below enforces for
  /// callers anyway.
  Result<RunReport> Execute(TaskGraph& graph, const RunContext& ctx);
  Result<RunReport> Execute(TaskGraph& graph) {
    return Execute(graph, RunContext{});
  }

  /// Reads a datum's final value from the last run, deserializing its
  /// record out of the retained arena (CRC-checked, as every arena
  /// read is). Only the last Execute is readable, and only if it
  /// succeeded: a run rewinds the arena over its predecessor's
  /// records, so after a failed or cancelled Execute FetchData fails
  /// with FailedPrecondition rather than serve stale values. It also
  /// refuses a graph whose datum count differs from the last run's;
  /// fetching through another graph of the same size is the caller's
  /// error and goes undetected.
  Result<data::Matrix> FetchData(const TaskGraph& graph, DataId id) const;

  // Executor interface.
  using Executor::Run;
  std::string name() const override { return "multi-proc"; }
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
  /// The retained data plane (empty until the first Execute).
  /// `arena_bytes_` is the capacity the arena was requested with.
  storage::ShmArena arena_;
  uint64_t arena_bytes_ = 0;
  storage::ShmSegment control_;
  /// Final directory tags of the last run (arena offset + 1; 0 = no
  /// value), one per datum; empty unless that run succeeded.
  std::vector<uint64_t> tags_;
};

}  // namespace taskbench::runtime

#endif  // TASKBENCH_RUNTIME_MULTIPROC_EXECUTOR_H_
