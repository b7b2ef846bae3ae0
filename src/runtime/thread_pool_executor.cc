#include "runtime/thread_pool_executor.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/strings.h"
#include "hw/topology.h"
#include "obs/metrics.h"
#include "runtime/invariant_check.h"
#include "runtime/sharded_value_store.h"
#include "runtime/task_attempt.h"
#include "runtime/work_stealing_queue.h"
#include "storage/block_cache.h"
#include "storage/serializer.h"

namespace taskbench::runtime {

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point origin) {
  return std::chrono::duration<double>(Clock::now() - origin).count();
}

int64_t NanosSince(Clock::time_point origin) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin)
      .count();
}

/// Storage key of datum `id` inside run scope `scope`. Scope 0 is the
/// legacy batch namespace ("d7", byte-identical keys to every prior
/// release); nonzero scopes prefix the submission id so concurrent
/// service runs through one shared store stay disjoint.
std::string KeyFor(uint64_t scope, DataId id) {
  if (scope == 0) return StrFormat("d%lld", static_cast<long long>(id));
  return StrFormat("s%llu.d%lld", static_cast<unsigned long long>(scope),
                   static_cast<long long>(id));
}

/// Full steal sweeps over the other workers' deques before a worker
/// parks on the condition variable.
constexpr int kStealSweepsBeforePark = 4;

/// One worker's private telemetry. Workers record into their own
/// registry with no synchronization whatsoever; the registries are
/// merged into the caller's after the threads join.
struct WorkerTelemetry {
  obs::MetricsRegistry registry;
  obs::Counter* tasks = nullptr;
  obs::Counter* steals = nullptr;
  obs::Counter* parks = nullptr;
};

/// Storage-mode data plane of one worker: blocks live serialized in
/// the BlockStorage under per-datum keys, deserialized through the
/// worker's pooled read buffer (steady-state traffic allocates
/// nothing). Versions are the writer ordinals the VersionOracle
/// predicts, which the invariant checker also publishes, so the
/// oracle doubles as the block cache's version source.
class StoreBlockIo final : public SerializedBlockIo {
 public:
  /// `oracle` is null when uncached (every version is 0);
  /// `data_version` is null unless invariants are checked.
  StoreBlockIo(storage::BlockStorage* store,
               const std::vector<std::string>* keys,
               const VersionOracle* oracle,
               const std::vector<std::atomic<int>>* data_version,
               storage::BlockCache* cache)
      : SerializedBlockIo(cache),
        store_(store),
        keys_(keys),
        oracle_(oracle),
        data_version_(data_version) {}

 protected:
  Result<uint64_t> ReadVersion(const Task& task, size_t param) override {
    if (oracle_ == nullptr) return uint64_t{0};
    const bool inout = task.spec.params[param].dir == Dir::kInOut;
    return static_cast<uint64_t>(oracle_->ordinal(task.id, param) -
                                 (inout ? 1 : 0));
  }

  Result<data::Matrix> Load(DataId d, uint64_t) override {
    TB_RETURN_IF_ERROR(
        store_->GetInto((*keys_)[static_cast<size_t>(d)], &read_scratch_));
    return storage::Serializer::Deserialize(read_scratch_.data(),
                                            read_scratch_.size());
  }

  Result<uint64_t> Store(const Task& task, size_t param,
                         const data::Matrix& value) override {
    write_scratch_.clear();
    storage::Serializer::Serialize(value, &write_scratch_);
    TB_RETURN_IF_ERROR(store_->Put(
        (*keys_)[static_cast<size_t>(task.spec.params[param].data)],
        write_scratch_.data(), write_scratch_.size()));
    return oracle_ == nullptr
               ? uint64_t{0}
               : static_cast<uint64_t>(oracle_->ordinal(task.id, param));
  }

  // Invariant "cache-served reads match the version oracle": a hit is
  // only legal when the data plane's own version bookkeeping agrees
  // with the version the entry was cached under.
  Status VerifyHit(DataId d, uint64_t version) override {
    if (data_version_ == nullptr) return Status::OK();
    const int actual = (*data_version_)[static_cast<size_t>(d)].load(
        std::memory_order_acquire);
    if (static_cast<uint64_t>(actual) != version) {
      return Status::FailedPrecondition(StrFormat(
          "invariant violation: block cache served datum %lld at "
          "version %llu but the data plane is at version %d",
          static_cast<long long>(d),
          static_cast<unsigned long long>(version), actual));
    }
    return Status::OK();
  }

 private:
  storage::BlockStorage* store_;
  const std::vector<std::string>* keys_;
  const VersionOracle* oracle_;
  const std::vector<std::atomic<int>>* data_version_;
  std::vector<uint8_t> read_scratch_;
  std::vector<uint8_t> write_scratch_;
};

/// Memory-mode data plane: blocks stay deserialized in the striped
/// value store. A shared read is one stripe lock and a refcount bump;
/// no block is ever copied under a lock.
class ValueStoreBlockIo final : public BlockIo {
 public:
  explicit ValueStoreBlockIo(ShardedValueStore* values) : values_(values) {}

  Result<std::shared_ptr<const data::Matrix>> ReadShared(
      const Task& task, size_t param, double*) override {
    const DataId d = task.spec.params[param].data;
    std::shared_ptr<data::Matrix> value = values_->Get(d);
    if (value == nullptr) {
      return Status::NotFound(
          StrFormat("datum %lld has no value; was it ever written?",
                    static_cast<long long>(d)));
    }
    return std::shared_ptr<const data::Matrix>(std::move(value));
  }

  Result<data::Matrix> ReadOwned(const Task& task, size_t param,
                                 double* deserialize_s) override {
    TB_ASSIGN_OR_RETURN(const std::shared_ptr<const data::Matrix> value,
                        ReadShared(task, param, deserialize_s));
    return *value;
  }

  Status Write(const Task& task, size_t param, data::Matrix value,
               double*) override {
    values_->Put(task.spec.params[param].data,
                 std::make_shared<data::Matrix>(std::move(value)));
    return Status::OK();
  }

 private:
  ShardedValueStore* values_;
};

}  // namespace

ThreadPoolExecutor::ThreadPoolExecutor(
    RunOptions options, std::shared_ptr<storage::BlockStorage> store)
    : options_(std::move(options)), store_(std::move(store)) {
  TB_CHECK(options_.num_threads > 0);
  if (options_.use_storage && store_ == nullptr) {
    store_ = std::make_shared<storage::InMemoryStorage>(
        static_cast<size_t>(std::max(0, options_.storage_shards)));
    private_store_ = true;
  }
  if (options_.block_cache && options_.use_storage && private_store_) {
    fetch_cache_ =
        std::make_unique<storage::BlockCache>(BlockCacheBytes(options_));
  }
}

Result<RunReport> ThreadPoolExecutor::Execute(TaskGraph& graph,
                                              const RunContext& ctx) {
  TB_RETURN_IF_ERROR(graph.Validate());
  TB_RETURN_IF_ERROR(CheckKernels(graph, "thread-pool"));

  // Any run may rewrite scope-0 keys the post-run Fetch cache was
  // built from; drop it wholesale (versions are per-run ordinals and
  // do not compare across runs).
  if (fetch_cache_ != nullptr) {
    std::lock_guard<std::mutex> lock(fetch_mu_);
    fetch_cache_->Clear();
  }

  const int num_workers = options_.num_threads;
  const int64_t total = graph.num_tasks();
  const CancellationToken* const cancel = ctx.cancel;
  const auto cancel_requested = [cancel] {
    return cancel != nullptr && cancel->cancelled();
  };

  // ----------------------------------------------------------------
  // Shared pool state. The scheduling fast path is lock-free: one
  // Chase–Lev deque per worker, atomic dependency counters, atomic
  // completion count. Mutexes remain only at the edges — parking idle
  // workers, recording retry attempts, and publishing the failure
  // status — none of which is touched on the fault-free hot path.
  // ----------------------------------------------------------------
  struct Pool {
    std::vector<WorkStealingQueue<TaskId>> queues;
    std::vector<std::atomic<int>> remaining_deps;
    std::atomic<int64_t> completed{0};
    // Tasks pushed to some deque and not yet claimed. Part of the
    // Dekker-style handshake with parking: producers bump it (seq_cst)
    // before checking sleepers; a parking worker registers as a
    // sleeper before re-checking it.
    std::atomic<int64_t> num_ready{0};
    std::atomic<bool> failed{false};

    std::mutex park_mu;
    std::condition_variable park_cv;
    std::atomic<int> sleepers{0};

    std::mutex fault_mu;  // guards failure, attempts, retries
    Status failure;
    std::vector<TaskAttempt> attempts;
    int64_t retries = 0;
  } pool;

  pool.queues.reserve(static_cast<size_t>(num_workers));
  const size_t per_queue_hint =
      static_cast<size_t>(total / std::max(1, num_workers) + 1);
  for (int w = 0; w < num_workers; ++w) {
    pool.queues.emplace_back(per_queue_hint);
  }

  pool.remaining_deps =
      std::vector<std::atomic<int>>(static_cast<size_t>(total));
  int64_t initially_ready = 0;
  for (TaskId t = 0; t < total; ++t) {
    const int deps = static_cast<int>(graph.task(t).deps.size());
    pool.remaining_deps[static_cast<size_t>(t)].store(
        deps, std::memory_order_relaxed);
    if (deps == 0) {
      // Round-robin the roots so workers start with local work
      // instead of all stealing from worker 0.
      pool.queues[static_cast<size_t>(initially_ready % num_workers)].Push(t);
      ++initially_ready;
    }
  }
  pool.num_ready.store(initially_ready, std::memory_order_relaxed);

  // Online invariant checking: dependency-completion flags plus the
  // datum version each access must observe (writer ordinals, set
  // idempotently so retries cannot trip the check). The checks read
  // and write a handful of atomics per task — no locks, no effect on
  // scheduling or values.
  const bool check = options_.check_invariants;
  // The versioned block cache keys entries by the same writer
  // ordinals the invariant checker predicts, so the oracle doubles as
  // the cache's version source (built once, shared by both features).
  const bool use_cache = options_.block_cache && options_.use_storage;
  VersionOracle oracle;
  std::vector<std::atomic<int>> data_version;
  std::vector<std::atomic<char>> completed_flag;
  if (check || use_cache) {
    oracle = VersionOracle::Build(graph);
  }
  if (check) {  // value-initialized atomics start at zero
    data_version = std::vector<std::atomic<int>>(
        static_cast<size_t>(graph.num_data()));
    completed_flag = std::vector<std::atomic<char>>(static_cast<size_t>(total));
  }

  // Memory-mode value store; unused (size 0) in storage mode.
  ShardedValueStore values(options_.use_storage ? 0 : graph.num_data(),
                           options_.value_store_stripes);

  // Storage-mode keys, formatted once per datum instead of on every
  // Put/Get (the old KeyFor-per-operation showed up in profiles).
  std::vector<std::string> keys;
  if (options_.use_storage) {
    keys.reserve(static_cast<size_t>(graph.num_data()));
    for (DataId d = 0; d < graph.num_data(); ++d) {
      keys.push_back(KeyFor(ctx.scope, d));
    }
  }

  // Scoped runs clean their keys out of the shared store on every
  // exit path (success, failure, cancellation, early error return): a
  // resident service cycling thousands of submissions through one
  // executor must not grow the store without bound. Scope 0 keys are
  // left behind, exactly as the batch path always has (FetchData
  // reads them).
  struct ScopeKeyCleaner {
    storage::BlockStorage* store;
    const std::vector<std::string>* keys;
    ~ScopeKeyCleaner() {
      if (store == nullptr) return;
      for (const std::string& key : *keys) {
        const Status ignored = store->Delete(key);
        (void)ignored;
      }
    }
  } scope_cleaner{
      options_.use_storage && ctx.scope != 0 ? store_.get() : nullptr, &keys};

  // Stage the initial values: into storage (serialized) or the
  // memory-mode store. One scratch buffer serves every staging Put.
  {
    std::vector<uint8_t> scratch;
    for (DataId d = 0; d < graph.num_data(); ++d) {
      DataEntry& entry = graph.mutable_data(d);
      if (!entry.value.has_value()) continue;
      if (options_.use_storage) {
        scratch.clear();
        storage::Serializer::Serialize(*entry.value, &scratch);
        TB_RETURN_IF_ERROR(store_->Put(keys[static_cast<size_t>(d)],
                                       scratch.data(), scratch.size()));
      } else {
        values.Put(d, std::make_shared<data::Matrix>(*entry.value));
      }
    }
  }

  std::vector<TaskRecord> records(static_cast<size_t>(total));
  const Clock::time_point origin = Clock::now();

  // ----------------------------------------------------------------
  // Speculative hedging (cost-model policy, docs/SCHEDULERS.md): an
  // idle worker that finds no work duplicates the longest-running
  // task instead of parking; the first attempt to finish claims the
  // task with one atomic exchange and is the only attempt that
  // publishes anything (record, writer ordinals, successor release,
  // completion count) — the loser computed into locals and discards
  // them, so it leaves no trace.
  //
  // Only tasks whose re-execution is provably idempotent are
  // hedgeable (internal::HedgeableTasks): a zombie attempt then can
  // neither observe a rewritten input nor clobber a successor's newer
  // output — its storage writes are byte-identical replays. Gated on
  // max_retries == 0 so hedging never interleaves with the retry /
  // attempt-log machinery.
  // ----------------------------------------------------------------
  const bool hedge = ctx.policy.value_or(options_.policy) ==
                         SchedulingPolicy::kCostModel &&
                     !options_.sched.disable_hedging && num_workers > 1 &&
                     options_.max_retries == 0;
  std::vector<char> hedgeable;
  std::vector<std::atomic<char>> hedge_claim;
  std::vector<std::atomic<char>> hedge_tried;
  std::vector<std::atomic<int64_t>> running_task;
  std::vector<std::atomic<int64_t>> running_since_ns;
  if (hedge) {
    hedgeable = internal::HedgeableTasks(graph);
    hedge_claim = std::vector<std::atomic<char>>(static_cast<size_t>(total));
    hedge_tried = std::vector<std::atomic<char>>(static_cast<size_t>(total));
    running_task =
        std::vector<std::atomic<int64_t>>(static_cast<size_t>(num_workers));
    running_since_ns =
        std::vector<std::atomic<int64_t>>(static_cast<size_t>(num_workers));
    for (auto& r : running_task) r.store(-1, std::memory_order_relaxed);
  }

  // Telemetry: per-worker registries resolved up front so the workers
  // only bump pre-looked-up counters; the stage histograms are
  // recorded from `records` after the join. Entirely skipped when no
  // registry was supplied. A per-run registry in the context scopes
  // the instruments to this submission; the executor-wide RunOptions
  // registry is the default.
  obs::MetricsRegistry* const metrics_sink =
      ctx.metrics != nullptr ? ctx.metrics : options_.metrics;
  const bool telemetry = metrics_sink != nullptr;
  std::vector<std::unique_ptr<WorkerTelemetry>> worker_telemetry;
  if (telemetry) {
    worker_telemetry.reserve(static_cast<size_t>(num_workers));
    for (int w = 0; w < num_workers; ++w) {
      auto wt = std::make_unique<WorkerTelemetry>();
      wt->tasks = wt->registry.counter("pool.tasks");
      wt->steals = wt->registry.counter("pool.steals");
      wt->parks = wt->registry.counter("pool.parks");
      worker_telemetry.push_back(std::move(wt));
    }
  }

  // Per-worker versioned block caches (storage mode, opt-in): hot
  // read-mostly inputs deserialize once per worker instead of once
  // per read. Entries are keyed by datum id + the writer ordinal the
  // oracle predicts for the access, so an INOUT rewrite looks up a
  // new version and every stale entry is unreachable by construction.
  // Owned outside the worker lambda so the stats survive the join for
  // the telemetry merge.
  std::vector<std::unique_ptr<storage::BlockCache>> worker_caches;
  if (use_cache) {
    worker_caches.reserve(static_cast<size_t>(num_workers));
    for (int w = 0; w < num_workers; ++w) {
      worker_caches.push_back(
          std::make_unique<storage::BlockCache>(BlockCacheBytes(options_)));
    }
  }

  // Topology-aware stealing: workers are striped over the NUMA
  // domains (the same contiguous striping the multi-process plane
  // uses) and each worker's victim sweep visits same-domain deques
  // first — a block produced by a same-domain worker sits in local
  // memory, so preferring those victims is the thread-level analogue
  // of the locality scheduler preferring the node that holds a block.
  // On single-domain hosts this collapses to exactly the old
  // (worker_id + off) % n sweep.
  const hw::Topology& topo = hw::DetectTopology();
  std::vector<std::vector<int>> steal_order(
      static_cast<size_t>(num_workers));
  for (int w = 0; w < num_workers; ++w) {
    const int dom = topo.domain_of_worker(w, num_workers);
    std::vector<int>& order = steal_order[static_cast<size_t>(w)];
    order.reserve(static_cast<size_t>(num_workers - 1));
    for (int pass = 0; pass < 2; ++pass) {
      for (int off = 1; off < num_workers; ++off) {
        const int victim = (w + off) % num_workers;
        const bool local = topo.domain_of_worker(victim, num_workers) == dom;
        if (local == (pass == 0)) order.push_back(victim);
      }
    }
  }

  // Executes `id` once through the worker's data plane `io`, timing
  // its stages into `rec` — the caller picks where the record lives:
  // records[id] on the normal path, a stack-local for hedged attempts
  // (only the claim winner's record is published, so a losing
  // duplicate never touches shared state).
  auto run_task = [&](BlockIo& io, TaskId id, int attempt,
                      TaskRecord& rec) -> Status {
    const Task& task = graph.task(id);
    rec.task = id;
    rec.type = task.spec.type;
    rec.level = task.level;
    rec.processor = Processor::kCpu;  // the real path runs on host cores
    rec.stages = perf::StageTimes{};  // a retry starts its stages over
    rec.attempt = attempt;
    rec.start = SecondsSince(origin);
    TB_RETURN_IF_ERROR(RunTaskAttempt(task, io, &rec.stages));
    rec.end = SecondsSince(origin);
    return Status::OK();
  };

  auto done = [&] {
    return pool.failed.load(std::memory_order_seq_cst) ||
           pool.completed.load(std::memory_order_seq_cst) == total;
  };

  // Wake companions: cheap atomic check first; the (empty) park_mu
  // critical section serializes with a parking worker's predicate
  // check so the notify cannot slip into the window between its last
  // num_ready check and its wait.
  auto wake = [&](int64_t newly_ready) {
    if (pool.sleepers.load(std::memory_order_seq_cst) > 0) {
      { std::lock_guard<std::mutex> lock(pool.park_mu); }
      if (newly_ready > 1) {
        pool.park_cv.notify_all();
      } else {
        pool.park_cv.notify_one();
      }
    }
  };
  auto wake_all = [&] {
    { std::lock_guard<std::mutex> lock(pool.park_mu); }
    pool.park_cv.notify_all();
  };

  // First worker to observe the cancellation flag publishes the
  // kCancelled failure and wakes everyone; done() then drains the
  // remaining workers (parked ones included) without starting tasks.
  auto cancel_run = [&] {
    {
      std::lock_guard<std::mutex> lock(pool.fault_mu);
      if (!pool.failed.load(std::memory_order_seq_cst)) {
        pool.failure = Status::Cancelled("run cancelled");
        pool.failed.store(true, std::memory_order_seq_cst);
      }
    }
    wake_all();
  };

  auto fail_run = [&](Status status, TaskId id, int attempt) {
    {
      std::lock_guard<std::mutex> lock(pool.fault_mu);
      if (!pool.failed.load(std::memory_order_seq_cst)) {
        pool.failure = std::move(status).WithContext(
            StrFormat("task %lld attempt %d", static_cast<long long>(id),
                      attempt));
        pool.failed.store(true, std::memory_order_seq_cst);
      }
    }
    wake_all();
  };

  // Winner-side publication shared by the normal path and hedged
  // duplicates: writer ordinals + completion flag (release, paired
  // with the claim-time acquires), successor countdown, and the run
  // completion count. Callers hold the hedge claim (or the task was
  // never hedgeable), so this runs exactly once per task.
  auto publish_completion = [&](int worker_id, WorkerTelemetry* wt,
                                TaskId id) {
    WorkStealingQueue<TaskId>& own =
        pool.queues[static_cast<size_t>(worker_id)];
    if (check) {
      const Task& task = graph.task(id);
      for (size_t i = 0; i < task.spec.params.size(); ++i) {
        const Param& p = task.spec.params[i];
        if (p.dir == Dir::kIn) continue;
        data_version[static_cast<size_t>(p.data)].store(
            oracle.ordinal(id, i), std::memory_order_release);
      }
      completed_flag[static_cast<size_t>(id)].store(
          1, std::memory_order_release);
    }
    if (wt != nullptr) wt->tasks->Add(1);
    int64_t released = 0;
    for (TaskId succ : graph.task(id).successors) {
      if (pool.remaining_deps[static_cast<size_t>(succ)].fetch_sub(
              1, std::memory_order_acq_rel) == 1) {
        own.Push(succ);
        ++released;
      }
    }
    if (released > 0) {
      pool.num_ready.fetch_add(released, std::memory_order_seq_cst);
      wake(released);
    }
    if (pool.completed.fetch_add(1, std::memory_order_seq_cst) + 1 == total) {
      wake_all();
    }
  };

  // One speculative duplicate of `id`, run by an otherwise-idle
  // worker. The duplicate computes into locals; if the primary
  // finished first the exchange loses and everything is discarded. A
  // failing duplicate is likewise discarded — the primary still owns
  // the task and surfaces any real error itself.
  auto run_hedged = [&](int worker_id, BlockIo& io, WorkerTelemetry* wt,
                        TaskId id) {
    TaskRecord rec;
    const Status status = run_task(io, id, 1, rec);
    if (!status.ok()) return;
    if (hedge_claim[static_cast<size_t>(id)].exchange(
            1, std::memory_order_seq_cst) != 0) {
      return;  // the primary won; no trace left
    }
    records[static_cast<size_t>(id)] = std::move(rec);
    publish_completion(worker_id, wt, id);
  };

  auto worker = [&](int worker_id) {
    if (options_.pin_workers && topo.num_domains() > 1) {
      // Best effort: an unpinnable worker is slower, never wrong.
      const Status ignored = hw::PinCurrentThreadToCpus(
          topo.domains[static_cast<size_t>(topo.domain_of_worker(
                           worker_id, num_workers))].cpus);
      (void)ignored;
    }
    // The worker's data plane: the store through its private block
    // cache (when enabled) in storage mode, the value store otherwise.
    StoreBlockIo store_io(
        store_.get(), &keys, use_cache ? &oracle : nullptr,
        check ? &data_version : nullptr,
        use_cache ? worker_caches[static_cast<size_t>(worker_id)].get()
                  : nullptr);
    ValueStoreBlockIo value_io(&values);
    BlockIo& io = options_.use_storage ? static_cast<BlockIo&>(store_io)
                                       : value_io;
    WorkerTelemetry* wt =
        telemetry ? worker_telemetry[static_cast<size_t>(worker_id)].get()
                  : nullptr;
    WorkStealingQueue<TaskId>& own = pool.queues[static_cast<size_t>(
        worker_id)];
    for (;;) {
      if (done()) return;
      if (cancel_requested()) {
        cancel_run();
        return;
      }

      // Claim a task: own deque first (LIFO, warm caches), then
      // sweep the other deques as a thief, then park.
      TaskId id = -1;
      bool got = own.Pop(&id);
      bool stolen = false;
      if (!got) {
        const std::vector<int>& victims =
            steal_order[static_cast<size_t>(worker_id)];
        for (int sweep = 0; sweep < kStealSweepsBeforePark && !got; ++sweep) {
          for (size_t v = 0; v < victims.size() && !got; ++v) {
            got = pool.queues[static_cast<size_t>(victims[v])].Steal(&id);
          }
          if (done()) return;
        }
        stolen = got;
      }
      if (!got && hedge) {
        // Nothing to claim or steal: duplicate the longest-running
        // hedgeable task (if any has been executing for at least
        // hedge_min_s) instead of parking. Races with the registry
        // are benign — a stale pick just loses its claim.
        const int64_t now_ns = NanosSince(origin);
        const auto min_ns =
            static_cast<int64_t>(options_.sched.hedge_min_s * 1e9);
        TaskId target = -1;
        int64_t oldest = 0;
        for (int w2 = 0; w2 < num_workers; ++w2) {
          if (w2 == worker_id) continue;
          const int64_t rt =
              running_task[static_cast<size_t>(w2)].load(
                  std::memory_order_acquire);
          if (rt < 0 || hedgeable[static_cast<size_t>(rt)] == 0) continue;
          if (hedge_tried[static_cast<size_t>(rt)].load(
                  std::memory_order_relaxed) != 0 ||
              hedge_claim[static_cast<size_t>(rt)].load(
                  std::memory_order_relaxed) != 0) {
            continue;
          }
          const int64_t since =
              running_since_ns[static_cast<size_t>(w2)].load(
                  std::memory_order_acquire);
          if (now_ns - since < min_ns) continue;
          if (target < 0 || since < oldest) {
            oldest = since;
            target = rt;
          }
        }
        if (target >= 0 &&
            hedge_tried[static_cast<size_t>(target)].exchange(
                1, std::memory_order_seq_cst) == 0) {
          run_hedged(worker_id, io, wt, target);
          continue;
        }
      }
      if (!got) {
        if (wt != nullptr) wt->parks->Add(1);
        std::unique_lock<std::mutex> lock(pool.park_mu);
        pool.sleepers.fetch_add(1, std::memory_order_seq_cst);
        pool.park_cv.wait(lock, [&] {
          return pool.num_ready.load(std::memory_order_seq_cst) > 0 || done();
        });
        pool.sleepers.fetch_sub(1, std::memory_order_seq_cst);
        continue;  // re-run the claim loop
      }
      if (wt != nullptr && stolen) wt->steals->Add(1);
      pool.num_ready.fetch_sub(1, std::memory_order_seq_cst);

      // Invariants at claim time: every dependency completed, and
      // every input sits at exactly the version this task's writer
      // ordinal predicts. Checked once per task (first attempt); a
      // retried attempt may legitimately re-read its own partial
      // INOUT writes.
      if (check) {
        const Task& task = graph.task(id);
        for (TaskId dep : task.deps) {
          if (completed_flag[static_cast<size_t>(dep)].load(
                  std::memory_order_acquire) == 0) {
            fail_run(Status::FailedPrecondition(StrFormat(
                         "invariant violation: task claimed before "
                         "dependency %lld completed",
                         static_cast<long long>(dep))),
                     id, 1);
            return;
          }
        }
        for (size_t i = 0; i < task.spec.params.size(); ++i) {
          const Param& p = task.spec.params[i];
          if (p.dir == Dir::kOut) continue;
          const int expected =
              oracle.ordinal(id, i) - (p.dir == Dir::kInOut ? 1 : 0);
          const int actual =
              data_version[static_cast<size_t>(p.data)].load(
                  std::memory_order_acquire);
          if (actual != expected) {
            fail_run(Status::FailedPrecondition(StrFormat(
                         "invariant violation: datum %lld read at "
                         "version %d, expected %d (stale or "
                         "unpublished block)",
                         static_cast<long long>(p.data), actual,
                         expected)),
                     id, 1);
            return;
          }
        }
      }

      // Hedgeable tasks compute into a stack-local record; only the
      // hedge-claim winner moves it into the shared slot. Everything
      // else writes records[id] directly, exactly as before.
      const bool deferred =
          hedge && hedgeable[static_cast<size_t>(id)] != 0;
      TaskRecord local_rec;
      TaskRecord& rec_slot =
          deferred ? local_rec : records[static_cast<size_t>(id)];
      if (hedge) {
        running_since_ns[static_cast<size_t>(worker_id)].store(
            NanosSince(origin), std::memory_order_release);
        running_task[static_cast<size_t>(worker_id)].store(
            id, std::memory_order_release);
      }

      // Per-task retry loop: transient failures (e.g. a
      // fault-injecting storage backend) are retried with exponential
      // backoff until the budget is spent. With the default budget of
      // 0 this is one run_task call, exactly the fail-fast path.
      Status status;
      int attempt = 1;
      for (;;) {
        status = run_task(io, id, attempt, rec_slot);
        if (status.ok() || attempt > options_.max_retries) break;
        {
          std::lock_guard<std::mutex> lock(pool.fault_mu);
          if (pool.failed.load(std::memory_order_seq_cst)) break;
          ++pool.retries;
          if (options_.max_retries > 0) {
            const TaskRecord& rec = rec_slot;
            pool.attempts.push_back(TaskAttempt{
                id, attempt, rec.node, rec.processor, rec.start,
                SecondsSince(origin), AttemptOutcome::kFailed});
          }
        }
        // Interruptible backoff: sleep in short slices so a Cancel()
        // lands within ~1 ms instead of after a full exponential wait.
        const auto backoff = std::chrono::duration<double>(
            RetryBackoffSeconds(options_, attempt));
        const Clock::time_point wake_at =
            Clock::now() +
            std::chrono::duration_cast<Clock::duration>(backoff);
        while (!cancel_requested() &&
               !pool.failed.load(std::memory_order_seq_cst)) {
          const Clock::time_point now = Clock::now();
          if (now >= wake_at) break;
          std::this_thread::sleep_for(std::min<Clock::duration>(
              wake_at - now, std::chrono::milliseconds(1)));
        }
        if (cancel_requested()) {
          status = Status::Cancelled("run cancelled during retry backoff");
          break;
        }
        ++attempt;
      }

      if (hedge) {
        running_task[static_cast<size_t>(worker_id)].store(
            -1, std::memory_order_release);
      }
      if (!status.ok()) {
        fail_run(std::move(status), id, attempt);
        return;
      }

      if (deferred) {
        if (hedge_claim[static_cast<size_t>(id)].exchange(
                1, std::memory_order_seq_cst) != 0) {
          // A speculative duplicate finished first and published
          // everything; this attempt's locals just evaporate.
          continue;
        }
        records[static_cast<size_t>(id)] = std::move(local_rec);
      }

      if (options_.max_retries > 0) {
        const TaskRecord& rec = records[static_cast<size_t>(id)];
        std::lock_guard<std::mutex> lock(pool.fault_mu);
        pool.attempts.push_back(TaskAttempt{
            id, attempt, rec.node, rec.processor, rec.start, rec.end,
            AttemptOutcome::kCompleted});
      }

      // Publication (writer ordinals before successor release — the
      // fetch_sub(acq_rel) / Steal pair carries the stores to
      // whichever worker claims a released successor), telemetry and
      // the completion count, shared with the hedged path.
      publish_completion(worker_id, wt, id);
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(num_workers));
  for (int i = 0; i < num_workers; ++i) {
    threads.emplace_back(worker, i);
  }
  for (std::thread& t : threads) t.join();

  if (pool.failed.load(std::memory_order_seq_cst)) return pool.failure;

  std::vector<storage::BlockCache::Stats> cache_stats;
  for (const auto& cache : worker_caches) cache_stats.push_back(cache->stats());
  TB_ASSIGN_OR_RETURN(const double makespan,
                      FinishRealRun(graph, records, num_workers, check,
                                    metrics_sink, cache_stats));
  if (telemetry) {
    obs::MetricsRegistry& merged = *metrics_sink;
    for (const auto& wt : worker_telemetry) merged.MergeFrom(wt->registry);
    merged.gauge("pool.workers")->Set(num_workers);
    if (pool.retries > 0) merged.counter("pool.retries")->Add(pool.retries);
  }

  // Persist memory-mode values back onto the graph entries so they
  // survive for FetchData in both modes. Workers have joined, so each
  // shared_ptr is the sole owner and the matrix can be moved out.
  if (!options_.use_storage) {
    for (auto& [d, value] : values.TakeAll()) {
      graph.mutable_data(d).value = std::move(*value);
    }
  }

  RunReport report;
  report.records = std::move(records);
  report.makespan = makespan;
  report.faults.retries = pool.retries;
  report.attempts = std::move(pool.attempts);
  return report;
}

Result<data::Matrix> ThreadPoolExecutor::FetchData(const TaskGraph& graph,
                                                   DataId id) const {
  // Memory mode writes final values back onto the graph entries; the
  // graph read also refuses unknown ids.
  if (!options_.use_storage || id < 0 || id >= graph.num_data()) {
    return FetchGraphValue(graph, id);
  }
  // Post-run read cache (block_cache mode, executor-private store
  // only): baseline comparisons fetch the same result blocks over and
  // over; serve repeats from the deserialized copy. Version 0 is a
  // constant — the cache is cleared whenever Execute may rewrite the
  // scope-0 keys it was built from.
  if (fetch_cache_ != nullptr) {
    std::lock_guard<std::mutex> lock(fetch_mu_);
    if (storage::BlockCache::ValuePtr hit =
            fetch_cache_->Get(static_cast<uint64_t>(id), 0)) {
      return *hit;
    }
    TB_ASSIGN_OR_RETURN(const std::vector<uint8_t> bytes,
                        store_->Get(KeyFor(0, id)));
    TB_ASSIGN_OR_RETURN(data::Matrix m,
                        storage::Serializer::Deserialize(bytes));
    storage::BlockCache::ValuePtr cached =
        fetch_cache_->Put(static_cast<uint64_t>(id), 0, std::move(m));
    return *cached;
  }
  TB_ASSIGN_OR_RETURN(const std::vector<uint8_t> bytes,
                      store_->Get(KeyFor(0, id)));
  return storage::Serializer::Deserialize(bytes);
}

namespace internal {

std::vector<char> HedgeableTasks(const TaskGraph& graph) {
  const int64_t total = graph.num_tasks();
  std::vector<int> writer_count(static_cast<size_t>(graph.num_data()), 0);
  // Tasks are submitted in program order, so a writer with a higher id
  // than a reader runs after it.
  std::vector<TaskId> last_writer(static_cast<size_t>(graph.num_data()), -1);
  for (TaskId t = 0; t < total; ++t) {
    for (const Param& p : graph.task(t).spec.params) {
      if (p.dir == Dir::kIn) continue;
      ++writer_count[static_cast<size_t>(p.data)];
      last_writer[static_cast<size_t>(p.data)] = t;
    }
  }
  std::vector<char> hedgeable(static_cast<size_t>(total), 1);
  for (TaskId t = 0; t < total; ++t) {
    for (const Param& p : graph.task(t).spec.params) {
      const size_t d = static_cast<size_t>(p.data);
      if (p.dir == Dir::kInOut || writer_count[d] > 1 ||
          (p.dir == Dir::kIn && last_writer[d] > t)) {
        hedgeable[static_cast<size_t>(t)] = 0;
        break;
      }
    }
  }
  return hedgeable;
}

}  // namespace internal

}  // namespace taskbench::runtime
