#include "runtime/multiproc_executor.h"

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <deque>
#include <memory>
#include <new>
#include <optional>
#include <utility>
#include <vector>

#include "common/strings.h"
#include "obs/metrics.h"
#include "runtime/spsc_ring.h"
#include "runtime/task_attempt.h"
#include "storage/block_cache.h"
#include "storage/serializer.h"
#include "storage/shm_arena.h"

#if !defined(_WIN32)
#include <dirent.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <thread>

#include "hw/topology.h"
#endif

namespace taskbench::runtime {

namespace {

/// Deserializes the arena record a (nonzero) directory tag points at.
/// Records are immutable once staged and offsets are never reused
/// within a run, so during a run a tag identifies one block version —
/// which is what makes tags usable as block-cache versions. Offsets
/// (and so tags) repeat across runs, since every Execute rewinds the
/// arena; worker caches stay correct because each is created after
/// its worker's fork and dies with that run's workers.
Result<data::Matrix> ReadBlockAt(const storage::ShmArena& arena,
                                 uint64_t tag) {
  const uint8_t* record = arena.At(tag - 1);
  uint64_t payload = 0;
  std::memcpy(&payload, record, sizeof(payload));
  return storage::Serializer::Deserialize(record + 8, payload);
}

}  // namespace

MultiProcExecutor::MultiProcExecutor(RunOptions options)
    : options_(std::move(options)) {}

Result<data::Matrix> MultiProcExecutor::FetchData(const TaskGraph& graph,
                                                  DataId id) const {
  if (tags_.size() != static_cast<size_t>(graph.num_data())) {
    return Status::FailedPrecondition(
        "no values to fetch: the last multi-process Execute failed, was "
        "cancelled, never ran, or ran a graph of another size");
  }
  const uint64_t tag =
      id >= 0 && id < graph.num_data() ? tags_[static_cast<size_t>(id)] : 0;
  // Tag 0: an unknown id, or a datum with neither an initial value nor
  // a writer; the graph read reports which.
  if (tag == 0) return FetchGraphValue(graph, id);
  return ReadBlockAt(arena_, tag);
}

#if defined(_WIN32)

bool MultiProcExecutor::Supported() { return false; }

Result<RunReport> MultiProcExecutor::Execute(TaskGraph&) {
  return Status::Unimplemented(
      "multi-process execution needs fork + POSIX shared memory");
}

#else

namespace {

/// Coordinator -> worker: run this task attempt. `epoch` piggybacks
/// the coordinator's invalidation epoch on the dispatch ring: it
/// advances whenever a previously published directory slot is
/// republished (INOUT rewrites, crash-retry republication), telling
/// the worker to sweep block-cache entries whose stored tag no longer
/// matches the directory. Correctness never depends on the sweep —
/// entries are keyed by directory tag, and arena records are
/// immutable and never reused within a run (the cache dies with the
/// run's worker), so a stale entry is unreachable — the epoch only
/// reclaims budget bytes dead entries would otherwise pin until LRU
/// eviction.
struct TaskMsg {
  int64_t task = -1;
  int32_t attempt = 1;
  uint64_t epoch = 0;
};

/// Worker -> coordinator: the attempt finished. code 0 = success,
/// 1 = retryable task failure (kernel / data error), 2 = fatal
/// (retrying cannot help, e.g. arena exhaustion — fail the run),
/// 3 = invariant violation detected inside the worker (fail the run).
struct CompletionMsg {
  int64_t task = -1;
  int32_t worker = -1;
  int32_t attempt = 1;
  int32_t code = 0;
  /// Arena offset + 1 of the staged-outputs index record (0 = no
  /// outputs staged). The worker only *stages* output records; the
  /// coordinator performs the directory stores when it consumes this
  /// message, so publication is atomic with completion — a worker
  /// dying after staging but before its completion is consumed leaves
  /// the directory untouched and the retry re-reads pre-attempt
  /// values (INOUT tasks are never double-applied).
  uint64_t outputs = 0;
  double start = 0;
  double end = 0;
  double deserialize_s = 0;
  double compute_s = 0;
  double serialize_s = 0;
  char error[196] = {0};
};

/// Per-worker control plane: one SPSC ring per direction. Lives in
/// the MAP_SHARED control segment, so both sides see the same atomics.
struct WorkerChannel {
  SpscRing<TaskMsg, 1024> inbox;       ///< coordinator produces
  SpscRing<CompletionMsg, 256> outbox; ///< worker produces
};

struct ControlHeader {
  std::atomic<int> shutdown{0};
  /// Shared clock origin: steady_clock (CLOCK_MONOTONIC — one clock
  /// for the whole box) nanoseconds captured just before fork, so
  /// coordinator and worker timestamps land on one axis.
  int64_t origin_ns = 0;
};

static_assert(std::is_trivially_copyable_v<TaskMsg>);
static_assert(std::is_trivially_copyable_v<CompletionMsg>);
// Per-worker cache counters live in the control segment, one plain
// storage::BlockCache::Stats per worker: the worker overwrites its
// snapshot after each task (a crashed worker leaves its last one, which
// is exactly what it did) and the coordinator reads them only after
// every worker has exited, which waitpid orders after the writes.
static_assert(std::is_trivially_copyable_v<storage::BlockCache::Stats>);

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double SecondsSince(int64_t origin_ns) {
  return static_cast<double>(NowNs() - origin_ns) * 1e-9;
}

uint64_t AlignUp64(uint64_t n) { return (n + 63) & ~uint64_t{63}; }

/// Serializes `m` into a fresh arena record ([u64 payload bytes |
/// payload]) WITHOUT touching the directory; returns the record
/// offset. Staged records become visible only when someone stores
/// offset+1 into the directory slot.
Result<uint64_t> StageBlock(storage::ShmArena& arena, const data::Matrix& m) {
  const uint64_t payload = storage::Serializer::SerializedSize(m);
  TB_ASSIGN_OR_RETURN(const uint64_t offset, arena.Allocate(8 + payload));
  uint8_t* record = arena.At(offset);
  std::memcpy(record, &payload, sizeof(payload));
  storage::Serializer::SerializeTo(m, record + 8);
  return offset;
}

void SetError(CompletionMsg* msg, const Status& status) {
  const std::string text = status.ToString();
  const size_t n = std::min(text.size(), sizeof(msg->error) - 1);
  std::memcpy(msg->error, text.data(), n);
  msg->error[n] = '\0';
}

/// A worker's data plane: blocks are arena records named by their
/// directory tags, which version the worker's cache entries (a hot
/// shared input deserializes once per worker, not once per task).
/// Outputs are only *staged* into fresh records; the coordinator
/// publishes them when it consumes the completion.
class ShmBlockIo final : public SerializedBlockIo {
 public:
  ShmBlockIo(storage::ShmArena* arena, std::atomic<uint64_t>* directory,
             bool check, storage::BlockCache* cache)
      : SerializedBlockIo(cache),
        arena_(arena),
        directory_(directory),
        check_(check) {}

  /// Runs one attempt: the shared attempt body over the arena, then
  /// (with `check`) the republication invariant, then the staged-output
  /// index. Returns the completion code (CompletionMsg::code).
  int Run(const Task& task, perf::StageTimes* stages, uint64_t* outputs,
          Status* error) {
    read_tags_.clear();
    staged_.clear();
    code_ = 1;
    Status status = RunTaskAttempt(task, *this, stages);
    if (status.ok()) status = CheckReadsUnmoved(task.id);
    if (status.ok()) status = StageIndex(outputs);
    if (status.ok()) return 0;
    *error = std::move(status);
    return code_;
  }

 protected:
  Result<uint64_t> ReadVersion(const Task& task, size_t param) override {
    const DataId d = task.spec.params[param].data;
    const uint64_t tag = directory_[d].load(std::memory_order_acquire);
    if (tag == 0) {
      return Status::NotFound(StrFormat(
          "datum %lld has no record in the shm directory; was it ever "
          "written?",
          static_cast<long long>(d)));
    }
    if (check_) read_tags_.emplace_back(d, tag);
    return tag;
  }

  Result<data::Matrix> Load(DataId, uint64_t version) override {
    return ReadBlockAt(*arena_, version);
  }

  Result<uint64_t> Store(const Task& task, size_t param,
                         const data::Matrix& value) override {
    Result<uint64_t> offset = StageBlock(*arena_, value);
    if (!offset.ok()) {
      code_ = 2;  // arena exhaustion: retrying cannot help
      return offset.status();
    }
    staged_.emplace_back(
        static_cast<uint64_t>(task.spec.params[param].data), *offset);
    return *offset + 1;
  }

 private:
  /// Invariant: no input block may be republished while the task that
  /// reads it is running — the graph's write-after-read edges order
  /// every overwriting task after all readers, and the coordinator
  /// never dispatches two live attempts of one task. A moved tag means
  /// cached handles and arena reads could disagree: fail the run.
  Status CheckReadsUnmoved(TaskId task) {
    for (const auto& [d, tag] : read_tags_) {
      const uint64_t now_tag = directory_[d].load(std::memory_order_acquire);
      if (now_tag != tag) {
        code_ = 3;
        return Status::FailedPrecondition(StrFormat(
            "invariant violation: datum %lld republished (tag %llu -> "
            "%llu) while task %lld was reading it",
            static_cast<long long>(d), static_cast<unsigned long long>(tag),
            static_cast<unsigned long long>(now_tag),
            static_cast<long long>(task)));
      }
    }
    return Status::OK();
  }

  /// Writes the index record [u64 count | count x (u64 data id, u64
  /// record offset)] of the staged outputs; `*outputs` = its offset + 1
  /// (0 = no outputs). The directory is deliberately NOT written: a
  /// crash between staging and consumption then cannot expose this
  /// attempt's outputs to a retry (which would double-apply INOUT
  /// tasks), and the tags the cache write-through used never enter the
  /// directory, so those entries are unreachable.
  Status StageIndex(uint64_t* outputs) {
    if (staged_.empty()) return Status::OK();
    Result<uint64_t> index =
        arena_->Allocate(8 + 16 * static_cast<uint64_t>(staged_.size()));
    if (!index.ok()) {
      code_ = 2;
      return index.status();
    }
    uint8_t* record = arena_->At(*index);
    const uint64_t count = staged_.size();
    std::memcpy(record, &count, sizeof(count));
    for (size_t i = 0; i < staged_.size(); ++i) {
      std::memcpy(record + 8 + 16 * i, &staged_[i].first, 8);
      std::memcpy(record + 8 + 16 * i + 8, &staged_[i].second, 8);
    }
    *outputs = *index + 1;
    return Status::OK();
  }

  storage::ShmArena* arena_;
  std::atomic<uint64_t>* directory_;
  const bool check_;
  std::vector<std::pair<DataId, uint64_t>> read_tags_;  // for the check
  std::vector<std::pair<uint64_t, uint64_t>> staged_;   // (datum, offset)
  int code_ = 1;
};

/// Worker process main loop. Never returns — exits with _exit so the
/// child skips atexit handlers, stdio flushing of inherited buffers
/// and (under sanitizers) the leak check, all of which belong to the
/// coordinator.
[[noreturn]] void WorkerMain(int worker_id, const TaskGraph& graph,
                             storage::ShmArena& arena, ControlHeader* header,
                             WorkerChannel* channel,
                             std::atomic<uint64_t>* directory,
                             const std::vector<int>& pin_cpus, bool check,
                             uint64_t cache_bytes,
                             storage::BlockCache::Stats* cache_stats) {
  if (!pin_cpus.empty()) {
    // Best effort: an unpinnable worker is slower, never wrong.
    const Status ignored = hw::PinCurrentThreadToCpus(pin_cpus);
    (void)ignored;
  }
  // Worker-local block cache, created after the fork: each worker
  // process owns private heap entries keyed by the shared directory
  // tags (cache_bytes == 0 disables caching).
  std::optional<storage::BlockCache> cache;
  if (cache_bytes > 0) cache.emplace(cache_bytes);
  ShmBlockIo io(&arena, directory, check,
                cache.has_value() ? &*cache : nullptr);
  uint64_t seen_epoch = 0;
  const int64_t origin_ns = header->origin_ns;
  int idle_polls = 0;
  for (;;) {
    TaskMsg msg;
    if (!channel->inbox.Pop(&msg)) {
      if (header->shutdown.load(std::memory_order_acquire) != 0) _exit(0);
      if (++idle_polls > 256) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
      continue;
    }
    idle_polls = 0;
    if (cache.has_value() && msg.epoch != seen_epoch) {
      // The coordinator republished at least one directory slot since
      // our last dispatch: sweep entries whose tag moved on, so dead
      // versions stop pinning budget bytes.
      seen_epoch = msg.epoch;
      cache->EvictStale([directory](uint64_t key) {
        return directory[static_cast<DataId>(key)].load(
            std::memory_order_acquire);
      });
    }
    CompletionMsg done;
    done.task = msg.task;
    done.worker = worker_id;
    done.attempt = msg.attempt;
    done.start = SecondsSince(origin_ns);
    perf::StageTimes stages;
    Status error;
    done.code = io.Run(graph.task(msg.task), &stages, &done.outputs, &error);
    if (done.code != 0) SetError(&done, error);
    done.deserialize_s = stages.deserialize;
    done.compute_s = stages.parallel_fraction;
    done.serialize_s = stages.serialize;
    done.end = SecondsSince(origin_ns);
    if (cache.has_value()) *cache_stats = cache->stats();
    while (!channel->outbox.Push(done)) {
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
  }
}

/// Arena capacity estimate from the graph: one record per staged
/// initial value plus one per task output write and one index record
/// per attempt (records are never freed), each at the datum's
/// registered size plus framing, with 2x headroom for kernels
/// emitting denser blocks than registered and a 1 MiB floor. The
/// per-attempt terms are scaled by 1 + max_retries: every retry of a
/// crashed or failed attempt re-stages its outputs into fresh
/// records, so an arena sized for exactly one attempt per task would
/// exhaust during the recovery the retry budget promises.
uint64_t EstimateArenaBytes(const TaskGraph& graph, int max_retries) {
  auto record_bytes = [](uint64_t payload) {
    return AlignUp64(payload + 8 /* frame */ + 28 /* wire header */);
  };
  uint64_t initial = 0;
  for (DataId d = 0; d < graph.num_data(); ++d) {
    if (graph.data(d).value.has_value()) {
      initial += record_bytes(graph.data(d).bytes);
    }
  }
  uint64_t per_attempt = 0;
  for (TaskId t = 0; t < graph.num_tasks(); ++t) {
    uint64_t num_outputs = 0;
    for (const Param& p : graph.task(t).spec.params) {
      if (p.dir == Dir::kIn) continue;
      per_attempt += record_bytes(graph.data(p.data).bytes);
      ++num_outputs;
    }
    if (num_outputs > 0) per_attempt += AlignUp64(8 + 16 * num_outputs);
  }
  const uint64_t attempts =
      1 + static_cast<uint64_t>(std::max(0, max_retries));
  const uint64_t need = initial + attempts * per_attempt;
  return std::max<uint64_t>(2 * need, 1 << 20);
}

/// Whether a retained segment of `have` bytes serves a run needing
/// `need`: it must fit, and be at most 4x too large, so what an
/// executor keeps mapped stays bounded by its recent runs' needs.
bool Reusable(uint64_t have, uint64_t need) {
  return need <= have && have / 4 <= need;
}

/// Threads in the calling process, via procfs; -1 when unknown (no
/// /proc, e.g. macOS). fork() without exec duplicates only the
/// calling thread, so any mutex another thread holds at fork time
/// (allocator, logging, metrics) stays locked forever in the child —
/// a worker then deadlocks on its first allocation. Execute refuses
/// to fork from a multi-threaded process instead of hanging.
int CountProcessThreads() {
  DIR* dir = ::opendir("/proc/self/task");
  if (dir == nullptr) return -1;
  int n = 0;
  while (const dirent* entry = ::readdir(dir)) {
    if (entry->d_name[0] != '.') ++n;
  }
  ::closedir(dir);
  return n;
}

/// CountProcessThreads once the count has settled. pthread_join
/// returns when the kernel clears the exiting thread's tid, which is
/// before the thread leaves /proc/self/task, so a pool joined just
/// before Execute can still be listed for a moment. A count above one
/// is re-read for up to 100 ms; a thread that is really alive stays
/// and is reported.
int SettledProcessThreads() {
  constexpr int64_t kSettleNs = 100'000'000;
  const int64_t deadline_ns = NowNs() + kSettleNs;
  int n = CountProcessThreads();
  while (n > 1 && NowNs() < deadline_ns) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    n = CountProcessThreads();
  }
  return n;
}

/// Tasks queued to one worker beyond the one it is running — deep
/// enough to hide dispatch latency, shallow enough that the
/// coordinator keeps placement freedom (and far below the ring
/// capacity, so Push never blocks).
constexpr int kMaxInflightPerWorker = 4;

}  // namespace

bool MultiProcExecutor::Supported() { return true; }

Result<RunReport> MultiProcExecutor::Execute(TaskGraph& graph,
                                             const RunContext& ctx) {
  // This run rewinds the arena over the last one's records: whatever
  // happens below, they are no longer fetchable.
  tags_.clear();
  TB_RETURN_IF_ERROR(graph.Validate());
  const int64_t total = graph.num_tasks();
  const int64_t num_data = graph.num_data();
  TB_RETURN_IF_ERROR(CheckKernels(graph, "multi-process"));

  const int caller_threads = SettledProcessThreads();
  if (caller_threads > 1) {
    return Status::FailedPrecondition(StrFormat(
        "MultiProcExecutor::Execute must be called from a single-threaded "
        "process (found %d threads): workers are forked without exec, so "
        "locks held by other threads at fork time stay locked forever in "
        "the children; join other threads before running (see "
        "docs/SCALE_OUT.md; resident services should use --executor="
        "threads or sim instead)",
        caller_threads));
  }

  const int num_workers = std::max(1, options_.num_procs);
  const hw::Topology& topo = hw::DetectTopology();
  std::vector<int> worker_domain(static_cast<size_t>(num_workers), 0);
  for (int w = 0; w < num_workers; ++w) {
    worker_domain[static_cast<size_t>(w)] =
        topo.domain_of_worker(w, num_workers);
  }

  // ----------------------------------------------------------------
  // Shared-memory data plane: the block arena plus a control segment
  // holding the per-worker rings and the block directory. Everything
  // is mapped before fork so all processes share the pages at the
  // same addresses. Both segments outlive the run: the previous run's
  // workers are all reaped, so nothing else maps them, and the arena
  // is rewound instead of mapped (and faulted in) afresh.
  // ----------------------------------------------------------------
  const uint64_t arena_bytes =
      options_.shm_arena_bytes > 0
          ? options_.shm_arena_bytes
          : EstimateArenaBytes(graph, options_.max_retries);
  if (Reusable(arena_bytes_, arena_bytes)) {
    arena_.Reset();
  } else {
    arena_ = storage::ShmArena();  // unmap before mapping the new one
    arena_bytes_ = 0;
    TB_ASSIGN_OR_RETURN(arena_,
                        storage::ShmArena::Create("arena", arena_bytes));
    arena_bytes_ = arena_bytes;
  }
  storage::ShmArena& arena = arena_;

  const bool use_cache = options_.block_cache;
  const uint64_t cache_bytes = use_cache ? BlockCacheBytes(options_) : 0;

  const uint64_t header_off = 0;
  const uint64_t channels_off = AlignUp64(header_off + sizeof(ControlHeader));
  const uint64_t directory_off =
      AlignUp64(channels_off + static_cast<uint64_t>(num_workers) *
                                   sizeof(WorkerChannel));
  const uint64_t cache_stats_off =
      AlignUp64(directory_off +
                static_cast<uint64_t>(num_data) * sizeof(std::atomic<uint64_t>));
  const uint64_t control_bytes =
      cache_stats_off +
      static_cast<uint64_t>(num_workers) * sizeof(storage::BlockCache::Stats);
  if (!Reusable(control_.bytes(), control_bytes)) {
    control_ = storage::ShmSegment();
    TB_ASSIGN_OR_RETURN(control_,
                        storage::ShmSegment::Create("ctl", control_bytes));
  }
  const storage::ShmSegment& control = control_;
  auto* header = new (control.base() + header_off) ControlHeader();
  auto* channels =
      reinterpret_cast<WorkerChannel*>(control.base() + channels_off);
  for (int w = 0; w < num_workers; ++w) new (&channels[w]) WorkerChannel();
  auto* directory =
      reinterpret_cast<std::atomic<uint64_t>*>(control.base() + directory_off);
  for (DataId d = 0; d < num_data; ++d) {
    new (&directory[d]) std::atomic<uint64_t>(0);
  }
  auto* cache_stats = reinterpret_cast<storage::BlockCache::Stats*>(
      control.base() + cache_stats_off);
  for (int w = 0; w < num_workers; ++w) {
    new (&cache_stats[w]) storage::BlockCache::Stats();
  }

  // Stage and publish the initial values (coordinator-side, pre-fork,
  // so the publications are trivially visible to every worker). The
  // directory stores offset+1 so 0 keeps meaning "never written".
  for (DataId d = 0; d < num_data; ++d) {
    const DataEntry& entry = graph.data(d);
    if (!entry.value.has_value()) continue;
    TB_ASSIGN_OR_RETURN(const uint64_t offset, StageBlock(arena, *entry.value));
    directory[d].store(offset + 1, std::memory_order_release);
  }

  header->origin_ns = NowNs();

  // ----------------------------------------------------------------
  // Fork the workers. Kernels (std::function) and the graph ride into
  // the children via copy-on-write; flush stdio first so buffered
  // output is not duplicated into every child.
  // ----------------------------------------------------------------
  std::fflush(stdout);
  std::fflush(stderr);
  std::vector<pid_t> pids(static_cast<size_t>(num_workers), -1);
  const bool pin = options_.pin_workers && topo.num_domains() > 1;
  for (int w = 0; w < num_workers; ++w) {
    const pid_t pid = fork();
    if (pid == 0) {
      const std::vector<int> cpus =
          pin ? topo.domains[static_cast<size_t>(
                               worker_domain[static_cast<size_t>(w)])].cpus
              : std::vector<int>{};
      WorkerMain(w, graph, arena, header, &channels[w], directory, cpus,
                 options_.check_invariants, cache_bytes, &cache_stats[w]);
    }
    if (pid < 0) {
      header->shutdown.store(1, std::memory_order_release);
      for (int k = 0; k < w; ++k) {
        kill(pids[static_cast<size_t>(k)], SIGKILL);
        waitpid(pids[static_cast<size_t>(k)], nullptr, 0);
      }
      return Status::Internal(
          StrFormat("fork of worker %d failed: %s", w, std::strerror(errno)));
    }
    pids[static_cast<size_t>(w)] = pid;
  }

  // ----------------------------------------------------------------
  // Coordinator loop: dependency counting, topology-aware dispatch,
  // completion draining, liveness. Runs entirely in this thread; no
  // block bytes ever pass through here.
  // ----------------------------------------------------------------
  const int64_t origin_ns = header->origin_ns;
  std::vector<int> remaining(static_cast<size_t>(total), 0);
  std::deque<std::pair<TaskId, int>> ready;  // (task, attempt), FIFO
  struct Delayed {
    double when = 0;
    TaskId task = -1;
    int attempt = 1;
  };
  std::vector<Delayed> delayed;  // retry backoff queue
  std::vector<char> completed(static_cast<size_t>(total), 0);
  std::vector<TaskRecord> records(static_cast<size_t>(total));
  std::vector<TaskAttempt> attempts;
  int64_t retries = 0;
  int64_t dead_workers = 0;
  int64_t num_completed = 0;
  std::vector<int> inflight(static_cast<size_t>(num_workers), 0);
  std::vector<char> alive(static_cast<size_t>(num_workers), 1);
  std::vector<std::vector<std::pair<TaskId, int>>> inflight_tasks(
      static_cast<size_t>(num_workers));
  // Domain whose worker produced each datum's current version; -1 for
  // initial (coordinator-staged) data. The locality signal of
  // placement, exactly like home_node feeds the simulated scheduler.
  std::vector<int> producer_domain(static_cast<size_t>(num_data), -1);
  std::vector<uint64_t> domain_bytes(
      static_cast<size_t>(std::max(1, topo.num_domains())), 0);

  for (TaskId t = 0; t < total; ++t) {
    const int deps = static_cast<int>(graph.task(t).deps.size());
    remaining[static_cast<size_t>(t)] = deps;
    if (deps == 0) ready.emplace_back(t, 1);
  }

  // Invalidation epoch piggybacked on every dispatch: bumped whenever
  // a previously published directory slot is republished, so workers
  // know when a cache sweep could reclaim dead entries.
  uint64_t inval_epoch = 0;

  bool failed = false;
  Status failure;
  auto fail_run = [&](Status status) {
    if (!failed) {
      failed = true;
      failure = std::move(status);
    }
  };

  // Places one ready task: prefer the least-loaded worker in the
  // domain owning most of the task's input bytes; a remote worker
  // wins only when strictly less loaded (2x inflight + 1 domain
  // penalty), which is the process-level version of the thread pool's
  // domain-biased steal order.
  auto dispatch = [&](TaskId t, int attempt) -> bool {
    int preferred = -1;
    if (topo.num_domains() > 1) {
      std::fill(domain_bytes.begin(), domain_bytes.end(), 0);
      for (const Param& p : graph.task(t).spec.params) {
        if (p.dir == Dir::kOut) continue;
        const int pd = producer_domain[static_cast<size_t>(p.data)];
        if (pd >= 0) {
          domain_bytes[static_cast<size_t>(pd)] +=
              graph.data(p.data).bytes;
        }
      }
      uint64_t best_bytes = 0;
      for (size_t dom = 0; dom < domain_bytes.size(); ++dom) {
        if (domain_bytes[dom] > best_bytes) {
          best_bytes = domain_bytes[dom];
          preferred = static_cast<int>(dom);
        }
      }
    }
    int best = -1;
    int best_score = INT32_MAX;
    for (int w = 0; w < num_workers; ++w) {
      if (!alive[static_cast<size_t>(w)]) continue;
      if (inflight[static_cast<size_t>(w)] >= kMaxInflightPerWorker) continue;
      const int score =
          2 * inflight[static_cast<size_t>(w)] +
          (preferred >= 0 && worker_domain[static_cast<size_t>(w)] != preferred
               ? 1
               : 0);
      if (score < best_score) {
        best_score = score;
        best = w;
      }
    }
    if (best < 0) return false;  // every live worker is at capacity
    TaskMsg msg;
    msg.task = t;
    msg.attempt = attempt;
    msg.epoch = inval_epoch;
    if (!channels[best].inbox.Push(msg)) return false;
    ++inflight[static_cast<size_t>(best)];
    inflight_tasks[static_cast<size_t>(best)].emplace_back(t, attempt);
    return true;
  };

  auto handle_completion = [&](const CompletionMsg& msg) {
    auto& mine = inflight_tasks[static_cast<size_t>(msg.worker)];
    for (auto it = mine.begin(); it != mine.end(); ++it) {
      if (it->first == msg.task && it->second == msg.attempt) {
        mine.erase(it);
        --inflight[static_cast<size_t>(msg.worker)];
        break;
      }
    }
    if (completed[static_cast<size_t>(msg.task)]) return;  // stale duplicate
    if (msg.code == 0) {
      // Publish the attempt's staged outputs. Doing this here — not
      // in the worker — makes publication atomic with completion:
      // either the coordinator consumed the completion (outputs
      // visible, task done, never re-run) or it did not (directory
      // untouched, a retry re-reads pre-attempt values). The stale
      // check above also keeps a slower duplicate attempt from
      // overwriting versions successors already read.
      if (msg.outputs != 0) {
        const uint8_t* record = arena.At(msg.outputs - 1);
        uint64_t count = 0;
        std::memcpy(&count, record, sizeof(count));
        for (uint64_t i = 0; i < count; ++i) {
          uint64_t id = 0;
          uint64_t offset = 0;
          std::memcpy(&id, record + 8 + 16 * i, 8);
          std::memcpy(&offset, record + 8 + 16 * i + 8, 8);
          // Republishing an already-written slot (INOUT rewrite, or
          // OUT over an initial value) strands the old tag in worker
          // caches: advance the invalidation epoch so the next
          // dispatch triggers a sweep.
          if (directory[static_cast<DataId>(id)].load(
                  std::memory_order_relaxed) != 0) {
            ++inval_epoch;
          }
          directory[static_cast<DataId>(id)].store(
              offset + 1, std::memory_order_release);
        }
      }
      completed[static_cast<size_t>(msg.task)] = 1;
      ++num_completed;
      const Task& task = graph.task(msg.task);
      TaskRecord& rec = records[static_cast<size_t>(msg.task)];
      rec.task = msg.task;
      rec.type = task.spec.type;
      rec.level = task.level;
      rec.processor = Processor::kCpu;
      rec.node = msg.worker;
      rec.slot = 0;  // workers are single-threaded: one slot each
      rec.stages = perf::StageTimes{};
      rec.stages.deserialize = msg.deserialize_s;
      rec.stages.parallel_fraction = msg.compute_s;
      rec.stages.serialize = msg.serialize_s;
      rec.start = msg.start;
      rec.end = msg.end;
      rec.attempt = msg.attempt;
      for (const Param& p : task.spec.params) {
        if (p.dir != Dir::kIn) {
          producer_domain[static_cast<size_t>(p.data)] =
              worker_domain[static_cast<size_t>(msg.worker)];
        }
      }
      if (options_.max_retries > 0) {
        attempts.push_back(TaskAttempt{msg.task, msg.attempt, msg.worker,
                                       Processor::kCpu, msg.start, msg.end,
                                       AttemptOutcome::kCompleted});
      }
      for (TaskId succ : task.successors) {
        if (--remaining[static_cast<size_t>(succ)] == 0) {
          ready.emplace_back(succ, 1);
        }
      }
      return;
    }
    // Task failure inside a live worker. Fatal failures end the run:
    // code 2 is arena exhaustion (note that every retry re-stages its
    // outputs, so heavy retrying needs extra arena headroom), code 3
    // is an invariant violation the worker detected.
    if (msg.code >= 2 || msg.attempt > options_.max_retries) {
      fail_run(Status::Internal(msg.error).WithContext(StrFormat(
          msg.code == 2
              ? "task %lld attempt %d on worker %d (each retry re-stages "
                "its outputs; raise RunOptions::shm_arena_bytes when "
                "retrying under memory pressure)"
              : "task %lld attempt %d on worker %d",
          static_cast<long long>(msg.task), msg.attempt, msg.worker)));
      return;
    }
    ++retries;
    if (options_.max_retries > 0) {
      attempts.push_back(TaskAttempt{msg.task, msg.attempt, msg.worker,
                                     Processor::kCpu, msg.start, msg.end,
                                     AttemptOutcome::kFailed});
    }
    delayed.push_back(Delayed{
        SecondsSince(origin_ns) + RetryBackoffSeconds(options_, msg.attempt),
        msg.task, msg.attempt + 1});
  };

  // A dead worker's queued/running tasks become kNodeLost attempts
  // and are re-dispatched under the retry budget. Blocks the worker
  // already published live in the arena, so unlike a real cluster
  // node loss nothing has to be recomputed (lost_blocks stays 0).
  auto check_liveness = [&] {
    for (int w = 0; w < num_workers; ++w) {
      if (!alive[static_cast<size_t>(w)]) continue;
      int status = 0;
      const pid_t r = waitpid(pids[static_cast<size_t>(w)], &status, WNOHANG);
      if (r == 0) continue;  // still running, nothing to reap
      // r < 0 (ECHILD) happens when the embedder ignores SIGCHLD and
      // children are auto-reaped: waitpid can never observe the exit.
      // Ask the kernel directly — only a worker whose pid is gone is
      // dead; treating ECHILD as "alive" would spin forever on a
      // crashed worker's in-flight tasks.
      if (r < 0 && kill(pids[static_cast<size_t>(w)], 0) == 0) continue;
      alive[static_cast<size_t>(w)] = 0;
      ++dead_workers;
      // Completions the worker pushed before dying are still in its
      // (shared-memory) outbox — honor them before declaring losses.
      CompletionMsg msg;
      while (channels[w].outbox.Pop(&msg)) handle_completion(msg);
      auto lost = std::move(inflight_tasks[static_cast<size_t>(w)]);
      inflight_tasks[static_cast<size_t>(w)].clear();
      inflight[static_cast<size_t>(w)] = 0;
      const double now = SecondsSince(origin_ns);
      for (const auto& [task, attempt] : lost) {
        if (completed[static_cast<size_t>(task)]) continue;
        if (options_.max_retries > 0) {
          attempts.push_back(TaskAttempt{task, attempt, w, Processor::kCpu, 0,
                                         now, AttemptOutcome::kNodeLost});
        }
        if (attempt > options_.max_retries) {
          fail_run(Status::Internal(StrFormat(
              "task %lld lost with worker %d (attempt %d); retry budget "
              "exhausted",
              static_cast<long long>(task), w, attempt)));
          return;
        }
        ++retries;
        delayed.push_back(Delayed{now + RetryBackoffSeconds(options_, attempt),
                                  task, attempt + 1});
      }
    }
    if (!failed && num_completed < total &&
        std::none_of(alive.begin(), alive.end(),
                     [](char a) { return a != 0; })) {
      fail_run(Status::Internal("all workers died before the run finished"));
    }
  };

  int liveness_tick = 0;
  while (!failed && num_completed < total) {
    if (ctx.cancel != nullptr && ctx.cancel->cancelled()) {
      fail_run(Status::Cancelled("run cancelled"));
      break;
    }
    bool progress = false;
    if (!delayed.empty()) {
      const double now = SecondsSince(origin_ns);
      for (size_t i = 0; i < delayed.size();) {
        if (delayed[i].when <= now) {
          ready.emplace_back(delayed[i].task, delayed[i].attempt);
          delayed[i] = delayed.back();
          delayed.pop_back();
          progress = true;
        } else {
          ++i;
        }
      }
    }
    while (!ready.empty()) {
      const auto [t, attempt] = ready.front();
      if (!dispatch(t, attempt)) break;
      ready.pop_front();
      progress = true;
    }
    for (int w = 0; w < num_workers && !failed; ++w) {
      if (!alive[static_cast<size_t>(w)]) continue;
      CompletionMsg msg;
      while (channels[w].outbox.Pop(&msg)) {
        progress = true;
        handle_completion(msg);
        if (failed) break;
      }
    }
    if (failed) break;
    if (!progress || ++liveness_tick % 64 == 0) check_liveness();
    if (!progress) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }

  // Shut the plane down: workers exit once their inbox drains and the
  // flag is up; SIGKILL is the backstop for workers stuck in a kernel
  // after a failed run.
  header->shutdown.store(1, std::memory_order_release);
  const int64_t reap_deadline_ns = NowNs() + 5'000'000'000LL;
  for (int w = 0; w < num_workers; ++w) {
    if (!alive[static_cast<size_t>(w)]) continue;
    for (;;) {
      const pid_t r = waitpid(pids[static_cast<size_t>(w)], nullptr, WNOHANG);
      if (r == pids[static_cast<size_t>(w)]) break;
      // ECHILD + pid gone: auto-reaped (embedder ignores SIGCHLD).
      if (r < 0 && kill(pids[static_cast<size_t>(w)], 0) != 0) break;
      if (NowNs() > reap_deadline_ns) {
        kill(pids[static_cast<size_t>(w)], SIGKILL);
        waitpid(pids[static_cast<size_t>(w)], nullptr, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }

  if (failed) return failure;

  obs::MetricsRegistry* const metrics_sink =
      ctx.metrics != nullptr ? ctx.metrics : options_.metrics;
  TB_ASSIGN_OR_RETURN(
      const double makespan,
      FinishRealRun(graph, records, num_workers, options_.check_invariants,
                    metrics_sink,
                    use_cache ? std::vector<storage::BlockCache::Stats>(
                                    cache_stats, cache_stats + num_workers)
                              : std::vector<storage::BlockCache::Stats>{}));
  if (metrics_sink != nullptr) {
    obs::MetricsRegistry& registry = *metrics_sink;
    registry.gauge("pool.procs")->Set(num_workers);
    registry.gauge("pool.domains")->Set(topo.num_domains());
    if (retries > 0) registry.counter("pool.retries")->Add(retries);
    if (dead_workers > 0) {
      registry.counter("pool.worker_crashes")->Add(dead_workers);
    }
  }

  // Keep the final tags for FetchData, which reads the records out of
  // the retained arena; the graph entries keep their initial values.
  tags_.resize(static_cast<size_t>(num_data));
  for (DataId d = 0; d < num_data; ++d) {
    tags_[static_cast<size_t>(d)] =
        directory[d].load(std::memory_order_acquire);
  }

  RunReport report;
  report.records = std::move(records);
  report.makespan = makespan;
  report.faults.retries = retries;
  report.faults.dead_nodes = dead_workers;
  report.attempts = std::move(attempts);
  return report;
}

#endif  // !defined(_WIN32)

}  // namespace taskbench::runtime
