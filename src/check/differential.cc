#include "check/differential.h"

#include <cmath>
#include <cstdint>
#include <memory>
#include <sstream>
#include <utility>

#include "check/digest.h"
#include "check/invariants.h"
#include "common/strings.h"
#include "data/kernels.h"
#include "hw/cluster.h"
#include "runtime/executor_factory.h"
#include "runtime/fault.h"
#include "runtime/metrics_export.h"
#include "runtime/multiproc_executor.h"
#include "runtime/run_options.h"
#include "runtime/trace.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "storage/block_storage.h"
#include "storage/faulty_storage.h"

namespace taskbench::check {

namespace {

using data::KernelVariant;
using data::Matrix;
using runtime::DataId;
using runtime::RunOptions;
using runtime::RunReport;

/// Restores the global kernel-dispatch variant on scope exit so a
/// failing leg cannot leak a pinned variant into later workloads.
class ScopedKernelVariant {
 public:
  explicit ScopedKernelVariant(KernelVariant variant)
      : saved_(data::DefaultKernelVariant()) {
    data::SetDefaultKernelVariant(variant);
  }
  ~ScopedKernelVariant() { data::SetDefaultKernelVariant(saved_); }

 private:
  KernelVariant saved_;
};

double MaxAbs(const Matrix& m) {
  double v = 0;
  for (int64_t i = 0; i < m.size(); ++i) {
    v = std::max(v, std::abs(m.data()[i]));
  }
  return v;
}

/// Everything one real (thread-pool) leg produced.
struct RealRun {
  Status status;
  std::vector<Matrix> values;  ///< aligned with workload.compare
  RunReport report;
};

struct RealConfig {
  std::string name;
  int threads = 1;
  bool use_storage = false;
  KernelVariant kernels = KernelVariant::kNaive;
  bool faulty_storage = false;
  /// Versioned per-worker block cache (RunOptions::block_cache); the
  /// naive cache legs must stay bit-exact with their uncached twins.
  bool cache = false;
  /// > 0 selects the multi-process executor with this many forked
  /// workers (threads/use_storage/faulty_storage are then ignored —
  /// the shm arena is the storage).
  int procs = 0;
  /// Multi-process legs only: run a freshly built copy of the workload
  /// a second time on the same executor, whose retained arena then
  /// repeats the first run's offsets and tags; its fetched values must
  /// be bit-identical to the first run's.
  bool rerun = false;
  /// Cost-model policy with an immediate hedge trigger (hedge_min_s
  /// = 0): idle workers race speculative duplicates against the
  /// primaries; the claim protocol must keep values bit-exact.
  bool cost_hedge = false;
};

std::string DescribeDiff(DataId d, const Matrix& got,
                         const Matrix& want) {
  return StrFormat(
      "datum %lld differs: max|delta|=%.3g over shapes %lldx%lld vs "
      "%lldx%lld",
      static_cast<long long>(d), got.MaxAbsDiff(want),
      static_cast<long long>(got.rows()),
      static_cast<long long>(got.cols()),
      static_cast<long long>(want.rows()),
      static_cast<long long>(want.cols()));
}

/// One run of `built` on a multi-process executor that forks `procs`
/// workers: report checked, compared values fetched.
RealRun RunProcsOnce(BuiltWorkload& built, int procs,
                     runtime::Executor& executor) {
  RealRun out;
  // A per-run registry: its pool.procs gauge is the worker count the
  // executor really forked, which must be the one this leg names.
  obs::MetricsRegistry metrics;
  runtime::RunContext ctx;
  ctx.metrics = &metrics;
  auto result = executor.Run(built.graph, ctx);
  if (!result.ok()) {
    out.status = result.status();
    return out;
  }
  out.report = std::move(result).value();
  const double forked = metrics.gauge("pool.procs")->value();
  if (forked != procs) {
    out.status = Status::Internal(StrFormat(
        "leg asks for %d worker processes but the executor forked %g",
        procs, forked));
    return out;
  }
  InvariantContext context;
  context.num_threads = procs;
  out.status = VerifyReport(built.graph, out.report, context);
  if (!out.status.ok()) return out;
  out.values.reserve(built.compare.size());
  for (DataId d : built.compare) {
    auto value = executor.Fetch(built.graph, d);
    if (!value.ok()) {
      out.status = value.status().WithContext(
          StrFormat("fetching datum %lld", static_cast<long long>(d)));
      return out;
    }
    out.values.push_back(std::move(value).value());
  }
  return out;
}

RealRun RunReal(const WorkloadSpec& spec, const RealConfig& config) {
  RealRun out;
  auto built = BuildWorkload(spec);
  if (!built.ok()) {
    out.status = built.status();
    return out;
  }
  ScopedKernelVariant scoped(config.kernels);
  RunOptions options;
  options.num_threads = config.threads;
  options.use_storage = config.use_storage;
  options.check_invariants = true;
  options.block_cache = config.cache;
  if (config.cost_hedge) {
    options.policy = SchedulingPolicy::kCostModel;
    options.sched.hedge_min_s = 0;
  }
  if (config.procs > 0) {
    // Multi-process leg: forked workers + shared-memory arena. The
    // kernel variant pin above rides into the workers via fork.
    options.num_procs = config.procs;
    runtime::ExecutorSpec exec_spec;
    exec_spec.kind = runtime::ExecutorKind::kProcs;
    exec_spec.options = options;
    auto executor_or = runtime::MakeExecutor(exec_spec);
    if (!executor_or.ok()) {
      out.status = executor_or.status();
      return out;
    }
    runtime::Executor& executor = **executor_or;
    out = RunProcsOnce(*built, config.procs, executor);
    if (!out.status.ok() || !config.rerun) return out;
    built = BuildWorkload(spec);
    if (!built.ok()) {
      out.status = built.status();
      return out;
    }
    const RealRun again = RunProcsOnce(*built, config.procs, executor);
    if (!again.status.ok()) {
      out.status = again.status.WithContext("second run on the same executor");
      return out;
    }
    for (size_t i = 0; i < out.values.size(); ++i) {
      if (!(again.values[i] == out.values[i])) {
        out.status = Status::Internal(
            "second run on the same executor: " +
            DescribeDiff(built->compare[i], again.values[i], out.values[i]));
        return out;
      }
    }
    return out;
  }
  std::shared_ptr<storage::FaultyStorage> faulty;
  std::shared_ptr<storage::BlockStorage> store;
  if (config.faulty_storage) {
    // A transient fault every so often, healing after a couple of
    // injected failures each time — exercised through the retry loop.
    faulty = std::make_shared<storage::FaultyStorage>(
        std::make_shared<storage::InMemoryStorage>());
    // Executor staging writes every initial datum before the worker
    // pool (and its retry loop) exists, so the put injector must not
    // fire until staging is done.
    int initial_puts = 0;
    for (DataId d = 0; d < built->graph.num_data(); ++d) {
      if (built->graph.data(d).value.has_value()) ++initial_puts;
    }
    faulty->ops_until_get_failure = 7;
    faulty->get_failures_remaining = 2;
    faulty->ops_until_put_failure = initial_puts + 11;
    faulty->put_failures_remaining = 2;
    store = faulty;
    options.max_retries = 6;
    options.retry_backoff_s = 1e-4;
  }
  runtime::ExecutorSpec exec_spec;
  exec_spec.kind = runtime::ExecutorKind::kThreads;
  exec_spec.options = options;
  exec_spec.store = store;
  auto executor_or = runtime::MakeExecutor(exec_spec);
  if (!executor_or.ok()) {
    out.status = executor_or.status();
    return out;
  }
  runtime::Executor& executor = **executor_or;
  auto result = executor.Run(built->graph);
  if (!result.ok()) {
    out.status = result.status();
    return out;
  }
  out.report = std::move(result).value();
  InvariantContext context;
  context.num_threads = config.threads;
  context.faulted = config.faulty_storage;
  out.status = VerifyReport(built->graph, out.report, context);
  if (!out.status.ok()) return out;
  if (faulty != nullptr) {
    // Disarm the injector: result fetching is the harness reading the
    // run's outputs, not part of the run under test.
    faulty->get_failures_remaining = 0;
    faulty->put_failures_remaining = 0;
  }
  out.values.reserve(built->compare.size());
  for (DataId d : built->compare) {
    auto value = executor.Fetch(built->graph, d);
    if (!value.ok()) {
      out.status = value.status().WithContext(
          StrFormat("fetching datum %lld", static_cast<long long>(d)));
      return out;
    }
    out.values.push_back(std::move(value).value());
  }
  return out;
}

Status ValidateExports(const RunReport& report) {
  std::ostringstream trace;
  runtime::StreamChromeTrace(report, trace);
  TB_RETURN_IF_ERROR(
      obs::ValidateJson(trace.str()).WithContext("chrome trace"));
  std::ostringstream metrics;
  runtime::StreamMetricsJson(report, nullptr, metrics);
  TB_RETURN_IF_ERROR(
      obs::ValidateJson(metrics.str()).WithContext("metrics json"));
  return Status::OK();
}

}  // namespace

std::string DifferentialResult::Summary() const {
  std::string out;
  for (const Divergence& d : divergences) {
    out += "  [" + d.config + "] " + d.detail + "\n";
  }
  return out;
}

DifferentialResult RunDifferential(const WorkloadSpec& spec,
                                   const DifferentialOptions& options) {
  DifferentialResult result;
  auto diverge = [&result](const std::string& config, std::string detail) {
    result.divergences.push_back({config, std::move(detail)});
  };

  // ----------------------------------------------------------------
  // Real (thread-pool) matrix, compared value-for-value against the
  // sequential/memory/naive baseline.
  // ----------------------------------------------------------------
  std::vector<RealConfig> configs;
  configs.push_back({"t1-mem-naive", 1, false, KernelVariant::kNaive});
  configs.push_back({StrFormat("t%d-mem-naive", options.threads),
                     options.threads, false, KernelVariant::kNaive});
  configs.push_back({"t1-store-naive", 1, true, KernelVariant::kNaive});
  configs.push_back({StrFormat("t%d-store-naive", options.threads),
                     options.threads, true, KernelVariant::kNaive});
  configs.push_back({"t1-mem-blocked", 1, false, KernelVariant::kBlocked});
  configs.push_back({StrFormat("t%d-store-blocked", options.threads),
                     options.threads, true, KernelVariant::kBlocked});
  // Versioned block-cache legs: every cached read must be
  // bit-identical to a fresh deserialize, whatever the hit pattern —
  // INOUT rewrites included (the generator's FMA accumulators).
  configs.push_back({"t1-store-naive-cache", 1, true, KernelVariant::kNaive,
                     false, true});
  configs.push_back({StrFormat("t%d-store-naive-cache", options.threads),
                     options.threads, true, KernelVariant::kNaive, false,
                     true});
  {
    // Cost-model hedging leg: duplicates of every hedgeable task may
    // race the primary (hedge_min_s = 0), and only one may publish.
    RealConfig hedge;
    hedge.name = StrFormat("t%d-store-cost-hedge", options.threads);
    hedge.threads = options.threads;
    hedge.use_storage = true;
    hedge.cost_hedge = true;
    configs.push_back(hedge);
  }
  if (options.include_faults) {
    configs.push_back({StrFormat("t%d-faulty-store-naive",
                                 options.threads),
                       options.threads, true, KernelVariant::kNaive,
                       true});
    // Faults + cache: retried attempts re-read partially-written
    // INOUT state; cached reads must track it exactly. (The cache
    // absorbs some Gets, so the injector fires at different logical
    // reads than in the uncached leg — values must not care.)
    configs.push_back({StrFormat("t%d-faulty-store-cache",
                                 options.threads),
                       options.threads, true, KernelVariant::kNaive, true,
                       true});
  }
  if (options.include_multiproc && runtime::MultiProcExecutor::Supported()) {
    // The scale-out plane: same naive kernels, blocks moving through
    // the shm arena instead of a BlockStorage — still bit-exact.
    RealConfig p2{"p2-arena-naive"};
    p2.procs = 2;
    configs.push_back(p2);
    RealConfig p4{"p4-arena-naive"};
    p4.procs = 4;
    configs.push_back(p4);
    // Tag-keyed worker caches over the same arena protocol, run twice
    // on one executor: the second run reuses the retained arena, so
    // its tags repeat the first run's.
    RealConfig p2c{"p2-arena-naive-cache"};
    p2c.procs = 2;
    p2c.cache = true;
    p2c.rerun = true;
    configs.push_back(p2c);
  }

  RealRun baseline = RunReal(spec, configs[0]);
  ++result.real_configs;
  if (!baseline.status.ok()) {
    diverge(configs[0].name, baseline.status.ToString());
    return result;  // nothing to compare against
  }
  if (Status s = ValidateExports(baseline.report); !s.ok()) {
    diverge(configs[0].name, s.ToString());
  }

  // Oracle: families with a closed form must match it (tolerance —
  // the distributed summation order differs from the dense product).
  {
    auto built = BuildWorkload(spec);
    if (built.ok()) {
      for (size_t i = 0; i < built->oracle.size(); ++i) {
        const OracleEntry& entry = built->oracle[i];
        // compare[] holds every datum id in order, so index directly.
        const Matrix& got =
            baseline.values[static_cast<size_t>(entry.id)];
        const double tol =
            options.tolerance * (MaxAbs(entry.expected) + 1.0);
        if (!got.ApproxEquals(entry.expected, tol)) {
          diverge("oracle", DescribeDiff(entry.id, got, entry.expected));
        }
      }
    }
  }

  for (size_t c = 1; c < configs.size(); ++c) {
    const RealConfig& config = configs[c];
    RealRun run = RunReal(spec, config);
    ++result.real_configs;
    if (!run.status.ok()) {
      diverge(config.name, run.status.ToString());
      continue;
    }
    if (run.values.size() != baseline.values.size()) {
      diverge(config.name, "result count mismatch");
      continue;
    }
    const bool exact = config.kernels == KernelVariant::kNaive;
    for (size_t i = 0; i < run.values.size(); ++i) {
      const Matrix& got = run.values[i];
      const Matrix& want = baseline.values[i];
      bool same;
      if (exact) {
        // Same kernels + deterministic per-task inputs: thread count,
        // storage round-trips and retries must not move a single bit.
        same = got == want;
      } else {
        const double tol = options.tolerance * (MaxAbs(want) + 1.0);
        same = got.ApproxEquals(want, tol);
      }
      if (!same) {
        diverge(config.name,
                DescribeDiff(static_cast<DataId>(i), got, want));
        break;  // one datum per config is enough to localize
      }
    }
  }

  if (!options.include_sim) return result;

  // ----------------------------------------------------------------
  // Simulated matrix on the paper's cluster shape. One build serves
  // every leg — the simulator never mutates the graph.
  // ----------------------------------------------------------------
  auto built = BuildWorkload(spec);
  if (!built.ok()) {
    diverge("sim-build", built.status().ToString());
    return result;
  }
  const hw::ClusterSpec cluster = hw::MinotauroCluster();

  struct SimConfig {
    std::string name;
    SchedulingPolicy policy;
    hw::StorageArchitecture storage;
    bool hybrid = false;
  };
  std::vector<SimConfig> sim_configs = {
      {"sim-fifo-shared", SchedulingPolicy::kTaskGenerationOrder,
       hw::StorageArchitecture::kSharedDisk},
      {"sim-fifo-local", SchedulingPolicy::kTaskGenerationOrder,
       hw::StorageArchitecture::kLocalDisk},
      {"sim-locality-shared", SchedulingPolicy::kDataLocality,
       hw::StorageArchitecture::kSharedDisk},
      {"sim-locality-local", SchedulingPolicy::kDataLocality,
       hw::StorageArchitecture::kLocalDisk},
      {"sim-hybrid-shared", SchedulingPolicy::kTaskGenerationOrder,
       hw::StorageArchitecture::kSharedDisk, /*hybrid=*/true},
      // Cost-model legs: with the processor pinned (non-hybrid) the
      // score-ordered ready queue may only reorder tasks, so the
      // metamorphic stage check below applies to them unchanged.
      {"sim-cost-shared", SchedulingPolicy::kCostModel,
       hw::StorageArchitecture::kSharedDisk},
      {"sim-cost-local", SchedulingPolicy::kCostModel,
       hw::StorageArchitecture::kLocalDisk},
      // Hybrid cost leg: CPU->GPU escalation is live here.
      {"sim-cost-hybrid", SchedulingPolicy::kCostModel,
       hw::StorageArchitecture::kSharedDisk, /*hybrid=*/true},
  };

  const RunReport* reference = nullptr;
  RunReport first_report;
  for (const SimConfig& config : sim_configs) {
    RunOptions sim_options;
    sim_options.policy = config.policy;
    sim_options.storage = config.storage;
    sim_options.hybrid = config.hybrid;
    sim_options.check_invariants = true;
    runtime::ExecutorSpec exec_spec;
    exec_spec.kind = runtime::ExecutorKind::kSim;
    exec_spec.options = sim_options;
    exec_spec.cluster = cluster;
    auto executor_or = runtime::MakeExecutor(exec_spec);
    if (!executor_or.ok()) {
      diverge(config.name, executor_or.status().ToString());
      continue;
    }
    runtime::Executor& executor = **executor_or;
    auto run1 = executor.Run(built->graph);
    ++result.sim_configs;
    if (!run1.ok()) {
      diverge(config.name, run1.status().ToString());
      continue;
    }
    auto run2 = executor.Run(built->graph);
    if (!run2.ok()) {
      diverge(config.name, "re-run failed: " + run2.status().ToString());
      continue;
    }
    // Determinism: two replays of the same config are byte-identical.
    const uint64_t d1 = DigestReport(*run1);
    const uint64_t d2 = DigestReport(*run2);
    if (d1 != d2) {
      diverge(config.name,
              StrFormat("non-deterministic replay: digest %016llx != "
                        "%016llx",
                        static_cast<unsigned long long>(d1),
                        static_cast<unsigned long long>(d2)));
      continue;
    }
    InvariantContext context;
    context.cluster = &cluster;
    context.simulated = true;
    if (Status s = VerifyReport(built->graph, *run1, context); !s.ok()) {
      diverge(config.name, s.ToString());
      continue;
    }
    // Metamorphic: scheduling policy, storage architecture and hybrid
    // spill-over may move tasks around, but a task's modeled compute
    // stages depend only on its cost and the processor that ran it —
    // for the non-hybrid legs the processor is pinned, so the stages
    // must be bit-equal across legs.
    if (!config.hybrid) {
      if (reference == nullptr) {
        first_report = std::move(run1).value();
        reference = &first_report;
        if (Status s = ValidateExports(first_report); !s.ok()) {
          diverge(config.name, s.ToString());
        }
      } else {
        for (size_t i = 0; i < reference->records.size(); ++i) {
          const auto& a = reference->records[i];
          const auto& b = run1->records[i];
          if (a.stages.serial_fraction != b.stages.serial_fraction ||
              a.stages.parallel_fraction != b.stages.parallel_fraction ||
              a.stages.cpu_gpu_comm != b.stages.cpu_gpu_comm) {
            diverge(config.name,
                    StrFormat("task %lld compute stages changed under "
                              "scheduling (metamorphic violation)",
                              static_cast<long long>(a.task)));
            break;
          }
        }
      }
    }
  }

  // ----------------------------------------------------------------
  // Hedging is a fault-path feature: with no fault plan, toggling
  // disable_hedging must not change the cost-model report at all.
  // ----------------------------------------------------------------
  {
    uint64_t digests[2] = {0, 0};
    bool ran = true;
    for (int i = 0; i < 2 && ran; ++i) {
      RunOptions sim_options;
      sim_options.policy = SchedulingPolicy::kCostModel;
      sim_options.storage = hw::StorageArchitecture::kSharedDisk;
      sim_options.sched.disable_hedging = i == 1;
      sim_options.check_invariants = true;
      runtime::ExecutorSpec exec_spec;
      exec_spec.kind = runtime::ExecutorKind::kSim;
      exec_spec.options = sim_options;
      exec_spec.cluster = cluster;
      auto executor_or = runtime::MakeExecutor(exec_spec);
      if (!executor_or.ok()) {
        diverge("sim-cost-hedging-toggle", executor_or.status().ToString());
        ran = false;
        break;
      }
      auto run = (**executor_or).Run(built->graph);
      ++result.sim_configs;
      if (!run.ok()) {
        diverge("sim-cost-hedging-toggle", run.status().ToString());
        ran = false;
        break;
      }
      digests[i] = DigestReport(*run);
    }
    if (ran && digests[0] != digests[1]) {
      diverge("sim-cost-hedging-toggle",
              StrFormat("fault-free digest %016llx (hedging on) != "
                        "%016llx (hedging off)",
                        static_cast<unsigned long long>(digests[0]),
                        static_cast<unsigned long long>(digests[1])));
    }
  }

  // ----------------------------------------------------------------
  // Fault-plan legs: the run must complete, verify, replay
  // deterministically and still export valid JSON.
  // ----------------------------------------------------------------
  if (options.include_faults && reference != nullptr) {
    runtime::FaultPlan plan;
    plan.events.push_back({runtime::FaultKind::kNodeCrash,
                           0.35 * reference->makespan, 1, 1.0});
    plan.events.push_back({runtime::FaultKind::kSlowNode,
                           0.1 * reference->makespan, 2, 1.7});
    plan.events.push_back({runtime::FaultKind::kGpuLoss,
                           0.2 * reference->makespan, 3, 1.0});
    plan.storage_fault_rate = 0.01;
    plan.seed = spec.seed;
    struct FaultLeg {
      const char* name;
      SchedulingPolicy policy;
      hw::StorageArchitecture storage;
    };
    // The cost-model legs run the full straggler machinery: the slow
    // node in the plan makes hedges fire, and their cancellations and
    // detached twins must replay deterministically like any retry.
    const FaultLeg fault_legs[] = {
        {"sim-fault-shared", SchedulingPolicy::kDataLocality,
         hw::StorageArchitecture::kSharedDisk},
        {"sim-fault-local", SchedulingPolicy::kDataLocality,
         hw::StorageArchitecture::kLocalDisk},
        {"sim-fault-cost-shared", SchedulingPolicy::kCostModel,
         hw::StorageArchitecture::kSharedDisk},
        {"sim-fault-cost-local", SchedulingPolicy::kCostModel,
         hw::StorageArchitecture::kLocalDisk},
    };
    for (const FaultLeg& leg : fault_legs) {
      const std::string name = leg.name;
      RunOptions sim_options;
      sim_options.policy = leg.policy;
      sim_options.storage = leg.storage;
      sim_options.faults = plan;
      sim_options.max_retries = 8;
      sim_options.retry_backoff_s = 0.01;
      sim_options.check_invariants = true;
      runtime::ExecutorSpec exec_spec;
      exec_spec.kind = runtime::ExecutorKind::kSim;
      exec_spec.options = sim_options;
      exec_spec.cluster = cluster;
      auto executor_or = runtime::MakeExecutor(exec_spec);
      if (!executor_or.ok()) {
        diverge(name, executor_or.status().ToString());
        continue;
      }
      runtime::Executor& executor = **executor_or;
      auto run1 = executor.Run(built->graph);
      ++result.sim_configs;
      if (!run1.ok()) {
        diverge(name, run1.status().ToString());
        continue;
      }
      auto run2 = executor.Run(built->graph);
      if (!run2.ok() ||
          Fnv1a(kFnvOffsetBasis,
                CanonicalReport(*run1) + CanonicalAttempts(*run1)) !=
              Fnv1a(kFnvOffsetBasis,
                    CanonicalReport(*run2) + CanonicalAttempts(*run2))) {
        diverge(name, "fault replay not deterministic");
        continue;
      }
      InvariantContext context;
      context.cluster = &cluster;
      context.simulated = true;
      context.faulted = true;
      if (Status s = VerifyReport(built->graph, *run1, context);
          !s.ok()) {
        diverge(name, s.ToString());
        continue;
      }
      if (Status s = ValidateExports(*run1); !s.ok()) {
        diverge(name, s.ToString());
      }
    }
  }

  return result;
}

}  // namespace taskbench::check
