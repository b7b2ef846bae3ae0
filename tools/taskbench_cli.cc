// taskbench — command-line front end of the library.
//
// Subcommands:
//   run        Run one simulated experiment and print its metrics.
//   exec       Really execute a distributed matmul on this host, on
//              the in-process thread pool (--workers=4) or the forked
//              shared-memory workers (--workers=4proc). The executor
//              can also be named directly: --executor=threads|procs.
//   serve      Run the resident multi-tenant workflow service under a
//              seeded open-loop arrival stream and print its
//              per-tenant ServiceReport as JSON (stdout is the JSON
//              document; progress goes to stderr). Options:
//                --executor=threads|sim  (procs refuses: its workers
//                  are forked, see docs/SCALE_OUT.md)
//                --runners=N --duration=S --tenants=N
//                --rate=HZ --skew=F      tenant i offers rate*F^i /s
//                --arrivals=poisson|bursty|heavytail --seed=N
//                --max-in-flight=N --max-queued=N (admission caps)
//                --deadline=S --cancel-every=N (tenant 0 cancels
//                  every Nth of its own submissions)
//   import     Import a WfFormat (WfCommons) workflow instance, print
//              its structure, and run it. Options:
//                --executor=sim|threads|procs  (default sim: the
//                  simulation keeps the instance's true byte sizes;
//                  threads/procs execute a materialized miniature and
//                  print a bit-exact value digest)
//                --policy=gen-order|locality|cost  --workers=N
//                --export=PATH  re-serialize the imported instance as
//                  normalized WfFormat JSON (round-trip check)
//                --stats-only   validate + print structure, don't run
//   sweep      Sweep the paper's grid dimensions for one algorithm.
//   correlate  Run the correlation sample set; print/export the matrix.
//   recommend  Auto-tune block dimension + processor for a workload.
//   dag        Print the workflow DAG in Graphviz DOT format.
//
// Every command refuses (exit 1, naming them) the options it would
// ignore: unknown flags, typos, and flags another command takes.
//
// Common options:
//   --algorithm=matmul|matmul-fma|kmeans|logreg|transpose
//   --dataset=matmul-8gb|matmul-32gb|kmeans-10gb|kmeans-100gb|...
//     or --rows=N --cols=N for a custom dataset
//   --grid=RxC          grid dimension (e.g. 16x16 or 256x1)
//   --clusters=K        K-means algorithm-specific parameter
//   --iterations=N      iterative algorithms' outer loop
//   --processor=cpu|gpu --storage=local|shared
//   --policy=gen-order|locality|cost --hybrid (CPU+GPU spill placement)
//   --disable-hedging   cost policy: no speculative straggler twins
//   --disable-escalation cost policy: no CPU->GPU upgrades (hybrid)
//   --faults=PLAN       fault-injection plan, comma-separated entries:
//                         crash@T:nN      node N crashes at time T
//                         gpuloss@T:nN    node N loses one GPU at T
//                         slow@T:nN:xF    node N computes F x slower
//                         storage:pP[:sS] disk ops fail w.p. P (seed S)
//   --retries=N         per-task retry budget under faults (default 0)
//   --retry-backoff=S   base of the exponential retry backoff, seconds
//   --csv=PATH          write results as CSV
//   --trace=PATH        write a chrome://tracing JSON of the run
//   --flow-events       add dependency arrows to the trace
//   --metrics-json=PATH write run telemetry (counters, histograms,
//                       scheduler phase breakdown) as JSON
//   --gantt             print an ASCII occupancy chart of the run
//
// Examples:
//   taskbench run --algorithm=kmeans --dataset=kmeans-10gb --grid=256x1
//       --processor=gpu --storage=shared --policy=gen-order
//   taskbench run --algorithm=kmeans --grid=256x1 --storage=local
//       --faults=crash@2.0:n3,storage:p0.001 --retries=3
//   taskbench sweep --algorithm=matmul --dataset=matmul-8gb --csv=out.csv
//   taskbench recommend --algorithm=kmeans --dataset=kmeans-10gb

#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "algos/api.h"
#include "algos/kmeans.h"
#include "algos/logreg.h"
#include "algos/matmul.h"
#include "algos/transpose.h"
#include "analysis/csv.h"
#include "analysis/experiment.h"
#include "analysis/factor_space.h"
#include "analysis/guidelines.h"
#include "analysis/report.h"
#include "common/args.h"
#include "common/strings.h"
#include "data/generators.h"
#include "common/random.h"
#include "obs/metrics.h"
#include "check/digest.h"
#include "runtime/executor_factory.h"
#include "runtime/fault.h"
#include "runtime/metrics_export.h"
#include "runtime/multiproc_executor.h"
#include "runtime/scheduler.h"
#include "runtime/simulated_executor.h"
#include "runtime/thread_pool_executor.h"
#include "runtime/trace.h"
#include "service/load.h"
#include "service/workflow_service.h"
#include "wf/build.h"
#include "wf/import.h"
#include "wf/instance.h"

namespace tb = taskbench;
using tb::analysis::Algorithm;
using tb::analysis::ExperimentConfig;

namespace {

int Fail(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  return 1;
}

/// Each command calls this once it has read every option it uses:
/// any other option would be silently ignored, so it is refused.
int FailOnUnread(const tb::Args& args) {
  const tb::Status unread = args.CheckAllRead();
  return unread.ok() ? 0 : Fail(unread.ToString());
}

tb::Result<Algorithm> ParseAlgorithm(const std::string& name) {
  if (name == "matmul") return Algorithm::kMatmul;
  if (name == "matmul-fma") return Algorithm::kMatmulFma;
  if (name == "kmeans") return Algorithm::kKMeans;
  return tb::Status::InvalidArgument(
      "unknown --algorithm '" + name +
      "' (matmul, matmul-fma, kmeans; logreg/transpose support `dag`)");
}

tb::Result<tb::data::DatasetSpec> ParseDataset(const tb::Args& args,
                                               Algorithm algorithm) {
  using tb::data::PaperDatasets;
  const std::string name = args.GetString("dataset");
  if (name == "matmul-8gb") return PaperDatasets::Matmul8GB();
  if (name == "matmul-32gb") return PaperDatasets::Matmul32GB();
  if (name == "matmul-2gb") return PaperDatasets::Matmul2GB();
  if (name == "matmul-128mb") return PaperDatasets::Matmul128MB();
  if (name == "kmeans-10gb") return PaperDatasets::KMeans10GB();
  if (name == "kmeans-100gb") return PaperDatasets::KMeans100GB();
  if (name == "kmeans-1gb") return PaperDatasets::KMeans1GB();
  if (name == "kmeans-100mb") return PaperDatasets::KMeans100MB();
  if (!name.empty()) {
    return tb::Status::InvalidArgument("unknown --dataset '" + name + "'");
  }
  TB_ASSIGN_OR_RETURN(const int64_t rows, args.GetInt("rows", 0));
  TB_ASSIGN_OR_RETURN(const int64_t cols, args.GetInt("cols", 0));
  if (rows > 0 && cols > 0) {
    return tb::data::DatasetSpec{"custom", rows, cols};
  }
  // Sensible defaults per algorithm family.
  return algorithm == Algorithm::kKMeans ? PaperDatasets::KMeans10GB()
                                         : PaperDatasets::Matmul8GB();
}

tb::Result<std::pair<int64_t, int64_t>> ParseGrid(const std::string& text) {
  const auto parts = tb::Split(text, 'x');
  if (parts.size() != 2) {
    return tb::Status::InvalidArgument("--grid expects RxC, e.g. 16x16");
  }
  TB_ASSIGN_OR_RETURN(const int64_t r, tb::ParseInt64(parts[0]));
  TB_ASSIGN_OR_RETURN(const int64_t c, tb::ParseInt64(parts[1]));
  if (r <= 0 || c <= 0) {
    return tb::Status::InvalidArgument("--grid dimensions must be positive");
  }
  return std::make_pair(r, c);
}

/// Reads the experiment options. Commands that vary the grid and the
/// processor themselves (sweep, recommend) pass `fixed_grid` = false,
/// which leaves --grid and --processor unread, so they are refused.
tb::Result<ExperimentConfig> BuildConfig(const tb::Args& args,
                                         bool fixed_grid = true) {
  ExperimentConfig config;
  TB_ASSIGN_OR_RETURN(config.algorithm,
                      ParseAlgorithm(args.GetString("algorithm", "matmul")));
  TB_ASSIGN_OR_RETURN(config.dataset, ParseDataset(args, config.algorithm));
  if (fixed_grid) {
    TB_ASSIGN_OR_RETURN(
        const auto grid,
        ParseGrid(args.GetString(
            "grid",
            config.algorithm == Algorithm::kKMeans ? "256x1" : "8x8")));
    config.grid_rows = grid.first;
    config.grid_cols = grid.second;
    const std::string processor = args.GetString("processor", "cpu");
    if (processor == "cpu") {
      config.processor = tb::Processor::kCpu;
    } else if (processor == "gpu") {
      config.processor = tb::Processor::kGpu;
    } else {
      return tb::Status::InvalidArgument("--processor expects cpu|gpu");
    }
  }
  // Only K-means has clusters and an outer loop.
  if (config.algorithm == Algorithm::kKMeans) {
    TB_ASSIGN_OR_RETURN(const int64_t clusters, args.GetInt("clusters", 10));
    config.clusters = static_cast<int>(clusters);
    TB_ASSIGN_OR_RETURN(const int64_t iters, args.GetInt("iterations", 1));
    config.iterations = static_cast<int>(iters);
  }

  const std::string storage = args.GetString("storage", "shared");
  if (storage == "local") {
    config.run.storage = tb::hw::StorageArchitecture::kLocalDisk;
  } else if (storage == "shared") {
    config.run.storage = tb::hw::StorageArchitecture::kSharedDisk;
  } else {
    return tb::Status::InvalidArgument("--storage expects local|shared");
  }
  const std::string policy = args.GetString("policy", "gen-order");
  const auto parsed_policy = tb::runtime::ParseSchedulingPolicy(policy);
  if (!parsed_policy.has_value()) {
    return tb::Status::InvalidArgument(
        "--policy expects gen-order|locality|cost, got '" + policy + "'");
  }
  config.run.policy = *parsed_policy;
  TB_ASSIGN_OR_RETURN(config.run.sched.disable_hedging,
                      args.GetBool("disable-hedging", false));
  TB_ASSIGN_OR_RETURN(config.run.sched.disable_escalation,
                      args.GetBool("disable-escalation", false));
  if (args.Has("faults")) {
    TB_ASSIGN_OR_RETURN(config.run.faults,
                        tb::runtime::FaultPlan::Parse(
                            args.GetString("faults")));
  }
  TB_ASSIGN_OR_RETURN(const int64_t retries, args.GetInt("retries", 0));
  config.run.max_retries = static_cast<int>(retries);
  TB_ASSIGN_OR_RETURN(
      config.run.retry_backoff_s,
      args.GetDouble("retry-backoff", config.run.retry_backoff_s));
  config.label = tb::StrFormat(
      "%s/%s/%lldx%lld/%s/%s/%s",
      ToString(config.algorithm).c_str(), config.dataset.name.c_str(),
      static_cast<long long>(config.grid_rows),
      static_cast<long long>(config.grid_cols),
      tb::ToString(config.processor).c_str(),
      tb::hw::ToString(config.run.storage).c_str(),
      tb::ToString(config.run.policy).c_str());
  return config;
}

/// Builds the workflow DAG of `config` (also used to re-derive
/// dependency edges for --flow-events trace export).
tb::Result<tb::runtime::TaskGraph> BuildGraphFor(
    const ExperimentConfig& config) {
  TB_ASSIGN_OR_RETURN(
      tb::data::GridSpec spec,
      tb::data::GridSpec::CreateFromGridDim(config.dataset, config.grid_rows,
                                            config.grid_cols));
  if (config.algorithm == Algorithm::kKMeans) {
    tb::algos::KMeansOptions options;
    options.num_clusters = config.clusters;
    options.iterations = config.iterations;
    options.processor = config.processor;
    TB_ASSIGN_OR_RETURN(auto wf, tb::algos::BuildKMeans(spec, options));
    return std::move(wf.graph);
  }
  tb::algos::MatmulOptions options;
  options.processor = config.processor;
  options.fma = config.algorithm == Algorithm::kMatmulFma;
  TB_ASSIGN_OR_RETURN(auto wf, tb::algos::BuildMatmul(spec, options));
  return std::move(wf.graph);
}

/// Runs one experiment, optionally in hybrid placement mode
/// (--hybrid re-executes the built workflow with spilling enabled).
tb::Result<tb::analysis::ExperimentResult> RunMaybeHybrid(
    bool hybrid, const ExperimentConfig& config) {
  if (!hybrid) return tb::analysis::RunExperiment(config);

  TB_ASSIGN_OR_RETURN(tb::analysis::ExperimentResult result,
                      tb::analysis::DescribeExperiment(config));
  result.oom = false;  // hybrid degrades OOM tasks to CPU
  TB_ASSIGN_OR_RETURN(tb::runtime::TaskGraph graph, BuildGraphFor(config));
  tb::runtime::RunOptions exec = config.run;
  exec.hybrid = true;
  tb::runtime::SimulatedExecutor executor(config.cluster, exec);
  TB_ASSIGN_OR_RETURN(result.report, executor.Execute(graph));
  result.stages_by_type = result.report.MeanStagesByType();
  result.parallel_task_time = result.report.MeanLevelTime();
  result.makespan = result.report.makespan;
  return result;
}

int CmdRun(const tb::Args& args) {
  auto config = BuildConfig(args);
  if (!config.ok()) return Fail(config.status().ToString());
  const auto hybrid = args.GetBool("hybrid", false);
  if (!hybrid.ok()) return Fail(hybrid.status().ToString());
  const auto gantt = args.GetBool("gantt", false);
  if (!gantt.ok()) return Fail(gantt.status().ToString());
  const auto trace_path = args.GetPath("trace");
  if (!trace_path.ok()) return Fail(trace_path.status().ToString());
  const bool trace = !trace_path->empty();
  // Dependency arrows only exist in a trace; without --trace the flag
  // stays unread and is refused.
  const auto flow = trace ? args.GetBool("flow-events", false) : false;
  if (!flow.ok()) return Fail(flow.status().ToString());
  const auto metrics_path = args.GetPath("metrics-json");
  if (!metrics_path.ok()) return Fail(metrics_path.status().ToString());
  const bool metrics_json = !metrics_path->empty();
  const auto csv_path = args.GetPath("csv");
  if (!csv_path.ok()) return Fail(csv_path.status().ToString());
  const bool csv = !csv_path->empty();
  if (const int rc = FailOnUnread(args)) return rc;

  tb::obs::MetricsRegistry registry;
  if (metrics_json) config->run.metrics = &registry;
  auto result = RunMaybeHybrid(*hybrid, *config);
  if (!result.ok()) return Fail(result.status().ToString());

  std::printf("experiment: %s\n", config->label.c_str());
  if (result->oom) {
    std::printf("GPU OOM: %s\n", result->oom_detail.c_str());
    return 0;
  }
  std::printf("block size: %s   blocks: %lld   DAG: width %lld, "
              "height %lld\n",
              tb::HumanBytes(result->block_bytes).c_str(),
              static_cast<long long>(result->num_blocks),
              static_cast<long long>(result->dag_width),
              static_cast<long long>(result->dag_height));
  std::printf("makespan: %s   parallel-task time: %s   scheduler "
              "overhead: %s\n",
              tb::HumanSeconds(result->makespan).c_str(),
              tb::HumanSeconds(result->parallel_task_time).c_str(),
              tb::HumanSeconds(result->report.scheduler_overhead).c_str());
  const tb::runtime::SchedulerPhaseBreakdown& phases =
      result->report.sched_phases;
  if (phases.any()) {
    std::printf("scheduler phases: ready-pop %s   locality %s   "
                "slot-pick %s\n",
                tb::HumanSeconds(phases.ready_pop_s).c_str(),
                tb::HumanSeconds(phases.locality_s).c_str(),
                tb::HumanSeconds(phases.slot_pick_s).c_str());
  }
  const tb::runtime::FaultStats& faults = result->report.faults;
  if (faults.any()) {
    std::printf(
        "faults: %lld injected (%lld storage)   retries: %lld   "
        "recomputed tasks: %lld   lost blocks: %lld   dead nodes: %lld"
        "   hedges: %lld\n",
        static_cast<long long>(faults.faults_injected),
        static_cast<long long>(faults.storage_faults),
        static_cast<long long>(faults.retries),
        static_cast<long long>(faults.recomputed_tasks),
        static_cast<long long>(faults.lost_blocks),
        static_cast<long long>(faults.dead_nodes),
        static_cast<long long>(faults.hedges));
  }
  tb::analysis::TextTable stages({"task type", "count", "deser", "serial",
                                  "parallel", "comm", "ser"});
  const auto counts = result->report.CountByType();
  for (const auto& [type, mean] : result->stages_by_type) {
    stages.AddRow({type, tb::StrFormat("%d", counts.at(type)),
                   tb::HumanSeconds(mean.deserialize),
                   tb::HumanSeconds(mean.serial_fraction),
                   tb::HumanSeconds(mean.parallel_fraction),
                   tb::HumanSeconds(mean.cpu_gpu_comm),
                   tb::HumanSeconds(mean.serialize)});
  }
  std::printf("%s", stages.ToString().c_str());

  if (*gantt) {
    std::printf("\n%s", tb::analysis::AsciiGantt(result->report).c_str());
  }
  if (trace) {
    tb::runtime::TraceOptions trace_options;
    tb::runtime::TaskGraph graph;
    if (*flow) {
      // The run consumed its graph; rebuild it (deterministic) to
      // recover the dependency edges the arrows are drawn from.
      auto rebuilt = BuildGraphFor(*config);
      if (!rebuilt.ok()) return Fail(rebuilt.status().ToString());
      graph = std::move(*rebuilt);
      trace_options.graph = &graph;
      trace_options.flow_events = true;
    }
    const tb::Status status = tb::runtime::WriteChromeTrace(
        result->report, *trace_path, trace_options);
    if (!status.ok()) return Fail(status.ToString());
    std::printf("trace written to %s\n", trace_path->c_str());
  }
  if (metrics_json) {
    const tb::Status status = tb::runtime::WriteMetricsJson(
        result->report, &registry, *metrics_path);
    if (!status.ok()) return Fail(status.ToString());
    std::printf("metrics written to %s\n", metrics_path->c_str());
  }
  if (csv) {
    const tb::Status status = tb::analysis::WriteFile(
        *csv_path, tb::analysis::TaskRecordsCsv(result->report));
    if (!status.ok()) return Fail(status.ToString());
    std::printf("task records written to %s\n", csv_path->c_str());
  }
  return 0;
}

/// `--workers=4` runs on the in-process thread pool; `--workers=4proc`
/// on the forked shared-memory workers (the scale-out plane).
tb::Result<std::pair<int, bool>> ParseWorkers(const std::string& text) {
  std::string digits = text;
  bool procs = false;
  if (digits.size() > 4 && digits.substr(digits.size() - 4) == "proc") {
    procs = true;
    digits = digits.substr(0, digits.size() - 4);
  }
  TB_ASSIGN_OR_RETURN(const int64_t n, tb::ParseInt64(digits));
  if (n <= 0 || n > 1024) {
    return tb::Status::InvalidArgument(
        "--workers expects N or Nproc with 0 < N <= 1024, got '" + text +
        "'");
  }
  return std::make_pair(static_cast<int>(n), procs);
}

int CmdExec(const tb::Args& args) {
  auto workers = ParseWorkers(args.GetString("workers", "2proc"));
  if (!workers.ok()) return Fail(workers.status().ToString());
  const auto n_or = args.GetInt("n", 512);
  if (!n_or.ok()) return Fail(n_or.status().ToString());
  // 0 = auto: one block per worker along the partitioned dimension.
  const auto block_dim_or = args.GetInt("block-dim", 0);
  if (!block_dim_or.ok()) return Fail(block_dim_or.status().ToString());

  tb::runtime::ExecutorSpec spec;
  spec.options.block_dim = *block_dim_or;
  // num_threads also feeds the auto block-dim choice, so set it for
  // both planes; num_procs only matters to the multi-process one.
  spec.options.num_threads = workers->first;
  spec.options.num_procs = workers->first;
  // --workers=Nproc picks the executor implicitly; an explicit
  // --executor=threads|procs wins.
  spec.kind = workers->second ? tb::runtime::ExecutorKind::kProcs
                              : tb::runtime::ExecutorKind::kThreads;
  if (args.Has("executor")) {
    auto kind = tb::runtime::ParseExecutorKind(args.GetString("executor"));
    if (!kind.ok()) return Fail(kind.status().ToString());
    if (*kind == tb::runtime::ExecutorKind::kSim) {
      return Fail(
          "exec computes real matrices; --executor expects threads|procs "
          "(use the `run` command for the simulator)");
    }
    spec.kind = *kind;
  }
  if (const int rc = FailOnUnread(args)) return rc;
  auto executor_or = tb::runtime::MakeExecutor(spec);
  if (!executor_or.ok()) return Fail(executor_or.status().ToString());
  std::unique_ptr<tb::runtime::Executor> executor = std::move(*executor_or);

  tb::data::Matrix a(*n_or, *n_or);
  tb::data::Matrix b(*n_or, *n_or);
  tb::Rng rng(7);
  tb::data::FillUniform(&a, &rng);
  tb::data::FillUniform(&b, &rng);

  auto run = tb::algos::RunDistributedMatmul(*executor, a, b);
  if (!run.ok()) return Fail(run.status().ToString());

  double checksum = 0;
  for (int64_t i = 0; i < run->product.size(); ++i) {
    checksum += run->product.data()[i];
  }
  std::printf("executor: %s   workers: %d   matmul n=%lld block-dim=%lld\n",
              executor->name().c_str(), workers->first,
              static_cast<long long>(*n_or),
              static_cast<long long>(*block_dim_or));
  std::printf("tasks: %zu   makespan: %s   checksum: %.6f\n",
              run->report.records.size(),
              tb::HumanSeconds(run->report.makespan).c_str(), checksum);
  const tb::runtime::FaultStats& faults = run->report.faults;
  if (faults.any()) {
    std::printf("retries: %lld   dead workers: %lld\n",
                static_cast<long long>(faults.retries),
                static_cast<long long>(faults.dead_nodes));
  }
  return 0;
}

/// Resident-service demo/soak driver: N tenants with geometrically
/// skewed offered rates push seeded open-loop load through one shared
/// executor for --duration wall seconds, then the drained service's
/// per-tenant report is printed as a single JSON document on stdout
/// (pipe it through json_lint). Exits non-zero if any submission is
/// still queued or running after the drain — a stuck submission is a
/// service bug, not load.
int CmdServe(const tb::Args& args) {
  auto kind = tb::runtime::ParseExecutorKind(args.GetString("executor", "sim"));
  if (!kind.ok()) return Fail(kind.status().ToString());
  if (*kind == tb::runtime::ExecutorKind::kProcs) {
    return Fail(
        "serve runs submissions from concurrent runner threads; the "
        "multi-process executor refuses multi-threaded callers (see "
        "docs/SCALE_OUT.md) — --executor expects threads|sim");
  }
  const auto duration_or = args.GetDouble("duration", 2.0);
  if (!duration_or.ok()) return Fail(duration_or.status().ToString());
  const auto tenants_or = args.GetInt("tenants", 3);
  if (!tenants_or.ok()) return Fail(tenants_or.status().ToString());
  const auto rate_or = args.GetDouble("rate", 8.0);
  if (!rate_or.ok()) return Fail(rate_or.status().ToString());
  const auto skew_or = args.GetDouble("skew", 2.0);
  if (!skew_or.ok()) return Fail(skew_or.status().ToString());
  const auto runners_or = args.GetInt("runners", 2);
  if (!runners_or.ok()) return Fail(runners_or.status().ToString());
  const auto seed_or = args.GetInt("seed", 1);
  if (!seed_or.ok()) return Fail(seed_or.status().ToString());
  const auto in_flight_or = args.GetInt("max-in-flight", 64);
  if (!in_flight_or.ok()) return Fail(in_flight_or.status().ToString());
  const auto max_queued_or = args.GetInt("max-queued", 0);
  if (!max_queued_or.ok()) return Fail(max_queued_or.status().ToString());
  const auto deadline_or = args.GetDouble("deadline", 0.0);
  if (!deadline_or.ok()) return Fail(deadline_or.status().ToString());
  const auto cancel_or = args.GetInt("cancel-every", 0);
  if (!cancel_or.ok()) return Fail(cancel_or.status().ToString());
  auto process = tb::service::ParseArrivalProcess(
      args.GetString("arrivals", "poisson"));
  if (!process.ok()) return Fail(process.status().ToString());
  if (const int rc = FailOnUnread(args)) return rc;
  if (*tenants_or < 1 || *tenants_or > 64) {
    return Fail("--tenants expects 1..64");
  }
  if (*duration_or <= 0) return Fail("--duration must be positive");

  tb::runtime::ExecutorSpec spec;
  spec.kind = *kind;
  auto executor_or = tb::runtime::MakeExecutor(spec);
  if (!executor_or.ok()) return Fail(executor_or.status().ToString());
  std::shared_ptr<tb::runtime::Executor> executor = std::move(*executor_or);

  tb::service::ServiceOptions service_options;
  service_options.num_runners = static_cast<int>(*runners_or);
  service_options.max_in_flight = static_cast<int>(*in_flight_or);
  service_options.max_queued = static_cast<int>(*max_queued_or);
  tb::service::WorkflowService service(executor, service_options);

  std::vector<tb::service::TenantLoad> loads;
  for (int64_t i = 0; i < *tenants_or; ++i) {
    tb::service::TenantLoad load;
    load.tenant = tb::StrFormat("tenant-%lld", static_cast<long long>(i));
    load.arrivals.process = *process;
    load.arrivals.rate_hz = *rate_or * std::pow(*skew_or, i);
    load.seed = static_cast<uint64_t>(*seed_or) * 7919 +
                static_cast<uint64_t>(i);
    load.deadline_s = *deadline_or;
    if (i == 0) load.cancel_every = static_cast<int>(*cancel_or);
    loads.push_back(std::move(load));
  }

  std::fprintf(stderr,
               "serve: %s executor, %d runners, %lld tenants, base rate "
               "%.3g/s (skew %.3g), %s arrivals, %.3gs window\n",
               executor->name().c_str(), service_options.num_runners,
               static_cast<long long>(*tenants_or), *rate_or, *skew_or,
               std::string(tb::service::ArrivalProcessName(*process)).c_str(),
               *duration_or);
  auto stats = tb::service::RunOpenLoad(&service, loads, *duration_or);
  if (!stats.ok()) return Fail(stats.status().ToString());
  service.Shutdown();

  const tb::service::ServiceReport report = service.Report();
  std::fprintf(stderr,
               "serve: offered %lld, admitted %lld, rejected %lld, "
               "driver-cancelled %lld; completed %lld, failed %lld, "
               "cancelled %lld, expired %lld\n",
               static_cast<long long>(stats->offered),
               static_cast<long long>(stats->admitted),
               static_cast<long long>(stats->rejected),
               static_cast<long long>(stats->cancelled),
               static_cast<long long>(report.completed),
               static_cast<long long>(report.failed),
               static_cast<long long>(report.cancelled),
               static_cast<long long>(report.expired));
  std::printf("%s\n", report.ToJson().c_str());
  if (report.still_queued != 0 || report.still_running != 0) {
    return Fail(tb::StrFormat(
        "stuck submissions after drain: %lld queued, %lld running",
        static_cast<long long>(report.still_queued),
        static_cast<long long>(report.still_running)));
  }
  return 0;
}

int CmdSweep(const tb::Args& args) {
  auto base = BuildConfig(args, /*fixed_grid=*/false);
  if (!base.ok()) return Fail(base.status().ToString());
  const auto csv_path = args.GetPath("csv");
  if (!csv_path.ok()) return Fail(csv_path.status().ToString());
  if (const int rc = FailOnUnread(args)) return rc;
  const auto grids = base->algorithm == Algorithm::kKMeans
                         ? tb::analysis::KMeansPaperGrids()
                         : tb::analysis::MatmulPaperGrids();
  std::vector<tb::analysis::ExperimentResult> results;
  tb::analysis::TextTable table(
      {"grid", "block", "CPU p.tasks", "GPU p.tasks", "speedup"});
  for (const auto& [gr, gc] : grids) {
    ExperimentConfig config = *base;
    config.grid_rows = gr;
    config.grid_cols = gc;
    config.processor = tb::Processor::kCpu;
    auto cpu = tb::analysis::RunExperiment(config);
    if (!cpu.ok()) return Fail(cpu.status().ToString());
    config.processor = tb::Processor::kGpu;
    auto gpu = tb::analysis::RunExperiment(config);
    if (!gpu.ok()) return Fail(gpu.status().ToString());
    table.AddRow(
        {tb::StrFormat("%lldx%lld", static_cast<long long>(gr),
                       static_cast<long long>(gc)),
         tb::HumanBytes(cpu->block_bytes),
         cpu->oom ? "OOM" : tb::HumanSeconds(cpu->parallel_task_time),
         gpu->oom ? "GPU OOM" : tb::HumanSeconds(gpu->parallel_task_time),
         (cpu->oom || gpu->oom)
             ? "-"
             : tb::analysis::FormatSpeedup(tb::analysis::SignedSpeedup(
                   cpu->parallel_task_time, gpu->parallel_task_time))});
    results.push_back(std::move(*cpu));
    results.push_back(std::move(*gpu));
  }
  std::printf("%s", table.ToString().c_str());
  if (!csv_path->empty()) {
    const tb::Status status = tb::analysis::WriteFile(
        *csv_path, tb::analysis::ExperimentsCsv(results));
    if (!status.ok()) return Fail(status.ToString());
    std::printf("results written to %s\n", csv_path->c_str());
  }
  return 0;
}

int CmdCorrelate(const tb::Args& args) {
  const auto csv_path = args.GetPath("csv");
  if (!csv_path.ok()) return Fail(csv_path.status().ToString());
  if (const int rc = FailOnUnread(args)) return rc;
  const auto configs = tb::analysis::CorrelationSampleConfigs();
  std::printf("running %zu configurations...\n", configs.size());
  std::vector<tb::analysis::ExperimentResult> results;
  for (const auto& config : configs) {
    auto result = tb::analysis::RunExperiment(config);
    if (!result.ok()) return Fail(result.status().ToString());
    results.push_back(std::move(*result));
  }
  auto table = tb::analysis::BuildFeatureTableFromResults(results);
  if (!table.ok()) return Fail(table.status().ToString());
  table->DropConstantColumns();
  auto matrix = table->SpearmanMatrix();
  if (!matrix.ok()) return Fail(matrix.status().ToString());
  std::printf("%s", matrix->ToString().c_str());
  if (!csv_path->empty()) {
    const tb::Status status = tb::analysis::WriteFile(
        *csv_path, tb::analysis::CorrelationCsv(*matrix));
    if (!status.ok()) return Fail(status.ToString());
    std::printf("matrix written to %s\n", csv_path->c_str());
  }
  return 0;
}

int CmdRecommend(const tb::Args& args) {
  auto base = BuildConfig(args, /*fixed_grid=*/false);
  if (!base.ok()) return Fail(base.status().ToString());
  if (const int rc = FailOnUnread(args)) return rc;
  const auto grids = base->algorithm == Algorithm::kKMeans
                         ? tb::analysis::KMeansPaperGrids()
                         : tb::analysis::MatmulPaperGrids();
  auto rec = tb::analysis::RecommendConfiguration(*base, grids);
  if (!rec.ok()) return Fail(rec.status().ToString());
  std::printf("recommended: grid %lldx%lld on %s (makespan %s, GPU "
              "benefit %.2fx)\n",
              static_cast<long long>(rec->grid_rows),
              static_cast<long long>(rec->grid_cols),
              tb::ToString(rec->processor).c_str(),
              tb::HumanSeconds(rec->makespan).c_str(), rec->gpu_benefit);
  return 0;
}

int CmdDag(const tb::Args& args) {
  const std::string algorithm = args.GetString("algorithm", "matmul");
  auto grid = ParseGrid(args.GetString(
      "grid", algorithm == "matmul" || algorithm == "matmul-fma" ? "4x4"
                                                                 : "4x1"));
  if (!grid.ok()) return Fail(grid.status().ToString());
  const bool iterative = algorithm == "kmeans" || algorithm == "logreg";
  // Only the iterative algorithms have an outer loop.
  const auto iters_or = iterative ? args.GetInt("iterations", 3) : 0;
  if (!iters_or.ok()) return Fail(iters_or.status().ToString());
  const int iters = static_cast<int>(*iters_or);
  if (const int rc = FailOnUnread(args)) return rc;

  if (iterative) {
    auto spec = tb::data::GridSpec::CreateFromGridDim(
        tb::data::DatasetSpec{"d", 1 << 16, 100}, grid->first, grid->second);
    if (!spec.ok()) return Fail(spec.status().ToString());
    if (algorithm == "kmeans") {
      tb::algos::KMeansOptions options;
      options.iterations = iters;
      auto wf = tb::algos::BuildKMeans(*spec, options);
      if (!wf.ok()) return Fail(wf.status().ToString());
      std::printf("%s", wf->graph.ToDot().c_str());
    } else {
      tb::algos::LogRegOptions options;
      options.iterations = iters;
      auto wf = tb::algos::BuildLogReg(*spec, options);
      if (!wf.ok()) return Fail(wf.status().ToString());
      std::printf("%s", wf->graph.ToDot().c_str());
    }
    return 0;
  }
  auto spec = tb::data::GridSpec::CreateFromGridDim(
      tb::data::DatasetSpec{"d", 1 << 14, 1 << 14}, grid->first,
      grid->second);
  if (!spec.ok()) return Fail(spec.status().ToString());
  if (algorithm == "transpose") {
    auto wf = tb::algos::BuildTranspose(*spec, tb::algos::TransposeOptions{});
    if (!wf.ok()) return Fail(wf.status().ToString());
    std::printf("%s", wf->graph.ToDot().c_str());
    return 0;
  }
  tb::algos::MatmulOptions options;
  options.fma = algorithm == "matmul-fma";
  auto wf = tb::algos::BuildMatmul(*spec, options);
  if (!wf.ok()) return Fail(wf.status().ToString());
  std::printf("%s", wf->graph.ToDot().c_str());
  return 0;
}

int CmdImport(const tb::Args& args) {
  if (args.positional().size() < 2) {
    return Fail("usage: taskbench import FILE [--executor=sim|threads|procs]"
                " [--policy=...] [--workers=N] [--export=PATH]"
                " [--stats-only]");
  }
  const std::string path = args.positional()[1];
  const auto export_path = args.GetPath("export");
  if (!export_path.ok()) return Fail(export_path.status().ToString());
  const auto stats_only = args.GetBool("stats-only", false);
  if (!stats_only.ok()) return Fail(stats_only.status().ToString());
  // Run options are read only when the instance runs; with
  // --stats-only they stay unread and are refused.
  tb::runtime::RunOptions run_options;
  std::string executor = "sim";
  if (!*stats_only) {
    const std::string policy_name = args.GetString("policy", "gen-order");
    const auto policy = tb::runtime::ParseSchedulingPolicy(policy_name);
    if (!policy.has_value()) {
      return Fail("--policy expects gen-order|locality|cost, got '" +
                  policy_name + "'");
    }
    const auto workers_or = args.GetInt("workers", 4);
    if (!workers_or.ok() || *workers_or < 1) return Fail("bad --workers");
    run_options.policy = *policy;
    run_options.num_threads = static_cast<int>(*workers_or);
    executor = args.GetString("executor", "sim");
  }
  if (const int rc = FailOnUnread(args)) return rc;

  std::ifstream in(path, std::ios::binary);
  if (!in.good()) return Fail("cannot open '" + path + "'");
  std::ostringstream text;
  text << in.rdbuf();

  auto instance = tb::wf::ImportWfFormat(text.str());
  if (!instance.ok()) {
    return Fail("import of '" + path + "' failed: " +
                instance.status().ToString());
  }
  auto stats = tb::wf::ComputeStats(*instance);
  if (!stats.ok()) return Fail(stats.status().ToString());
  std::printf("workflow:    %s (schema %s)\n", instance->name.c_str(),
              instance->schema.c_str());
  std::printf("tasks:       %lld\n", static_cast<long long>(stats->tasks));
  std::printf("files:       %lld (%llu bytes)\n",
              static_cast<long long>(stats->files),
              static_cast<unsigned long long>(stats->total_bytes));
  std::printf("edges:       %lld\n", static_cast<long long>(stats->edges));
  std::printf("height:      %lld\n", static_cast<long long>(stats->height));
  std::printf("width:       %lld\n", static_cast<long long>(stats->width));
  std::map<std::string, int> by_type;
  for (const tb::wf::WfTask& task : instance->tasks) ++by_type[task.type];
  for (const auto& [type, count] : by_type) {
    std::printf("  type %-18s x%d\n", type.c_str(), count);
  }

  if (!export_path->empty()) {
    std::ofstream out(*export_path, std::ios::binary);
    if (!out.good()) return Fail("cannot write '" + *export_path + "'");
    out << tb::wf::ExportWfFormat(*instance);
    std::printf("exported normalized WfFormat to %s\n",
                export_path->c_str());
  }
  if (*stats_only) return 0;

  if (executor == "sim") {
    tb::wf::BuildOptions build_options;
    build_options.materialize = false;  // keep true WfFormat bytes
    auto built = tb::wf::BuildInstance(*instance, build_options);
    if (!built.ok()) return Fail(built.status().ToString());
    tb::runtime::SimulatedExecutor sim(tb::hw::MinotauroCluster(),
                                       run_options);
    auto report = sim.Execute(built->graph);
    if (!report.ok()) return Fail(report.status().ToString());
    std::printf("executor:    simulated (policy %s)\n",
                tb::ToString(run_options.policy).c_str());
    std::printf("makespan:    %.6f s\n", report->makespan);
    std::printf("report digest: %016llx\n",
                static_cast<unsigned long long>(
                    tb::check::DigestReport(*report)));
    return 0;
  }

  auto built = tb::wf::BuildInstance(*instance, tb::wf::BuildOptions{});
  if (!built.ok()) return Fail(built.status().ToString());
  std::unique_ptr<tb::runtime::Executor> real;
  if (executor == "threads") {
    real = std::make_unique<tb::runtime::ThreadPoolExecutor>(run_options);
  } else if (executor == "procs") {
    if (!tb::runtime::MultiProcExecutor::Supported()) {
      return Fail("--executor=procs is unsupported on this platform");
    }
    real = std::make_unique<tb::runtime::MultiProcExecutor>(run_options);
  } else {
    return Fail("--executor expects sim|threads|procs, got '" + executor +
                "'");
  }
  auto report = real->Run(built->graph);
  if (!report.ok()) return Fail(report.status().ToString());
  uint64_t digest = tb::check::kFnvOffsetBasis;
  for (const tb::runtime::DataId id : built->data) {
    auto value = real->Fetch(built->graph, id);
    if (!value.ok()) return Fail(value.status().ToString());
    const int64_t dims[2] = {value->rows(), value->cols()};
    digest = tb::check::FoldBytes(digest, dims, sizeof(dims));
    digest = tb::check::FoldBytes(digest, value->data(),
                                  static_cast<size_t>(value->size()) * 8);
  }
  std::printf("executor:    %s (%d workers, policy %s)\n",
              real->name().c_str(), run_options.num_threads,
              tb::ToString(run_options.policy).c_str());
  std::printf("tasks run:   %zu\n", report->records.size());
  std::printf("value digest: %016llx\n",
              static_cast<unsigned long long>(digest));
  return 0;
}

void PrintUsage() {
  std::printf(
      "taskbench — distributed GPU task-workflow performance testbed\n\n"
      "usage: taskbench "
      "<run|exec|serve|import|sweep|correlate|recommend|dag> "
      "[options]\n\n"
      "common options:\n"
      "  --algorithm=matmul|matmul-fma|kmeans   --dataset=NAME\n"
      "  --grid=RxC  --clusters=K  --iterations=N\n"
      "  --processor=cpu|gpu  --storage=local|shared\n"
      "  --policy=gen-order|locality|cost  --hybrid\n"
      "  --disable-hedging  --disable-escalation  (cost policy knobs)\n"
      "real execution (exec):\n"
      "  --executor=threads|procs  --workers=N|Nproc  --n=SIZE  "
      "--block-dim=D\n"
      "workflow import (import FILE):\n"
      "  --executor=sim|threads|procs  --workers=N  --policy=...\n"
      "  --export=PATH  --stats-only\n"
      "resident service (serve):\n"
      "  --executor=threads|sim  --runners=N  --duration=S\n"
      "  --tenants=N  --rate=HZ  --skew=F  "
      "--arrivals=poisson|bursty|heavytail\n"
      "  --seed=N  --max-in-flight=N  --max-queued=N  --deadline=S\n"
      "  --cancel-every=N\n"
      "fault tolerance:\n"
      "  --faults=crash@T:nN,gpuloss@T:nN,slow@T:nN:xF,storage:pP[:sS]\n"
      "  --retries=N  --retry-backoff=S\n"
      "output:\n"
      "  --csv=PATH  --trace=PATH  --flow-events  --metrics-json=PATH\n"
      "  --gantt\n"
      "options a command would ignore are refused\n"
      "see the header of tools/taskbench_cli.cc for details\n");
}

}  // namespace

int main(int argc, char** argv) {
  const tb::Args args = tb::Args::Parse(argc, argv);
  if (args.positional().empty()) {
    PrintUsage();
    return 1;
  }
  const std::string command = args.positional()[0];
  if (command == "run") return CmdRun(args);
  if (command == "exec") return CmdExec(args);
  if (command == "serve") return CmdServe(args);
  if (command == "import") return CmdImport(args);
  if (command == "sweep") return CmdSweep(args);
  if (command == "correlate") return CmdCorrelate(args);
  if (command == "recommend") return CmdRecommend(args);
  if (command == "dag") return CmdDag(args);
  PrintUsage();
  return Fail("unknown command '" + command + "'");
}
