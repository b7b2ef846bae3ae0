// The real-executor legs (thread pool and multi-process) and the
// matmul-storage and kmeans-iterative workloads.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>

#include "algos/kmeans.h"
#include "algos/matmul.h"
#include "check/digest.h"
#include "common/random.h"
#include "common/strings.h"
#include "data/generators.h"
#include "data/grid.h"
#include "data/kernels.h"
#include "runtime/multiproc_executor.h"
#include "runtime/thread_pool_executor.h"
#include "storage/serializer.h"
#include "workloads.h"

namespace perfbench {

namespace {

using tb::runtime::DataId;
using tb::runtime::Executor;
using tb::runtime::RunOptions;
using tb::runtime::RunReport;
using tb::runtime::TaskGraph;

struct Leg {
  const char* name = "";  ///< "threads" | "procs"
  std::vector<double> walls;
  std::vector<double> requests;  ///< graph build + Execute
  std::vector<LayerBreakdown> parts;
  uint64_t digest = 0;  ///< of the first checked run
  bool have_digest = false;
};

std::unique_ptr<Executor> MakeLegExecutor(const std::string& kind,
                                          RunOptions options) {
  if (kind == "procs") {
    return std::make_unique<tb::runtime::MultiProcExecutor>(options);
  }
  return std::make_unique<tb::runtime::ThreadPoolExecutor>(options);
}

/// Median of one breakdown field over a leg's samples.
double MedianOf(const Leg& leg, double LayerBreakdown::*field) {
  std::vector<double> v;
  for (const auto& p : leg.parts) v.push_back(p.*field);
  return Median(v);
}

/// Bytes every task reads and writes through the data plane, from the
/// sizes registered in the graph (computed, not measured).
double BytesMoved(const TaskGraph& graph) {
  double bytes = 0;
  for (int64_t t = 0; t < graph.num_tasks(); ++t) {
    for (const auto& p : graph.task(t).spec.params) {
      const double b = static_cast<double>(graph.data(p.data).bytes);
      bytes += p.dir == tb::runtime::Dir::kInOut ? 2 * b : b;
    }
  }
  return bytes;
}

/// One checked closed-loop run.
struct Sample {
  bool ok = false;
  double build_s = 0;
  double wall_s = 0;  ///< Execute
  RunReport report;
  TaskGraph graph;
};

/// One closed-loop sample: build a fresh graph (untimed), Execute
/// (timed), harvest and check the outputs (untimed).
Sample RunSample(Context& ctx, Tracer* tracer, const RealLegConfig& cfg,
                 const std::string& kind, Executor& executor, Leg* leg,
                 int64_t parent_span) {
  Sample sample;
  const int64_t build_span =
      tracer->Begin(cfg.build_span, cfg.build_layer, parent_span);
  const double build_start = Now();
  auto wf = cfg.build();
  sample.build_s = Now() - build_start;
  tracer->End(build_span);
  if (!wf.ok()) {
    ctx.outcomes->Record(false, "build: " + wf.status().ToString());
    return sample;
  }
  const int64_t run_span = tracer->Begin(
      kind == "procs" ? "MultiProcExecutor::Execute"
                      : "ThreadPoolExecutor::Execute",
      "runtime", parent_span);
  const double t0 = Now();
  auto report = executor.Run(wf->graph);
  sample.wall_s = Now() - t0;
  tracer->End(run_span);
  if (!report.ok()) {
    ctx.outcomes->Record(false, kind + " Execute: " + report.status().ToString());
    return sample;
  }
  AddTaskSpans(tracer, run_span, t0, *report);
  auto digest = wf->harvest(executor, wf->graph);
  if (!digest.ok()) {
    ctx.outcomes->Record(false, kind + " output: " + digest.status().ToString());
    return sample;
  }
  if (!leg->have_digest) {
    leg->have_digest = true;
    leg->digest = *digest;
  }
  sample.ok = *digest == leg->digest;
  ctx.outcomes->Record(sample.ok,
                       kind + " output differs between repeated runs");
  sample.report = std::move(*report);
  sample.graph = std::move(wf->graph);
  return sample;
}

void RunLegWindow(Context& ctx, const RealLegConfig& cfg, const char* kind,
                  double seconds, Leg* leg) {
  auto executor = MakeLegExecutor(kind, cfg.options);
  Tracer untraced(false);
  // One untimed (but checked) run first, so that lazy set-up and the
  // allocator's first touches of memory are not timed.
  RunSample(ctx, &untraced, cfg, kind, *executor, leg, 0);
  const double end = Now() + seconds;
  while (static_cast<int>(leg->walls.size()) < cfg.min_samples ||
         Now() < end) {
    const Sample s = RunSample(ctx, &untraced, cfg, kind, *executor, leg, 0);
    if (!s.ok) {
      if (ctx.outcomes->failed > 3) break;
      continue;
    }
    leg->walls.push_back(s.wall_s);
    leg->requests.push_back(s.build_s + s.wall_s);
    leg->parts.push_back(Breakdown(s.report, s.graph, kWorkers));
  }
}

/// Traced run of one leg: spans around build and Execute, task stage
/// spans rebuilt from the records, and the executor's telemetry
/// through RunOptions::metrics.
void RunTracedLeg(Context& ctx, const RealLegConfig& cfg, const char* kind,
                  Leg* leg) {
  tb::obs::MetricsRegistry registry;
  RunOptions options = cfg.options;
  options.metrics = &registry;
  auto executor = MakeLegExecutor(kind, options);
  const int64_t span =
      ctx.tracer->Begin(tb::StrFormat("%s traced workflow", kind), "bench");
  const Sample s = RunSample(ctx, ctx.tracer, cfg, kind, *executor, leg, span);
  ctx.tracer->End(span);
  if (!s.ok) return;
  MetricTable& m = *ctx.layer;
  const std::string p = std::string(kind) + ".";
  const LayerBreakdown b = Breakdown(s.report, s.graph, kWorkers);
  m.Set(p + "data.compute_s", "s", b.compute);
  m.Set(p + "storage.deserialize_s", "s", b.deserialize);
  m.Set(p + "storage.serialize_s", "s", b.serialize);
  m.Set(p + "runtime.busy_s", "s", b.busy);
  m.Set(p + "runtime.idle_share", "ratio",
        b.worker_seconds > 0 ? b.idle / b.worker_seconds : 0);
  m.Set(p + "runtime.ready_wait_p50_s", "s", b.ready_wait_p50);
  m.Set(p + "runtime.ready_wait_p99_s", "s", b.ready_wait_tail);
  m.Set(p + "trace_overhead_share", "ratio",
        Median(leg->walls) > 0 ? s.wall_s / Median(leg->walls) - 1 : 0);
  const int64_t hits = CounterValue(registry, "cache.hits");
  const int64_t misses = CounterValue(registry, "cache.misses");
  m.Set(p + "cache.hits", "count", static_cast<double>(hits));
  m.Set(p + "cache.misses", "count", static_cast<double>(misses));
  m.Set(p + "cache.hit_ratio", "ratio",
        hits + misses > 0 ? static_cast<double>(hits) / (hits + misses) : 0);
  m.Set(p + "cache.invalidations", "count",
        static_cast<double>(CounterValue(registry, "cache.invalidations")));
  m.Set(p + "cache.evictions", "count",
        static_cast<double>(CounterValue(registry, "cache.evictions")));
  if (!cfg.options.block_cache) {
    for (const char* c : {"cache.hits", "cache.misses", "cache.hit_ratio",
                          "cache.invalidations", "cache.evictions"}) {
      m.Note(p + c, "block cache off on this workload");
    }
  }
  if (std::string(kind) == "threads") {
    m.Set("threads.pool.steals", "count",
          static_cast<double>(CounterValue(registry, "pool.steals")));
    m.Set("threads.pool.parks", "count",
          static_cast<double>(CounterValue(registry, "pool.parks")));
  }
  m.Set("storage.bytes_moved", "B", BytesMoved(s.graph));
  m.Note("storage.bytes_moved", "computed from registered block sizes");
}

void AttributionTable(Context& ctx, const Leg& threads, const Leg& procs) {
  const double wt = Median(threads.walls);
  const double wp = Median(procs.walls);
  struct Row {
    const char* name;
    double LayerBreakdown::*field;
  };
  const Row rows[] = {{"deserialize", &LayerBreakdown::deserialize},
                      {"compute", &LayerBreakdown::compute},
                      {"serialize", &LayerBreakdown::serialize},
                      {"other-in-task", &LayerBreakdown::other},
                      {"idle", &LayerBreakdown::idle}};
  ctx.report.push_back(
      "layer attribution (share of worker-seconds, medians over samples):");
  ctx.report.push_back(tb::StrFormat("  %-14s %10s %10s", "layer", "threads",
                                     "procs"));
  const double st = MedianOf(threads, &LayerBreakdown::worker_seconds);
  const double sp = MedianOf(procs, &LayerBreakdown::worker_seconds);
  for (const Row& r : rows) {
    ctx.report.push_back(tb::StrFormat(
        "  %-14s %9.1f%% %9.1f%%", r.name,
        st > 0 ? 100 * MedianOf(threads, r.field) / st : 0.0,
        sp > 0 ? 100 * MedianOf(procs, r.field) / sp : 0.0));
  }
  // Gap: wall = (wall - makespan) + makespan, and workers * makespan
  // = deserialize + compute + serialize + other + idle, so every
  // layer's worker-seconds / workers is its share of the wall gap.
  const double gap = wp - wt;
  const double outside =
      (wp - MedianOf(procs, &LayerBreakdown::makespan)) -
      (wt - MedianOf(threads, &LayerBreakdown::makespan));
  ctx.report.push_back(tb::StrFormat(
      "procs - threads makespan gap: %.4f s (procs %.4f s, threads %.4f s)",
      gap, wp, wt));
  MetricTable& m = *ctx.layer;
  m.Set("gap.wall_s", "s", gap);
  m.Set("gap.outside_tasks_s", "s", outside);
  ctx.report.push_back(tb::StrFormat(
      "  %-22s %9.4f s  (Execute wall outside the first-start..last-end "
      "span: fork, arena, teardown)",
      "runtime (outside run)", outside));
  for (const Row& r : rows) {
    const double d =
        (MedianOf(procs, r.field) - MedianOf(threads, r.field)) / kWorkers;
    m.Set(tb::StrFormat("gap.%s_s", r.name), "s", d);
    ctx.report.push_back(tb::StrFormat("  %-22s %9.4f s", r.name, d));
  }
  for (const Row& r : {rows[0], rows[1], rows[2], rows[4]}) {
    m.Set(std::string("threads.share.") + r.name, "ratio",
          st > 0 ? MedianOf(threads, r.field) / st : 0);
    m.Set(std::string("procs.share.") + r.name, "ratio",
          sp > 0 ? MedianOf(procs, r.field) / sp : 0);
  }
}

/// Direct calls into the kernels and the serializer at the workload's
/// block shape.
void KernelProbes(Context& ctx, const RealLegConfig& cfg) {
  tb::Rng rng(ctx.args.seed ^ 0xabcdefull);
  tb::data::Matrix a(cfg.gemm_m, cfg.gemm_k);
  tb::data::Matrix b(cfg.gemm_k, cfg.gemm_n);
  tb::data::FillUniform(&a, &rng);
  tb::data::FillUniform(&b, &rng);
  std::vector<double> gemm;
  const double flops = 2.0 * cfg.gemm_m * cfg.gemm_k * cfg.gemm_n;
  const double budget_end = Now() + 0.3;
  while (gemm.size() < 3 || (gemm.size() < 200 && Now() < budget_end)) {
    Scope span(ctx.tracer, "data::Multiply", "data");
    const double t0 = Now();
    auto c = tb::data::Multiply(a, b);
    const double dt = Now() - t0;
    if (!c.ok()) {
      ctx.outcomes->Record(false, "data::Multiply probe failed");
      return;
    }
    gemm.push_back(flops / dt / 1e9);
  }
  ctx.layer->Set("data.gemm_gflops", "GFLOP/s", Median(gemm));

  tb::data::Matrix block(cfg.block_rows, cfg.block_cols);
  tb::data::FillUniform(&block, &rng);
  std::vector<uint8_t> bytes;
  tb::storage::Serializer::Serialize(block, &bytes);
  std::vector<double> gbps;
  const double deser_end = Now() + 0.2;
  while (gbps.size() < 3 || (gbps.size() < 500 && Now() < deser_end)) {
    Scope span(ctx.tracer, "Serializer::Deserialize", "storage");
    const double t0 = Now();
    auto m = tb::storage::Serializer::Deserialize(bytes);
    const double dt = Now() - t0;
    if (!m.ok()) {
      ctx.outcomes->Record(false, "Serializer::Deserialize probe failed");
      return;
    }
    gbps.push_back(static_cast<double>(bytes.size()) / dt / 1e9);
  }
  ctx.layer->Set("storage.deserialize_gbps", "GB/s", Median(gbps));
}

/// Null-kernel probe: `tasks` independent tasks with an empty kernel;
/// returns microseconds of Execute wall time per task, or a negative
/// value on failure.
double NullTaskMicros(const std::string& executor_kind, int tasks,
                      Outcomes* outcomes) {
  TaskGraph graph;
  for (int t = 0; t < tasks; ++t) {
    const DataId d = graph.AddData(tb::data::Matrix(1, 1), "n");
    tb::runtime::TaskSpec spec;
    spec.type = "null";
    spec.params = {{d, tb::runtime::Dir::kOut}};
    spec.kernel = [](const std::vector<const tb::data::Matrix*>&,
                     const std::vector<tb::data::Matrix*>&) {
      return tb::Status::OK();
    };
    if (!graph.Submit(std::move(spec)).ok()) return -1;
  }
  RunOptions options;
  options.num_threads = kWorkers;
  options.num_procs = kWorkers;
  auto executor = MakeLegExecutor(executor_kind, options);
  const double t0 = Now();
  auto report = executor->Run(graph);
  const double wall = Now() - t0;
  outcomes->Record(report.ok(), executor_kind + " null-kernel probe: " +
                                    (report.ok() ? std::string()
                                                 : report.status().ToString()));
  return report.ok() ? wall / tasks * 1e6 : -1;
}

}  // namespace

std::vector<double> RunExecutorLegs(Context& ctx, const RealLegConfig& cfg) {
  Leg procs;
  procs.name = "procs";
  Leg threads;
  threads.name = "threads";
  // The multi-process executor forks workers and refuses callers with
  // more than one thread, so its leg runs first, while this process
  // has not started a thread yet.
  for (Leg* leg : {&procs, &threads}) {
    RunLegWindow(ctx, cfg, leg->name, cfg.window_s / 2, leg);
    if (!ctx.args.trace) continue;
    RunTracedLeg(ctx, cfg, leg->name, leg);
    std::vector<double> null_us;
    for (int r = 0; r < 3; ++r) {
      null_us.push_back(NullTaskMicros(leg->name, 400, ctx.outcomes));
    }
    ctx.layer->Set(std::string(leg->name) + ".runtime.null_task_us", "us",
                   Median(null_us));
  }
  const bool same = procs.have_digest && threads.have_digest &&
                    procs.digest == threads.digest;
  ctx.outcomes->Record(same, "threads and procs outputs are not bit-exact");
  ctx.e2e->Set("threads.makespan_s", "s", Median(threads.walls));
  ctx.e2e->Set("procs.makespan_s", "s", Median(procs.walls));
  ctx.report.push_back(tb::StrFormat(
      "closed loop: threads %zu samples (median %.4f s), procs %zu samples "
      "(median %.4f s)",
      threads.walls.size(), Median(threads.walls), procs.walls.size(),
      Median(procs.walls)));
  for (const Leg* leg : {&threads, &procs}) {
    std::string line = tb::StrFormat("  %s walls:", leg->name);
    for (size_t i = 0; i < leg->walls.size() && i < 20; ++i) {
      line += tb::StrFormat(" %.4f", leg->walls[i]);
    }
    ctx.report.push_back(line + (leg->walls.size() > 20 ? " ..." : ""));
  }
  if (!threads.parts.empty() && !procs.parts.empty()) {
    AttributionTable(ctx, threads, procs);
  }
  if (ctx.args.trace) KernelProbes(ctx, cfg);
  return threads.requests;
}

// ---------------------------------------------------------------------
// matmul-storage and kmeans-iterative.
// ---------------------------------------------------------------------

namespace {

void SetLayerNotesForReal(Context& ctx) {
  MetricTable& m = *ctx.layer;
  for (const char* name : {"wf.generate_s", "wf.build_s", "wf.tasks"}) {
    m.Set(name, std::string(name) == "wf.tasks" ? "count" : "s", 0);
    m.Note(name, "no WfBench workflows on this workload");
  }
}

/// The real workloads have no service: their one client sends the
/// next workflow when the previous one has finished. svc.* then report
/// that client's view of the thread-pool leg: latency per request
/// (graph build plus Execute) and the request rate the closed loop
/// sustains.
void ClosedLoopServiceView(Context& ctx, const std::vector<double>& requests) {
  ctx.layer->Set("svc.latency_p50_s", "s", Quantile(requests, 0.5));
  ctx.layer->Set("svc.latency_p99_s", "s",
               Quantile(requests, TailLevel(requests.size())));
  double total = 0;
  for (double r : requests) total += r;
  ctx.e2e->Set("svc.max_rate_hz", "Hz",
               total > 0 ? static_cast<double>(requests.size()) / total : 0);
  for (const char* name :
       {"service.queue_wait_p50_s", "service.queue_wait_p99_s",
        "service.admitted", "service.rejected", "service.generator_lag_s",
        "svc.trace_overhead_share", "self.service_s", "self.svc_client_s"}) {
    ctx.layer->Note(name, "no service on this workload");
  }
}

uint64_t DigestMatrix(uint64_t h, const tb::data::Matrix& m) {
  return tb::check::FoldBytes(h, m.data(),
                              static_cast<size_t>(m.size()) * sizeof(double));
}

}  // namespace

int RunMatmulStorage(Context& ctx) {
  constexpr int64_t kN = 2048;
  constexpr int64_t kBlock = 512;
  struct Inputs {
    tb::data::Matrix a, b;
    tb::data::GridSpec spec;
  };
  std::unique_ptr<Inputs> in;
  std::vector<double> setups;
  std::vector<double> builds;
  int64_t tasks = 0;
  for (int rep = 0; rep < ctx.setup_reps; ++rep) {
    const double t0 = Now();
    auto spec = tb::data::GridSpec::Create(
        tb::data::DatasetSpec{"A", kN, kN}, kBlock, kBlock);
    if (!spec.ok()) return 1;
    auto fresh = std::make_unique<Inputs>(
        Inputs{tb::data::Matrix(kN, kN), tb::data::Matrix(kN, kN), *spec});
    tb::Rng rng(ctx.args.seed);
    tb::data::FillUniform(&fresh->a, &rng);
    tb::data::FillUniform(&fresh->b, &rng);
    const double tb0 = Now();
    tb::algos::MatmulOptions options;
    options.materialize = true;
    options.a_values = &fresh->a;
    options.b_values = &fresh->b;
    auto wf = [&] {
      Scope span(ctx.tracer, "algos::BuildMatmul", "algos");
      return tb::algos::BuildMatmul(fresh->spec, options);
    }();
    if (!wf.ok()) return 1;
    builds.push_back(Now() - tb0);
    tasks = wf->graph.num_tasks();
    RunOptions run;
    run.num_threads = kWorkers;
    run.num_procs = kWorkers;
    run.block_dim = kBlock;
    tb::runtime::ThreadPoolExecutor threads(run);
    tb::runtime::MultiProcExecutor procs(run);
    setups.push_back(Now() - t0);
    in = std::move(fresh);
  }
  ctx.layer->Set("algos.build_s", "s", Median(builds));
  ctx.layer->Set("algos.tasks", "count", static_cast<double>(tasks));
  SetLayerNotesForReal(ctx);

  // The dense reference is the benchmark's own check, not set-up of
  // the system under test, so it is timed apart from setup_s.
  const double tr = Now();
  auto reference = tb::data::Multiply(in->a, in->b);
  if (!reference.ok()) return 1;
  double ref_sum = 0;
  double ref_max = 0;
  for (int64_t i = 0; i < reference->size(); ++i) {
    ref_sum += reference->data()[i];
    ref_max = std::max(ref_max, std::abs(reference->data()[i]));
  }
  ctx.report.push_back(tb::StrFormat(
      "check: dense reference %.3f s, checksum %.6f", Now() - tr, ref_sum));

  RealLegConfig cfg;
  cfg.build_span = "algos::BuildMatmul";
  cfg.build_layer = "algos";
  cfg.options.num_threads = kWorkers;
  cfg.options.num_procs = kWorkers;
  cfg.options.block_dim = kBlock;
  cfg.window_s = ctx.args.seconds * 0.8;
  cfg.gemm_m = cfg.gemm_k = cfg.gemm_n = kBlock;
  cfg.block_rows = cfg.block_cols = kBlock;
  Inputs* inputs = in.get();
  const tb::data::Matrix* ref = &*reference;
  cfg.build = [inputs, ref, ref_max]() -> tb::Result<RealWorkflow> {
    tb::algos::MatmulOptions options;
    options.materialize = true;
    options.a_values = &inputs->a;
    options.b_values = &inputs->b;
    TB_ASSIGN_OR_RETURN(auto wf, tb::algos::BuildMatmul(inputs->spec, options));
    RealWorkflow out;
    auto c = wf.c;
    const tb::data::GridSpec spec = inputs->spec;
    out.graph = std::move(wf.graph);
    out.harvest = [c, spec, ref, ref_max](
                      const Executor& executor,
                      const TaskGraph& graph) -> tb::Result<uint64_t> {
      tb::data::Matrix product(kN, kN);
      for (size_t r = 0; r < c.size(); ++r) {
        for (size_t q = 0; q < c[r].size(); ++q) {
          TB_ASSIGN_OR_RETURN(const tb::data::Matrix block,
                              executor.Fetch(graph, c[r][q]));
          const auto e = spec.ExtentAt(static_cast<int64_t>(r),
                                       static_cast<int64_t>(q));
          TB_RETURN_IF_ERROR(product.AssignSlice(e.row0, e.col0, block));
        }
      }
      // Blocked partial sums are added in a different order than the
      // dense kernel, so compare to the reference within rounding.
      double max_diff = 0;
      for (int64_t i = 0; i < product.size(); ++i) {
        max_diff = std::max(max_diff,
                            std::abs(product.data()[i] - ref->data()[i]));
      }
      if (!(max_diff <= 1e-12 * ref_max * kN)) {
        return tb::Status::FailedPrecondition(tb::StrFormat(
            "product differs from the dense reference by %.3g", max_diff));
      }
      return DigestMatrix(tb::check::kFnvOffsetBasis, product);
    };
    return out;
  };
  const std::vector<double> requests = RunExecutorLegs(ctx, cfg);

  const tb::data::GridSpec spec = in->spec;
  in.reset();
  reference = tb::data::Matrix();
  SimReference(ctx, [spec] {
    tb::algos::MatmulOptions options;
    return std::move(tb::algos::BuildMatmul(spec, options)->graph);
  });
  ClosedLoopServiceView(ctx, requests);
  ctx.e2e->Set("setup_s", "s", Median(setups));
  return 0;
}

int RunKMeansIterative(Context& ctx) {
  constexpr int64_t kRows = 200000;
  constexpr int64_t kCols = 32;
  constexpr int64_t kBlocks = 64;
  constexpr int kK = 16;
  constexpr int kIterations = 5;
  const int64_t block_rows = kRows / kBlocks;
  struct Inputs {
    tb::data::Matrix samples;
    tb::data::GridSpec spec;
  };
  std::unique_ptr<Inputs> in;
  std::vector<double> setups;
  std::vector<double> builds;
  int64_t tasks = 0;
  for (int rep = 0; rep < ctx.setup_reps; ++rep) {
    const double t0 = Now();
    auto spec = tb::data::GridSpec::Create(
        tb::data::DatasetSpec{"X", kRows, kCols}, block_rows, kCols);
    if (!spec.ok()) return 1;
    auto fresh =
        std::make_unique<Inputs>(Inputs{tb::data::Matrix(kRows, kCols), *spec});
    tb::Rng rng(ctx.args.seed);
    tb::data::FillGaussianBlobs(&fresh->samples, &rng, kK);
    const double tb0 = Now();
    tb::algos::KMeansOptions options;
    options.materialize = true;
    options.num_clusters = kK;
    options.iterations = kIterations;
    options.samples = &fresh->samples;
    auto wf = [&] {
      Scope span(ctx.tracer, "algos::BuildKMeans", "algos");
      return tb::algos::BuildKMeans(fresh->spec, options);
    }();
    if (!wf.ok()) return 1;
    builds.push_back(Now() - tb0);
    tasks = wf->graph.num_tasks();
    RunOptions run;
    run.num_threads = kWorkers;
    run.num_procs = kWorkers;
    run.block_cache = true;
    tb::runtime::ThreadPoolExecutor threads(run);
    tb::runtime::MultiProcExecutor procs(run);
    setups.push_back(Now() - t0);
    in = std::move(fresh);
  }
  ctx.layer->Set("algos.build_s", "s", Median(builds));
  ctx.layer->Set("algos.tasks", "count", static_cast<double>(tasks));
  SetLayerNotesForReal(ctx);

  RealLegConfig cfg;
  cfg.build_span = "algos::BuildKMeans";
  cfg.build_layer = "algos";
  cfg.options.num_threads = kWorkers;
  cfg.options.num_procs = kWorkers;
  cfg.options.block_cache = true;
  cfg.window_s = ctx.args.seconds * 0.8;
  cfg.gemm_m = block_rows;
  cfg.gemm_k = kCols;
  cfg.gemm_n = kK;
  cfg.block_rows = block_rows;
  cfg.block_cols = kCols;
  Inputs* inputs = in.get();
  cfg.build = [inputs]() -> tb::Result<RealWorkflow> {
    tb::algos::KMeansOptions options;
    options.materialize = true;
    options.num_clusters = kK;
    options.iterations = kIterations;
    options.samples = &inputs->samples;
    TB_ASSIGN_OR_RETURN(auto wf, tb::algos::BuildKMeans(inputs->spec, options));
    RealWorkflow out;
    const DataId centroids = wf.centroids;
    out.graph = std::move(wf.graph);
    out.harvest = [centroids](const Executor& executor,
                              const TaskGraph& graph) -> tb::Result<uint64_t> {
      TB_ASSIGN_OR_RETURN(const tb::data::Matrix c,
                          executor.Fetch(graph, centroids));
      for (int64_t i = 0; i < c.size(); ++i) {
        if (!std::isfinite(c.data()[i])) {
          return tb::Status::FailedPrecondition("non-finite centroid");
        }
      }
      return DigestMatrix(tb::check::kFnvOffsetBasis, c);
    };
    return out;
  };
  const std::vector<double> requests = RunExecutorLegs(ctx, cfg);

  const tb::data::GridSpec spec = in->spec;
  in.reset();
  SimReference(ctx, [spec] {
    tb::algos::KMeansOptions options;
    options.num_clusters = kK;
    options.iterations = kIterations;
    return std::move(tb::algos::BuildKMeans(spec, options)->graph);
  });
  ClosedLoopServiceView(ctx, requests);
  ctx.e2e->Set("setup_s", "s", Median(setups));
  return 0;
}

}  // namespace perfbench
