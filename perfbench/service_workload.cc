// The service leg (shared by every workload) and the wf-service
// workload.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>

#include "check/digest.h"
#include "common/random.h"
#include "common/strings.h"
#include "hw/cluster.h"
#include "runtime/simulated_executor.h"
#include "service/arrival.h"
#include "service/workflow_service.h"
#include "wf/build.h"
#include "wf/generator.h"
#include "workloads.h"

namespace perfbench {

namespace {

using tb::runtime::RunReport;
using tb::runtime::TaskGraph;

/// Latency recorded for a submission that failed or was refused: it
/// misses any limit.
constexpr double kMissed = 1e6;

const char* const kTenants[3] = {"fifo", "locality", "cost"};
const tb::SchedulingPolicy kPolicies[3] = {
    tb::SchedulingPolicy::kTaskGenerationOrder,
    tb::SchedulingPolicy::kDataLocality, tb::SchedulingPolicy::kCostModel};

struct PoolEntry {
  int wf = 0;
  int tenant = 0;
  TaskGraph graph;
};

struct LoadResult {
  /// Per submitted workflow, in submission order.
  std::vector<double> due;
  std::vector<double> done;
  std::vector<double> latencies;  ///< kMissed for a failed submission
  int64_t failed = 0;
  double generator_lag_max = 0;
  tb::service::ServiceReport report;
};

/// Open loop: submissions are due on a seeded Poisson schedule at
/// `rate_hz`, regardless of completions.
/// Latency runs from the due time until Wait returns, so a stall also
/// delays every later submission. A few waiter threads block in Wait
/// (they only observe; the load is the service's kWorkers runners).
/// Every completed report is checked against the digest of a direct
/// SimulatedExecutor run of the same workflow. With `stop_after_s` > 0
/// the stream ends early once more submissions are in the service than
/// arrive in that many seconds: the rate is far past what it sustains.
LoadResult DriveOpenLoop(Context& ctx,
                         const std::shared_ptr<tb::runtime::Executor>& exec,
                         std::vector<PoolEntry>* pool, size_t begin,
                         size_t count, double rate_hz, uint64_t seed,
                         const std::vector<uint64_t>& digests, bool traced,
                         double stop_after_s) {
  LoadResult out;
  tb::service::ServiceOptions options;
  options.num_runners = kWorkers;
  for (int t = 0; t < 3; ++t) {
    tb::service::TenantConfig tenant;
    tenant.policy = kPolicies[t];
    options.tenants[kTenants[t]] = tenant;
  }
  // The client (this generator and the waiters below) stands for users
  // on other machines. On the one pinned CPU it would otherwise queue
  // behind the busy runners, and its own wake-up delays would be
  // measured as service latency; the runners therefore run at nice 10.
  const std::vector<int> before = ThreadIds();
  tb::service::WorkflowService service(exec, options);
  for (int tid : ThreadIds()) {
    if (std::find(before.begin(), before.end(), tid) == before.end()) {
      setpriority(PRIO_PROCESS, static_cast<id_t>(tid), 10);
    }
  }

  struct Slot {
    int wf = 0;
    double due = 0;
    double submit_begin = 0;
    double submit_end = 0;
    double wait_begin = 0;
    double done = 0;
    tb::service::SubmissionHandle handle;
    tb::Status status;
    uint64_t digest = 0;
  };
  std::vector<Slot> slots(count);
  std::mutex mu;  // guards queue, closed
  std::condition_variable cv;
  std::deque<size_t> queue;
  bool closed = false;
  std::atomic<int64_t> finished{0};
  auto waiter = [&] {
    while (true) {
      size_t i = 0;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return closed || !queue.empty(); });
        if (queue.empty()) return;
        i = queue.front();
        queue.pop_front();
      }
      Slot& slot = slots[i];
      slot.wait_begin = Now();
      auto report = service.Wait(slot.handle);
      slot.done = Now();
      finished.fetch_add(1);
      if (report.ok()) {
        slot.digest = tb::check::DigestReport(*report);
      } else {
        slot.status = report.status();
      }
    }
  };
  std::vector<std::thread> waiters;
  for (int w = 0; w < 4; ++w) waiters.emplace_back(waiter);

  tb::service::ArrivalOptions arrivals;
  arrivals.rate_hz = rate_hz;
  tb::service::ArrivalGenerator gen(arrivals, seed);
  const double t0 = Now();
  double due = t0;
  size_t submitted = 0;
  for (; submitted < count; ++submitted) {
    if (stop_after_s > 0 &&
        static_cast<double>(static_cast<int64_t>(submitted) -
                            finished.load()) >
            rate_hz * stop_after_s) {
      break;
    }
    const size_t i = submitted;
    due += gen.NextDelay();
    const double now = Now();
    if (due > now) {
      std::this_thread::sleep_for(std::chrono::duration<double>(due - now));
    }
    PoolEntry& entry = (*pool)[begin + i];
    Slot& slot = slots[i];
    slot.wf = entry.wf;
    slot.due = due;
    tb::service::SubmitOptions sub;
    sub.tenant = kTenants[entry.tenant];
    slot.submit_begin = Now();
    auto handle = service.Submit(std::move(entry.graph), sub);
    slot.submit_end = Now();
    if (!handle.ok()) {
      slot.status = handle.status();
      slot.done = slot.submit_end;
      finished.fetch_add(1);
      continue;
    }
    slot.handle = *handle;
    {
      std::lock_guard<std::mutex> lock(mu);
      queue.push_back(i);
    }
    cv.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    closed = true;
  }
  cv.notify_all();
  for (auto& w : waiters) w.join();
  out.report = service.Report();

  Tracer* tracer = ctx.tracer;
  const int64_t leg_span =
      traced ? tracer->Add("service open loop", "bench", 0, 0, t0, Now()) : 0;
  for (size_t i = 0; i < submitted; ++i) {
    const Slot& slot = slots[i];
    out.generator_lag_max =
        std::max(out.generator_lag_max, slot.submit_begin - slot.due);
    const bool ok = slot.status.ok() &&
                    slot.digest == digests[static_cast<size_t>(slot.wf)];
    ctx.outcomes->Record(
        ok, tb::StrFormat("service submission of workflow %d: %s", slot.wf,
                          slot.status.ok()
                              ? "report digest differs from a direct "
                                "simulated run"
                              : slot.status.ToString().c_str()));
    out.due.push_back(slot.due);
    out.done.push_back(slot.done);
    out.latencies.push_back(ok ? slot.done - slot.due : kMissed);
    if (!ok) ++out.failed;
    if (traced) {
      const int64_t req =
          tracer->Add("request", "svc", leg_span, 0, slot.due, slot.done);
      tracer->Add("WorkflowService::Submit", "service", req, 0,
                  slot.submit_begin, slot.submit_end);
      if (slot.wait_begin > 0) {
        tracer->Add("WorkflowService::Wait", "service", req, 0,
                    slot.wait_begin, slot.done);
      }
    }
  }
  return out;
}

double TailOf(const std::vector<double>& v) {
  return Quantile(v, TailLevel(v.size()));
}

/// The simulated cluster of every workload: Minotauro with node-local
/// disks, where a block's placement decides whether a read is local
/// or remote, so the three policies schedule differently.
tb::runtime::SimulatedExecutor MakeSimulator() {
  tb::runtime::RunOptions options;
  options.storage = tb::hw::StorageArchitecture::kLocalDisk;
  return tb::runtime::SimulatedExecutor(tb::hw::MinotauroCluster(), options);
}

/// Puts every input block (read before any task writes it) on a
/// seeded random node, as a distributed dataset would be placed; the
/// simulator would otherwise deal them round-robin.
void PlaceInputs(TaskGraph* graph, tb::Rng* rng) {
  const uint64_t nodes =
      static_cast<uint64_t>(tb::hw::MinotauroCluster().num_nodes);
  std::vector<char> seen(static_cast<size_t>(graph->num_data()), 0);
  for (int64_t t = 0; t < graph->num_tasks(); ++t) {
    for (const auto& p : graph->task(t).spec.params) {
      char& first = seen[static_cast<size_t>(p.data)];
      if (!first && p.dir != tb::runtime::Dir::kOut) {
        graph->mutable_data(p.data).home_node =
            static_cast<int>(rng->NextBounded(nodes));
      }
      first = 1;
    }
  }
}

/// Sums the reference runs' outcomes into the sim / sched metrics.
struct SimTotals {
  std::vector<double> walls;
  double makespan = 0;
  double overhead = 0;
  double locality = 0;
  int64_t hedges = 0;
  uint64_t events = 0;

  void Add(const RunReport& report, double wall) {
    walls.push_back(wall);
    makespan += report.makespan;
    overhead += report.scheduler_overhead;
    locality += report.sched_phases.locality_s;
    hedges += report.faults.hedges;
    events += report.sim_events;
  }

  void Publish(Context& ctx) const {
    MetricTable& m = *ctx.layer;
    double wall = 0;
    for (double w : walls) wall += w;
    ctx.e2e->Set("sim_makespan_s", "sim-s", makespan);
    m.Set("sim.events", "count", static_cast<double>(events));
    m.Set("sim.events_per_s", "1/s",
          wall > 0 ? static_cast<double>(events) / wall : 0);
    m.Set("sim.run_p50_s", "s", Quantile(walls, 0.5));
    m.Set("sim.run_p99_s", "s", TailOf(walls));
    m.Set("sched.overhead_s", "sim-s", overhead);
    m.Set("sched.locality_s", "sim-s", locality);
    m.Note("sched.locality_s", "modelled master time, not measured");
    m.Set("sched.hedges", "count", static_cast<double>(hedges));
  }
};

/// One direct SimulatedExecutor run, timed and traced; returns the
/// report digest (0 on failure, which is counted).
uint64_t ReferenceRun(Context& ctx, const tb::runtime::SimulatedExecutor& exec,
                      const TaskGraph& graph, int tenant, SimTotals* totals) {
  tb::runtime::RunContext rc;
  rc.policy = kPolicies[tenant];
  const int64_t span = ctx.tracer->Begin("SimulatedExecutor::Run", "sim");
  const double t0 = Now();
  auto report = exec.Execute(graph, rc);
  const double wall = Now() - t0;
  ctx.tracer->End(span);
  ctx.outcomes->Record(report.ok(),
                       "direct simulated run: " +
                           (report.ok() ? "" : report.status().ToString()));
  if (!report.ok()) return 0;
  totals->Add(*report, wall);
  return tb::check::DigestReport(*report);
}

}  // namespace

void SimReference(Context& ctx, const std::function<TaskGraph()>& build) {
  const tb::runtime::SimulatedExecutor exec = MakeSimulator();
  TaskGraph graph = build();
  tb::Rng rng(ctx.args.seed * 0x2545f4914f6cdd1dull + 3);
  PlaceInputs(&graph, &rng);
  SimTotals totals;
  for (int t = 0; t < 3; ++t) ReferenceRun(ctx, exec, graph, t, &totals);
  totals.Publish(ctx);
}

// ---------------------------------------------------------------------
// wf-service.
// ---------------------------------------------------------------------

namespace {

constexpr double kMinTasks = 100;
constexpr double kMaxTasks = 20000;
/// Exponent of the bounded power law the workflow sizes follow
/// (density ~ size^-2.4, mean about 300 tasks): most workflows are
/// small and a few are large. The shape and the exponent are an
/// assumption, not fitted to a measured or published size
/// distribution; only the range is given.
constexpr double kSizeAlpha = 1.4;

/// Size at quantile u of the bounded power law on [kMinTasks, kMaxTasks].
double SizeAt(double u) {
  const double lo = std::pow(kMinTasks, -kSizeAlpha);
  const double hi = std::pow(kMaxTasks, -kSizeAlpha);
  return std::pow(lo - u * (lo - hi), -1 / kSizeAlpha);
}

tb::wf::GenOptions GenFor(uint64_t seed, size_t index, double size) {
  tb::wf::GenOptions g;
  g.seed = seed * 7919 + index;
  g.name = tb::StrFormat("wfbench-%zu", index);
  g.levels = std::clamp(static_cast<int>(std::round(std::log2(size))), 4, 14);
  g.width = std::max(2, static_cast<int>(std::round(size / g.levels)));
  g.heavy_tail_alpha = 1.5;
  g.straggler_fraction = 0.02;
  g.types = tb::wf::DefaultTaskTypes(1);
  return g;
}

struct Phase {
  size_t begin = 0;
  size_t size = 0;
};

/// Open-loop phases over the pre-built pool: the fixed-rate phase
/// (svc.latency_*), the saturation bursts and the ladder probes
/// (svc.max_rate_hz), and when tracing a traced copy of the fixed
/// phase.
struct Plan {
  Phase fixed;
  std::vector<Phase> bursts;
  std::vector<Phase> probes;
  Phase traced;
};

void RunServiceLeg(Context& ctx, std::vector<PoolEntry>* pool,
                   const std::vector<uint64_t>& digests, const Plan& plan,
                   const ServiceLegConfig& config) {
  MetricTable& m = *ctx.layer;
  auto exec = std::make_shared<tb::runtime::SimulatedExecutor>(MakeSimulator());
  const uint64_t seed = ctx.args.seed * 1000003ull;
  auto run = [&](const Phase& phase, double rate, uint64_t s, bool traced,
                 double stop_after_s) {
    return DriveOpenLoop(ctx, exec, pool, phase.begin, phase.size, rate, s,
                         digests, traced, stop_after_s);
  };

  // Saturation: submit each burst all at once and time it until its
  // last completion. All bursts' workflows over all their time is the
  // throughput above which an open-loop stream's backlog grows. The
  // host's speed changes within seconds, so the bursts are pooled (a
  // time average) rather than taking the median burst.
  std::vector<double> throughputs;
  double burst_count = 0;
  double burst_time = 0;
  for (size_t b = 0; b < plan.bursts.size(); ++b) {
    LoadResult burst = run(plan.bursts[b], 1e9, seed + 1 + b, false, 0);
    if (burst.due.empty()) continue;
    const double last =
        *std::max_element(burst.done.begin(), burst.done.end());
    if (last > burst.due.front()) {
      const double n = static_cast<double>(burst.done.size());
      throughputs.push_back(n / (last - burst.due.front()));
      burst_count += n;
      burst_time += last - burst.due.front();
    }
  }
  const double saturation =
      burst_time > 0 ? burst_count / burst_time : config.ladder_min_hz;
  std::string line = tb::StrFormat(
      "service: saturation throughput %.1f Hz (bursts:", saturation);
  for (double x : throughputs) line += tb::StrFormat(" %.1f", x);
  ctx.report.push_back(line + ")");

  // Ladder: rungs ladder_min_hz x step^k. The first probe is the
  // highest rung at or below saturation; after each miss the next probe
  // drops 1, 2, 4, ... rungs, and the last probe is always the floor
  // rung, which the saturation point does not set. svc.max_rate_hz is
  // the first probed rung that keeps the tail latency within the limit
  // with no growing backlog, or 0 when even the floor misses. A service
  // that keeps up holds about rate x latency submissions (Little's law),
  // so more than rate x limit in the service when the probe's last one
  // is due means arrivals outran completions.
  auto ladder = [&](int k) {
    return config.ladder_min_hz * std::pow(config.ladder_step, k);
  };
  int rung = std::max(
      0, static_cast<int>(std::floor(
             std::log(saturation / config.ladder_min_hz) /
                 std::log(config.ladder_step) +
             1e-9)));
  const double limit = config.latency_limit_s;
  double max_rate = 0;
  for (size_t p = 0; p < plan.probes.size(); ++p) {
    if (p + 1 == plan.probes.size()) rung = 0;
    const double rate = ladder(rung);
    LoadResult r = run(plan.probes[p], rate, seed + 11 + p, false, 2 * limit);
    int64_t backlog = 0;
    const double last_due = r.due.empty() ? 0 : r.due.back();
    for (double d : r.done) backlog += d > last_due ? 1 : 0;
    const double probe_tail = TailOf(r.latencies);
    const bool met = r.failed == 0 && r.due.size() == plan.probes[p].size &&
                     probe_tail <= limit &&
                     static_cast<double>(backlog) <= rate * limit;
    ctx.report.push_back(tb::StrFormat(
        "  ladder %.2f Hz: tail %.4f s, backlog %lld -> %s", rate, probe_tail,
        static_cast<long long>(backlog), met ? "meets" : "misses"));
    if (met) {
      max_rate = rate;
      break;
    }
    if (rung == 0) break;
    rung = std::max(0, rung - (1 << p));
  }
  ctx.e2e->Set("svc.max_rate_hz", "Hz", max_rate);
  if (max_rate == 0) {
    ctx.report.push_back(tb::StrFormat(
        "  no probed rung met the limit, not even the floor %.2f Hz; "
        "reporting 0",
        ladder(0)));
  }

  // The fixed-rate phase feeds only per-layer metrics, so it runs only
  // when tracing: first untraced, then its traced copy.
  if (!ctx.args.trace) return;
  LoadResult fixed = run(plan.fixed, config.rate_hz, seed, false, 0);
  const double p50 = Quantile(fixed.latencies, 0.5);
  const double tail = TailOf(fixed.latencies);
  ctx.layer->Set("svc.latency_p50_s", "s", p50);
  ctx.layer->Set("svc.latency_p99_s", "s", tail);
  ctx.report.push_back(tb::StrFormat(
      "service: %zu submissions at %.1f Hz: p50 %.4f s, p%.1f %.4f s, "
      "generator lag max %.4f s",
      fixed.latencies.size(), config.rate_hz, p50,
      100 * TailLevel(fixed.latencies.size()), tail, fixed.generator_lag_max));

  // Admission and queueing of the fixed phase.
  double qw50 = 0;
  double qw99 = 0;
  for (const auto& t : fixed.report.tenants) {
    qw50 = std::max(qw50, t.queue_wait.p50);
    qw99 = std::max(qw99, t.queue_wait.p99);
  }
  m.Set("service.queue_wait_p50_s", "s", qw50);
  m.Set("service.queue_wait_p99_s", "s", qw99);
  m.Note("service.queue_wait_p50_s", "worst tenant");
  m.Note("service.queue_wait_p99_s", "worst tenant");
  m.Set("service.admitted", "count",
        static_cast<double>(fixed.report.submitted));
  m.Set("service.rejected", "count",
        static_cast<double>(fixed.report.rejected));
  m.Set("service.generator_lag_s", "s", fixed.generator_lag_max);

  // The fixed phase again, traced: the same workflows in the same
  // order, on the same arrival schedule.
  LoadResult traced = run(plan.traced, config.rate_hz, seed, true, 0);
  const double traced_p50 = Quantile(traced.latencies, 0.5);
  m.Set("svc.trace_overhead_share", "ratio",
        p50 > 0 ? traced_p50 / p50 - 1 : 0);
}

}  // namespace

int RunWfService(Context& ctx) {
  // Every submission is its own WfBench workflow. Sizes follow a
  // bounded power law, taken at evenly spaced quantiles in each phase
  // (in seeded order), so every run submits the same size mix and a
  // heavy-tailed stream does not measure the luck of the draw.
  const ServiceLegConfig config;
  const uint64_t seed = ctx.args.seed;

  Plan plan;
  std::vector<double> sizes;
  tb::Rng order(seed * 0x9e3779b97f4a7c15ull + 17);
  // The fixed phase spans the whole range, from exactly 100 to exactly
  // 20k tasks. A burst is queued all at once, largest first, so that
  // its completion time is its total work over the service's
  // throughput rather than the position of its largest workflow.
  auto add_phase = [&](int n, bool largest_first, bool full_range) {
    Phase phase{sizes.size(), static_cast<size_t>(n)};
    std::vector<double> phase_sizes;
    for (int j = 0; j < n; ++j) {
      const double u = full_range ? j / (n - 1.0) : (j + 0.5) / n;
      phase_sizes.push_back(SizeAt(u));
    }
    if (largest_first) {
      std::reverse(phase_sizes.begin(), phase_sizes.end());
    } else {
      for (size_t i = phase_sizes.size(); i > 1; --i) {
        std::swap(phase_sizes[i - 1], phase_sizes[order.NextBounded(i)]);
      }
    }
    sizes.insert(sizes.end(), phase_sizes.begin(), phase_sizes.end());
    return phase;
  };
  plan.fixed = add_phase(config.fixed_submissions, false, true);
  for (int b = 0; b < config.bursts; ++b) {
    plan.bursts.push_back(add_phase(config.burst_submissions, true, false));
  }
  for (int p = 0; p < config.max_probes; ++p) {
    plan.probes.push_back(add_phase(config.probe_submissions, false, false));
  }

  // Workflow i goes to tenant (first + i) mod 3, an equal split (an
  // assumption), and its input blocks are placed from its own seeded
  // stream, so a rebuilt copy of it is the same workflow.
  const uint64_t first_tenant = tb::Rng(seed * 0x2545f4914f6cdd1dull + 29)
                                    .NextBounded(3);
  auto build = [&](size_t i, const tb::wf::Instance& instance,
                   PoolEntry* entry) {
    tb::wf::BuildOptions options;
    options.materialize = false;
    auto built = tb::wf::BuildInstance(instance, options);
    if (!built.ok()) {
      ctx.outcomes->Record(false,
                           "BuildInstance: " + built.status().ToString());
      return false;
    }
    entry->wf = static_cast<int>(i);
    entry->tenant = static_cast<int>((first_tenant + i) % 3);
    entry->graph = std::move(built->graph);
    tb::Rng place(seed * 0xbf58476d1ce4e5b9ull + i);
    PlaceInputs(&entry->graph, &place);
    return true;
  };

  // Set-up: generate and build every workflow, in three equal chunks;
  // setup_s is three times the median chunk.
  std::vector<PoolEntry> pool(sizes.size());
  std::vector<double> chunks;
  std::vector<double> gen_s(3);
  std::vector<double> build_s(3);
  int64_t tasks = 0;
  for (size_t c = 0; c < 3; ++c) {
    const size_t begin = sizes.size() * c / 3;
    const size_t end = sizes.size() * (c + 1) / 3;
    const double t0 = Now();
    std::vector<tb::wf::Instance> instances;
    {
      Scope span(ctx.tracer, "wf::GenerateWfBench (chunk)", "wf");
      for (size_t i = begin; i < end; ++i) {
        instances.push_back(
            tb::wf::GenerateWfBench(GenFor(seed, i, sizes[i])));
      }
    }
    const double t1 = Now();
    {
      Scope span(ctx.tracer, "wf::BuildInstance (chunk)", "wf");
      for (size_t i = begin; i < end; ++i) {
        if (!build(i, instances[i - begin], &pool[i])) return 1;
        tasks += pool[i].graph.num_tasks();
      }
    }
    const double t2 = Now();
    chunks.push_back(t2 - t0);
    gen_s[c] = t1 - t0;
    build_s[c] = t2 - t1;
  }
  ctx.e2e->Set("setup_s", "s", 3 * Median(chunks));
  MetricTable& m = *ctx.layer;
  m.Set("wf.generate_s", "s", gen_s[0] + gen_s[1] + gen_s[2]);
  m.Set("wf.build_s", "s", build_s[0] + build_s[1] + build_s[2]);
  m.Set("wf.tasks", "count", static_cast<double>(tasks));
  for (const char* name : {"algos.build_s", "algos.tasks"}) {
    m.Set(name, std::string(name) == "algos.tasks" ? "count" : "s", 0);
    m.Note(name, "no algos workflows on this workload");
  }

  // Reference: one direct SimulatedExecutor run of every workflow under
  // its tenant's policy (the graph is not modified), before it is
  // submitted. Service reports must match these digests bit for bit;
  // the makespans sum to sim_makespan_s.
  const tb::runtime::SimulatedExecutor exec = MakeSimulator();
  std::vector<uint64_t> digests(pool.size());
  SimTotals totals;
  for (size_t i = 0; i < pool.size(); ++i) {
    digests[i] = ReferenceRun(ctx, exec, pool[i].graph, pool[i].tenant,
                              &totals);
  }
  totals.Publish(ctx);

  // Real executors: a materialized miniature (16x16 blocks, hash
  // kernels) of a ~400-task workflow from the same generator, closed
  // loop on procs and then threads, before the service starts its
  // runner threads.
  const tb::wf::Instance mini =
      tb::wf::GenerateWfBench(GenFor(seed, sizes.size(), 400));
  RealLegConfig cfg;
  cfg.build_span = "wf::BuildInstance";
  cfg.build_layer = "wf";
  cfg.options.num_threads = kWorkers;
  cfg.options.num_procs = kWorkers;
  cfg.window_s = ctx.args.seconds * 0.5;
  cfg.min_samples = 5;
  cfg.gemm_m = cfg.gemm_k = cfg.gemm_n = 16;
  cfg.block_rows = cfg.block_cols = 16;
  cfg.build = [&mini]() -> tb::Result<RealWorkflow> {
    tb::wf::BuildOptions build;
    build.materialize = true;
    TB_ASSIGN_OR_RETURN(auto built, tb::wf::BuildInstance(mini, build));
    RealWorkflow out;
    auto data = built.data;
    out.graph = std::move(built.graph);
    out.harvest = [data](const tb::runtime::Executor& executor,
                         const TaskGraph& graph) -> tb::Result<uint64_t> {
      uint64_t h = tb::check::kFnvOffsetBasis;
      for (auto d : data) {
        TB_ASSIGN_OR_RETURN(const tb::data::Matrix v,
                            executor.Fetch(graph, d));
        h = tb::check::FoldBytes(
            h, v.data(), static_cast<size_t>(v.size()) * sizeof(double));
      }
      return h;
    };
    return out;
  };
  RunExecutorLegs(ctx, cfg);

  if (ctx.args.trace) {
    // A second copy of the fixed phase's workflows, built after the
    // measured set-up and the reference runs, for its traced repeat.
    plan.traced = Phase{pool.size(), plan.fixed.size};
    pool.resize(pool.size() + plan.fixed.size);
    for (size_t j = 0; j < plan.fixed.size; ++j) {
      const size_t i = plan.fixed.begin + j;
      if (!build(i, tb::wf::GenerateWfBench(GenFor(seed, i, sizes[i])),
                 &pool[plan.traced.begin + j])) {
        return 1;
      }
    }
  }
  RunServiceLeg(ctx, &pool, digests, plan, config);
  return 0;
}

}  // namespace perfbench
