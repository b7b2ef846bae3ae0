// perfbench — the repository's end-to-end benchmark.
//
//   perfbench --workload <matmul-storage|kmeans-iterative|wf-service>
//             --seed N --seconds S --trace 0|1 [--out-dir DIR]
//
// The seed generates every input; the library only receives the
// generated inputs. With --trace 0 the result carries the end-to-end
// metrics; with --trace 1 the same measurements run untraced first,
// then once more with spans and telemetry, and the result carries the
// per-layer metrics (including the tracing overhead). The last line
// of stdout is one JSON object: {"correct", "attempted", "failed",
// "metrics"}. Any failed or wrong-output operation makes the run
// incorrect and the exit code non-zero. The Chrome trace of a traced
// run and a results file with host facts and notes are written to
// --out-dir and checked with json_lint.
#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"
#include "common/strings.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The metric contract; BENCHMARK.json lists the same names.
const MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"ok_ratio", "ratio"},
    {"threads.makespan_s", "s"},
    {"procs.makespan_s", "s"},
    {"svc.max_rate_hz", "Hz"},
    {"sim_makespan_s", "sim-s"},
};

const MetricSpec kPerLayer[] = {
    {"host.effective_parallelism", "cores"},
    {"host.steal_share", "ratio"},
    {"algos.build_s", "s"},
    {"algos.tasks", "count"},
    {"wf.generate_s", "s"},
    {"wf.build_s", "s"},
    {"wf.tasks", "count"},
    {"data.gemm_gflops", "GFLOP/s"},
    {"storage.deserialize_gbps", "GB/s"},
    {"storage.bytes_moved", "B"},
    {"threads.data.compute_s", "s"},
    {"threads.storage.deserialize_s", "s"},
    {"threads.storage.serialize_s", "s"},
    {"threads.cache.hits", "count"},
    {"threads.cache.misses", "count"},
    {"threads.cache.hit_ratio", "ratio"},
    {"threads.cache.invalidations", "count"},
    {"threads.cache.evictions", "count"},
    {"threads.runtime.busy_s", "s"},
    {"threads.runtime.idle_share", "ratio"},
    {"threads.runtime.ready_wait_p50_s", "s"},
    {"threads.runtime.ready_wait_p99_s", "s"},
    {"threads.runtime.null_task_us", "us"},
    {"threads.pool.steals", "count"},
    {"threads.pool.parks", "count"},
    {"threads.share.deserialize", "ratio"},
    {"threads.share.compute", "ratio"},
    {"threads.share.serialize", "ratio"},
    {"threads.share.idle", "ratio"},
    {"threads.trace_overhead_share", "ratio"},
    {"procs.data.compute_s", "s"},
    {"procs.storage.deserialize_s", "s"},
    {"procs.storage.serialize_s", "s"},
    {"procs.cache.hits", "count"},
    {"procs.cache.misses", "count"},
    {"procs.cache.hit_ratio", "ratio"},
    {"procs.cache.invalidations", "count"},
    {"procs.cache.evictions", "count"},
    {"procs.runtime.busy_s", "s"},
    {"procs.runtime.idle_share", "ratio"},
    {"procs.runtime.ready_wait_p50_s", "s"},
    {"procs.runtime.ready_wait_p99_s", "s"},
    {"procs.runtime.null_task_us", "us"},
    {"procs.share.deserialize", "ratio"},
    {"procs.share.compute", "ratio"},
    {"procs.share.serialize", "ratio"},
    {"procs.share.idle", "ratio"},
    {"procs.trace_overhead_share", "ratio"},
    {"gap.wall_s", "s"},
    {"gap.outside_tasks_s", "s"},
    {"gap.deserialize_s", "s"},
    {"gap.compute_s", "s"},
    {"gap.serialize_s", "s"},
    {"gap.other-in-task_s", "s"},
    {"gap.idle_s", "s"},
    {"sim.events", "count"},
    {"sim.events_per_s", "1/s"},
    {"sim.run_p50_s", "s"},
    {"sim.run_p99_s", "s"},
    {"sched.overhead_s", "sim-s"},
    {"sched.locality_s", "sim-s"},
    {"sched.hedges", "count"},
    {"svc.latency_p50_s", "s"},
    {"svc.latency_p99_s", "s"},
    {"service.queue_wait_p50_s", "s"},
    {"service.queue_wait_p99_s", "s"},
    {"service.admitted", "count"},
    {"service.rejected", "count"},
    {"service.generator_lag_s", "s"},
    {"svc.trace_overhead_share", "ratio"},
    {"self.algos_s", "s"},
    {"self.wf_s", "s"},
    {"self.runtime_s", "s"},
    {"self.storage_s", "s"},
    {"self.data_s", "s"},
    {"self.sim_s", "s"},
    {"self.service_s", "s"},
    {"self.svc_client_s", "s"},
};

/// Copies the contract's metrics out of `measured`, in contract order;
/// a metric the workload did not produce reads 0 and carries a note.
MetricTable Contract(const MetricSpec* specs, size_t n,
                     const MetricTable& measured, const char* missing_why) {
  MetricTable out;
  for (size_t i = 0; i < n; ++i) {
    const MetricSpec& s = specs[i];
    out.Set(s.name, s.unit, measured.Get(s.name));
    const std::string note = measured.NoteFor(s.name);
    if (!note.empty()) out.Note(s.name, note);
    if (!measured.Has(s.name)) out.Note(s.name, missing_why);
  }
  return out;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args->seconds > 0)) return false;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (key == "--out-dir") {
      args->out_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty();
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload matmul-storage|kmeans-iterative|"
                 "wf-service --seed N --seconds S --trace 0|1 [--out-dir D]\n");
    return 2;
  }
  int (*run)(Context&) = nullptr;
  if (args.workload == "matmul-storage") run = RunMatmulStorage;
  if (args.workload == "kmeans-iterative") run = RunKMeansIterative;
  if (args.workload == "wf-service") run = RunWfService;
  if (run == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  mkdir(args.out_dir.c_str(), 0755);

  Tracer tracer(args.trace);
  Outcomes outcomes;
  MetricTable e2e;
  MetricTable layer;
  Context ctx;
  ctx.args = args;
  ctx.tracer = &tracer;
  ctx.outcomes = &outcomes;
  ctx.e2e = &e2e;
  ctx.layer = &layer;
  // Forked processes, not threads: the multi-process leg must still be
  // able to run in this process afterwards.
  ctx.host = MeasureHost();
  ctx.host.pinned_cpu = PinToCurrentCpu();
  PrintHost(ctx.host, kWorkers);
  layer.Set("host.effective_parallelism", "cores",
            ctx.host.effective_parallelism);

  const CpuTicks ticks0 = ReadCpuTicks(ctx.host.pinned_cpu);
  const double t0 = Now();
  const int rc = run(ctx);
  const double elapsed = Now() - t0;
  if (rc != 0) outcomes.Record(false, "workload set-up failed");
  const CpuTicks ticks1 = ReadCpuTicks(ctx.host.pinned_cpu);
  if (ticks1.total > ticks0.total) {
    ctx.host.steal_share = static_cast<double>(ticks1.steal - ticks0.steal) /
                           static_cast<double>(ticks1.total - ticks0.total);
  }
  layer.Set("host.steal_share", "ratio", ctx.host.steal_share);
  std::printf("host: steal share of the pinned CPU during the run: %.4f\n",
              ctx.host.steal_share);

  e2e.Set("peak_rss_mb", "MB", PeakRssMb());

  const std::string stem = tb::StrFormat(
      "%s/%s-seed%llu-trace%d", args.out_dir.c_str(), args.workload.c_str(),
      static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0);
  if (args.trace) {
    std::map<std::string, double> self = tracer.SelfTimeByLayer();
    for (const char* l : {"algos", "wf", "runtime", "storage", "data", "sim",
                          "service"}) {
      layer.Set(tb::StrFormat("self.%s_s", l), "s", self[l]);
    }
    layer.Set("self.svc_client_s", "s", self["svc"]);
    if (layer.NoteFor("self.service_s").empty()) {
      layer.Note("self.service_s",
                 "inside Submit and Wait; Wait blocks through queueing and "
                 "simulation");
      layer.Note("self.svc_client_s",
                 "request time outside Submit and Wait: generator lag and "
                 "waiter pickup");
    }
    const std::string trace_path = stem + ".trace.json";
    const bool written = tracer.Write(trace_path);
    outcomes.Record(written && LintJson(trace_path),
                    "trace " + trace_path + " missing or not valid JSON");
    std::printf("trace: %zu spans -> %s\n", tracer.spans().size(),
                trace_path.c_str());
  }

  for (const std::string& line : ctx.report) std::printf("%s\n", line.c_str());
  const double error_rate =
      outcomes.attempted > 0
          ? static_cast<double>(outcomes.failed) / outcomes.attempted
          : 1;
  e2e.Set("ok_ratio", "ratio", 1 - error_rate);
  MetricTable shown =
      args.trace
          ? Contract(kPerLayer, std::size(kPerLayer), layer,
                     "not measured on this workload")
          : Contract(kEndToEnd, std::size(kEndToEnd), e2e, "not measured");
  std::printf("workload %s seed %llu: %lld operations, %lld failed "
              "(error_rate %.6g), %.1f s\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              static_cast<long long>(outcomes.attempted),
              static_cast<long long>(outcomes.failed), error_rate, elapsed);
  shown.Print(args.trace ? "per-layer metrics:" : "end-to-end metrics:");

  const std::string results = tb::StrFormat(
      "{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, \"host\": %s, "
      "\"error_rate\": %.17g, \"metrics\": %s, \"notes\": %s}\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.trace ? 1 : 0, HostJson(ctx.host, kWorkers).c_str(), error_rate,
      shown.Json().c_str(), shown.NotesJson().c_str());
  const std::string results_path = stem + ".json";
  outcomes.Record(WriteFile(results_path, results) && LintJson(results_path),
                  "results file " + results_path + " missing or invalid");

  const bool correct = outcomes.failed == 0 && rc == 0;
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false", static_cast<long long>(outcomes.attempted),
      static_cast<long long>(outcomes.failed), shown.Json().c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
