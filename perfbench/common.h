// Shared pieces of the end-to-end benchmark: run arguments, sample
// statistics, the in-memory span recorder of the traced run, host
// facts, the metric table printed at the end, and the per-leg layer
// breakdown computed from RunReport records.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "runtime/metrics.h"
#include "runtime/task_graph.h"

namespace perfbench {

namespace tb = taskbench;

/// Seconds on the monotonic clock since the process started.
double Now();

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".";
};

// ---------------------------------------------------------------------
// Statistics.
// ---------------------------------------------------------------------

/// Nearest-rank quantile (q in [0, 1]) of `v`; 0 when empty.
double Quantile(std::vector<double> v, double q);
double Median(std::vector<double> v);
/// The tail level reported for `n` samples: p99, or the highest
/// percentile that still has at least ten samples beyond it.
double TailLevel(size_t n);

// ---------------------------------------------------------------------
// Operation outcomes (error_rate = failed / attempted).
// ---------------------------------------------------------------------

struct Outcomes {
  int64_t attempted = 0;
  int64_t failed = 0;
  /// Counts one operation; prints `what` to stderr when it failed.
  void Record(bool ok, const std::string& what);
};

// ---------------------------------------------------------------------
// Metric table.
// ---------------------------------------------------------------------

class MetricTable {
 public:
  void Set(const std::string& name, const std::string& unit, double value);
  /// Records why a metric reads 0 on this workload (not exercised or
  /// not measurable); printed with the table and stored in the
  /// results file.
  void Note(const std::string& name, const std::string& why);
  bool Has(const std::string& name) const;
  double Get(const std::string& name) const;
  /// The note recorded for `name`, or "".
  std::string NoteFor(const std::string& name) const;
  /// Human-readable table, one metric per line.
  void Print(const char* title) const;
  /// {"name": {"value": v, "unit": u}, ...}
  std::string Json() const;
  std::string NotesJson() const;

 private:
  struct Entry {
    std::string unit;
    double value = 0;
  };
  std::map<std::string, Entry> entries_;
  std::map<std::string, std::string> notes_;
};

// ---------------------------------------------------------------------
// Spans of the traced run. They stay in memory and are written once,
// through obs::TraceWriter, when the run ends.
// ---------------------------------------------------------------------

struct Span {
  int64_t id = 0;
  int64_t parent = 0;  ///< 0 = root
  std::string name;
  std::string layer;   ///< module the span times ("algos", "runtime", ...)
  int lane = 0;        ///< trace row (0 = benchmark thread, 1+ = workers)
  double start = 0;    ///< Now() seconds
  double end = 0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  /// Opens a span; returns 0 (and records nothing) when disabled.
  int64_t Begin(const std::string& name, const std::string& layer,
                int64_t parent = 0);
  void End(int64_t id);
  /// Adds a finished span (used for task stages rebuilt from records).
  int64_t Add(const std::string& name, const std::string& layer,
              int64_t parent, int lane, double start, double end);
  const std::vector<Span>& spans() const { return spans_; }
  /// Self time per layer: span duration minus the part of it covered
  /// by its children (children on other lanes overlap in time, so the
  /// covered part is the union of the children's intervals).
  std::map<std::string, double> SelfTimeByLayer() const;
  /// Writes the spans as a Chrome trace; false on I/O failure.
  bool Write(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// RAII span.
class Scope {
 public:
  Scope(Tracer* tracer, const std::string& name, const std::string& layer,
        int64_t parent = 0)
      : tracer_(tracer), id_(tracer->Begin(name, layer, parent)) {}
  ~Scope() { tracer_->End(id_); }

 private:
  Tracer* tracer_;
  int64_t id_;
};

/// Rebuilds one task span per RunReport record, with deserialize /
/// compute / serialize child spans, under the run span `run_id`.
/// Record times are seconds from the executor's own origin, taken at
/// the start of Execute, so they are placed at `run_start` + offset.
void AddTaskSpans(Tracer* tracer, int64_t run_id, double run_start,
                  const tb::runtime::RunReport& report);

// ---------------------------------------------------------------------
// Host facts.
// ---------------------------------------------------------------------

struct HostFacts {
  std::string git_sha;
  std::string build_type;
  int nproc = 0;
  std::string cpu_model;
  /// Calibration spin: the same fixed amount of work in 1 and in
  /// `nproc` forked processes; effective parallelism =
  /// nproc * t(1) / t(nproc). Processes, not threads, so that the
  /// multi-process executor can still run in this process afterwards.
  double effective_parallelism = 0;
  double spin_s = 0;
  /// CPU the run is pinned to after calibration (-1 = not pinned).
  int pinned_cpu = -1;
  /// Share of the pinned CPU's time the hypervisor stole during the
  /// run (/proc/stat); -1 when unknown.
  double steal_share = -1;
  /// Digest of the library and benchmark sources (set by run.sh; the
  /// checkout the benchmark runs in is usually not a git repository).
  std::string source_sha;
};

/// Cumulative total and steal ticks of one CPU (or all, for -1) from
/// /proc/stat; {0, 0} when unavailable.
struct CpuTicks {
  uint64_t total = 0;
  uint64_t steal = 0;
};
CpuTicks ReadCpuTicks(int cpu);

HostFacts MeasureHost();

/// Pins this process, and so every thread and child it starts later,
/// to the CPU it is running on; returns that CPU or -1. The host
/// delivers between one and all of its CPUs depending on its other
/// tenants, so unpinned timings would swing with their load; pinned,
/// every leg gets the one CPU the host reliably delivers.
int PinToCurrentCpu();
void PrintHost(const HostFacts& host, int workers);
std::string HostJson(const HostFacts& host, int workers);

/// Kernel ids of this process's threads (/proc/self/task).
std::vector<int> ThreadIds();

/// Peak RSS of this process plus the largest peak among its waited-for
/// children (getrusage), in MB.
double PeakRssMb();

// ---------------------------------------------------------------------
// Layer breakdown of one real-executor run.
// ---------------------------------------------------------------------

struct LayerBreakdown {
  double makespan = 0;     ///< RunReport::makespan
  double deserialize = 0;  ///< summed over tasks
  double compute = 0;      ///< user-code stage summed over tasks
  double serialize = 0;
  double busy = 0;         ///< summed task durations
  double other = 0;        ///< busy minus the three stages
  double idle = 0;         ///< workers * makespan - busy
  double worker_seconds = 0;
  double ready_wait_p50 = 0;
  double ready_wait_tail = 0;
};

/// `workers` is the executor's worker count; the graph supplies the
/// dependencies for ready-wait (task start minus its latest
/// predecessor's end).
LayerBreakdown Breakdown(const tb::runtime::RunReport& report,
                         const tb::runtime::TaskGraph& graph, int workers);

/// Reads a counter from a registry (0 when never recorded).
int64_t CounterValue(tb::obs::MetricsRegistry& registry, const char* name);

/// Writes `text` to `path`; false on failure.
bool WriteFile(const std::string& path, const std::string& text);

/// Runs the json_lint binary that sits next to this executable on
/// `path`; true when it exits 0.
bool LintJson(const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
