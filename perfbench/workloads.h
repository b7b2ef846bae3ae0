// The three workloads. Each fills the end-to-end table (untraced
// measurements) and, when tracing, the per-layer table.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <functional>
#include <string>
#include <vector>

#include "common.h"
#include "common/result.h"
#include "runtime/executor.h"
#include "runtime/run_options.h"
#include "runtime/task_graph.h"

namespace perfbench {

/// Worker threads / processes / service runners of every leg. The
/// host measures about one effective core, so more would only queue.
inline constexpr int kWorkers = 2;

struct Context {
  Args args;
  HostFacts host;
  Tracer* tracer = nullptr;
  Outcomes* outcomes = nullptr;
  MetricTable* e2e = nullptr;
  MetricTable* layer = nullptr;
  /// Setup is repeated this many times and setup_s is the median.
  int setup_reps = 5;
  /// Extra lines for the human-readable report (attribution tables).
  std::vector<std::string> report;
};

int RunMatmulStorage(Context& ctx);
int RunKMeansIterative(Context& ctx);
int RunWfService(Context& ctx);

// ---------------------------------------------------------------------
// The simulator and the service.
// ---------------------------------------------------------------------

/// Runs the graph `build` returns directly on the SimulatedExecutor
/// (Minotauro cluster) under each tenant's policy (fifo, locality,
/// cost); fills sim_makespan_s and the sim / sched layer metrics.
void SimReference(Context& ctx,
                  const std::function<tb::runtime::TaskGraph()>& build);

/// wf-service's open-loop service leg: three tenants submit to one
/// WorkflowService with kWorkers runners over the SimulatedExecutor.
struct ServiceLegConfig {
  /// Fixed-rate phase (--trace 1 only), a chosen operating point
  /// (about 15% of one CPU), not a measured load. 240 submissions put
  /// the tail at p95.8, the highest level with ten samples beyond it.
  double rate_hz = 48;
  int fixed_submissions = 240;
  double latency_limit_s = 0.25;  ///< limit on a probe's tail latency
  double ladder_min_hz = 40;      ///< floor rung; rungs are min * step^k
  double ladder_step = 1.02;
  int bursts = 8;                 ///< saturation bursts
  int burst_submissions = 180;
  /// Ladder probes: rung drops of 1, 2, 4 and 8 after misses, then the
  /// floor.
  int max_probes = 6;
  int probe_submissions = 40;
};

// ---------------------------------------------------------------------
// The real-executor legs, shared by all workloads: one workflow at a
// time (closed loop) on the multi-process executor, then on the
// thread pool, each with kWorkers workers.
// ---------------------------------------------------------------------

struct RealWorkflow {
  tb::runtime::TaskGraph graph;
  /// Fetches and checks the outputs after Execute and returns their
  /// digest, compared across repeated runs and across executors.
  std::function<tb::Result<uint64_t>(const tb::runtime::Executor&,
                                     const tb::runtime::TaskGraph&)>
      harvest;
};

struct RealLegConfig {
  /// Builds a fresh workflow; runs outside the timed Execute.
  std::function<tb::Result<RealWorkflow>()> build;
  std::string build_span;   ///< span name of the build call
  std::string build_layer;  ///< "algos" or "wf"
  tb::runtime::RunOptions options;
  double window_s = 8;  ///< split evenly between the two executors
  int min_samples = 3;
  /// Shapes of the direct data::Multiply and Serializer probes.
  int64_t gemm_m = 1, gemm_k = 1, gemm_n = 1;
  int64_t block_rows = 1, block_cols = 1;
};

/// Fills threads.makespan_s / procs.makespan_s, checks that both
/// executors produce bit-identical outputs, prints the layer
/// attribution, and when tracing fills the runtime / storage / cache /
/// data layer metrics. Returns the thread-pool leg's request times
/// (graph build plus Execute) per workflow.
std::vector<double> RunExecutorLegs(Context& ctx, const RealLegConfig& cfg);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
