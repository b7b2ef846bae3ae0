#include "runtime/simulated_executor.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/random.h"
#include "common/status.h"
#include "common/strings.h"
#include "hw/slot_index.h"
#include "obs/metrics.h"
#include "perf/cost_model.h"
#include "runtime/fault.h"
#include "runtime/invariant_check.h"
#include "runtime/ready_queue.h"
#include "runtime/scheduler.h"
#include "runtime/task_attempt.h"
#include "sim/bandwidth_resource.h"
#include "sim/simulator.h"

namespace taskbench::runtime {

namespace {

/// All mutable state of one simulation run. The executor itself is
/// const/reusable; every Execute() builds a fresh SimState.
///
/// The scheduling path is built on incremental structures so one
/// decision costs O(log ready) instead of O(ready x nodes): the ready
/// set lives in per-placement-class heaps (ReadyQueue), free slots in
/// O(1)-aggregate SlotIndexes, and locality tallies in a
/// dirty-tracked per-task cache. docs/sched_fast_path.md derives the
/// equivalence with the legacy full-scan path.
///
/// Fault tolerance: when the options carry a non-empty FaultPlan, its
/// events are injected as ordinary discrete events and failed task
/// attempts are retried with exponential backoff (see
/// docs/FAULT_TOLERANCE.md for the recovery semantics and the
/// determinism argument). Every fault branch is gated on
/// `faults_active_`, so a fault-free run executes the exact event
/// sequence of the pre-fault-tolerance executor and its report stays
/// bit-identical.
class SimState {
 public:
  SimState(const hw::ClusterSpec& cluster, const RunOptions& options,
           const TaskGraph& graph, const RunContext& ctx)
      : cluster_(cluster),
        options_(options),
        graph_(graph),
        cancel_(ctx.cancel),
        model_(cluster),
        policy_(ctx.policy.value_or(options.policy)),
        scheduler_(MakeScheduler(policy_)),
        // Dependency/version checks assume the fault-free execution
        // order; recovery legitimately re-opens completed deps and
        // republishes blocks, so they gate off under a fault plan.
        // The end-of-run conservation checks stay on either way.
        check_order_(options.check_invariants && options.faults.empty()),
        faults_active_(!options.faults.empty()),
        // Hedging only ever arms for the cost-model policy under an
        // active fault plan: without faults there are no slow nodes,
        // so a straggler can never exist and gating keeps fault-free
        // runs structurally identical with hedging on or off.
        hedging_(policy_ == SchedulingPolicy::kCostModel &&
                 !options.sched.disable_hedging && !options.faults.empty()),
        storage_rng_(options.faults.seed) {
    const int nodes = cluster_.num_nodes;
    cpu_slots_.Reset(nodes, cluster_.cores_per_node);
    gpu_slots_.Reset(nodes, cluster_.gpus_per_node);

    sim::BandwidthResourceOptions shared_opts;
    shared_opts.capacity_bps = cluster_.shared_disk.aggregate_bw_bps;
    shared_opts.per_flow_cap_bps = cluster_.shared_disk.per_stream_bw_bps;
    shared_opts.per_op_latency_s = cluster_.shared_disk.per_op_latency_s;
    shared_opts.name = "shared-disk";
    shared_disk_ =
        std::make_unique<sim::BandwidthResource>(&simulator_, shared_opts);

    sim::BandwidthResourceOptions local_opts;
    local_opts.capacity_bps = cluster_.local_disk.aggregate_bw_bps;
    local_opts.per_flow_cap_bps = cluster_.local_disk.per_stream_bw_bps;
    local_opts.per_op_latency_s = cluster_.local_disk.per_op_latency_s;
    for (int n = 0; n < nodes; ++n) {
      local_opts.name = StrFormat("local-disk-%d", n);
      local_disks_.push_back(
          std::make_unique<sim::BandwidthResource>(&simulator_, local_opts));
    }

    sim::BandwidthResourceOptions net_opts;
    net_opts.capacity_bps = options_.network_aggregate_bps;
    net_opts.per_flow_cap_bps = options_.network_per_stream_bps;
    net_opts.per_op_latency_s = options_.network_latency_s;
    net_opts.name = "network";
    network_ =
        std::make_unique<sim::BandwidthResource>(&simulator_, net_opts);

    // Initial data placement: declared homes, else round-robin over
    // the true input data — the data whose first access is a read
    // (the runtime spreads the initial blocks across nodes).
    // Intermediates start unplaced; their home is set when produced.
    is_initial_input_.assign(static_cast<size_t>(graph_.num_data()), 0);
    {
      std::vector<bool> seen(static_cast<size_t>(graph_.num_data()), false);
      for (TaskId t = 0; t < graph_.num_tasks(); ++t) {
        for (const Param& p : graph_.task(t).spec.params) {
          const auto d = static_cast<size_t>(p.data);
          if (!seen[d]) {
            seen[d] = true;
            if (p.dir != Dir::kOut) is_initial_input_[d] = 1;
          }
        }
      }
    }
    data_home_.assign(static_cast<size_t>(graph_.num_data()), -1);
    int next_node = 0;
    for (DataId d = 0; d < graph_.num_data(); ++d) {
      const int declared = graph_.data(d).home_node;
      if (declared >= 0 && declared < nodes) {
        data_home_[static_cast<size_t>(d)] = declared;
      } else if (is_initial_input_[static_cast<size_t>(d)] != 0) {
        data_home_[static_cast<size_t>(d)] = next_node;
        next_node = (next_node + 1) % nodes;
      }
    }

    if (policy_ == SchedulingPolicy::kDataLocality ||
        policy_ == SchedulingPolicy::kCostModel) {
      locality_ = std::make_unique<LocalityCache>(graph_, &data_home_);
    }

    if (check_order_) {
      version_oracle_ = VersionOracle::Build(graph_);
      data_version_.assign(static_cast<size_t>(graph_.num_data()), 0);
    }

    node_dead_.assign(static_cast<size_t>(nodes), 0);
    node_slow_.assign(static_cast<size_t>(nodes), 1.0);
    remaining_deps_.resize(static_cast<size_t>(graph_.num_tasks()));
    records_.resize(static_cast<size_t>(graph_.num_tasks()));
    task_class_.resize(static_cast<size_t>(graph_.num_tasks()));
    attempt_count_.assign(static_cast<size_t>(graph_.num_tasks()), 0);
    completed_flag_.assign(static_cast<size_t>(graph_.num_tasks()), 0);
    pending_retry_.assign(static_cast<size_t>(graph_.num_tasks()), 0);
    active_run_.assign(static_cast<size_t>(graph_.num_tasks()), nullptr);
    const bool escalate = policy_ == SchedulingPolicy::kCostModel &&
                          options_.hybrid && !options_.sched.disable_escalation;
    for (TaskId t = 0; t < graph_.num_tasks(); ++t) {
      const perf::TaskCost& cost = graph_.task(t).spec.cost;
      bool gpu_fits = false;
      bool cpu_spill_ok = true;
      if (cluster_.total_gpus() > 0) {
        gpu_fits = model_.CheckGpuFit(cost).ok();
        if (options_.hybrid) {
          const double gpu_time =
              model_.GpuParallelFraction(cost) + model_.CpuGpuComm(cost);
          cpu_spill_ok = model_.CpuParallelFraction(cost) <=
                         options_.hybrid_max_cpu_slowdown * gpu_time;
        }
      }
      task_class_[static_cast<size_t>(t)] = ClassifyTask(
          graph_.task(t).spec, options_.hybrid, gpu_fits, cpu_spill_ok);
      // CPU->GPU escalation (cost-model policy, hybrid mode): a
      // CPU-targeted task whose modeled CPU time dwarfs its GPU time
      // (benefit/cost >= escalate_benefit) and which fits device
      // memory is upgraded to the GPU-or-CPU class — it takes an idle
      // device when one is free and still falls back to a core.
      if (escalate && graph_.task(t).spec.processor == Processor::kCpu &&
          gpu_fits) {
        const double gpu_time =
            model_.GpuParallelFraction(cost) + model_.CpuGpuComm(cost);
        if (gpu_time > 0 && model_.CpuParallelFraction(cost) >=
                                options_.sched.escalate_benefit * gpu_time) {
          task_class_[static_cast<size_t>(t)] = PlacementClass::kGpuOrCpu;
        }
      }
      remaining_deps_[static_cast<size_t>(t)] =
          static_cast<int>(graph_.task(t).deps.size());
    }

    if (policy_ == SchedulingPolicy::kCostModel) {
      InstallCostScorer(options_.sched);
    }

    // Roots enter the ready set after the scorer (if any) is in
    // place, so their push keys are already scored.
    for (TaskId t = 0; t < graph_.num_tasks(); ++t) {
      if (remaining_deps_[static_cast<size_t>(t)] == 0) {
        ready_.Push(t, task_class_[static_cast<size_t>(t)]);
      }
    }

    // Per-decision phase split: scheduler-provided, scaled to keep
    // summing to the per-decision overhead under an override. Applied
    // once per decision count at the end of the run, so profiling
    // costs the hot loop nothing.
    phase_split_ = scheduler_->DecisionPhases(options_.storage);
    if (options_.scheduler_overhead_override_s >= 0) {
      const double total = phase_split_.total();
      const double scale =
          total > 0 ? options_.scheduler_overhead_override_s / total : 0;
      phase_split_.ready_pop_s *= scale;
      phase_split_.locality_s *= scale;
      phase_split_.slot_pick_s *= scale;
    }

    // Telemetry: resolve instrument handles once; the hot paths then
    // pay a null test when disabled and pointer bumps when enabled.
    // A per-run registry in the context scopes the instruments to this
    // submission; the executor-wide RunOptions registry is the default.
    metrics_ = ctx.metrics != nullptr ? ctx.metrics : options_.metrics;
    if (metrics_ != nullptr) {
      m_decisions_ = metrics_->counter("sched.decisions");
      m_ready_size_ = metrics_->histogram("sched.ready_tasks");
      stage_hists_.emplace(graph_, *metrics_);
    }
  }

  Result<RunReport> Run() {
    if (graph_.num_tasks() == 0) {
      return RunReport{};
    }
    TB_RETURN_IF_ERROR(graph_.Validate());
    if (faults_active_) {
      TB_RETURN_IF_ERROR(options_.faults.Validate(cluster_.num_nodes));
      for (const FaultEvent& e : options_.faults.events) {
        simulator_.At(e.time, [this, e]() { InjectFault(e); });
      }
    }
    ScheduleLoop();
    simulator_.Run();
    if (!failure_.ok()) return failure_;
    if (completed_ != graph_.num_tasks()) {
      return Status::FailedPrecondition(StrFormat(
          "workflow stalled: %lld of %lld tasks completed (a task type "
          "may target a processor the cluster lacks%s)",
          static_cast<long long>(completed_),
          static_cast<long long>(graph_.num_tasks()),
          faults_active_
              ? ", or injected faults removed every capable node"
              : ""));
    }
    if (options_.check_invariants) {
      TB_RETURN_IF_ERROR(CheckConservation());
    }
    RunReport report;
    report.records = std::move(records_);
    report.makespan = makespan_;
    report.scheduler_overhead = scheduler_overhead_;
    const double n = static_cast<double>(decisions_);
    report.sched_phases.ready_pop_s = phase_split_.ready_pop_s * n;
    report.sched_phases.locality_s = phase_split_.locality_s * n;
    report.sched_phases.slot_pick_s = phase_split_.slot_pick_s * n;
    report.sim_events = simulator_.events_executed();
    if (faults_active_) {
      report.faults = stats_;
      report.attempts = std::move(attempts_);
    }
    if (metrics_ != nullptr) {
      metrics_->gauge("sim.max_pending_events")
          ->SetMax(static_cast<double>(simulator_.max_pending_events()));
      metrics_->counter("sim.events")->Add(
          static_cast<int64_t>(simulator_.events_executed()));
      if (faults_active_) {
        metrics_->counter("faults.injected")->Add(stats_.faults_injected);
        metrics_->counter("faults.retries")->Add(stats_.retries);
        metrics_->counter("faults.storage_faults")->Add(stats_.storage_faults);
        metrics_->counter("faults.recomputed_tasks")
            ->Add(stats_.recomputed_tasks);
      }
    }
    return report;
  }

 private:
  /// In-flight execution state of one dispatched task attempt.
  /// Instances are pooled and recycled: at most slots-many are live at
  /// once, the hot loop never allocates one, and the continuation
  /// lambdas capture {this, raw pointer} — small enough for
  /// std::function's inline buffer, so per-event heap churn is gone
  /// too. Inputs and outputs are walked directly over the task's param
  /// list instead of being copied into per-run vectors.
  ///
  /// Cancellation: a fault may kill a run while its next continuation
  /// is already queued in the simulator. The run is then marked
  /// `cancelled` and kept until every outstanding continuation has
  /// drained through Enter() — a live run always has inflight >= 1
  /// (events fire between callbacks), so the drain always completes
  /// and the pooled slot is recycled exactly once.
  struct TaskRun {
    TaskId id = -1;
    int node = -1;
    Processor processor = Processor::kCpu;
    double dispatch_done = 0;
    double deser_start = 0;
    double deser_end = 0;
    double compute_end = 0;
    size_t next_input = 0;   ///< param index of the next input read
    size_t next_output = 0;  ///< param index of the next output write
    int join_pending = 0;    ///< disk+network legs of a remote read
    int attempt = 1;         ///< 1-based attempt number of this run
    int inflight = 0;        ///< scheduled continuations not yet fired
    size_t live_index = 0;   ///< position in live_runs_
    bool cancelled = false;  ///< killed by a fault; drains via Enter
    bool started = false;    ///< StartTask has run (dispatch_done set)
    /// Speculative hedging (cost-model policy, docs/SCHEDULERS.md).
    /// Once a straggling attempt is duplicated, both attempts carry
    /// hedged=true and point at each other via twin. A hedged attempt
    /// stages its output homes in staged_homes instead of publishing;
    /// the first attempt to finish applies its staged homes and
    /// cancels the twin, so the loser leaves no trace in placement
    /// state. When one attempt dies to a fault the pair detaches
    /// (twin=nullptr) and the survivor finishes alone — still staged,
    /// still applied at finish.
    bool hedged = false;
    TaskRun* twin = nullptr;
    std::vector<DataId> staged_homes;
  };

  TaskRun* AcquireRun() {
    if (free_runs_.empty()) {
      run_pool_.emplace_back();
      return &run_pool_.back();
    }
    TaskRun* run = free_runs_.back();
    free_runs_.pop_back();
    *run = TaskRun{};
    return run;
  }

  void ReleaseRun(TaskRun* run) { free_runs_.push_back(run); }

  /// Removes `run` from the live set (swap-remove) and clears its
  /// task's active-run pointer — but only when the pointer is still
  /// this run: under hedging two attempts of one task are live at
  /// once and retiring the second must not clobber the first's (or a
  /// detached survivor's) registration. Called exactly once per
  /// attempt, on completion or on any failure path.
  void RetireRun(TaskRun* run) {
    if (active_run_[static_cast<size_t>(run->id)] == run) {
      active_run_[static_cast<size_t>(run->id)] = nullptr;
    }
    TaskRun* last = live_runs_.back();
    live_runs_[run->live_index] = last;
    last->live_index = run->live_index;
    live_runs_.pop_back();
  }

  /// Continuation prologue: every simulator callback that resumes a
  /// run enters through here. Returns false when the run was cancelled
  /// by a fault; the last draining callback recycles the pooled slot.
  bool Enter(TaskRun* run) {
    --run->inflight;
    if (!run->cancelled) return true;
    if (run->inflight == 0) ReleaseRun(run);
    return false;
  }

  void Fail(Status status) {
    if (failure_.ok()) failure_ = std::move(status);
    simulator_.Stop();
  }

  /// Cooperative cancellation, polled at every master scheduling edge
  /// (ScheduleLoop runs once per dispatch wave: at start, after each
  /// task completion, and after each retry re-arm). A cancelled run
  /// stops the simulator and surfaces kCancelled; the SimState is torn
  /// down wholesale afterwards, so in-flight continuations need no
  /// drain. The flag may be set from another thread — simulated time
  /// runs orders of magnitude faster than wall time, so the next edge
  /// is never far away.
  bool CancelRequested() const {
    return cancel_ != nullptr && cancel_->cancelled();
  }

  bool DrawStorageFault() {
    return options_.faults.storage_fault_rate > 0 &&
           storage_rng_.NextDouble() < options_.faults.storage_fault_rate;
  }

  void RecordAttempt(const TaskRun* run, AttemptOutcome outcome) {
    if (!faults_active_) return;
    TaskAttempt a;
    a.task = run->id;
    a.attempt = run->attempt;
    a.node = run->node;
    a.processor = run->processor;
    a.start = run->dispatch_done;
    a.end = simulator_.Now();
    a.outcome = outcome;
    attempts_.push_back(a);
  }

  /// Modeled uncontended latency of one execution of `t` on the
  /// processor kind its placement class implies: compute stages plus
  /// (de)serialization through the configured storage. Precomputed per
  /// task (est_) for the cost-model policy.
  double EstTaskTime(TaskId t) const {
    const perf::TaskCost& cost = graph_.task(t).spec.cost;
    const PlacementClass cls = task_class_[static_cast<size_t>(t)];
    double compute = model_.SerialFraction(cost);
    if (cls == PlacementClass::kGpuOnly || cls == PlacementClass::kGpuOrCpu) {
      compute += model_.GpuParallelFraction(cost) + model_.CpuGpuComm(cost);
    } else {
      compute += model_.CpuParallelFraction(cost);
    }
    return compute + model_.Deserialize(cost, options_.storage) +
           model_.Serialize(cost, options_.storage);
  }

  /// Cost-model precomputation (docs/SCHEDULERS.md): per-task modeled
  /// time, upward rank (critical-path-to-sink, HEFT ranking), top
  /// length (critical-path-from-source) and the derived slack, folded
  /// into one static push key
  ///
  ///   key(t) = alpha * rank(t) - beta * slack(t) - gamma * ready_time
  ///
  /// installed on the ReadyQueue. Task ids are topological (deps have
  /// strictly lower ids — TaskGraph::Validate), so one forward and
  /// one backward pass over the id range suffice. O(V + E) total.
  void InstallCostScorer(const SchedulerConfig& sched) {
    const auto n = static_cast<size_t>(graph_.num_tasks());
    est_.resize(n);
    std::vector<double> toplen(n, 0.0);
    std::vector<double> rank(n, 0.0);
    for (TaskId t = 0; t < graph_.num_tasks(); ++t) {
      est_[static_cast<size_t>(t)] = EstTaskTime(t);
    }
    for (TaskId t = 0; t < graph_.num_tasks(); ++t) {
      const auto ts = static_cast<size_t>(t);
      for (TaskId dep : graph_.task(t).deps) {
        const auto ds = static_cast<size_t>(dep);
        toplen[ts] = std::max(toplen[ts], toplen[ds] + est_[ds]);
      }
    }
    double critical_path = 0.0;
    for (TaskId t = graph_.num_tasks() - 1; t >= 0; --t) {
      const auto ts = static_cast<size_t>(t);
      double succ_rank = 0.0;
      for (TaskId succ : graph_.task(t).successors) {
        succ_rank = std::max(succ_rank, rank[static_cast<size_t>(succ)]);
      }
      rank[ts] = est_[ts] + succ_rank;
      critical_path = std::max(critical_path, toplen[ts] + rank[ts]);
    }
    static_key_.resize(n);
    for (TaskId t = 0; t < graph_.num_tasks(); ++t) {
      const auto ts = static_cast<size_t>(t);
      const double slack = critical_path - toplen[ts] - rank[ts];
      static_key_[ts] = sched.alpha * rank[ts] - sched.beta * slack;
    }
    const double gamma = sched.gamma;
    // Subtracting gamma * push-time makes earlier-ready tasks score
    // higher as simulated time advances — the age term — while
    // keeping every queued key constant, so heap order stays valid.
    scorer_ = [this, gamma](TaskId t) {
      return static_key_[static_cast<size_t>(t)] - gamma * simulator_.Now();
    };
    ready_.SetScorer(scorer_);
  }

  /// Drains the scheduler: keeps assigning ready tasks to free slots,
  /// serializing decision overhead through the master.
  void ScheduleLoop() {
    if (!failure_.ok()) return;
    if (CancelRequested()) {
      Fail(Status::Cancelled("run cancelled"));
      return;
    }
    SchedulerView view;
    view.graph = &graph_;
    view.ready = &ready_;
    view.cpu_slots = &cpu_slots_;
    view.gpu_slots = &gpu_slots_;
    view.data_home = &data_home_;
    view.locality = locality_.get();
    for (;;) {
      const auto assignment = scheduler_->Decide(view);
      if (!assignment.has_value()) break;

      const TaskId id = assignment->task;
      const int node = assignment->node;
      const Task& task = graph_.task(id);
      const PlacementClass cls = task_class_[static_cast<size_t>(id)];
      TB_CHECK(ready_.Head(cls) == id) << "scheduler picked non-ready task";
      ready_.PopHead(cls);
      // Sampled locality-staleness check (docs/TESTING.md): the tally
      // the decision just consulted must match a fresh recompute. A
      // mismatch means some data_home write path skipped
      // OnDataHomeChanged. Pure reads — the event sequence is
      // untouched.
      if (options_.check_invariants && locality_ != nullptr &&
          (decisions_ & 63) == 0 && !locality_->VerifyTally(id)) {
        Fail(Status::FailedPrecondition(StrFormat(
            "invariant violation: stale locality tally for task %lld "
            "(a data_home write path missed OnDataHomeChanged)",
            static_cast<long long>(id))));
        return;
      }
      TB_CHECK(options_.hybrid ||
               assignment->processor == task.spec.processor)
          << "non-hybrid scheduler changed a task's processor";
      auto& slots = assignment->processor == Processor::kCpu ? cpu_slots_
                                                             : gpu_slots_;
      slots.Acquire(node);  // checks the node has a free slot

      const double overhead =
          options_.scheduler_overhead_override_s >= 0
              ? options_.scheduler_overhead_override_s
              : scheduler_->DecisionOverhead(options_.storage);
      scheduler_overhead_ += overhead;
      ++decisions_;
      if (metrics_ != nullptr) {
        m_decisions_->Add(1);
        // +1: the popped task was part of the ready set this decision
        // looked at.
        m_ready_size_->Record(static_cast<double>(ready_.size()) + 1);
      }
      master_free_at_ =
          std::max(master_free_at_, simulator_.Now()) + overhead;

      TaskRun* run = AcquireRun();
      run->id = id;
      run->node = node;
      run->processor = assignment->processor;
      run->attempt = ++attempt_count_[static_cast<size_t>(id)];
      run->live_index = live_runs_.size();
      live_runs_.push_back(run);
      active_run_[static_cast<size_t>(id)] = run;
      run->inflight = 1;
      simulator_.At(master_free_at_, [this, run]() {
        if (!Enter(run)) return;
        StartTask(run);
      });
    }
    if (hedging_) MaybeHedge();
  }

  /// Scans the live attempts for stragglers (cost-model policy with
  /// an active fault plan only — see `hedging_`): an attempt on a
  /// degraded node whose elapsed time already exceeds hedge_threshold
  /// x its modeled (unslowed) duration gets a speculative duplicate
  /// on the lowest-id healthy node with a free matching slot. The
  /// duplicate dispatch goes through the master like any decision
  /// (overhead + serialization), so hedging is visible in the
  /// scheduler accounting, and the phase-sum invariant still holds.
  void MaybeHedge() {
    if (!failure_.ok()) return;
    // Snapshot: dispatching a twin appends to live_runs_. Ascending
    // task id keeps the hedge order deterministic and independent of
    // live-set swap-removal history.
    hedge_scan_.assign(live_runs_.begin(), live_runs_.end());
    std::sort(hedge_scan_.begin(), hedge_scan_.end(),
              [](const TaskRun* a, const TaskRun* b) { return a->id < b->id; });
    for (TaskRun* run : hedge_scan_) {
      if (run->hedged || run->cancelled || !run->started) continue;
      if (node_slow_[static_cast<size_t>(run->node)] <= 1.0) continue;
      const double elapsed = simulator_.Now() - run->dispatch_done;
      if (elapsed <=
          options_.sched.hedge_threshold * est_[static_cast<size_t>(run->id)]) {
        continue;
      }
      auto& slots =
          run->processor == Processor::kCpu ? cpu_slots_ : gpu_slots_;
      int node = -1;
      for (int n = 0; n < cluster_.num_nodes; ++n) {
        if (n == run->node || node_dead_[static_cast<size_t>(n)] != 0 ||
            node_slow_[static_cast<size_t>(n)] > 1.0) {
          continue;
        }
        if (slots.free_at(n) > 0) {
          node = n;
          break;
        }
      }
      if (node < 0) continue;  // nowhere healthy to duplicate to
      slots.Acquire(node);
      const double overhead =
          options_.scheduler_overhead_override_s >= 0
              ? options_.scheduler_overhead_override_s
              : scheduler_->DecisionOverhead(options_.storage);
      scheduler_overhead_ += overhead;
      ++decisions_;
      if (metrics_ != nullptr) m_decisions_->Add(1);
      master_free_at_ = std::max(master_free_at_, simulator_.Now()) + overhead;

      TaskRun* twin = AcquireRun();
      twin->id = run->id;
      twin->node = node;
      twin->processor = run->processor;
      twin->attempt = ++attempt_count_[static_cast<size_t>(run->id)];
      twin->hedged = true;
      twin->twin = run;
      run->hedged = true;
      run->twin = twin;
      twin->live_index = live_runs_.size();
      live_runs_.push_back(twin);
      ++stats_.hedges;
      twin->inflight = 1;
      simulator_.At(master_free_at_, [this, twin]() {
        if (!Enter(twin)) return;
        StartTask(twin);
      });
    }
  }

  /// First-finish-wins: `winner` just completed; its still-running
  /// twin is cancelled, its slot freed and its attempt logged as
  /// hedge-cancelled. The loser's queued continuations drain through
  /// Enter() and its staged output homes are simply discarded — no
  /// trace in placement state.
  void CancelHedge(TaskRun* winner) {
    TaskRun* loser = winner->twin;
    if (loser == nullptr) return;
    winner->twin = nullptr;
    loser->twin = nullptr;
    RecordAttempt(loser, AttemptOutcome::kHedgeCancelled);
    // A loser on a dead node would have been detached by KillRun
    // already, so this slot release is always against a live index.
    auto& slots =
        loser->processor == Processor::kCpu ? cpu_slots_ : gpu_slots_;
    slots.Release(loser->node);
    loser->cancelled = true;
    RetireRun(loser);
    TB_CHECK(loser->inflight > 0) << "cancelled a hedge with no queued event";
  }

  void StartTask(TaskRun* run) {
    if (check_order_) {
      for (TaskId dep : graph_.task(run->id).deps) {
        if (completed_flag_[static_cast<size_t>(dep)] == 0) {
          Fail(Status::FailedPrecondition(StrFormat(
              "invariant violation: task %lld started before dependency "
              "%lld completed",
              static_cast<long long>(run->id),
              static_cast<long long>(dep))));
          return;
        }
      }
    }
    run->started = true;
    run->dispatch_done = simulator_.Now();
    run->deser_start = simulator_.Now();
    ReadNextInput(run);
  }

  /// Inputs are deserialized sequentially by the worker core, as a
  /// COMPSs worker does.
  void ReadNextInput(TaskRun* run) {
    if (!failure_.ok()) return;
    const std::vector<Param>& params = graph_.task(run->id).spec.params;
    while (run->next_input < params.size() &&
           params[run->next_input].dir == Dir::kOut) {
      ++run->next_input;
    }
    if (run->next_input >= params.size()) {
      run->deser_end = simulator_.Now();
      Compute(run);
      return;
    }
    const size_t param_idx = run->next_input;
    const DataId d = params[run->next_input++].data;
    if (check_order_) {
      // An INOUT's read side expects the version preceding its own
      // write ordinal.
      const int expected =
          version_oracle_.ordinal(run->id, param_idx) -
          (params[param_idx].dir == Dir::kInOut ? 1 : 0);
      const int actual = data_version_[static_cast<size_t>(d)];
      if (actual != expected) {
        Fail(Status::FailedPrecondition(StrFormat(
            "invariant violation: task %lld read datum %lld at version "
            "%d, expected %d (stale or unpublished block)",
            static_cast<long long>(run->id), static_cast<long long>(d),
            actual, expected)));
        return;
      }
    }
    const uint64_t bytes = graph_.data(d).bytes;
    const bool faulty = DrawStorageFault();
    auto cont = [this, run, faulty]() {
      if (!Enter(run)) return;
      if (faulty) {
        OnStorageFault(run);
        return;
      }
      ReadNextInput(run);
    };
    if (options_.storage == hw::StorageArchitecture::kSharedDisk) {
      ++run->inflight;
      shared_disk_->Transfer(bytes, std::move(cont));
      return;
    }
    int home = data_home_[static_cast<size_t>(d)];
    if (home < 0) home = run->node;  // defensively treat as local
    if (home == run->node) {
      ++run->inflight;
      local_disks_[static_cast<size_t>(home)]->Transfer(bytes,
                                                        std::move(cont));
    } else {
      // Remote block: the home node's disk and the network stream in
      // parallel (pipelined chunks), so the read completes when the
      // slower of the two finishes. A transient storage fault covers
      // the whole logical Get, so both legs share one draw.
      run->join_pending = 2;
      run->inflight += 2;
      auto join = [this, run, faulty]() {
        if (!Enter(run)) return;
        if (--run->join_pending > 0) return;
        if (faulty) {
          OnStorageFault(run);
          return;
        }
        ReadNextInput(run);
      };
      local_disks_[static_cast<size_t>(home)]->Transfer(bytes, join);
      network_->Transfer(bytes, join);
    }
  }

  void Compute(TaskRun* run) {
    if (!failure_.ok()) return;
    const Task& task = graph_.task(run->id);
    const perf::TaskCost& cost = task.spec.cost;
    double duration = model_.SerialFraction(cost);
    if (run->processor == Processor::kGpu) {
      const Status fit = model_.CheckGpuFit(cost);
      if (!fit.ok()) {
        Fail(Status(fit.code(), fit.message())
                 .WithContext(StrFormat("task %lld (%s)",
                                        static_cast<long long>(run->id),
                                        task.spec.type.c_str())));
        return;
      }
      duration += model_.GpuParallelFraction(cost) + model_.CpuGpuComm(cost);
    } else {
      duration += model_.CpuParallelFraction(cost);
    }
    if (faults_active_) {
      // Slow-node degradation applies to compute that starts after the
      // fault fires; in-flight computations keep their old duration.
      duration *= node_slow_[static_cast<size_t>(run->node)];
    }
    ++run->inflight;
    simulator_.After(duration, [this, run]() {
      if (!Enter(run)) return;
      run->compute_end = simulator_.Now();
      WriteNextOutput(run);
    });
  }

  void WriteNextOutput(TaskRun* run) {
    if (!failure_.ok()) return;
    const std::vector<Param>& params = graph_.task(run->id).spec.params;
    while (run->next_output < params.size() &&
           params[run->next_output].dir == Dir::kIn) {
      ++run->next_output;
    }
    if (run->next_output >= params.size()) {
      FinishTask(run);
      return;
    }
    const size_t param_idx = run->next_output;
    const DataId d = params[run->next_output++].data;
    if (check_order_) {
      // Publish the writer ordinal (idempotent set, not increment).
      data_version_[static_cast<size_t>(d)] =
          version_oracle_.ordinal(run->id, param_idx);
    }
    const uint64_t bytes = graph_.data(d).bytes;
    // Outputs are written to the executing node's disk (local) or to
    // the shared filesystem; either way the datum's home becomes the
    // producing node for locality purposes. A hedged attempt stages
    // the home change instead — only the winning attempt's homes are
    // ever applied (FinishTask), so a cancelled loser leaves no trace
    // in placement state.
    if (run->hedged) {
      run->staged_homes.push_back(d);
    } else if (data_home_[static_cast<size_t>(d)] != run->node) {
      data_home_[static_cast<size_t>(d)] = run->node;
      if (locality_ != nullptr) locality_->OnDataHomeChanged(d);
    }
    const bool faulty = DrawStorageFault();
    auto cont = [this, run, faulty]() {
      if (!Enter(run)) return;
      if (faulty) {
        OnStorageFault(run);
        return;
      }
      WriteNextOutput(run);
    };
    ++run->inflight;
    if (options_.storage == hw::StorageArchitecture::kSharedDisk) {
      shared_disk_->Transfer(bytes, std::move(cont));
    } else {
      local_disks_[static_cast<size_t>(run->node)]->Transfer(bytes,
                                                             std::move(cont));
    }
  }

  void FinishTask(TaskRun* run) {
    const Task& task = graph_.task(run->id);
    const perf::TaskCost& cost = task.spec.cost;

    if (run->hedged) {
      // This attempt won (a loser is cancelled before it can reach
      // FinishTask): publish its staged output homes.
      for (DataId d : run->staged_homes) {
        if (data_home_[static_cast<size_t>(d)] != run->node) {
          data_home_[static_cast<size_t>(d)] = run->node;
          if (locality_ != nullptr) locality_->OnDataHomeChanged(d);
        }
      }
      // Cancel the loser before recording this completion when it is
      // the earlier attempt, after otherwise — the per-task attempt
      // log stays monotonic in attempt number either way.
      if (run->twin != nullptr && run->twin->attempt < run->attempt) {
        CancelHedge(run);
      }
    }

    TaskRecord& rec = records_[static_cast<size_t>(run->id)];
    rec.task = run->id;
    rec.type = task.spec.type;
    rec.level = task.level;
    rec.processor = run->processor;
    rec.node = run->node;
    rec.start = run->dispatch_done;
    rec.end = simulator_.Now();
    rec.attempt = run->attempt;
    rec.stages.deserialize = run->deser_end - run->deser_start;
    rec.stages.serialize = simulator_.Now() - run->compute_end;
    rec.stages.serial_fraction = model_.SerialFraction(cost);
    if (run->processor == Processor::kGpu) {
      rec.stages.parallel_fraction = model_.GpuParallelFraction(cost);
      rec.stages.cpu_gpu_comm = model_.CpuGpuComm(cost);
    } else {
      rec.stages.parallel_fraction = model_.CpuParallelFraction(cost);
    }
    makespan_ = std::max(makespan_, rec.end);
    if (stage_hists_.has_value()) stage_hists_->Record(rec);
    RecordAttempt(run, AttemptOutcome::kCompleted);
    if (run->hedged && run->twin != nullptr) CancelHedge(run);

    auto& slots =
        run->processor == Processor::kCpu ? cpu_slots_ : gpu_slots_;
    slots.Release(run->node);
    completed_flag_[static_cast<size_t>(run->id)] = 1;
    ++completed_;

    for (TaskId succ : task.successors) {
      const auto s = static_cast<size_t>(succ);
      // Under recovery a recomputed producer can finish after its
      // successors already completed or restarted; those must not be
      // re-armed. Impossible fault-free (a successor never runs before
      // all its deps), so the guard is gated off the hot path.
      if (faults_active_ &&
          (completed_flag_[s] != 0 || active_run_[s] != nullptr)) {
        continue;
      }
      if (--remaining_deps_[s] == 0) {
        if (faults_active_ && pending_retry_[s] != 0) continue;
        ready_.Push(succ, task_class_[s]);
      }
    }
    RetireRun(run);
    ReleaseRun(run);
    ScheduleLoop();
  }

  /// End-of-run conservation laws (RunOptions::check_invariants).
  /// Pure reads over state the run maintained anyway — nothing here
  /// can perturb the event sequence or the report.
  Status CheckConservation() const {
    // (1) Occupancy: a slot runs one task at a time, so per-node busy
    // time per processor class never exceeds makespan x capacity.
    // Holds under faults too — records hold only completed attempts
    // and capacity only ever shrinks.
    const double time_tol = 1e-9 * makespan_ + 1e-12;
    std::vector<double> cpu_busy(static_cast<size_t>(cluster_.num_nodes), 0);
    std::vector<double> gpu_busy(static_cast<size_t>(cluster_.num_nodes), 0);
    for (const TaskRecord& rec : records_) {
      if (rec.task < 0 || rec.node < 0) continue;
      auto& busy = rec.processor == Processor::kCpu ? cpu_busy : gpu_busy;
      busy[static_cast<size_t>(rec.node)] += rec.duration();
    }
    for (int n = 0; n < cluster_.num_nodes; ++n) {
      const double cpu_cap = makespan_ * cluster_.cores_per_node;
      const double gpu_cap = makespan_ * cluster_.gpus_per_node;
      if (cpu_busy[static_cast<size_t>(n)] >
              cpu_cap + time_tol * cluster_.cores_per_node ||
          gpu_busy[static_cast<size_t>(n)] >
              gpu_cap + time_tol * std::max(1, cluster_.gpus_per_node)) {
        return Status::FailedPrecondition(StrFormat(
            "invariant violation: node %d busy time (cpu=%.17g gpu=%.17g) "
            "exceeds makespan %.17g x slot capacity (%d cores, %d gpus)",
            n, cpu_busy[static_cast<size_t>(n)],
            gpu_busy[static_cast<size_t>(n)], makespan_,
            cluster_.cores_per_node, cluster_.gpus_per_node));
      }
    }

    // (2) Scheduler accounting: the per-phase split must sum to the
    // decision overhead (both are the same per-decision quantity
    // accumulated two ways, so they agree to rounding).
    const double n = static_cast<double>(decisions_);
    const double phase_total = (phase_split_.ready_pop_s +
                                phase_split_.locality_s +
                                phase_split_.slot_pick_s) *
                               n;
    const double overhead_tol = 1e-9 * (scheduler_overhead_ + 1e-12) * (n + 1);
    if (std::abs(phase_total - scheduler_overhead_) > overhead_tol) {
      return Status::FailedPrecondition(StrFormat(
          "invariant violation: DecisionPhases sum %.17g != scheduler "
          "overhead %.17g over %lld decisions",
          phase_total, scheduler_overhead_,
          static_cast<long long>(decisions_)));
    }

    // (3) Byte conservation: every param of every task crosses a
    // storage resource exactly once per access (reads through the
    // datum's disk, writes through the producer's), so the resources'
    // byte counters must add up to the graph's block sizes. Fault
    // runs re-read and re-write during recovery; skip.
    if (!faults_active_) {
      uint64_t expected = 0;
      uint64_t expected_reads = 0;
      for (TaskId t = 0; t < graph_.num_tasks(); ++t) {
        for (const Param& p : graph_.task(t).spec.params) {
          const uint64_t bytes = graph_.data(p.data).bytes;
          if (p.dir != Dir::kOut) expected_reads += bytes;
          if (p.dir == Dir::kInOut) expected += 2 * bytes;
          else expected += bytes;
        }
      }
      uint64_t disk_total = 0;
      if (options_.storage == hw::StorageArchitecture::kSharedDisk) {
        disk_total = shared_disk_->total_bytes();
      } else {
        for (const auto& disk : local_disks_) {
          disk_total += disk->total_bytes();
        }
      }
      // Remote reads under local-disk storage additionally stream the
      // network; that leg duplicates (a subset of) the read bytes.
      if (disk_total != expected ||
          network_->total_bytes() > expected_reads) {
        return Status::FailedPrecondition(StrFormat(
            "invariant violation: storage moved %llu bytes, graph "
            "blocks demand %llu (network %llu of <= %llu read bytes)",
            static_cast<unsigned long long>(disk_total),
            static_cast<unsigned long long>(expected),
            static_cast<unsigned long long>(network_->total_bytes()),
            static_cast<unsigned long long>(expected_reads)));
      }
    }
    return Status::OK();
  }

  // ----------------------------------------------------------------
  // Fault injection & recovery. Nothing below runs on fault-free
  // configurations.
  // ----------------------------------------------------------------

  void InjectFault(const FaultEvent& e) {
    if (!failure_.ok()) return;
    switch (e.kind) {
      case FaultKind::kNodeCrash:
        OnNodeCrash(e.node);
        break;
      case FaultKind::kGpuLoss:
        OnGpuLoss(e.node);
        break;
      case FaultKind::kSlowNode:
        OnSlowNode(e.node, e.factor);
        break;
    }
  }

  /// Transient storage fault: the op consumed its full duration, then
  /// failed. The attempt is torn down (slot released — the node is
  /// still alive) and the task retried with backoff.
  void OnStorageFault(TaskRun* run) {
    ++stats_.storage_faults;
    RecordAttempt(run, AttemptOutcome::kStorageFault);
    auto& slots =
        run->processor == Processor::kCpu ? cpu_slots_ : gpu_slots_;
    slots.Release(run->node);
    const TaskId id = run->id;
    const int attempt = run->attempt;
    const int node = run->node;
    if (run->hedged && run->twin != nullptr) {
      // The twin is still running this task: detach the pair and let
      // it finish alone instead of burning a retry. Keep the task's
      // active-run registration pointing at the survivor so lineage
      // recovery still sees a live writer.
      DetachTwin(run);
      ++stats_.hedge_absorbed;
      RetireRun(run);
      ReleaseRun(run);
      return;
    }
    RetireRun(run);
    ReleaseRun(run);
    RetryOrFail(id, attempt, node);
  }

  /// Detaches `run` from its hedge pair after `run` failed; the
  /// surviving twin keeps hedged=true (its outputs stay staged and
  /// publish when it finishes) and takes over the active-run slot.
  void DetachTwin(TaskRun* run) {
    TaskRun* twin = run->twin;
    run->twin = nullptr;
    twin->twin = nullptr;
    if (active_run_[static_cast<size_t>(run->id)] == run) {
      active_run_[static_cast<size_t>(run->id)] = twin;
    }
  }

  /// Kills a live run whose processor died under it. The slot is NOT
  /// released — the caller already drained / shrank the index — and
  /// the pooled TaskRun is recycled once its queued continuations
  /// drain through Enter().
  void KillRun(TaskRun* run, AttemptOutcome outcome) {
    RecordAttempt(run, outcome);
    run->cancelled = true;
    const TaskId id = run->id;
    const int attempt = run->attempt;
    const int node = run->node;
    if (run->hedged && run->twin != nullptr) {
      // The duplicate survives the fault that took this attempt down —
      // exactly the scenario hedging exists for. No retry needed.
      DetachTwin(run);
      ++stats_.hedge_absorbed;
      RetireRun(run);
      TB_CHECK(run->inflight > 0) << "killed a run with no queued event";
      return;
    }
    RetireRun(run);
    TB_CHECK(run->inflight > 0) << "killed a run with no queued event";
    RetryOrFail(id, attempt, node);
  }

  /// Schedules attempt `attempt + 1` of `id` after exponential
  /// backoff, or fails the whole run when the retry budget is spent.
  void RetryOrFail(TaskId id, int attempt, int node) {
    if (attempt > options_.max_retries) {
      Fail(Status::ResourceExhausted(
               StrFormat("retries exhausted (max_retries=%d)",
                         options_.max_retries))
               .WithContext(StrFormat(
                   "task %lld (%s) attempt %d on node %d",
                   static_cast<long long>(id),
                   graph_.task(id).spec.type.c_str(), attempt, node)));
      return;
    }
    ++stats_.retries;
    pending_retry_[static_cast<size_t>(id)] = 1;
    const double delay = RetryBackoffSeconds(options_, attempt);
    simulator_.After(delay, [this, id]() {
      if (!failure_.ok()) return;
      pending_retry_[static_cast<size_t>(id)] = 0;
      // A crash between failure and backoff expiry may have lost the
      // task's inputs; it then re-arms through the usual dependency
      // countdown once the producers are recomputed.
      if (remaining_deps_[static_cast<size_t>(id)] == 0) {
        ready_.Push(id, task_class_[static_cast<size_t>(id)]);
        ScheduleLoop();
      }
    });
  }

  void OnNodeCrash(int n) {
    if (node_dead_[static_cast<size_t>(n)] != 0) return;
    ++stats_.faults_injected;
    ++stats_.dead_nodes;
    node_dead_[static_cast<size_t>(n)] = 1;
    cpu_slots_.DrainNode(n);
    gpu_slots_.DrainNode(n);

    // Kill the node's in-flight attempts.
    std::vector<TaskRun*> victims;
    for (TaskRun* run : live_runs_) {
      if (run->node == n) victims.push_back(run);
    }
    for (TaskRun* run : victims) KillRun(run, AttemptOutcome::kNodeLost);
    if (!failure_.ok()) return;

    // Lineage recovery: every block homed on the dead node is lost;
    // re-materialize each by re-running its producing task off the
    // live TaskGraph (transitively, when the producer's own inputs
    // were lost too). Initial inputs have no producer — they are
    // re-read from their durable origin onto a live node.
    EnsureWritersIndex();
    if (rerun_marked_.empty()) {
      rerun_marked_.assign(static_cast<size_t>(graph_.num_tasks()), 0);
    }
    std::vector<TaskId> rerun;
    for (DataId d = 0; d < graph_.num_data(); ++d) {
      if (data_home_[static_cast<size_t>(d)] == n) LoseDatum(d, &rerun);
    }
    while (!rerun.empty()) {
      const TaskId w = rerun.back();
      rerun.pop_back();
      for (const Param& p : graph_.task(w).spec.params) {
        if (p.dir != Dir::kOut &&
            data_home_[static_cast<size_t>(p.data)] == n) {
          LoseDatum(p.data, &rerun);
        }
      }
    }
    for (TaskId t : rerun_marked_list_) {
      rerun_marked_[static_cast<size_t>(t)] = 0;
    }
    rerun_marked_list_.clear();

    RebuildAfterCrash();
  }

  /// Builds the datum -> writing-tasks index (ascending task id) the
  /// first time a crash needs lineage.
  void EnsureWritersIndex() {
    if (!writers_.empty() || graph_.num_data() == 0) return;
    writers_.resize(static_cast<size_t>(graph_.num_data()));
    for (TaskId t = 0; t < graph_.num_tasks(); ++t) {
      for (const Param& p : graph_.task(t).spec.params) {
        if (p.dir != Dir::kIn) {
          writers_[static_cast<size_t>(p.data)].push_back(t);
        }
      }
    }
  }

  /// Handles one block lost with dead node `n` (its current home).
  /// INOUT approximation: the block's value is restored by re-running
  /// only the last completed writer, not the full INOUT chain — exact
  /// for single-assignment data, conservative-in-time otherwise.
  void LoseDatum(DataId d, std::vector<TaskId>* rerun) {
    ++stats_.lost_blocks;
    const auto ds = static_cast<size_t>(d);
    TaskId w = -1;
    const std::vector<TaskId>& writers = writers_[ds];
    for (auto it = writers.rbegin(); it != writers.rend(); ++it) {
      if (active_run_[static_cast<size_t>(*it)] != nullptr) {
        // A live writer is already re-producing the value on its own
        // node; nothing to recompute.
        data_home_[ds] = -1;
        if (locality_ != nullptr) locality_->OnDataHomeChanged(d);
        return;
      }
      if (completed_flag_[static_cast<size_t>(*it)] != 0 ||
          rerun_marked_[static_cast<size_t>(*it)] != 0) {
        w = *it;
        break;
      }
    }
    if (w < 0) {
      // No writer ever completed: the block still holds its durable
      // initial value; re-home it on a live node.
      data_home_[ds] = NextLiveNode();
      if (locality_ != nullptr) locality_->OnDataHomeChanged(d);
      return;
    }
    data_home_[ds] = -1;
    if (locality_ != nullptr) locality_->OnDataHomeChanged(d);
    if (rerun_marked_[static_cast<size_t>(w)] == 0) {
      rerun_marked_[static_cast<size_t>(w)] = 1;
      rerun_marked_list_.push_back(w);
      completed_flag_[static_cast<size_t>(w)] = 0;
      --completed_;
      ++stats_.recomputed_tasks;
      rerun->push_back(w);
    }
  }

  int NextLiveNode() {
    for (int i = 0; i < cluster_.num_nodes; ++i) {
      const int n = relocate_rr_;
      relocate_rr_ = (relocate_rr_ + 1) % cluster_.num_nodes;
      if (node_dead_[static_cast<size_t>(n)] == 0) return n;
    }
    return -1;  // every node is dead; the run will stall out cleanly
  }

  /// Recomputes the dependency countdown of every task that is
  /// neither completed nor in flight and rebuilds the ready queue to
  /// match, then resumes scheduling — a crash may have re-opened
  /// producers of tasks that were already ready (or queued).
  void RebuildAfterCrash() {
    ready_ = ReadyQueue();
    // A fresh ReadyQueue forgets the cost scorer; re-arm it before
    // re-pushing, or every post-crash push would score 0.
    if (scorer_) ready_.SetScorer(scorer_);
    for (TaskId t = 0; t < graph_.num_tasks(); ++t) {
      const auto ts = static_cast<size_t>(t);
      if (completed_flag_[ts] != 0 || active_run_[ts] != nullptr) continue;
      int deps = 0;
      for (TaskId dep : graph_.task(t).deps) {
        if (completed_flag_[static_cast<size_t>(dep)] == 0) ++deps;
      }
      remaining_deps_[ts] = deps;
      if (deps == 0 && pending_retry_[ts] == 0) {
        ready_.Push(t, task_class_[ts]);
      }
    }
    ScheduleLoop();
  }

  void OnGpuLoss(int n) {
    const auto ns = static_cast<size_t>(n);
    if (node_dead_[ns] != 0 || gpu_slots_.capacity_at(n) == 0) return;
    ++stats_.faults_injected;
    if (gpu_slots_.free_at(n) > 0) {
      gpu_slots_.RemoveDevice(n);  // an idle device vanishes quietly
      return;
    }
    // Every device is busy: the lost one takes its task down with it.
    // Deterministic victim: the lowest task id among the node's live
    // GPU runs. Its slot is never released — RemoveDevice already
    // dropped the capacity it occupied.
    TaskRun* victim = nullptr;
    for (TaskRun* run : live_runs_) {
      if (run->node == n && run->processor == Processor::kGpu &&
          (victim == nullptr || run->id < victim->id)) {
        victim = run;
      }
    }
    if (victim == nullptr) return;
    gpu_slots_.RemoveDevice(n);
    KillRun(victim, AttemptOutcome::kDeviceLost);
  }

  void OnSlowNode(int n, double factor) {
    if (node_dead_[static_cast<size_t>(n)] != 0) return;
    ++stats_.faults_injected;
    node_slow_[static_cast<size_t>(n)] = factor;
  }

  const hw::ClusterSpec& cluster_;
  const RunOptions& options_;
  const TaskGraph& graph_;
  const CancellationToken* const cancel_;
  perf::CostModel model_;
  /// Effective policy: the per-run RunContext override when set, else
  /// RunOptions::policy (declared before scheduler_ — init order).
  const SchedulingPolicy policy_;
  std::unique_ptr<Scheduler> scheduler_;

  sim::Simulator simulator_;
  std::unique_ptr<sim::BandwidthResource> shared_disk_;
  std::vector<std::unique_ptr<sim::BandwidthResource>> local_disks_;
  std::unique_ptr<sim::BandwidthResource> network_;

  hw::SlotIndex cpu_slots_;
  hw::SlotIndex gpu_slots_;
  std::vector<PlacementClass> task_class_;
  std::vector<int> data_home_;
  std::vector<char> is_initial_input_;
  std::unique_ptr<LocalityCache> locality_;
  ReadyQueue ready_;
  std::vector<int> remaining_deps_;
  std::vector<TaskRecord> records_;

  // Cost-model policy state (empty for the paper's two policies).
  std::vector<double> est_;         ///< modeled per-task duration
  std::vector<double> static_key_;  ///< alpha*rank - beta*slack
  ReadyQueue::ScoreFn scorer_;      ///< kept to re-arm after a crash
  std::vector<TaskRun*> hedge_scan_;  ///< MaybeHedge scratch

  std::deque<TaskRun> run_pool_;    ///< stable storage for live runs
  std::vector<TaskRun*> free_runs_;
  std::vector<TaskRun*> live_runs_;

  // Online invariant checking (RunOptions::check_invariants). The
  // oracle and version vector exist only when the order checks are
  // active; CheckConservation reads run state that exists anyway.
  const bool check_order_;
  VersionOracle version_oracle_;
  std::vector<int> data_version_;

  // Fault-tolerance state. Allocated unconditionally (cheap), but only
  // mutated by fault paths; `faults_active_` gates every behavioural
  // branch so fault-free runs stay bit-identical.
  const bool faults_active_;
  const bool hedging_;
  Rng storage_rng_;
  std::vector<char> node_dead_;
  std::vector<double> node_slow_;
  std::vector<int> attempt_count_;
  std::vector<char> completed_flag_;
  std::vector<char> pending_retry_;
  std::vector<TaskRun*> active_run_;
  std::vector<std::vector<TaskId>> writers_;  ///< lazily built lineage
  std::vector<char> rerun_marked_;
  std::vector<TaskId> rerun_marked_list_;
  int relocate_rr_ = 0;
  FaultStats stats_;
  std::vector<TaskAttempt> attempts_;

  // Telemetry. All null/empty when options.metrics is null; the only
  // always-on additions are the decision counter and the phase split
  // (folded into the report after the run), neither of which touches
  // the event sequence.
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Counter* m_decisions_ = nullptr;
  obs::Histogram* m_ready_size_ = nullptr;
  std::optional<TaskStageHistograms> stage_hists_;
  SchedulerPhaseBreakdown phase_split_;
  int64_t decisions_ = 0;

  double master_free_at_ = 0;
  double scheduler_overhead_ = 0;
  double makespan_ = 0;
  int64_t completed_ = 0;
  Status failure_;
};

}  // namespace

SimulatedExecutor::SimulatedExecutor(hw::ClusterSpec cluster,
                                     RunOptions options)
    : cluster_(std::move(cluster)), options_(std::move(options)) {
  TB_CHECK_OK(cluster_.Validate());
}

Result<RunReport> SimulatedExecutor::Execute(const TaskGraph& graph,
                                             const RunContext& ctx) const {
  SimState state(cluster_, options_, graph, ctx);
  return state.Run();
}

}  // namespace taskbench::runtime
