#include "check/invariants.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <vector>

#include "common/strings.h"

namespace taskbench::check {

namespace {

using runtime::AttemptOutcome;
using runtime::RunReport;
using runtime::TaskAttempt;
using runtime::TaskGraph;
using runtime::TaskId;
using runtime::TaskRecord;

Status Violation(std::string msg) {
  return Status::FailedPrecondition("invariant violation: " +
                                    std::move(msg));
}

Status CheckRecords(const TaskGraph& graph, const RunReport& report,
                    const InvariantContext& context) {
  if (static_cast<int64_t>(report.records.size()) != graph.num_tasks()) {
    return Violation(StrFormat(
        "%llu records for %lld tasks",
        static_cast<unsigned long long>(report.records.size()),
        static_cast<long long>(graph.num_tasks())));
  }
  const double tol = 1e-9 * report.makespan + 1e-12;
  double max_end = 0;
  for (size_t i = 0; i < report.records.size(); ++i) {
    const TaskRecord& rec = report.records[i];
    if (rec.task != static_cast<TaskId>(i)) {
      return Violation(StrFormat("record %llu holds task %lld",
                                 static_cast<unsigned long long>(i),
                                 static_cast<long long>(rec.task)));
    }
    const runtime::Task& task = graph.task(rec.task);
    if (rec.type != task.spec.type || rec.level != task.level) {
      return Violation(StrFormat(
          "record %lld type/level (%s/%d) disagrees with graph (%s/%d)",
          static_cast<long long>(rec.task), rec.type.c_str(), rec.level,
          task.spec.type.c_str(), task.level));
    }
    if (!(rec.start >= 0) || rec.end < rec.start ||
        rec.end > report.makespan + tol) {
      return Violation(StrFormat(
          "record %lld interval [%.17g, %.17g] outside [0, makespan "
          "%.17g]",
          static_cast<long long>(rec.task), rec.start, rec.end,
          report.makespan));
    }
    max_end = std::max(max_end, rec.end);
  }
  if (std::abs(max_end - report.makespan) > tol) {
    return Violation(StrFormat("makespan %.17g != last task end %.17g",
                               report.makespan, max_end));
  }
  if (context.faulted) return Status::OK();
  // Dependency ordering: a task begins at/after every dependency's
  // end. Under faults a recomputed producer may finish after a
  // consumer that already ran off its earlier output, so fault runs
  // skip this.
  for (const TaskRecord& rec : report.records) {
    for (TaskId dep : graph.task(rec.task).deps) {
      const TaskRecord& d = report.records[static_cast<size_t>(dep)];
      if (rec.start < d.end - tol) {
        return Violation(StrFormat(
            "task %lld started at %.17g before dependency %lld ended "
            "at %.17g",
            static_cast<long long>(rec.task), rec.start,
            static_cast<long long>(dep), d.end));
      }
    }
  }
  return Status::OK();
}

Status CheckScheduler(const RunReport& report,
                      const InvariantContext& context) {
  const double total = report.sched_phases.total();
  if (!context.simulated) {
    if (report.sched_phases.any() || report.scheduler_overhead != 0 ||
        report.sim_events != 0) {
      return Violation(
          "non-simulated report carries scheduler phases or simulator "
          "events");
    }
    return Status::OK();
  }
  const double tol =
      1e-7 * (report.scheduler_overhead + 1e-12) + 1e-15;
  if (std::abs(total - report.scheduler_overhead) > tol) {
    return Violation(StrFormat(
        "DecisionPhases sum %.17g != scheduler overhead %.17g", total,
        report.scheduler_overhead));
  }
  if (report.sim_events == 0 && !report.records.empty()) {
    return Violation("simulated run executed zero events");
  }
  return Status::OK();
}

Status CheckBusyTime(const RunReport& report,
                     const InvariantContext& context) {
  if (context.cluster != nullptr) {
    const hw::ClusterSpec& cluster = *context.cluster;
    std::vector<double> cpu_busy(static_cast<size_t>(cluster.num_nodes), 0);
    std::vector<double> gpu_busy(static_cast<size_t>(cluster.num_nodes), 0);
    for (const TaskRecord& rec : report.records) {
      if (rec.node < 0 || rec.node >= cluster.num_nodes) {
        return Violation(StrFormat("record %lld ran on unknown node %d",
                                   static_cast<long long>(rec.task),
                                   rec.node));
      }
      auto& busy =
          rec.processor == Processor::kCpu ? cpu_busy : gpu_busy;
      busy[static_cast<size_t>(rec.node)] += rec.duration();
    }
    const double tol = 1e-9 * report.makespan + 1e-12;
    for (int n = 0; n < cluster.num_nodes; ++n) {
      if (cpu_busy[static_cast<size_t>(n)] >
              report.makespan * cluster.cores_per_node +
                  tol * cluster.cores_per_node ||
          gpu_busy[static_cast<size_t>(n)] >
              report.makespan * cluster.gpus_per_node +
                  tol * std::max(1, cluster.gpus_per_node)) {
        return Violation(StrFormat(
            "node %d busy (cpu=%.17g gpu=%.17g) exceeds makespan %.17g "
            "x capacity (%d cores, %d gpus)",
            n, cpu_busy[static_cast<size_t>(n)],
            gpu_busy[static_cast<size_t>(n)], report.makespan,
            cluster.cores_per_node, cluster.gpus_per_node));
      }
    }
  }
  if (context.num_threads > 0) {
    double busy = 0;
    for (const TaskRecord& rec : report.records) busy += rec.duration();
    const double cap = report.makespan * context.num_threads;
    if (busy > cap + 1e-9 * cap + 1e-12) {
      return Violation(StrFormat(
          "total busy time %.17g exceeds %d workers x makespan %.17g",
          busy, context.num_threads, report.makespan));
    }
  }
  return Status::OK();
}

Status CheckAttempts(const RunReport& report,
                     const InvariantContext& context) {
  if (!context.faulted && context.simulated) {
    if (report.faults.any() || !report.attempts.empty()) {
      return Violation(
          "fault-free simulated run reports fault counters or "
          "attempts");
    }
    return Status::OK();
  }
  // Attempt numbers must strictly increase per task in log order, and
  // for a successful run the final attempt of every logged task
  // completed.
  std::map<TaskId, const TaskAttempt*> last;
  for (const TaskAttempt& a : report.attempts) {
    if (a.end < a.start) {
      return Violation(StrFormat(
          "attempt %d of task %lld ends (%.17g) before it starts "
          "(%.17g)",
          a.attempt, static_cast<long long>(a.task), a.end, a.start));
    }
    auto [it, inserted] = last.emplace(a.task, &a);
    if (!inserted) {
      if (a.attempt <= it->second->attempt) {
        return Violation(StrFormat(
            "task %lld attempt numbers not monotonic (%d after %d)",
            static_cast<long long>(a.task), a.attempt,
            it->second->attempt));
      }
      it->second = &a;
    }
  }
  for (const auto& [task, attempt] : last) {
    if (attempt->outcome != AttemptOutcome::kCompleted &&
        attempt->outcome != AttemptOutcome::kFailed &&
        attempt->outcome != AttemptOutcome::kHedgeCancelled) {
      // kFailed appears in thread-pool logs for retried-then-
      // successful attempts, and kHedgeCancelled is the losing twin
      // of a hedge pair (logged after the winner's completion when
      // the twin held the higher attempt number); a successful run's
      // final logged sim attempt must otherwise be kCompleted.
      if (context.simulated) {
        return Violation(StrFormat(
            "task %lld final attempt %d ended %s, not completed",
            static_cast<long long>(task), attempt->attempt,
            runtime::ToString(attempt->outcome).c_str()));
      }
    }
  }
  // Cancelled hedge twins are not retries: the primary never failed.
  const int64_t hedge_cancelled = static_cast<int64_t>(
      std::count_if(report.attempts.begin(), report.attempts.end(),
                    [](const TaskAttempt& a) {
                      return a.outcome == AttemptOutcome::kHedgeCancelled;
                    }));
  const int64_t non_completed =
      static_cast<int64_t>(std::count_if(
          report.attempts.begin(), report.attempts.end(),
          [](const TaskAttempt& a) {
            return a.outcome != AttemptOutcome::kCompleted;
          })) -
      hedge_cancelled;
  // Every other failed attempt is retried, unless its hedge twin was
  // still running and carried the task on (absorbed).
  const int64_t absorbed = report.faults.hedge_absorbed;
  if (context.simulated && report.faults.retries + absorbed != non_completed) {
    return Violation(StrFormat(
        "retry counter %lld + %lld hedge-absorbed failures != %lld "
        "non-completed attempts",
        static_cast<long long>(report.faults.retries),
        static_cast<long long>(absorbed),
        static_cast<long long>(non_completed)));
  }
  // Each hedge pair is broken at most once: its loser is cancelled,
  // or one twin fails and the other carries on.
  if (context.simulated &&
      hedge_cancelled + absorbed > report.faults.hedges) {
    return Violation(StrFormat(
        "%lld hedge cancellations + %lld hedge-absorbed failures exceed "
        "%lld hedges launched",
        static_cast<long long>(hedge_cancelled),
        static_cast<long long>(absorbed),
        static_cast<long long>(report.faults.hedges)));
  }
  return Status::OK();
}

}  // namespace

Status VerifyReport(const TaskGraph& graph, const RunReport& report,
                    const InvariantContext& context) {
  if (graph.num_tasks() == 0) return Status::OK();
  TB_RETURN_IF_ERROR(CheckRecords(graph, report, context));
  TB_RETURN_IF_ERROR(CheckScheduler(report, context));
  TB_RETURN_IF_ERROR(CheckBusyTime(report, context));
  TB_RETURN_IF_ERROR(CheckAttempts(report, context));
  return Status::OK();
}

}  // namespace taskbench::check
