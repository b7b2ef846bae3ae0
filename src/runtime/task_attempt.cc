#include "runtime/task_attempt.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <string>
#include <utility>

#include "common/strings.h"
#include "obs/metrics.h"

namespace taskbench::runtime {

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace

Result<data::Matrix> SerializedBlockIo::TimedLoad(DataId d, uint64_t version,
                                                  double* deserialize_s) {
  const Clock::time_point t0 = Clock::now();
  TB_ASSIGN_OR_RETURN(data::Matrix m, Load(d, version));
  *deserialize_s += SecondsSince(t0);
  return m;
}

Result<std::shared_ptr<const data::Matrix>> SerializedBlockIo::ReadShared(
    const Task& task, size_t param, double* deserialize_s) {
  const DataId d = task.spec.params[param].data;
  TB_ASSIGN_OR_RETURN(const uint64_t version, ReadVersion(task, param));
  if (cache_ != nullptr) {
    if (storage::BlockCache::ValuePtr hit =
            cache_->Get(static_cast<uint64_t>(d), version)) {
      TB_RETURN_IF_ERROR(VerifyHit(d, version));
      return hit;
    }
  }
  TB_ASSIGN_OR_RETURN(data::Matrix m, TimedLoad(d, version, deserialize_s));
  if (cache_ != nullptr) {
    return cache_->Put(static_cast<uint64_t>(d), version, std::move(m));
  }
  return std::make_shared<const data::Matrix>(std::move(m));
}

Result<data::Matrix> SerializedBlockIo::ReadOwned(const Task& task,
                                                  size_t param,
                                                  double* deserialize_s) {
  const DataId d = task.spec.params[param].data;
  TB_ASSIGN_OR_RETURN(const uint64_t version, ReadVersion(task, param));
  if (cache_ != nullptr) {
    if (storage::BlockCache::ValuePtr hit =
            cache_->Get(static_cast<uint64_t>(d), version)) {
      TB_RETURN_IF_ERROR(VerifyHit(d, version));
      return *hit;
    }
  }
  return TimedLoad(d, version, deserialize_s);
}

Status SerializedBlockIo::Write(const Task& task, size_t param,
                                data::Matrix value, double* serialize_s) {
  const Clock::time_point t0 = Clock::now();
  TB_ASSIGN_OR_RETURN(const uint64_t version, Store(task, param, value));
  *serialize_s += SecondsSince(t0);
  if (cache_ != nullptr) {
    cache_->Put(static_cast<uint64_t>(task.spec.params[param].data), version,
                std::move(value));
  }
  return Status::OK();
}

Status RunTaskAttempt(const Task& task, BlockIo& io,
                      perf::StageTimes* stages) {
  const std::vector<Param>& params = task.spec.params;
  // out_values is sized up front so pointers into it stay stable.
  std::vector<std::shared_ptr<const data::Matrix>> in_values;
  std::vector<data::Matrix> out_values(params.size());
  std::vector<size_t> out_params;       // param index of each output slot
  std::vector<size_t> inout_out_index;  // out_values slots of INOUTs
  in_values.reserve(params.size());
  for (size_t i = 0; i < params.size(); ++i) {
    if (params[i].dir == Dir::kIn) {
      TB_ASSIGN_OR_RETURN(std::shared_ptr<const data::Matrix> m,
                          io.ReadShared(task, i, &stages->deserialize));
      in_values.push_back(std::move(m));
      continue;
    }
    if (params[i].dir == Dir::kInOut) {
      TB_ASSIGN_OR_RETURN(out_values[out_params.size()],
                          io.ReadOwned(task, i, &stages->deserialize));
      inout_out_index.push_back(out_params.size());
    }
    out_params.push_back(i);
  }
  out_values.resize(out_params.size());

  std::vector<const data::Matrix*> inputs;
  std::vector<data::Matrix*> outputs;
  for (const auto& m : in_values) inputs.push_back(m.get());
  for (size_t idx : inout_out_index) inputs.push_back(&out_values[idx]);
  for (data::Matrix& m : out_values) outputs.push_back(&m);

  const Clock::time_point kernel_start = Clock::now();
  TB_RETURN_IF_ERROR(task.spec.kernel(inputs, outputs));
  stages->parallel_fraction += SecondsSince(kernel_start);

  for (size_t k = 0; k < out_params.size(); ++k) {
    TB_RETURN_IF_ERROR(io.Write(task, out_params[k], std::move(out_values[k]),
                                &stages->serialize));
  }
  return Status::OK();
}

Status CheckKernels(const TaskGraph& graph, const char* executor) {
  for (TaskId t = 0; t < graph.num_tasks(); ++t) {
    if (graph.task(t).spec.kernel == nullptr) {
      return Status::FailedPrecondition(StrFormat(
          "task %lld (%s) has no kernel; simulation-only graphs cannot "
          "run on the %s executor",
          static_cast<long long>(t), graph.task(t).spec.type.c_str(),
          executor));
    }
  }
  return Status::OK();
}

double RetryBackoffSeconds(const RunOptions& options, int failed_attempt) {
  return options.retry_backoff_s *
         static_cast<double>(1ull << std::min(failed_attempt - 1, 30));
}

uint64_t BlockCacheBytes(const RunOptions& options) {
  return options.block_cache_bytes != 0 ? options.block_cache_bytes
                                        : storage::kDefaultBlockCacheBytes;
}

TaskStageHistograms::TaskStageHistograms(const TaskGraph& graph,
                                         obs::MetricsRegistry& registry) {
  std::map<std::string, uint32_t> type_index;
  type_of_task_.resize(static_cast<size_t>(graph.num_tasks()));
  for (TaskId t = 0; t < graph.num_tasks(); ++t) {
    const std::string& type = graph.task(t).spec.type;
    auto [it, inserted] =
        type_index.try_emplace(type, static_cast<uint32_t>(types_.size()));
    if (inserted) {
      auto hist = [&](const char* stage) {
        return registry.histogram(
            StrFormat("task.%s.%s_s", type.c_str(), stage));
      };
      types_.push_back(TypeHists{hist("deserialize"), hist("compute"),
                                 hist("serialize"), hist("duration")});
    }
    type_of_task_[static_cast<size_t>(t)] = it->second;
  }
}

void TaskStageHistograms::Record(const TaskRecord& rec) {
  const TypeHists& h = types_[type_of_task_[static_cast<size_t>(rec.task)]];
  h.deserialize->Record(rec.stages.deserialize);
  h.compute->Record(rec.stages.user_code());
  h.serialize->Record(rec.stages.serialize);
  h.duration->Record(rec.duration());
}

Result<double> FinishRealRun(
    const TaskGraph& graph, const std::vector<TaskRecord>& records,
    int workers, bool check, obs::MetricsRegistry* registry,
    const std::vector<storage::BlockCache::Stats>& caches) {
  double busy = 0;
  double makespan = 0;
  for (const TaskRecord& rec : records) {
    busy += rec.duration();
    makespan = std::max(makespan, rec.end);
  }
  const double cap = makespan * workers;
  if (check && busy > cap + 1e-9 * cap + 1e-12) {
    return Status::FailedPrecondition(StrFormat(
        "invariant violation: total busy time %.17g exceeds %d "
        "workers x makespan %.17g",
        busy, workers, makespan));
  }
  if (registry == nullptr) return makespan;

  TaskStageHistograms stage_hists(graph, *registry);
  for (const TaskRecord& rec : records) stage_hists.Record(rec);
  if (!caches.empty()) {
    obs::Counter* hits = registry->counter("cache.hits");
    obs::Counter* misses = registry->counter("cache.misses");
    obs::Counter* evictions = registry->counter("cache.evictions");
    obs::Counter* invalidations = registry->counter("cache.invalidations");
    obs::Gauge* peak = registry->gauge("cache.peak_bytes");
    for (const storage::BlockCache::Stats& s : caches) {
      hits->Add(s.hits);
      misses->Add(s.misses);
      evictions->Add(s.evictions);
      invalidations->Add(s.invalidations);
      peak->SetMax(static_cast<double>(s.peak_bytes));
    }
  }
  return makespan;
}

Result<data::Matrix> FetchGraphValue(const TaskGraph& graph, DataId id) {
  if (id < 0 || id >= graph.num_data()) {
    return Status::InvalidArgument(
        StrFormat("unknown data id %lld", static_cast<long long>(id)));
  }
  const DataEntry& entry = graph.data(id);
  if (!entry.value.has_value()) {
    return Status::NotFound(
        StrFormat("datum %lld has no value", static_cast<long long>(id)));
  }
  return *entry.value;
}

}  // namespace taskbench::runtime
