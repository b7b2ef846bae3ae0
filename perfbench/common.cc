#include "common.h"

#include <dirent.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/strings.h"
#include "obs/trace_writer.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

const Clock::time_point kOrigin = Clock::now();

std::string Num(double v) {
  if (!std::isfinite(v)) v = 0;
  return tb::StrFormat("%.17g", v);
}

}  // namespace

double Now() {
  return std::chrono::duration<double>(Clock::now() - kOrigin).count();
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const size_t idx = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double TailLevel(size_t n) {
  if (n == 0) return 0.99;
  const double level = 1.0 - 10.0 / static_cast<double>(n);
  return std::clamp(level, 0.5, 0.99);
}

void Outcomes::Record(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    std::fprintf(stderr, "perfbench: FAILED: %s\n", what.c_str());
  }
}

void MetricTable::Set(const std::string& name, const std::string& unit,
                      double value) {
  entries_[name] = Entry{unit, value};
}

void MetricTable::Note(const std::string& name, const std::string& why) {
  notes_[name] = why;
}

bool MetricTable::Has(const std::string& name) const {
  return entries_.count(name) > 0;
}

double MetricTable::Get(const std::string& name) const {
  auto it = entries_.find(name);
  return it == entries_.end() ? 0 : it->second.value;
}

std::string MetricTable::NoteFor(const std::string& name) const {
  auto it = notes_.find(name);
  return it == notes_.end() ? std::string() : it->second;
}

void MetricTable::Print(const char* title) const {
  std::printf("%s\n", title);
  for (const auto& [name, e] : entries_) {
    auto note = notes_.find(name);
    std::printf("  %-34s %16.6g %-6s%s%s\n", name.c_str(), e.value,
                e.unit.c_str(), note == notes_.end() ? "" : "  # ",
                note == notes_.end() ? "" : note->second.c_str());
  }
}

std::string MetricTable::Json() const {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, e] : entries_) {
    if (!first) out += ", ";
    first = false;
    out += tb::StrFormat("\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                         tb::JsonEscape(name).c_str(), Num(e.value).c_str(),
                         tb::JsonEscape(e.unit).c_str());
  }
  return out + "}";
}

std::string MetricTable::NotesJson() const {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, why] : notes_) {
    if (!first) out += ", ";
    first = false;
    out += tb::StrFormat("\"%s\": \"%s\"", tb::JsonEscape(name).c_str(),
                         tb::JsonEscape(why).c_str());
  }
  return out + "}";
}

int64_t Tracer::Begin(const std::string& name, const std::string& layer,
                      int64_t parent) {
  if (!enabled_) return 0;
  Span s;
  s.id = static_cast<int64_t>(spans_.size()) + 1;
  s.parent = parent;
  s.name = name;
  s.layer = layer;
  s.start = Now();
  s.end = s.start;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

void Tracer::End(int64_t id) {
  if (id <= 0) return;
  spans_[static_cast<size_t>(id - 1)].end = Now();
}

int64_t Tracer::Add(const std::string& name, const std::string& layer,
                    int64_t parent, int lane, double start, double end) {
  if (!enabled_) return 0;
  Span s;
  s.id = static_cast<int64_t>(spans_.size()) + 1;
  s.parent = parent;
  s.name = name;
  s.layer = layer;
  s.lane = lane;
  s.start = start;
  s.end = std::max(start, end);
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

std::map<std::string, double> Tracer::SelfTimeByLayer() const {
  std::vector<std::vector<const Span*>> children(spans_.size() + 1);
  for (const Span& s : spans_) {
    if (s.parent > 0) children[static_cast<size_t>(s.parent)].push_back(&s);
  }
  std::map<std::string, double> self;
  for (const Span& s : spans_) {
    std::vector<std::pair<double, double>> cover;
    for (const Span* c : children[static_cast<size_t>(s.id)]) {
      const double a = std::max(c->start, s.start);
      const double b = std::min(c->end, s.end);
      if (b > a) cover.emplace_back(a, b);
    }
    std::sort(cover.begin(), cover.end());
    double covered = 0;
    double cur_a = 0;
    double cur_b = -1;
    for (const auto& [a, b] : cover) {
      if (a > cur_b) {
        if (cur_b > cur_a) covered += cur_b - cur_a;
        cur_a = a;
        cur_b = b;
      } else {
        cur_b = std::max(cur_b, b);
      }
    }
    if (cur_b > cur_a) covered += cur_b - cur_a;
    self[s.layer] += std::max(0.0, (s.end - s.start) - covered);
  }
  return self;
}

bool Tracer::Write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  tb::obs::TraceWriter writer(&out);
  writer.ProcessName(0, "perfbench");
  for (const Span& s : spans_) {
    writer.CompleteEvent(s.name, s.layer, 0, s.lane, s.start * 1e6,
                         (s.end - s.start) * 1e6);
  }
  writer.Close();
  return static_cast<bool>(out);
}

void AddTaskSpans(Tracer* tracer, int64_t run_id, double run_start,
                  const tb::runtime::RunReport& report) {
  if (!tracer->enabled()) return;
  for (const tb::runtime::TaskRecord& rec : report.records) {
    const double start = run_start + rec.start;
    const double end = run_start + rec.end;
    const int lane = 1 + std::max(0, rec.slot) + std::max(0, rec.node) * 64;
    const int64_t task = tracer->Add(rec.type, "runtime", run_id, lane,
                                     start, end);
    const double deser_end = start + rec.stages.deserialize;
    const double compute_end = deser_end + rec.stages.user_code();
    tracer->Add("deserialize", "storage", task, lane, start, deser_end);
    tracer->Add("compute", "data", task, lane, deser_end, compute_end);
    tracer->Add("serialize", "storage", task, lane,
                end - rec.stages.serialize, end);
  }
}

// ---------------------------------------------------------------------
// Host facts.
// ---------------------------------------------------------------------

namespace {

/// Integer work that the compiler cannot fold away.
uint64_t Spin(uint64_t iters) {
  uint64_t x = 0x9e3779b97f4a7c15ull;
  for (uint64_t i = 0; i < iters; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

/// Forks `procs` children that each spin `iters`; returns the wall
/// time until all have been reaped.
double SpinProcesses(int procs, uint64_t iters) {
  const double t0 = Now();
  std::vector<pid_t> pids;
  for (int p = 0; p < procs; ++p) {
    const pid_t pid = fork();
    if (pid == 0) {
      _exit(Spin(iters) == 0 ? 1 : 0);
    }
    if (pid > 0) pids.push_back(pid);
  }
  for (pid_t pid : pids) {
    int status = 0;
    waitpid(pid, &status, 0);
  }
  return Now() - t0;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t b = colon + 1;
        while (b < line.size() && line[b] == ' ') ++b;
        return line.substr(b);
      }
    }
  }
  return "unknown";
}

}  // namespace

CpuTicks ReadCpuTicks(int cpu) {
  std::ifstream in("/proc/stat");
  const std::string want = cpu < 0 ? "cpu" : tb::StrFormat("cpu%d", cpu);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string name;
    fields >> name;
    if (name != want) continue;
    CpuTicks ticks;
    uint64_t v = 0;
    for (int i = 0; i < 10 && fields >> v; ++i) {
      ticks.total += v;
      if (i == 7) ticks.steal = v;
    }
    return ticks;
  }
  return {};
}

HostFacts MeasureHost() {
  HostFacts host;
  const char* sha = std::getenv("PERFBENCH_GIT_SHA");
  host.git_sha = sha != nullptr && *sha != '\0' ? sha : "unknown";
  const char* source = std::getenv("PERFBENCH_SOURCE_SHA");
  host.source_sha = source != nullptr && *source != '\0' ? source : "unknown";
  host.build_type = PERFBENCH_BUILD_TYPE;
  host.nproc = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  host.cpu_model = CpuModel();
  constexpr uint64_t kIters = 40'000'000;
  const int n = std::max(1, host.nproc);
  const double t1 = SpinProcesses(1, kIters);
  const double tn = SpinProcesses(n, kIters);
  host.spin_s = t1;
  host.effective_parallelism = tn > 0 ? n * t1 / tn : 0;
  return host;
}

int PinToCurrentCpu() {
  const int cpu = sched_getcpu();
  if (cpu < 0) return -1;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof(set), &set) == 0 ? cpu : -1;
}

namespace {

/// Cores the legs run on: the one pinned CPU, else the measured
/// effective parallelism.
double LegCores(const HostFacts& host) {
  return host.pinned_cpu >= 0 ? 1.0 : host.effective_parallelism;
}

}  // namespace

void PrintHost(const HostFacts& host, int workers) {
  std::printf(
      "host: sha=%s source=%s build=%s nproc=%d cpu=\"%s\" "
      "effective_parallelism=%.2f (spin %.3f s) pinned_cpu=%d\n",
      host.git_sha.c_str(), host.source_sha.c_str(), host.build_type.c_str(),
      host.nproc,
      host.cpu_model.c_str(), host.effective_parallelism, host.spin_s,
      host.pinned_cpu);
  const double cores = LegCores(host);
  if (workers > cores + 0.25) {
    std::printf(
        "host: WARNING every leg runs %d workers/runners on %.2f cores; "
        "the legs are oversubscribed\n",
        workers, cores);
  }
}

std::string HostJson(const HostFacts& host, int workers) {
  return tb::StrFormat(
      "{\"git_sha\": \"%s\", \"source_sha\": \"%s\", "
      "\"build_type\": \"%s\", \"nproc\": %d, "
      "\"cpu_model\": \"%s\", \"effective_parallelism\": %s, "
      "\"steal_share\": %s, "
      "\"pinned_cpu\": %d, \"workers\": %d, \"oversubscribed\": %s}",
      tb::JsonEscape(host.git_sha).c_str(),
      tb::JsonEscape(host.source_sha).c_str(),
      tb::JsonEscape(host.build_type).c_str(), host.nproc,
      tb::JsonEscape(host.cpu_model).c_str(),
      Num(host.effective_parallelism).c_str(), Num(host.steal_share).c_str(),
      host.pinned_cpu, workers,
      workers > LegCores(host) + 0.25 ? "true" : "false");
}

std::vector<int> ThreadIds() {
  std::vector<int> ids;
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return ids;
  while (const dirent* entry = readdir(dir)) {
    if (entry->d_name[0] != '.') ids.push_back(std::atoi(entry->d_name));
  }
  closedir(dir);
  return ids;
}

double PeakRssMb() {
  struct rusage self {};
  struct rusage children {};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(self.ru_maxrss + children.ru_maxrss) / 1024.0;
}

LayerBreakdown Breakdown(const tb::runtime::RunReport& report,
                         const tb::runtime::TaskGraph& graph, int workers) {
  LayerBreakdown b;
  b.makespan = report.makespan;
  std::vector<double> end_of(static_cast<size_t>(graph.num_tasks()), -1);
  for (const auto& rec : report.records) {
    b.deserialize += rec.stages.deserialize;
    b.compute += rec.stages.user_code();
    b.serialize += rec.stages.serialize;
    b.busy += rec.duration();
    if (rec.task >= 0 && rec.task < graph.num_tasks()) {
      end_of[static_cast<size_t>(rec.task)] = rec.end;
    }
  }
  std::vector<double> waits;
  for (const auto& rec : report.records) {
    if (rec.task < 0 || rec.task >= graph.num_tasks()) continue;
    const auto& deps = graph.task(rec.task).deps;
    if (deps.empty()) continue;
    double ready = 0;
    for (auto d : deps) ready = std::max(ready, end_of[static_cast<size_t>(d)]);
    waits.push_back(std::max(0.0, rec.start - ready));
  }
  b.ready_wait_p50 = Quantile(waits, 0.5);
  b.ready_wait_tail = Quantile(waits, TailLevel(waits.size()));
  b.other = std::max(0.0, b.busy - b.deserialize - b.compute - b.serialize);
  b.worker_seconds = workers * b.makespan;
  b.idle = std::max(0.0, b.worker_seconds - b.busy);
  return b;
}

int64_t CounterValue(tb::obs::MetricsRegistry& registry, const char* name) {
  return registry.counter(name)->value();
}

bool WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
  return static_cast<bool>(out);
}

bool LintJson(const std::string& path) {
  char exe[4096];
  const ssize_t n = readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  if (n <= 0) return false;
  exe[n] = '\0';
  std::string lint(exe);
  lint = lint.substr(0, lint.rfind('/') + 1) + "json_lint";
  std::fflush(stdout);
  const pid_t pid = fork();
  if (pid == 0) {
    dup2(2, 1);  // keep stdout for the result line
    execl(lint.c_str(), lint.c_str(), path.c_str(), static_cast<char*>(nullptr));
    _exit(127);
  }
  if (pid < 0) return false;
  int status = 0;
  waitpid(pid, &status, 0);
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

}  // namespace perfbench
