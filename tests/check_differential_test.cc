// Fuzz smoke: a handful of seeds through the full differential
// matrix (the nightly job runs hundreds). Any divergence is a real
// bug in an executor, a kernel, a scheduler or the checker itself —
// the failure message carries the per-config detail and the seed is
// the complete repro.

#include <cstdlib>

#include <gtest/gtest.h>

#include "check/differential.h"
#include "check/workload.h"
#include "runtime/multiproc_executor.h"

namespace taskbench::check {
namespace {

TEST(DifferentialSmokeTest, FirstSeedsAgreeAcrossTheMatrix) {
  for (uint64_t seed = 0; seed < 6; ++seed) {
    const WorkloadSpec spec = GenerateSpec(seed);
    const DifferentialResult result =
        RunDifferential(spec, DifferentialOptions{});
    EXPECT_TRUE(result.ok()) << "seed " << seed << " ("
                             << spec.Describe() << ") diverged:\n"
                             << result.Summary();
    EXPECT_GE(result.real_configs, 7);
    EXPECT_GE(result.sim_configs, 7);
  }
}

TEST(DifferentialSmokeTest, RealOnlyModeSkipsSimLegs) {
  DifferentialOptions options;
  options.include_sim = false;
  options.include_faults = false;
  const DifferentialResult result =
      RunDifferential(GenerateSpec(1), options);
  EXPECT_TRUE(result.ok()) << result.Summary();
  EXPECT_EQ(result.sim_configs, 0);
  // 9 thread-pool legs (6 base + 2 block-cache twins + the cost-model
  // hedging leg; the faulty-storage legs are excluded here) plus the
  // three forked multi-process legs where the platform supports them.
  const int expected =
      runtime::MultiProcExecutor::Supported() ? 12 : 9;
  EXPECT_EQ(result.real_configs, expected);
}

TEST(DifferentialSmokeTest, EveryFamilySurvivesOneSweep) {
  for (int f = 0; f < 7; ++f) {
    WorkloadSpec spec = GenerateSpec(2);
    spec.family = static_cast<Family>(f);
    DifferentialOptions options;
    options.include_faults = false;  // keep the smoke fast
    const DifferentialResult result = RunDifferential(spec, options);
    EXPECT_TRUE(result.ok()) << spec.Describe() << " diverged:\n"
                             << result.Summary();
  }
}

TEST(DifferentialSmokeTest, WfBenchSeedsAgreeAcrossTheMatrix) {
  for (uint64_t seed = 0; seed < 3; ++seed) {
    const WorkloadSpec spec = GenerateWfSpec(seed);
    ASSERT_EQ(spec.family, Family::kWfBench);
    const DifferentialResult result =
        RunDifferential(spec, DifferentialOptions{});
    EXPECT_TRUE(result.ok()) << "wf seed " << seed << " ("
                             << spec.Describe() << ") diverged:\n"
                             << result.Summary();
    EXPECT_GE(result.real_configs, 7);
    EXPECT_GE(result.sim_configs, 7);
  }
}

// These seeds' cost-policy fault legs fail one hedge twin while the
// other carries the task on; the invariant checker must count that
// failure as absorbed, not as a missing retry.
TEST(DifferentialSmokeTest, HedgeAbsorbedFailuresPassTheInvariants) {
  for (uint64_t seed : {27, 71, 72}) {
    const WorkloadSpec spec = GenerateWfSpec(seed);
    const DifferentialResult result =
        RunDifferential(spec, DifferentialOptions{});
    EXPECT_TRUE(result.ok()) << "wf seed " << seed << " ("
                             << spec.Describe() << ") diverged:\n"
                             << result.Summary();
  }
}

TEST(DifferentialSmokeTest, WfImportSpecRunsTheMatrix) {
  // An inline WfFormat document through the kWfImport family: the
  // fixture-file variant of this path is wf_import_test; here the
  // differential matrix itself must accept imported graphs.
  WorkloadSpec spec;
  spec.family = Family::kWfImport;
  spec.wf_json = R"({
    "name": "inline-diamond",
    "schemaVersion": "1.4",
    "workflow": {
      "specification": {
        "tasks": [
          {"name": "src_1", "inputFiles": ["in.dat"],
           "outputFiles": ["a.dat", "b.dat"]},
          {"name": "left_gpu_1", "inputFiles": ["a.dat"],
           "outputFiles": ["l.dat"]},
          {"name": "right_1", "inputFiles": ["b.dat"],
           "outputFiles": ["r.dat"]},
          {"name": "sink_1", "inputFiles": ["l.dat", "r.dat"],
           "outputFiles": ["out.dat"]}
        ],
        "files": [
          {"id": "in.dat", "sizeInBytes": 4096},
          {"id": "a.dat", "sizeInBytes": 2048},
          {"id": "b.dat", "sizeInBytes": 2048},
          {"id": "l.dat", "sizeInBytes": 1024},
          {"id": "r.dat", "sizeInBytes": 1024},
          {"id": "out.dat", "sizeInBytes": 512}
        ]
      },
      "execution": {
        "tasks": [
          {"id": "src_1", "runtimeInSeconds": 0.5},
          {"id": "left_gpu_1", "runtimeInSeconds": 2.0},
          {"id": "right_1", "runtimeInSeconds": 1.0},
          {"id": "sink_1", "runtimeInSeconds": 0.25}
        ]
      }
    }
  })";
  const DifferentialResult result =
      RunDifferential(spec, DifferentialOptions{});
  EXPECT_TRUE(result.ok()) << result.Summary();
}

// Long sweep, excluded from a plain `ctest` run: skips unless
// TASKBENCH_STRESS=1 (the labeled CI step sets it; locally use
// `TASKBENCH_STRESS=1 ctest -L fuzz-smoke`).
TEST(DifferentialSmokeTest, LongRandomSweep) {
  if (std::getenv("TASKBENCH_STRESS") == nullptr) {
    GTEST_SKIP() << "set TASKBENCH_STRESS=1 to run the long sweep";
  }
  for (uint64_t seed = 6; seed < 40; ++seed) {
    const WorkloadSpec spec = GenerateSpec(seed);
    const DifferentialResult result =
        RunDifferential(spec, DifferentialOptions{});
    EXPECT_TRUE(result.ok()) << "seed " << seed << " ("
                             << spec.Describe() << ") diverged:\n"
                             << result.Summary();
  }
  for (uint64_t seed = 3; seed < 16; ++seed) {
    const WorkloadSpec spec = GenerateWfSpec(seed);
    const DifferentialResult result =
        RunDifferential(spec, DifferentialOptions{});
    EXPECT_TRUE(result.ok()) << "wf seed " << seed << " ("
                             << spec.Describe() << ") diverged:\n"
                             << result.Summary();
  }
}

}  // namespace
}  // namespace taskbench::check
