// Microbenchmarks of the real execution substrate (google-benchmark):
// the dense kernels, the serializer, the DAG builder and the
// discrete-event engine. These are the pieces whose real performance
// the library depends on; everything figure-related lives in the
// bench_fig* binaries.

#include <benchmark/benchmark.h>

#include "algos/kmeans.h"
#include "algos/matmul.h"
#include "common/random.h"
#include "data/generators.h"
#include "data/matrix.h"
#include "runtime/task_graph.h"
#include "sim/bandwidth_resource.h"
#include "sim/simulator.h"
#include "storage/serializer.h"

namespace tb = taskbench;

namespace {

tb::data::Matrix RandomMatrix(int64_t n, uint64_t seed) {
  tb::data::Matrix m(n, n);
  tb::Rng rng(seed);
  tb::data::FillUniform(&m, &rng);
  return m;
}

void BM_DenseMultiply(benchmark::State& state) {
  const int64_t n = state.range(0);
  const tb::data::Matrix a = RandomMatrix(n, 1);
  const tb::data::Matrix b = RandomMatrix(n, 2);
  for (auto _ : state) {
    auto c = tb::data::Multiply(a, b);
    benchmark::DoNotOptimize(c->data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_DenseMultiply)->Arg(64)->Arg(128)->Arg(256)->Arg(512);

void BM_DenseAdd(benchmark::State& state) {
  const int64_t n = state.range(0);
  const tb::data::Matrix a = RandomMatrix(n, 1);
  const tb::data::Matrix b = RandomMatrix(n, 2);
  for (auto _ : state) {
    auto c = tb::data::Add(a, b);
    benchmark::DoNotOptimize(c->data());
  }
  state.SetBytesProcessed(state.iterations() * 3 * n * n * 8);
}
BENCHMARK(BM_DenseAdd)->Arg(256)->Arg(1024);

void BM_DenseTranspose(benchmark::State& state) {
  const int64_t n = state.range(0);
  const tb::data::Matrix m = RandomMatrix(n, 1);
  for (auto _ : state) {
    tb::data::Matrix t = tb::data::Transpose(m);
    benchmark::DoNotOptimize(t.data());
  }
  state.SetBytesProcessed(state.iterations() * 2 * n * n * 8);
}
BENCHMARK(BM_DenseTranspose)->Arg(256)->Arg(1024);

void BM_SerializeRoundTrip(benchmark::State& state) {
  const int64_t n = state.range(0);
  const tb::data::Matrix m = RandomMatrix(n, 3);
  for (auto _ : state) {
    std::vector<uint8_t> bytes;
    tb::storage::Serializer::Serialize(m, &bytes);
    auto restored = tb::storage::Serializer::Deserialize(bytes);
    benchmark::DoNotOptimize(restored->data());
  }
  state.SetBytesProcessed(state.iterations() * 2 * n * n * 8);
}
BENCHMARK(BM_SerializeRoundTrip)->Arg(128)->Arg(512);

void BM_DagBuildMatmul(benchmark::State& state) {
  const int64_t g = state.range(0);
  auto spec = tb::data::GridSpec::CreateFromGridDim(
      tb::data::DatasetSpec{"bench", 32768, 32768}, g, g);
  for (auto _ : state) {
    auto wf = tb::algos::BuildMatmul(*spec, tb::algos::MatmulOptions{});
    benchmark::DoNotOptimize(wf->graph.num_tasks());
  }
  state.SetItemsProcessed(state.iterations() * g * g * g);
}
BENCHMARK(BM_DagBuildMatmul)->Arg(4)->Arg(8)->Arg(16);

void BM_SimulatorEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    tb::sim::Simulator sim;
    int count = 0;
    std::function<void()> chain = [&] {
      if (++count < 10000) sim.After(1.0, chain);
    };
    sim.After(1.0, chain);
    sim.Run();
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_SimulatorEventThroughput);

void BM_BandwidthContention(benchmark::State& state) {
  const int flows = static_cast<int>(state.range(0));
  for (auto _ : state) {
    tb::sim::Simulator sim;
    tb::sim::BandwidthResourceOptions options;
    options.capacity_bps = 6e9;
    options.per_flow_cap_bps = 0.6e9;
    tb::sim::BandwidthResource disk(&sim, options);
    int done = 0;
    for (int i = 0; i < flows; ++i) {
      disk.Transfer(40'000'000, [&done] { ++done; });
    }
    sim.Run();
    benchmark::DoNotOptimize(done);
  }
  state.SetItemsProcessed(state.iterations() * flows);
}
BENCHMARK(BM_BandwidthContention)->Arg(16)->Arg(128);

void BM_KMeansPartialSumKernel(benchmark::State& state) {
  const int64_t rows = state.range(0);
  auto spec = tb::data::GridSpec::CreateFromGridDim(
      tb::data::DatasetSpec{"x", rows, 16}, 1, 1);
  tb::algos::KMeansOptions options;
  options.materialize = true;
  options.blobs = true;
  options.num_clusters = 8;
  options.iterations = 1;
  auto wf = tb::algos::BuildKMeans(*spec, options);
  const auto& kernel = wf->graph.task(0).spec.kernel;
  const tb::data::Matrix& block = *wf->graph.data(wf->blocks[0]).value;
  const tb::data::Matrix& centroids =
      *wf->graph.data(wf->centroids).value;
  for (auto _ : state) {
    tb::data::Matrix partial;
    std::vector<const tb::data::Matrix*> inputs{&block, &centroids};
    std::vector<tb::data::Matrix*> outputs{&partial};
    auto status = kernel(inputs, outputs);
    benchmark::DoNotOptimize(status.ok());
  }
  state.SetItemsProcessed(state.iterations() * rows * 16 * 8);
}
BENCHMARK(BM_KMeansPartialSumKernel)->Arg(1000)->Arg(10000);

}  // namespace

BENCHMARK_MAIN();
