// Experiment E5 companion (DESIGN.md): S2T-Clustering end-to-end runtime
// and per-phase breakdown as the MOD grows — the "efficient and scalable
// solutions for sub-trajectory clustering" claim — plus a thread sweep of
// the exec fast path at the largest MOD. The sweep now covers every
// parallel phase: arena build, STR sorts, voting probe (row chunks over
// one in-memory R-tree, no locks) + kernel, and both NaTS segmentation
// passes, with the probe/kernel and DP/materialize splits reported
// separately.
//
// Besides the usual console report, every (N, threads) point is appended
// to `BENCH_s2t.json` in the working directory, so successive PRs can
// track the perf trajectory mechanically.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/s2t_clustering.h"
#include "datagen/aircraft.h"
#include "exec/exec_context.h"

namespace {

using namespace hermes;

struct BenchRecord {
  size_t flights = 0;
  size_t threads = 0;
  size_t segments = 0;
  size_t clusters = 0;
  size_t outliers = 0;
  size_t sub_trajs = 0;
  double wall_ms = 0.0;
  core::S2TTimings timings;
};

std::vector<BenchRecord>& Records() {
  static auto* records = new std::vector<BenchRecord>();
  return *records;
}

traj::TrajectoryStore MakeMod(size_t flights) {
  datagen::AircraftScenarioParams p =
      datagen::AircraftScenarioParams::Default();
  p.num_flights = flights;
  p.sample_dt = 20.0;
  p.seed = 31;
  auto scenario = datagen::GenerateAircraftScenario(p);
  return std::move(scenario->store);
}

core::S2TParams Params() {
  core::S2TParams p;
  p.SetSigma(1500.0).SetEpsilon(3000.0);
  p.segmentation.min_part_length = 3;
  p.sampling.sigma = 4000.0;
  p.sampling.gain_stop_ratio = 0.1;
  p.sampling.min_overlap_ratio = 0.3;
  p.clustering.min_overlap_ratio = 0.3;
  p.voting.min_overlap_ratio = 0.3;
  return p;
}

// Args: {flights, threads}.
void BM_S2TFull(benchmark::State& state) {
  const auto store = MakeMod(state.range(0));
  const auto threads = static_cast<size_t>(state.range(1));
  core::S2TClustering s2t(Params());
  exec::ExecContext ctx(threads);
  exec::ExecContext* exec = threads > 1 ? &ctx : nullptr;
  core::S2TTimings timings;
  size_t clusters = 0, outliers = 0, subs = 0;
  for (auto _ : state) {
    auto result = s2t.Run(store, exec);
    benchmark::DoNotOptimize(result);
    timings = result->timings;
    clusters = result->NumClusters();
    outliers = result->NumOutliers();
    subs = result->sub_trajectories.size();
  }
  state.counters["N"] = static_cast<double>(store.NumTrajectories());
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["sub_trajs"] = static_cast<double>(subs);
  state.counters["clusters"] = static_cast<double>(clusters);
  state.counters["outliers"] = static_cast<double>(outliers);
  state.counters["arena_ms"] = timings.arena_build_us / 1000.0;
  state.counters["index_ms"] = timings.index_build_us / 1000.0;
  state.counters["voting_ms"] = timings.voting_us / 1000.0;
  state.counters["voting_probe_ms"] = timings.voting_probe_us / 1000.0;
  state.counters["voting_kernel_ms"] = timings.voting_kernel_us / 1000.0;
  state.counters["segmentation_ms"] = timings.segmentation_us / 1000.0;
  state.counters["segmentation_dp_ms"] = timings.segmentation_dp_us / 1000.0;
  state.counters["segmentation_materialize_ms"] =
      timings.segmentation_materialize_us / 1000.0;
  state.counters["sampling_ms"] = timings.sampling_us / 1000.0;
  state.counters["clustering_ms"] = timings.clustering_us / 1000.0;

  BenchRecord rec;
  rec.flights = static_cast<size_t>(state.range(0));
  rec.threads = threads;
  rec.segments = store.NumSegments();
  rec.clusters = clusters;
  rec.outliers = outliers;
  rec.sub_trajs = subs;
  rec.wall_ms = timings.TotalUs() / 1000.0;
  rec.timings = timings;
  Records().push_back(rec);
}

void WriteJson(const char* path) {
  if (Records().empty()) {
    // A filtered run that skipped BM_S2TFull must not clobber a previous
    // measurement with an empty baseline.
    std::fprintf(stderr, "no records; leaving %s untouched\n", path);
    return;
  }
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"s2t_scale\",\n  \"runs\": [\n");
  // The harness calls each benchmark several times while calibrating the
  // iteration count; keep only the final (measured) record per point.
  std::vector<BenchRecord> recs;
  for (const auto& r : Records()) {
    bool replaced = false;
    for (auto& kept : recs) {
      if (kept.flights == r.flights && kept.threads == r.threads) {
        kept = r;
        replaced = true;
        break;
      }
    }
    if (!replaced) recs.push_back(r);
  }
  for (size_t i = 0; i < recs.size(); ++i) {
    const auto& r = recs[i];
    std::fprintf(
        f,
        "    {\"flights\": %zu, \"threads\": %zu, \"segments\": %zu, "
        "\"sub_trajectories\": %zu, \"clusters\": %zu, \"outliers\": %zu, "
        "\"wall_ms\": %.3f, \"arena_build_ms\": %.3f, "
        "\"index_build_ms\": %.3f, \"voting_ms\": %.3f, "
        "\"voting_probe_ms\": %.3f, \"voting_kernel_ms\": %.3f, "
        "\"segmentation_ms\": %.3f, \"segmentation_dp_ms\": %.3f, "
        "\"segmentation_materialize_ms\": %.3f, \"sampling_ms\": %.3f, "
        "\"clustering_ms\": %.3f}%s\n",
        r.flights, r.threads, r.segments, r.sub_trajs, r.clusters, r.outliers,
        r.wall_ms, r.timings.arena_build_us / 1000.0,
        r.timings.index_build_us / 1000.0, r.timings.voting_us / 1000.0,
        r.timings.voting_probe_us / 1000.0,
        r.timings.voting_kernel_us / 1000.0,
        r.timings.segmentation_us / 1000.0,
        r.timings.segmentation_dp_us / 1000.0,
        r.timings.segmentation_materialize_us / 1000.0,
        r.timings.sampling_us / 1000.0, r.timings.clustering_us / 1000.0,
        i + 1 < recs.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

}  // namespace

// Cardinality sweep at 1 thread, then a thread sweep at the largest MOD.
BENCHMARK(BM_S2TFull)
    ->Args({20, 1})
    ->Args({40, 1})
    ->Args({80, 1})
    ->Args({160, 1})
    ->Args({160, 2})
    ->Args({160, 4})
    ->Args({160, 8})
    ->Unit(benchmark::kMillisecond);

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  WriteJson("BENCH_s2t.json");
  return 0;
}
