// Experiment E4 (DESIGN.md): the preparatory-phase claim — in-DBMS,
// pg3D-Rtree-accelerated voting vs the "corresponding PostgreSQL
// function" (naive nested-loop voting), "orders of magnitude speedup".
//
// Series produced: naive vs indexed wall time for growing MOD cardinality
// N, plus the candidate-pair counts explaining the gap. Both engines
// produce bitwise-identical voting descriptors (tested in voting_test.cc).

#include <benchmark/benchmark.h>

#include <chrono>

#include "datagen/aircraft.h"
#include "exec/exec_context.h"
#include "rtree/mem_rtree3d.h"
#include "traj/segment_arena.h"
#include "voting/voting.h"

namespace {

using hermes::datagen::AircraftScenarioParams;
using hermes::datagen::GenerateAircraftScenario;

hermes::traj::TrajectoryStore MakeMod(size_t flights) {
  AircraftScenarioParams p = AircraftScenarioParams::Default();
  p.num_flights = flights;
  p.sample_dt = 20.0;
  p.seed = 17;
  auto scenario = GenerateAircraftScenario(p);
  return std::move(scenario->store);
}

hermes::voting::VotingParams Params() {
  hermes::voting::VotingParams vp;
  vp.sigma = 1500.0;
  vp.cutoff_sigmas = 3.0;
  vp.min_overlap_ratio = 0.3;
  return vp;
}

void BM_VotingNaive(benchmark::State& state) {
  const auto store = MakeMod(state.range(0));
  uint64_t pairs = 0;
  for (auto _ : state) {
    auto result = hermes::voting::ComputeVotingNaive(store, Params());
    benchmark::DoNotOptimize(result);
    pairs = result->pairs_evaluated;
  }
  state.counters["N"] = static_cast<double>(store.NumTrajectories());
  state.counters["segments"] = static_cast<double>(store.NumSegments());
  state.counters["pairs"] = static_cast<double>(pairs);
}

// The indexed engine on the in-memory STR tree that every S2T run builds
// (the build itself is BM_VotingIndexBuild's).
void BM_VotingIndexed(benchmark::State& state) {
  const auto store = MakeMod(state.range(0));
  const auto arena = hermes::traj::SegmentArena::Build(store);
  const auto index = hermes::rtree::BuildMemSegmentIndex(arena);
  uint64_t pairs = 0;
  for (auto _ : state) {
    auto result = hermes::voting::ComputeVotingIndexed(arena, store, *index,
                                                       Params());
    benchmark::DoNotOptimize(result);
    pairs = result->pairs_evaluated;
  }
  state.counters["N"] = static_cast<double>(store.NumTrajectories());
  state.counters["segments"] = static_cast<double>(store.NumSegments());
  state.counters["pairs"] = static_cast<double>(pairs);
}

// The arena + exec-context fast path: columnar `SegmentArena` shared by
// index build and voting, vote kernel fanned out over a thread pool.
// Reports the speedup versus the sequential (1-thread) arena run measured
// in the same process; results are bit-identical at every thread count.
void BM_VotingArenaIndexed(benchmark::State& state) {
  const auto store = MakeMod(320);
  const auto arena = hermes::traj::SegmentArena::Build(store);
  const auto index = hermes::rtree::BuildMemSegmentIndex(arena);

  // Sequential reference, measured once per process.
  static double seq_ms = 0.0;
  if (seq_ms == 0.0) {
    const auto t0 = std::chrono::steady_clock::now();
    auto ref = hermes::voting::ComputeVotingIndexed(arena, store, *index,
                                                    Params(), nullptr);
    benchmark::DoNotOptimize(ref);
    seq_ms = std::chrono::duration<double, std::milli>(
                 std::chrono::steady_clock::now() - t0)
                 .count();
  }

  hermes::exec::ExecContext ctx(state.range(0));
  double iter_ms_sum = 0.0;
  size_t iters = 0;
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    auto result = hermes::voting::ComputeVotingIndexed(arena, store, *index,
                                                       Params(), &ctx);
    benchmark::DoNotOptimize(result);
    iter_ms_sum += std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
    ++iters;
  }
  state.counters["threads"] = static_cast<double>(state.range(0));
  state.counters["segments"] = static_cast<double>(arena.num_segments());
  state.counters["seq_ms"] = seq_ms;
  if (iters > 0 && iter_ms_sum > 0.0) {
    state.counters["speedup"] =
        seq_ms / (iter_ms_sum / static_cast<double>(iters));
  }
}

// Arena snapshot cost (the once-per-pipeline columnarization pass).
void BM_ArenaBuild(benchmark::State& state) {
  const auto store = MakeMod(320);
  hermes::exec::ExecContext ctx(state.range(0));
  for (auto _ : state) {
    auto arena = hermes::traj::SegmentArena::Build(store, &ctx);
    benchmark::DoNotOptimize(arena);
  }
  state.counters["threads"] = static_cast<double>(state.range(0));
  state.counters["segments"] = static_cast<double>(store.NumSegments());
}

// Index construction cost: the in-memory STR bulk load over the arena
// that every indexed S2T run pays before it votes.
void BM_VotingIndexBuild(benchmark::State& state) {
  const auto store = MakeMod(state.range(0));
  const auto arena = hermes::traj::SegmentArena::Build(store);
  for (auto _ : state) {
    auto index = hermes::rtree::BuildMemSegmentIndex(arena);
    benchmark::DoNotOptimize(index);
  }
  state.counters["segments"] = static_cast<double>(store.NumSegments());
}

}  // namespace

BENCHMARK(BM_VotingNaive)->Arg(10)->Arg(20)->Arg(40)->Arg(80)->Arg(160)
    ->Arg(320)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_VotingIndexed)->Arg(10)->Arg(20)->Arg(40)->Arg(80)->Arg(160)
    ->Arg(320)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_VotingArenaIndexed)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ArenaBuild)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_VotingIndexBuild)->Arg(40)->Arg(160)
    ->Unit(benchmark::kMillisecond);
