// Experiment E6 (DESIGN.md): the scenario-2 headline — QuT-Clustering vs
// the alternative pipeline "(i) temporal range query, (ii) build an R-tree
// on the result, (iii) run S2T-Clustering", for varying temporal windows W.
//
// The paper's claim: QuT answers from the ReTraTree with boundary-only
// work, so it wins by a wide margin for small W and stays ahead as W
// grows. ReTraTree construction and the baseline's *global* index are both
// setup (not measured per query).
//
// The W sweep runs on two fixtures: 120 aircraft, and a dense 400
// whose answers hold more than 64 members each and whose boundary
// re-checks run the distance integral (it checks both at setup).
//
// This file also carries the hot/cold tier sweep: QUT served from the
// in-memory snapshots (hot) vs the on-disk heap-file scan
// (cold, hot tier disabled via a zero budget), plus a concurrent-readers
// sweep over the lock-free hot probe path. Every tier point is appended
// to `BENCH_qut.json` (one record per (mode, W, threads)) so successive
// PRs can track the QUT latency trajectory mechanically.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "baselines/range_rebuild.h"
#include "common/logging.h"
#include "core/qut_clustering.h"
#include "core/retratree.h"
#include "datagen/aircraft.h"
#include "rtree/str_bulk_load.h"
#include "storage/env.h"

namespace {

using namespace hermes;  // Bench-local brevity.

int64_t NowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Fixture {
  traj::TrajectoryStore store;
  std::unique_ptr<storage::Env> env;
  std::unique_ptr<core::ReTraTree> tree;
  std::unique_ptr<rtree::RTree3D> global_index;
  double t0 = 0.0;
  double t1 = 0.0;

  static core::S2TParams S2T() {
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

  explicit Fixture(size_t flights) {
    datagen::AircraftScenarioParams p =
        datagen::AircraftScenarioParams::Default();
    p.num_flights = flights;
    p.sample_dt = 20.0;
    p.time_span = 7200.0;
    p.seed = 29;
    auto scenario = datagen::GenerateAircraftScenario(p);
    store = std::move(scenario->store);
    std::tie(t0, t1) = store.TimeDomain();

    env = storage::Env::NewMemEnv();
    core::ReTraTreeParams tp;
    tp.tau = (t1 - t0) / 4;
    tp.delta = tp.tau / 4;
    tp.t_align = tp.delta;
    tp.d_assign = 3000.0;
    tp.gamma = 24;
    tp.origin = t0;
    tp.s2t = S2T();
    tree = std::move(core::ReTraTree::Open(env.get(), "bench_tree", tp))
               .value();
    (void)tree->InsertStore(store);
    global_index =
        std::move(rtree::BuildSegmentIndex(env.get(), "bench_glob.idx",
                                           store))
            .value();
  }

  /// Window covering `fraction` of the time domain, centered at the
  /// midpoint where the traffic density is steady (the demo's progressive
  /// widening from the landing phase into the cruise past).
  std::pair<double, double> Window(double fraction) const {
    const double mid = (t0 + t1) / 2;
    const double half = (t1 - t0) * fraction / 2;
    return {mid - half, mid + half};
  }
};

Fixture& SharedFixture() {
  static Fixture* fixture = new Fixture(120);
  return *fixture;
}

/// The W sweep's windows, in percent of the time domain.
constexpr int kWindowPcts[] = {5, 10, 25, 50, 100};

/// 400 aircraft over the same span. Checks its shape once: every sweep
/// window answers with more than 64 members, and every window with
/// boundary re-checks runs the integral in some of them (the 120-aircraft
/// fixture reads at most 64 members and never integrates).
Fixture& DenseFixture() {
  static Fixture* fixture = [] {
    auto* f = new Fixture(400);
    core::QuTClustering qut(f->tree.get());
    size_t boundary_windows = 0;
    for (int pct : kWindowPcts) {
      const auto [wi, we] = f->Window(pct / 100.0);
      auto result = qut.Query(wi, we);
      HERMES_CHECK_OK(result.status());
      HERMES_CHECK(result->TotalMembers() > 64) << "W " << pct << "%";
      if (result->stats.members_rechecked == 0) continue;
      ++boundary_windows;
      HERMES_CHECK(result->stats.exact_distances > 0) << "W " << pct << "%";
    }
    HERMES_CHECK(boundary_windows > 0);
    return f;
  }();
  return *fixture;
}

struct QutRecord {
  std::string mode;  // "cold" / "hot" / "hot_concurrent".
  int w_pct = 0;
  size_t threads = 1;
  double query_ms = 0.0;
  size_t clusters = 0;
  size_t members = 0;
  uint64_t hot_probes = 0;   // Tier probe deltas over the timed loop:
  uint64_t cold_probes = 0;  // hot serves must show zero cold probes.
};

std::vector<QutRecord>& Records() {
  static auto* records = new std::vector<QutRecord>();
  return *records;
}

/// The W sweep over `f`: QUT at `state.range(0)` % of the time domain.
void RunWindowSweep(benchmark::State& state, Fixture& f) {
  const double fraction = static_cast<double>(state.range(0)) / 100.0;
  const auto [wi, we] = f.Window(fraction);
  core::QuTClustering qut(f.tree.get());
  size_t clusters = 0, members = 0, rechecked = 0, exact = 0;
  for (auto _ : state) {
    auto result = qut.Query(wi, we);
    benchmark::DoNotOptimize(result);
    clusters = result->clusters.size();
    members = result->TotalMembers();
    rechecked = result->stats.members_rechecked;
    exact = result->stats.exact_distances;
  }
  state.counters["W_pct"] = static_cast<double>(state.range(0));
  state.counters["clusters"] = static_cast<double>(clusters);
  state.counters["members"] = static_cast<double>(members);
  // Share of the boundary re-checks that ran the integral; a distance
  // bound decided the rest.
  state.counters["exact_share"] =
      rechecked == 0 ? 0.0
                     : static_cast<double>(exact) / static_cast<double>(rechecked);
}

void BM_QuTQuery(benchmark::State& state) {
  RunWindowSweep(state, SharedFixture());
}

void BM_QuTQueryDense(benchmark::State& state) {
  RunWindowSweep(state, DenseFixture());
}

void BM_RangeRebuildS2T(benchmark::State& state) {
  Fixture& f = SharedFixture();
  const double fraction = static_cast<double>(state.range(0)) / 100.0;
  const auto [wi, we] = f.Window(fraction);
  size_t clusters = 0;
  for (auto _ : state) {
    auto result = baselines::RunRangeRebuild(f.store, *f.global_index, wi,
                                             we, Fixture::S2T());
    benchmark::DoNotOptimize(result);
    clusters = result->s2t.NumClusters();
  }
  state.counters["W_pct"] = static_cast<double>(state.range(0));
  state.counters["clusters"] = static_cast<double>(clusters);
}

// ---------------------------------------------------------------------------
// Hot/cold tier sweep
// ---------------------------------------------------------------------------

/// Shared body of the single-threaded tier benchmarks: runs the timed
/// QUT loop and appends one record per (mode, W) point.
void RunTierSweep(benchmark::State& state, const char* mode) {
  Fixture& f = SharedFixture();
  const double fraction = static_cast<double>(state.range(0)) / 100.0;
  const auto [wi, we] = f.Window(fraction);
  core::QuTClustering qut(f.tree.get());
  // One un-timed query settles the tier: promotes (hot) or verifies
  // nothing promotes (cold, zero budget) before measurement starts.
  { auto warm = qut.Query(wi, we); benchmark::DoNotOptimize(warm); }
  const core::HotTierStats before = f.tree->hot_stats();
  size_t clusters = 0, members = 0, iters = 0;
  const int64_t start = NowUs();
  for (auto _ : state) {
    auto result = qut.Query(wi, we);
    benchmark::DoNotOptimize(result);
    clusters = result->clusters.size();
    members = result->TotalMembers();
    ++iters;
  }
  const double ms =
      iters == 0 ? 0.0 : (NowUs() - start) / 1000.0 / static_cast<double>(iters);
  const core::HotTierStats after = f.tree->hot_stats();
  state.counters["W_pct"] = static_cast<double>(state.range(0));
  state.counters["clusters"] = static_cast<double>(clusters);
  state.counters["hot_probes"] =
      static_cast<double>(after.qut_hot_probes - before.qut_hot_probes);
  state.counters["cold_probes"] =
      static_cast<double>(after.qut_cold_probes - before.qut_cold_probes);

  QutRecord rec;
  rec.mode = mode;
  rec.w_pct = static_cast<int>(state.range(0));
  rec.threads = 1;
  rec.query_ms = ms;
  rec.clusters = clusters;
  rec.members = members;
  rec.hot_probes = after.qut_hot_probes - before.qut_hot_probes;
  rec.cold_probes = after.qut_cold_probes - before.qut_cold_probes;
  Records().push_back(rec);
}

/// Cold tier: hot snapshots disabled (zero budget), every partition read
/// scans its heap file — the pre-tier baseline. Registered
/// before the hot benchmarks so the budget flip-flop never races.
void BM_QuTQueryCold(benchmark::State& state) {
  SharedFixture().tree->SetHotIndexBudget(0);
  RunTierSweep(state, "cold");
}

/// Hot tier: default budget, partitions promoted on first touch, every
/// timed probe served lock-free from the in-memory snapshots.
void BM_QuTQueryHot(benchmark::State& state) {
  SharedFixture().tree->SetHotIndexBudget(core::kDefaultHotIndexBudget);
  RunTierSweep(state, "hot");
}

/// Concurrent readers over the warmed hot tier (the lock-free probe
/// path): N threads each running the same QUT window. Runs after
/// BM_QuTQueryHot, so the tier is already promoted and stays enabled.
void BM_QuTConcurrentReaders(benchmark::State& state) {
  Fixture& f = SharedFixture();
  constexpr int kWPct = 25;
  const auto [wi, we] = f.Window(kWPct / 100.0);
  core::QuTClustering qut(f.tree.get());
  if (state.thread_index() == 0) {
    f.tree->SetHotIndexBudget(core::kDefaultHotIndexBudget);
    auto warm = qut.Query(wi, we);
    benchmark::DoNotOptimize(warm);
  }
  size_t clusters = 0, members = 0, iters = 0;
  const core::HotTierStats before = f.tree->hot_stats();
  const int64_t start = NowUs();
  for (auto _ : state) {
    auto result = qut.Query(wi, we);
    benchmark::DoNotOptimize(result);
    clusters = result->clusters.size();
    members = result->TotalMembers();
    ++iters;
  }
  const double ms =
      iters == 0 ? 0.0 : (NowUs() - start) / 1000.0 / static_cast<double>(iters);
  if (state.thread_index() == 0) {
    state.counters["W_pct"] = static_cast<double>(kWPct);
    state.counters["clusters"] = static_cast<double>(clusters);
    QutRecord rec;
    rec.mode = "hot_concurrent";
    rec.w_pct = kWPct;
    rec.threads = static_cast<size_t>(state.threads());
    rec.query_ms = ms;  // Thread 0's own per-query latency.
    rec.clusters = clusters;
    rec.members = members;
    // Aggregate tier traffic across all reader threads during the sweep
    // (approximate at the edges — peers may still be draining — but a
    // non-zero cold count here would flag the probe path taking locks).
    const core::HotTierStats after = f.tree->hot_stats();
    rec.hot_probes = after.qut_hot_probes - before.qut_hot_probes;
    rec.cold_probes = after.qut_cold_probes - before.qut_cold_probes;
    Records().push_back(rec);
  }
}

void WriteJson(const char* path) {
  if (Records().empty()) {
    // A filtered run that skipped the tier sweep must not clobber a
    // previous measurement with an empty baseline.
    std::fprintf(stderr, "no qut records; leaving %s untouched\n", path);
    return;
  }
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  // The harness calls each benchmark several times while calibrating the
  // iteration count; keep only the final (measured) record per point.
  std::vector<QutRecord> recs;
  for (const auto& r : Records()) {
    bool replaced = false;
    for (auto& kept : recs) {
      if (kept.mode == r.mode && kept.w_pct == r.w_pct &&
          kept.threads == r.threads) {
        kept = r;
        replaced = true;
        break;
      }
    }
    if (!replaced) recs.push_back(r);
  }
  std::fprintf(f, "{\n  \"bench\": \"qut_window\",\n  \"runs\": [\n");
  for (size_t i = 0; i < recs.size(); ++i) {
    const auto& r = recs[i];
    std::fprintf(
        f,
        "    {\"mode\": \"%s\", \"w_pct\": %d, \"threads\": %zu, "
        "\"query_ms\": %.6f, \"clusters\": %zu, \"members\": %zu, "
        "\"hot_probes\": %llu, \"cold_probes\": %llu}%s\n",
        r.mode.c_str(), r.w_pct, r.threads, r.query_ms, r.clusters,
        r.members, static_cast<unsigned long long>(r.hot_probes),
        static_cast<unsigned long long>(r.cold_probes),
        i + 1 < recs.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

}  // namespace

// W sweep: 5% .. 100% of the time domain.
BENCHMARK(BM_QuTQuery)->Arg(5)->Arg(10)->Arg(25)->Arg(50)->Arg(100)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_QuTQueryDense)->Arg(5)->Arg(10)->Arg(25)->Arg(50)->Arg(100)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RangeRebuildS2T)->Arg(5)->Arg(10)->Arg(25)->Arg(50)->Arg(100)
    ->Unit(benchmark::kMillisecond);
// Tier sweep: cold first (budget 0), then hot, then the concurrent
// readers over the still-warm hot tier. Registration order is execution
// order, which is what keeps the shared tree's budget transitions clean.
BENCHMARK(BM_QuTQueryCold)->Arg(5)->Arg(25)->Arg(100)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_QuTQueryHot)->Arg(5)->Arg(25)->Arg(100)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_QuTConcurrentReaders)->Threads(1)->Threads(2)->Threads(4)
    ->Unit(benchmark::kMillisecond);

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  WriteJson("BENCH_qut.json");
  return 0;
}
