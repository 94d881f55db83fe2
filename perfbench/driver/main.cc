// hermes_perfbench: the repository's end-to-end benchmark driver.
//
//   hermes_perfbench --workload analytics|ingest|serving --seed N
//                    --seconds S --trace 0|1 [--trace-dir DIR]
//
// Prints progress on stderr and, as the last line of stdout, one JSON
// object {"correct", "attempted", "failed", "metrics"}. See README.md.

#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "common.h"
#include "workloads.h"

namespace perfbench {

double TimeSetups(const std::function<void()>& setup) {
  std::vector<double> secs;
  for (int i = 0; i < kSetups; ++i) {
    const int64_t t0 = NowNs();
    setup();
    secs.push_back((NowNs() - t0) / 1e9);
  }
  return Median(secs);
}

namespace {

/// The per-layer metric names every traced run reports (zero where the
/// workload bypasses the layer), with units.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const auto* names =
      new std::vector<std::pair<std::string, std::string>>{
          {"sql.parse_us", "us"},
          {"net.encode_us", "us"},
          {"net.decode_us", "us"},
          {"net.response_bytes", "B"},
          {"net.overhead_ms", "ms"},
          {"shard.gather_ms", "ms"},
          {"service.enqueue_us", "us"},
          {"service.flush_wait_ms", "ms"},
          {"service.snapshot_us", "us"},
          {"service.recovery_s", "s"},
          {"wal.bytes", "B"},
          {"wal.records", "count"},
          {"wal.syncs", "count"},
          {"wal.replay_scan_ms", "ms"},
          {"wal.bytes_per_user_byte", "ratio"},
          {"storage.stored_bytes_per_user_byte", "ratio"},
          {"storage.pages_read", "count"},
          {"core.retratree_insert_ms", "ms"},
          {"core.qut_query_us", "us"},
          {"core.qut_hot_probes", "count"},
          {"core.qut_cold_probes", "count"},
          {"core.hot_hit_ratio", "ratio"},
          {"traj.arena_build_ms", "ms"},
          {"rtree.index_build_ms", "ms"},
          {"voting.ms", "ms"},
          {"voting.candidate_pairs", "count"},
          {"segmentation.ms", "ms"},
          {"sampling.ms", "ms"},
          {"clustering.ms", "ms"},
          {"s2t.unattributed_ms", "ms"},
          {"s2t.coverage_pct", "%"},
          {"commit.unattributed_ms", "ms"},
          {"commit.coverage_pct", "%"},
          {"ingest.points_per_s", "1/s"},
          {"trace.overhead_ms", "ms"},
          {"trace.overhead_pct", "%"},
      };
  return *names;
}

/// Sets every per-layer metric `report` lacks to 0 (layer bypassed).
void FillBypassedLayers(Report* report) {
  for (const auto& [name, unit] : PerLayerMetrics()) {
    if (!report->Has(name)) report->Set(name, 0.0, unit);
  }
}

const std::vector<std::string> kEndToEnd = {
    "setup_s",    "stmts_per_s",  "work_p50_ms",
    "qut_p50_ms", "range_p50_ms", "peak_rss_mb",
};

int Usage() {
  std::fprintf(stderr,
               "usage: hermes_perfbench --workload analytics|ingest|serving "
               "--seed N --seconds S --trace 0|1 [--trace-dir DIR]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      opt.workload = val;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(val.c_str(), nullptr);
    } else if (key == "--trace") {
      opt.trace = val == "1";
    } else if (key == "--trace-dir") {
      opt.trace_dir = val;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || opt.seconds <= 0) return Usage();

  RunResult r;
  if (opt.workload == "analytics") {
    r = RunAnalytics(opt);
  } else if (opt.workload == "ingest") {
    r = RunIngest(opt);
  } else if (opt.workload == "serving") {
    r = RunServing(opt);
  } else {
    return Usage();
  }

  // The report must hold exactly the metric set of its mode.
  std::set<std::string> expected;
  if (opt.trace) {
    FillBypassedLayers(&r.report);
    for (const auto& nu : PerLayerMetrics()) expected.insert(nu.first);
  } else {
    expected.insert(kEndToEnd.begin(), kEndToEnd.end());
  }
  for (const auto& name : expected) {
    r.checks.Record("report.metric_present", r.report.Has(name), name);
  }
  for (const auto& name : r.report.Names()) {
    r.checks.Record("report.metric_expected", expected.count(name) > 0, name);
  }
  std::fprintf(stderr, "checks (%s, seed %llu):\n", opt.workload.c_str(),
               static_cast<unsigned long long>(opt.seed));
  r.checks.Print();
  std::printf("%s\n", r.report.Json(r.checks).c_str());
  std::fflush(stdout);
  return 0;
}
