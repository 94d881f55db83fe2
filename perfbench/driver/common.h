// Shared pieces of the end-to-end benchmark driver: clock, latency
// samples, correctness tallies, the metric report, dataset generation,
// and an Env wrapper that measures what the storage layer wrote.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/statusor.h"
#include "sql/value.h"
#include "storage/env.h"
#include "traj/trajectory_store.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double MsSince(int64_t start_ns) { return (NowNs() - start_ns) / 1e6; }

/// A run does fixed work, sized to take about --seconds on a 4-vCPU VM; on
/// a much slower or busier machine the timed phase stops at this cap so
/// the whole run still ends within the benchmark's time limit.
inline constexpr double kTimeCapS = 110.0;

inline bool PastCap(int64_t start_ns) {
  return NowNs() - start_ns > static_cast<int64_t>(kTimeCapS * 1e9);
}

/// Command-line options every workload receives.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its span file (inside the checkout).
  std::string trace_dir = ".bench_build/traces";
};

/// Latency samples of one statement kind, in milliseconds.
class Samples {
 public:
  void Add(double ms) { v_.push_back(ms); }
  void Append(const Samples& o) {
    v_.insert(v_.end(), o.v_.begin(), o.v_.end());
  }
  size_t size() const { return v_.size(); }
  double Sum() const;
  /// Nearest-rank quantile q in (0, 1); 0 when empty.
  double Quantile(double q) const;
  /// True when at least 10 samples lie beyond quantile q — the rule for
  /// reporting a percentile from one run.
  bool Supports(double q) const;

 private:
  std::vector<double> v_;
};

/// Correctness tally: statements and checks attempted / failed per kind.
class Checks {
 public:
  /// Records one attempt of `kind`; returns `ok` for chaining.
  bool Record(const std::string& kind, bool ok, const std::string& detail = "");
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  void Merge(const Checks& o);
  /// One line per kind on stderr: "kind attempted failed".
  void Print() const;

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::map<std::string, std::pair<uint64_t, uint64_t>> per_kind_;
  int details_printed_ = 0;
};

/// Named metrics with units, printed as the final JSON line.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  bool Has(const std::string& name) const { return m_.count(name) > 0; }
  std::vector<std::string> Names() const;
  std::string Json(const Checks& checks) const;

 private:
  std::map<std::string, std::pair<double, std::string>> m_;
};

/// Adds the median of `s` as `<prefix>_p50_ms`, and prints it with the
/// p90 and the sample count on stderr. The p90 is printed only when at
/// least 10 samples lie beyond it; it is not a reported metric, because
/// across runs on a shared VM it moved by more than any useful bound.
void ReportLatency(const std::string& prefix, const Samples& s,
                   Report* report);

/// Peak resident set of this process in MiB.
double PeakRssMb();

/// Median of a small vector (copy).
double Median(std::vector<double> v);

// ---- Datasets ------------------------------------------------------------

/// One movement domain: its store, the S2T bandwidths that form clusters
/// on it, and its QUT chunk width.
struct Domain {
  std::string name;
  hermes::traj::TrajectoryStore store;
  double sigma = 0;
  double epsilon = 0;
  double tau = 0;
};

hermes::traj::TrajectoryStore MakeAircraft(size_t flights, double sample_dt,
                                           uint64_t seed);
hermes::traj::TrajectoryStore MakeMaritime(size_t ships, double sample_dt,
                                           uint64_t seed);
hermes::traj::TrajectoryStore MakeUrban(size_t vehicles, double sample_dt,
                                        uint64_t seed);

/// The leading trajectories of `store` (in id order) whose samples total
/// at most `points`: datasets of a stated size, so a run's cost depends on
/// the seed only through the data's shape, not its volume.
hermes::traj::TrajectoryStore TakePoints(
    const hermes::traj::TrajectoryStore& store, size_t points);

/// QUT tree parameters (tau, delta, t, d, gamma): chunks of `tau` seconds
/// (about a quarter of the domain's time span), four sub-chunks per chunk,
/// d = epsilon. Fixed per domain, not derived from the generated data, so
/// the tree's shape does not change with the seed.
std::vector<double> QutTreeParams(double tau, double epsilon, double gamma);

/// "SELECT QUT(mod, wi, we, tau, delta, t, d, gamma)" with full-precision
/// numbers.
std::string QutSql(const std::string& mod, double wi, double we,
                   const std::vector<double>& tree_params);
std::string RangeSql(const std::string& mod, double wi, double we);
std::string Num(double v);

/// Window [lo, hi) covering `fraction` of the store's time domain,
/// centred on it.
std::pair<double, double> CentredWindow(
    const hermes::traj::TrajectoryStore& store, double fraction);

/// Up to `count` windows covering `fraction` of the store's time domain,
/// at the central positions where `clusters(lo, hi)` (a QUT on the system
/// under test) finds the most clusters, most first. A QUT window must form
/// clusters for the "QUT returns >= 1 cluster" check to mean anything, and
/// a narrow window in a sparse stretch forms none.
std::vector<std::pair<double, double>> PickQutWindows(
    const hermes::traj::TrajectoryStore& store, double fraction, size_t count,
    const std::function<size_t(double, double)>& clusters);

/// Brute-force RANGE oracle: (qualifying trajectories, points in window)
/// computed from the raw samples, following RANGE's slice semantics
/// (interpolated entry and exit samples plus the samples strictly inside).
std::pair<int64_t, int64_t> BruteForceRange(
    const hermes::traj::TrajectoryStore& store, double wi, double we);

/// True when a RANGE answer has the oracle's rows and points in window.
bool RangeMatches(const hermes::StatusOr<hermes::sql::Table>& t,
                  const std::pair<int64_t, int64_t>& expected);

/// Number of QUT result rows that are clusters (not the outliers row).
size_t QutClusterRows(const hermes::sql::Table& t);

/// Order-sensitive fingerprint of a table's cells.
uint64_t TableHash(const hermes::sql::Table& t);

// ---- Storage accounting --------------------------------------------------

/// Env decorator that forwards to an inner Env and remembers every file
/// name it created, so the benchmark can sum file sizes under a directory
/// tree (the in-memory Env lists only one level).
class CountingEnv : public hermes::storage::Env {
 public:
  explicit CountingEnv(std::unique_ptr<hermes::storage::Env> inner)
      : inner_(std::move(inner)) {}

  hermes::StatusOr<std::unique_ptr<hermes::storage::RandomRWFile>> NewRWFile(
      const std::string& fname) override;
  bool FileExists(const std::string& fname) const override {
    return inner_->FileExists(fname);
  }
  hermes::Status DeleteFile(const std::string& fname) override {
    return inner_->DeleteFile(fname);
  }
  hermes::Status RenameFile(const std::string& src,
                            const std::string& dst) override;
  hermes::Status CreateDirs(const std::string& dirname) override {
    return inner_->CreateDirs(dirname);
  }
  hermes::StatusOr<std::vector<std::string>> ListDir(
      const std::string& dirname) const override {
    return inner_->ListDir(dirname);
  }

  /// Total size of the live files whose path starts with `prefix`.
  uint64_t BytesUnder(const std::string& prefix);

 private:
  std::unique_ptr<hermes::storage::Env> inner_;
  hermes::common::Mutex mu_;
  std::set<std::string> names_ GUARDED_BY(mu_);
};

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
