// The three workloads. Each builds its system state from the seed (set-up,
// repeated and reported as a median), runs a closed loop of statements for
// the run's seconds, checks the results, and reports either the
// end-to-end metrics (untraced run) or the per-layer metrics (traced run).
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <functional>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

struct RunResult {
  Report report;
  Checks checks;
};

/// Embedded sql::Session over three MODs: S2T_MEMBERS rotation, QUT window
/// sweep over a hot tier smaller than the trees, RANGE.
RunResult RunAnalytics(const Options& opt);
/// Durable in-process service::Server: grouped INSERT + FLUSH writer beside
/// a QUT/RANGE reader; restarts time recovery.
RunResult RunIngest(const Options& opt);
/// Loopback net::NetServer over a 2-shard shard::Coordinator; three wire
/// clients send short read statements.
RunResult RunServing(const Options& opt);

/// Number of set-ups per run; `setup_s` is their median.
inline constexpr int kSetups = 5;

/// Runs `setup` kSetups times and returns the median seconds; the caller
/// keeps the state of the last one.
double TimeSetups(const std::function<void()>& setup);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
