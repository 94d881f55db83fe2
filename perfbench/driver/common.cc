#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "datagen/aircraft.h"
#include "datagen/maritime.h"
#include "datagen/urban.h"

namespace perfbench {

using hermes::sql::Table;
using hermes::sql::ValueType;
using hermes::traj::TrajectoryStore;

double Samples::Sum() const {
  double s = 0;
  for (double x : v_) s += x;
  return s;
}

double Samples::Quantile(double q) const {
  if (v_.empty()) return 0.0;
  std::vector<double> s = v_;
  std::sort(s.begin(), s.end());
  const auto rank = static_cast<size_t>(std::ceil(q * s.size()));
  return s[std::min(s.size() - 1, rank == 0 ? 0 : rank - 1)];
}

bool Samples::Supports(double q) const {
  return static_cast<double>(v_.size()) * (1.0 - q) >= 10.0;
}

bool Checks::Record(const std::string& kind, bool ok,
                    const std::string& detail) {
  ++attempted_;
  auto& k = per_kind_[kind];
  ++k.first;
  if (!ok) {
    ++failed_;
    ++k.second;
    if (details_printed_++ < 20) {
      std::fprintf(stderr, "check failed: %s %s\n", kind.c_str(),
                   detail.c_str());
    }
  }
  return ok;
}

void Checks::Merge(const Checks& o) {
  attempted_ += o.attempted_;
  failed_ += o.failed_;
  for (const auto& [kind, af] : o.per_kind_) {
    per_kind_[kind].first += af.first;
    per_kind_[kind].second += af.second;
  }
}

void Checks::Print() const {
  for (const auto& [kind, af] : per_kind_) {
    std::fprintf(stderr, "  %-28s attempted %8llu  failed %llu\n",
                 kind.c_str(), static_cast<unsigned long long>(af.first),
                 static_cast<unsigned long long>(af.second));
  }
}

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  m_[name] = {value, unit};
}

std::vector<std::string> Report::Names() const {
  std::vector<std::string> names;
  for (const auto& entry : m_) names.push_back(entry.first);
  return names;
}

std::string Report::Json(const Checks& checks) const {
  std::ostringstream out;
  out.precision(17);
  out << "{\"correct\": " << (checks.failed() == 0 ? "true" : "false")
      << ", \"attempted\": " << checks.attempted()
      << ", \"failed\": " << checks.failed() << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : m_) {
    if (!first) out << ", ";
    first = false;
    const double v = std::isfinite(vu.first) ? vu.first : 0.0;
    out << "\"" << name << "\": {\"value\": " << v << ", \"unit\": \""
        << vu.second << "\"}";
  }
  out << "}}";
  return out.str();
}

void ReportLatency(const std::string& prefix, const Samples& s,
                   Report* report) {
  report->Set(prefix + "_p50_ms", s.Quantile(0.5), "ms");
  if (s.Supports(0.9)) {
    std::fprintf(stderr, "  %-6s n=%-8zu p50 %.4f ms  p90 %.4f ms\n",
                 prefix.c_str(), s.size(), s.Quantile(0.5), s.Quantile(0.9));
  } else {
    std::fprintf(stderr, "  %-6s n=%-8zu p50 %.4f ms  (p90: too few samples)\n",
                 prefix.c_str(), s.size(), s.Quantile(0.5));
  }
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux.
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

TrajectoryStore MakeAircraft(size_t flights, double sample_dt, uint64_t seed) {
  auto p = hermes::datagen::AircraftScenarioParams::Default();
  p.num_flights = flights;
  p.sample_dt = sample_dt;
  p.seed = seed;
  return std::move(hermes::datagen::GenerateAircraftScenario(p)->store);
}

TrajectoryStore MakeMaritime(size_t ships, double sample_dt, uint64_t seed) {
  hermes::datagen::MaritimeScenarioParams p;
  p.num_ships = ships;
  p.sample_dt = sample_dt;
  p.seed = seed;
  return std::move(hermes::datagen::GenerateMaritimeScenario(p)->store);
}

TrajectoryStore MakeUrban(size_t vehicles, double sample_dt, uint64_t seed) {
  hermes::datagen::UrbanScenarioParams p;
  p.num_vehicles = vehicles;
  p.sample_dt = sample_dt;
  p.seed = seed;
  return std::move(hermes::datagen::GenerateUrbanScenario(p)->store);
}

TrajectoryStore TakePoints(const TrajectoryStore& store, size_t points) {
  TrajectoryStore out;
  size_t total = 0;
  for (size_t i = 0; i < store.NumTrajectories(); ++i) {
    const auto& t = store.Get(i);
    if (total + t.size() > points) break;
    total += t.size();
    (void)out.Add(t);
  }
  return out;
}

std::vector<double> QutTreeParams(double tau, double epsilon, double gamma) {
  return {tau, tau / 4, tau / 4, epsilon, gamma};
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string QutSql(const std::string& mod, double wi, double we,
                   const std::vector<double>& p) {
  return "SELECT QUT(" + mod + ", " + Num(wi) + ", " + Num(we) + ", " +
         Num(p[0]) + ", " + Num(p[1]) + ", " + Num(p[2]) + ", " + Num(p[3]) +
         ", " + Num(p[4]) + ");";
}

std::string RangeSql(const std::string& mod, double wi, double we) {
  return "SELECT RANGE(" + mod + ", " + Num(wi) + ", " + Num(we) + ");";
}

std::pair<double, double> CentredWindow(const TrajectoryStore& store,
                                        double fraction) {
  const auto [t0, t1] = store.TimeDomain();
  const double mid = 0.5 * (t0 + t1);
  const double half = 0.5 * fraction * (t1 - t0);
  return {mid - half, mid + half};
}

std::vector<std::pair<double, double>> PickQutWindows(
    const TrajectoryStore& store, double fraction, size_t count,
    const std::function<size_t(double, double)>& clusters) {
  const auto [t0, t1] = store.TimeDomain();
  struct Candidate {
    std::pair<double, double> window;
    size_t clusters;
  };
  std::vector<Candidate> candidates;
  for (double c : {0.5, 0.4, 0.6, 0.3, 0.7, 0.2, 0.8}) {
    const double lo = t0 + (t1 - t0) * (c - 0.5 * fraction);
    const double hi = lo + fraction * (t1 - t0);
    if (lo < t0 || hi > t1) continue;
    candidates.push_back({{lo, hi}, clusters(lo, hi)});
  }
  if (candidates.empty()) candidates.push_back({{t0, t1}, 0});
  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const Candidate& a, const Candidate& b) {
                     return a.clusters > b.clusters;
                   });
  std::vector<std::pair<double, double>> out;
  for (size_t i = 0; i < candidates.size() && i < count; ++i) {
    out.push_back(candidates[i].window);
  }
  return out;
}

std::pair<int64_t, int64_t> BruteForceRange(const TrajectoryStore& store,
                                            double wi, double we) {
  int64_t rows = 0;
  int64_t points = 0;
  for (size_t i = 0; i < store.NumTrajectories(); ++i) {
    const auto& samples = store.Get(i).samples();
    if (samples.empty()) continue;
    const double start = samples.front().t;
    const double end = samples.back().t;
    if (we < start || wi > end) continue;
    const double lo = std::max(wi, start);
    const double hi = std::min(we, end);
    int64_t n = 1;  // Interpolated entry sample.
    for (const auto& s : samples) n += (s.t > lo && s.t < hi) ? 1 : 0;
    if (hi > lo) ++n;  // Interpolated exit sample.
    if (n >= 2) {
      ++rows;
      points += n;
    }
  }
  return {rows, points};
}

bool RangeMatches(const hermes::StatusOr<Table>& t,
                  const std::pair<int64_t, int64_t>& expected) {
  if (!t.ok() || static_cast<int64_t>(t->rows.size()) != expected.first) {
    return false;
  }
  int64_t points = 0;
  for (const auto& row : t->rows) {
    if (row.size() == 2 && row[1].type() == ValueType::kInt) {
      points += row[1].AsInt();
    }
  }
  return points == expected.second;
}

size_t QutClusterRows(const Table& t) {
  size_t n = 0;
  for (const auto& row : t.rows) {
    if (!row.empty() && row[0].type() == ValueType::kInt) ++n;
  }
  return n;
}

uint64_t TableHash(const Table& t) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](const std::string& s) {
    for (unsigned char c : s) {
      h ^= c;
      h *= 1099511628211ull;
    }
    h ^= 0xff;
    h *= 1099511628211ull;
  };
  for (const auto& c : t.columns) mix(c.name);
  for (const auto& row : t.rows) {
    for (const auto& v : row) {
      char buf[64];
      if (v.type() == ValueType::kDouble) {
        std::snprintf(buf, sizeof(buf), "%.17g", v.AsDouble());
        mix(buf);
      } else {
        mix(v.ToString());
      }
    }
  }
  return h;
}

hermes::StatusOr<std::unique_ptr<hermes::storage::RandomRWFile>>
CountingEnv::NewRWFile(const std::string& fname) {
  {
    hermes::common::MutexLock lock(&mu_);
    names_.insert(fname);
  }
  return inner_->NewRWFile(fname);
}

hermes::Status CountingEnv::RenameFile(const std::string& src,
                                       const std::string& dst) {
  {
    hermes::common::MutexLock lock(&mu_);
    names_.insert(dst);
  }
  return inner_->RenameFile(src, dst);
}

uint64_t CountingEnv::BytesUnder(const std::string& prefix) {
  std::vector<std::string> names;
  {
    hermes::common::MutexLock lock(&mu_);
    for (const auto& n : names_) {
      if (n.rfind(prefix, 0) == 0) names.push_back(n);
    }
  }
  uint64_t total = 0;
  for (const auto& n : names) {
    if (!inner_->FileExists(n)) continue;
    auto f = inner_->NewRWFile(n);
    if (!f.ok()) continue;
    auto size = (*f)->Size();
    if (size.ok()) total += *size;
  }
  return total;
}

}  // namespace perfbench
