#include "trace.h"

#include <cstdio>
#include <filesystem>

namespace perfbench {

Tracer::Scope::Scope(Tracer* t, const char* name, uint64_t stmt)
    : t_(t), start_ns_(NowNs()) {
  if (t_ == nullptr || !t_->enabled_) return;
  index_ = static_cast<int32_t>(t_->spans_.size());
  t_->spans_.push_back({name, start_ns_, 0, t_->open_, stmt});
  t_->open_ = index_;
}

Tracer::Scope::~Scope() {
  if (index_ < 0) return;
  Span& s = t_->spans_[static_cast<size_t>(index_)];
  s.end_ns = NowNs();
  t_->open_ = s.parent;
}

std::map<std::string, SpanTotals> Aggregate(
    const std::vector<const Tracer*>& tracers) {
  std::map<std::string, SpanTotals> out;
  for (const Tracer* t : tracers) {
    for (const Span& s : t->spans()) {
      SpanTotals& o = out[s.name];
      ++o.count;
      o.total_ms += (s.end_ns - s.start_ns) / 1e6;
    }
  }
  return out;
}

void WriteSpans(const std::string& path,
                const std::vector<const Tracer*>& tracers) {
  std::error_code ec;
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path(), ec);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write span file %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "thread\tname\tstart_ns\tend_ns\tparent\tstmt\n");
  for (size_t th = 0; th < tracers.size(); ++th) {
    for (const Span& s : tracers[th]->spans()) {
      std::fprintf(f, "%zu\t%s\t%lld\t%lld\t%d\t%llu\n", th, s.name,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns), s.parent,
                   static_cast<unsigned long long>(s.stmt));
    }
  }
  std::fclose(f);
}

}  // namespace perfbench
