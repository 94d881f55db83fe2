// Span recording for the traced run. Spans are taken in the benchmark's
// own code around calls into each layer's public functions; they are kept
// in memory per thread and written out when the run ends.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

struct Span {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  int32_t parent;  ///< Index of the enclosing span in the same tracer, or -1.
  uint64_t stmt;   ///< Statement id shared by the spans of one statement.
};

/// One thread's span log. `enabled == false` records nothing, so the same
/// call sequence runs with and without tracing and the difference in wall
/// time is the tracing overhead.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// RAII span: opened on construction, closed on destruction.
  class Scope {
   public:
    Scope(Tracer* t, const char* name, uint64_t stmt);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Duration so far (closes nothing); valid with tracing disabled too.
    double ElapsedMs() const { return MsSince(start_ns_); }

   private:
    Tracer* t_;
    int32_t index_ = -1;
    int64_t start_ns_;
  };

  void set_enabled(bool on) { enabled_ = on; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  int32_t open_ = -1;
  std::vector<Span> spans_;
};

/// Writes every tracer's spans as tab-separated lines
/// (thread, name, start_ns, end_ns, parent, stmt) to `path`.
void WriteSpans(const std::string& path,
                const std::vector<const Tracer*>& tracers);

/// Count and total duration of the spans of one name. The per-layer
/// metrics use leaf spans, whose total is their self time; a parent's
/// unattributed time is computed where it is reported.
struct SpanTotals {
  uint64_t count = 0;
  double total_ms = 0;
};

/// Per span name, over every tracer's spans.
std::map<std::string, SpanTotals> Aggregate(
    const std::vector<const Tracer*>& tracers);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
