// In-memory span recorder for the traced replay, plus the steady clock and
// process-CPU readers every timing in the benchmark goes through.
//
// A span is one timed call at a layer boundary: name, start, end, the span
// that caused it (its parent) and the round it belongs to (the shared
// identifier of one round's spans). Spans stay in memory while the replay
// runs and are written out once it ends.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace dpbr {
namespace perfbench {

/// Steady-clock nanoseconds (monotonic; the only wall clock rates use).
int64_t NowNs();

/// User + system CPU of the whole process (every thread), nanoseconds.
int64_t ProcessCpuNs();

/// Peak resident set size of the process so far, MiB.
double PeakRssMb();

inline constexpr int kNoParent = -1;

struct Span {
  int id = 0;
  int parent = kNoParent;
  int round = 0;  ///< 0 for spans outside any round (setup, side calls)
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  /// Thread-pool dispatches (ParallelDispatchCount() delta) inside the
  /// span; 0 for spans recorded through Tracer::Add.
  uint64_t dispatches = 0;
  int64_t duration_ns() const { return end_ns - start_ns; }
};

class Tracer {
 public:
  /// Opens a span starting now; returns its id. Single-threaded: spans
  /// timed on pool threads are recorded afterwards through Add().
  int Begin(const char* name, int parent, int round);
  /// Closes span `id` now and records the pool dispatches it contained.
  void End(int id);
  /// Records an already timed span; returns its id.
  int Add(const char* name, int parent, int round, int64_t start_ns,
          int64_t end_ns);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// Opens a span on construction and closes it on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int parent, int round)
      : tracer_(tracer), id_(tracer->Begin(name, parent, round)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  Tracer* tracer_;
  int id_;
};

/// Length of [lo, hi) covered by the union of `intervals` (each clipped to
/// [lo, hi)); overlapping intervals count once.
int64_t CoveredLength(std::vector<std::pair<int64_t, int64_t>> intervals,
                      int64_t lo, int64_t hi);

/// Self time of every span (indexed like `spans`): its duration minus the
/// part of it that its direct children cover. Children that ran in
/// parallel on several threads overlap; their union is subtracted once.
std::vector<int64_t> SelfTimes(const std::vector<Span>& spans);

struct SpanSummary {
  int64_t count = 0;
  int64_t total_ns = 0;
  int64_t self_ns = 0;
};

/// Count, total and self time per span name.
std::map<std::string, SpanSummary> SummarizeByName(
    const std::vector<Span>& spans);

/// Writes the spans (with self times) and the per-name summary as one
/// JSON document. Returns false when the file cannot be written.
bool WriteTraceJson(const std::string& path, const std::vector<Span>& spans);

}  // namespace perfbench
}  // namespace dpbr

#endif  // PERFBENCH_TRACE_H_
