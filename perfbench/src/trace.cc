#include "trace.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "common/thread_pool.h"

namespace dpbr {
namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t ProcessCpuNs() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto ns = [](const timeval& tv) {
    return static_cast<int64_t>(tv.tv_sec) * 1000000000 +
           static_cast<int64_t>(tv.tv_usec) * 1000;
  };
  return ns(ru.ru_utime) + ns(ru.ru_stime);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int Tracer::Begin(const char* name, int parent, int round) {
  int id = Add(name, parent, round, NowNs(), 0);
  // Dispatch count at the start, replaced by the delta in End().
  spans_.back().dispatches = ParallelDispatchCount();
  return id;
}

void Tracer::End(int id) {
  Span& s = spans_[static_cast<size_t>(id)];
  s.end_ns = NowNs();
  s.dispatches = ParallelDispatchCount() - s.dispatches;
}

int Tracer::Add(const char* name, int parent, int round, int64_t start_ns,
                int64_t end_ns) {
  Span s;
  s.id = static_cast<int>(spans_.size());
  s.parent = parent;
  s.round = round;
  s.name = name;
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  spans_.push_back(s);
  return s.id;
}

int64_t CoveredLength(std::vector<std::pair<int64_t, int64_t>> intervals,
                      int64_t lo, int64_t hi) {
  for (auto& iv : intervals) {
    iv.first = std::max(iv.first, lo);
    iv.second = std::min(iv.second, hi);
  }
  std::sort(intervals.begin(), intervals.end());
  int64_t covered = 0;
  int64_t run_lo = 0, run_hi = 0;
  bool open = false;
  for (const auto& [a, b] : intervals) {
    if (b <= a) continue;
    if (open && a <= run_hi) {
      run_hi = std::max(run_hi, b);
      continue;
    }
    if (open) covered += run_hi - run_lo;
    run_lo = a;
    run_hi = b;
    open = true;
  }
  if (open) covered += run_hi - run_lo;
  return covered;
}

std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent != kNoParent) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.start_ns,
                                                           s.end_ns);
    }
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].duration_ns() -
              CoveredLength(std::move(children[i]), spans[i].start_ns,
                            spans[i].end_ns);
  }
  return self;
}

std::map<std::string, SpanSummary> SummarizeByName(
    const std::vector<Span>& spans) {
  std::vector<int64_t> self = SelfTimes(spans);
  std::map<std::string, SpanSummary> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    SpanSummary& s = out[spans[i].name];
    ++s.count;
    s.total_ns += spans[i].duration_ns();
    s.self_ns += self[i];
  }
  return out;
}

bool WriteTraceJson(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::vector<int64_t> self = SelfTimes(spans);
  int64_t t0 = spans.empty() ? 0 : spans.front().start_ns;
  for (const Span& s : spans) t0 = std::min(t0, s.start_ns);
  std::fprintf(f,
               "{\n\"columns\": [\"id\", \"parent\", \"round\", \"name\", "
               "\"start_ns\", \"end_ns\", \"self_ns\", \"dispatches\"],\n"
               "\"spans\": [\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f, "[%d, %d, %d, \"%s\", %lld, %lld, %lld, %llu]%s\n",
                 s.id, s.parent, s.round, s.name,
                 static_cast<long long>(s.start_ns - t0),
                 static_cast<long long>(s.end_ns - t0),
                 static_cast<long long>(self[i]),
                 static_cast<unsigned long long>(s.dispatches),
                 i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(f, "],\n\"summary\": {\n");
  std::map<std::string, SpanSummary> summary = SummarizeByName(spans);
  size_t k = 0;
  for (const auto& [name, s] : summary) {
    std::fprintf(f,
                 "\"%s\": {\"count\": %lld, \"total_ms\": %.6f, "
                 "\"self_ms\": %.6f}%s\n",
                 name.c_str(), static_cast<long long>(s.count),
                 static_cast<double>(s.total_ns) * 1e-6,
                 static_cast<double>(s.self_ns) * 1e-6,
                 ++k < summary.size() ? "," : "");
  }
  std::fprintf(f, "}\n}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
}  // namespace dpbr
