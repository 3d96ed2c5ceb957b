// fl_bench: the end-to-end federated-learning round benchmark.
//
//   fl_bench --workload NAME --seed N --seconds S --trace 0|1
//            [--out-dir DIR] [--commit ID] [--selftest pass|fail]
//
// 0. Warm-up: one whole untraced run at the hardware pool size. It is
//    checked like every run, and its median round is the untraced
//    reference for tracing.overhead_frac, but no end-to-end metric reads
//    it.
// 1. Untraced: whole training runs of the workload through the real
//    FederatedTrainer::Run(), back to back on a pool of
//    kMeasurePoolThreads, until S seconds have passed and at least 200
//    rounds were timed. Data generation, construction and Setup() are
//    timed as set-up; round boundaries come from a pass-through
//    aggregator decorator.
// 2. Extra set-up samples (the same set-up followed by one round) after
//    each run and at the end, until set-up has been timed kSetupSamples
//    times.
// 3. Traced replay at pool size 1 and at the hardware pool size.
// 4. Correctness checks; every failed check counts the rounds it covers
//    as failed.
//
// The last stdout line is the result: {"correct", "attempted", "failed",
// "metrics"} with the end-to-end metrics for --trace 0 and the per-layer
// metrics for --trace 1. The full result (environment, both metric sets,
// layer shares of round time) goes to DIR/results/, the spans to
// DIR/traces/.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/simd.h"
#include "common/thread_pool.h"
#include "data/synthetic.h"
#include "fl/trainer.h"
#include "replay.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

namespace dpbr {
namespace perfbench {
namespace {

constexpr double kP95 = 0.95;
// Set-up is timed at least this many times per run; the median is
// reported.
constexpr size_t kSetupSamples = 15;
constexpr size_t kSetupSamplesPerRun = 4;
// Throughput is measured over blocks of this many consecutive rounds of
// one trainer (every block holds the same share of evaluation and
// checkpoint rounds); the median block rate is reported, which a burst of
// load from outside the process moves less than a whole-run average.
constexpr size_t kBlockRounds = 50;
// The measured loop stops adding runs after this long even when fewer
// than 200 rounds were timed, so the process ends within its limit.
constexpr double kMaxMeasureSeconds = 90.0;
// Threads of the pool the end-to-end metrics are measured on (fewer on a
// smaller machine). Every ParallelFor waits for its slowest chunk, so a
// pool as wide as a shared host lets any stall of one core stretch the
// whole round; two threads leave the other cores to absorb outside load.
constexpr size_t kMeasurePoolThreads = 2;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string out_dir = ".bench_build/perfbench";
  std::string commit = "unknown";
  bool selftest_passed = true;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    if (i + 1 >= argc) return false;
    std::string val = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      a->workload = val;
    } else if (key == "--seed") {
      a->seed = std::strtoull(val.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      a->seconds = std::strtod(val.c_str(), &end);
      if (*end != '\0' || !(a->seconds > 0.0)) return false;
    } else if (key == "--trace") {
      if (val != "0" && val != "1") return false;
      a->trace = val == "1";
    } else if (key == "--out-dir") {
      a->out_dir = val;
    } else if (key == "--commit") {
      a->commit = val;
    } else if (key == "--selftest") {
      if (val != "pass" && val != "fail") return false;
      a->selftest_passed = val == "pass";
    } else {
      return false;
    }
  }
  return !a->workload.empty();
}

double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

// One untraced training run (two trainers for interrupt-and-resume
// workloads) and what it measured.
struct Cycle {
  Status status;
  bool complete = false;
  int total_rounds = 0;
  std::vector<float> final_params;
  double final_accuracy = 0.0;
  double epsilon_spent = 0.0;
  int64_t setup_ns = 0;
  int64_t cpu_ns = 0;  // process CPU over Run() after Setup()
  int rounds = 0;
  std::vector<double> round_ms;
  std::vector<double> block_rounds_per_s;
  SelectionTally selection;
};

// One instrumented trainer. The trainer is declared last so it is
// destroyed before the marker and the log its decorators point at.
struct TrainerRun {
  std::unique_ptr<SetupMarker> marker;
  RoundLog log;
  std::unique_ptr<fl::FederatedTrainer> trainer;
};

// Runs one trainer over `bundle` and appends what it measured to `c`; its
// set-up counts when `count_setup` is set, timed from `t0`.
Result<fl::TrainingHistory> RunTrainer(const Workload& w,
                                       const data::DatasetBundle& bundle,
                                       const fl::TrainerOptions& opts,
                                       int64_t t0, bool count_setup,
                                       Cycle* c, TrainerRun* run) {
  DPBR_ASSIGN_OR_RETURN(fl::AttackPtr attack, AttackFor(w));
  run->marker =
      std::make_unique<SetupMarker>(SetupModelBuilds(w, attack.get()));
  auto agg = std::make_unique<RoundClockAggregator>(
      MakeDpbr(), static_cast<size_t>(w.options.num_byzantine), &run->log);
  run->trainer = std::make_unique<fl::FederatedTrainer>(
      &bundle, MarkSetupEnd(ModelFactoryFor(w), run->marker.get()),
      std::move(agg), std::move(attack), opts);
  Result<fl::TrainingHistory> h = run->trainer->Run();
  int64_t cpu_end = ProcessCpuNs();
  const SetupMarker& marker = *run->marker;
  if (!marker.seen()) {
    return h.ok() ? Status::Internal("setup end never observed") : h.status();
  }
  if (count_setup) c->setup_ns += marker.wall_ns - t0;
  c->cpu_ns += cpu_end - marker.cpu_ns;
  const std::vector<int64_t>& marks = run->log.marks_ns;
  int64_t prev = marker.wall_ns;
  for (int64_t m : marks) {
    c->round_ms.push_back(static_cast<double>(m - prev) * 1e-6);
    prev = m;
  }
  for (size_t end = kBlockRounds; end <= marks.size(); end += kBlockRounds) {
    int64_t begin_ns = end == kBlockRounds ? marker.wall_ns
                                           : marks[end - kBlockRounds - 1];
    c->block_rounds_per_s.push_back(static_cast<double>(kBlockRounds) /
                                    Seconds(marks[end - 1] - begin_ns));
  }
  c->selection.selected += run->log.selection.selected;
  c->selection.byzantine += run->log.selection.byzantine;
  return h;
}

// One untraced run. `setup_only` stops after the first round and is used
// for the extra set-up samples.
Cycle RunCycle(const Workload& w, const DerivedSeeds& seeds,
               const std::string& checkpoint_dir, bool setup_only) {
  Cycle c;
  int64_t t0 = NowNs();
  Result<data::DatasetBundle> bundle =
      data::GenerateSynthetic(w.spec, seeds.data);
  if (!bundle.ok()) {
    c.status = bundle.status();
    return c;
  }
  fl::TrainerOptions opts = w.options;
  opts.seed = seeds.trainer;
  const bool resume = w.interrupt_after_round > 0 && !setup_only;
  if (setup_only) {
    opts.stop_after_round = 1;
  } else if (resume) {
    std::error_code ec;
    std::filesystem::remove_all(checkpoint_dir, ec);
    opts.checkpoint_dir = checkpoint_dir;
    opts.stop_after_round = w.interrupt_after_round;
  }
  TrainerRun first;
  Result<fl::TrainingHistory> h =
      RunTrainer(w, bundle.value(), opts, t0, true, &c, &first);
  TrainerRun second;
  const TrainerRun* last = &first;
  if (h.ok() && resume) {
    if (!h.value().interrupted ||
        h.value().completed_rounds != w.interrupt_after_round) {
      c.status = Status::Internal("interrupted run did not stop on cue");
      return c;
    }
    // A second trainer resumes from the checkpoint directory.
    opts.stop_after_round = -1;
    h = RunTrainer(w, bundle.value(), opts, NowNs(), false, &c, &second);
    last = &second;
  }
  if (!h.ok()) {
    c.status = h.status();
    return c;
  }
  const fl::TrainingHistory& hist = h.value();
  fl::FederatedTrainer* trainer = last->trainer.get();
  c.total_rounds = trainer->total_rounds();
  c.rounds = hist.completed_rounds;
  c.complete = !hist.interrupted && hist.completed_rounds == c.total_rounds;
  c.final_params = trainer->server()->params();
  c.final_accuracy = hist.final_accuracy;
  Result<double> eps = trainer->spent_ledger().CurrentEpsilon();
  c.status = eps.status();
  if (eps.ok()) c.epsilon_spent = eps.value();
  return c;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

struct Metric {
  double value;
  std::string unit;
};

std::string MetricsJson(const std::map<std::string, Metric>& metrics) {
  std::ostringstream os;
  os << "{";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    os << (first ? "" : ", ") << JsonString(name) << ": {\"value\": "
       << JsonNumber(m.value) << ", \"unit\": " << JsonString(m.unit) << "}";
    first = false;
  }
  os << "}";
  return os.str();
}

std::string NumberMapJson(const std::map<std::string, double>& values) {
  std::ostringstream os;
  os << "{";
  bool first = true;
  for (const auto& [name, v] : values) {
    os << (first ? "" : ", ") << JsonString(name) << ": " << JsonNumber(v);
    first = false;
  }
  os << "}";
  return os.str();
}

std::string UnitOf(const std::string& name) {
  auto ends = [&](const char* suffix) {
    size_t n = std::strlen(suffix);
    return name.size() >= n && name.compare(name.size() - n, n, suffix) == 0;
  };
  if (ends("_ms")) return "ms";
  if (ends(".bytes")) return "bytes";
  if (ends("_frac") || ends("_efficiency")) return "ratio";
  return "count";
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: fl_bench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--out-dir DIR] [--commit ID] "
                 "[--selftest pass|fail]\n");
    return 2;
  }
  const Workload* w = FindWorkload(args.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "fl_bench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  const DerivedSeeds seeds = DeriveSeeds(args.seed);
  const int64_t t_start = NowNs();
  namespace fs = std::filesystem;
  const std::string run_dir = args.out_dir + "/run-" + w->name + "-" +
                              std::to_string(static_cast<long>(getpid()));
  std::error_code ec;
  fs::create_directories(run_dir, ec);
  fs::create_directories(args.out_dir + "/results", ec);
  fs::create_directories(args.out_dir + "/traces", ec);
  if (ec) {
    std::fprintf(stderr, "fl_bench: cannot create %s\n", run_dir.c_str());
    return 2;
  }

  // 0. Warm-up run at the hardware pool size; cycles[0].
  std::vector<Cycle> cycles;
  cycles.push_back(RunCycle(*w, seeds, run_dir + "/ckpt", false));
  const double untraced_hw_round_ms = Median(cycles.front().round_ms);
  // Peak memory of one whole training run; later runs in the same
  // process only add allocator fragmentation.
  const double peak_rss_mb = PeakRssMb();
  if (!cycles.front().status.ok()) {
    std::fprintf(stderr, "fl_bench: run failed: %s\n",
                 cycles.front().status.ToString().c_str());
  }

  // 1. Untraced runs, back to back; cycles[1..].
  const int64_t t_measure = NowNs();
  const size_t min_rounds = MinSamplesForPercentile(kP95);
  std::vector<double> round_ms;
  std::vector<double> block_rates;
  std::vector<double> setup_s;
  ThreadPool measure_pool(
      std::min(kMeasurePoolThreads, ThreadPool::Global().num_threads()));
  auto measure_scope = std::make_unique<ScopedPoolOverride>(&measure_pool);
  while (cycles.front().status.ok()) {
    cycles.push_back(RunCycle(*w, seeds, run_dir + "/ckpt", false));
    const Cycle& c = cycles.back();
    if (!c.status.ok()) {
      std::fprintf(stderr, "fl_bench: run failed: %s\n",
                   c.status.ToString().c_str());
      break;
    }
    round_ms.insert(round_ms.end(), c.round_ms.begin(), c.round_ms.end());
    block_rates.insert(block_rates.end(), c.block_rounds_per_s.begin(),
                       c.block_rounds_per_s.end());
    setup_s.push_back(Seconds(c.setup_ns));
    // Extra set-up samples between runs spread them over the whole
    // measurement instead of one burst after it.
    for (size_t k = 0; k < kSetupSamplesPerRun; ++k) {
      Cycle s = RunCycle(*w, seeds, "", true);
      if (!s.status.ok()) break;
      setup_s.push_back(Seconds(s.setup_ns));
    }
    double elapsed = Seconds(NowNs() - t_measure);
    if (elapsed >= kMaxMeasureSeconds) break;
    if (elapsed >= args.seconds && round_ms.size() >= min_rounds) break;
  }

  // 2. Extra set-up samples.
  while (setup_s.size() < kSetupSamples && cycles.front().status.ok()) {
    Cycle c = RunCycle(*w, seeds, "", true);
    if (!c.status.ok()) break;
    setup_s.push_back(Seconds(c.setup_ns));
  }
  measure_scope.reset();

  // 3. Traced replays.
  const int64_t t_replay = NowNs();
  ThreadPool pool1(1);
  Result<ReplayOutput> replay1 = Status::Internal("not run");
  Result<ReplayOutput> replay_hw = Status::Internal("not run");
  {
    ScopedPoolOverride o(&pool1);
    replay1 = RunTracedReplay(*w, seeds, run_dir + "/replay1");
  }
  const int64_t t_replay_hw = NowNs();
  {
    ScopedPoolOverride o(&ThreadPool::Global());
    replay_hw = RunTracedReplay(*w, seeds, run_dir + "/replayhw");
  }
  const int64_t t_replay_end = NowNs();
  fs::remove_all(run_dir, ec);

  // 4. Checks.
  std::vector<std::string> problems;
  int64_t attempted = 0;
  int64_t failed = 0;
  const ReplayOutput* r1 = replay1.ok() ? &replay1.value() : nullptr;
  const ReplayOutput* rhw = replay_hw.ok() ? &replay_hw.value() : nullptr;
  if (r1 == nullptr) {
    problems.push_back("replay pool1: " + replay1.status().ToString());
  }
  if (rhw == nullptr) {
    problems.push_back("replay poolhw: " + replay_hw.status().ToString());
  }
  for (const ReplayOutput* r : {r1, rhw}) {
    if (r == nullptr) continue;
    if (!r->side_calls_consistent) problems.push_back(r->inconsistency);
    if (!(r->epsilon_spent <= r->epsilon_configured)) {
      problems.push_back("replay spent more privacy than configured");
    }
  }
  if (!args.selftest_passed) {
    problems.push_back("fl_bench_selftest failed (see its output)");
  }
  const bool replays_ok = problems.empty();
  for (size_t i = 0; i < cycles.size(); ++i) {
    const Cycle& c = cycles[i];
    const int rounds = r1 != nullptr ? r1->total_rounds : c.total_rounds;
    attempted += std::max(rounds, 1);
    std::string why;
    if (!c.status.ok()) {
      why = c.status.ToString();
    } else if (!c.complete) {
      why = "Run() did not complete every round";
    } else if (!(c.epsilon_spent <= w->options.epsilon)) {
      why = "spent epsilon " + JsonNumber(c.epsilon_spent) +
            " exceeds the configured " + JsonNumber(w->options.epsilon);
    } else if (r1 != nullptr &&
               !BitwiseEqual(c.final_params, r1->final_params)) {
      why = w->interrupt_after_round > 0
                ? "resumed run differs from the uninterrupted replay (pool1)"
                : "Run() differs from the traced replay at pool1";
    } else if (rhw != nullptr &&
               !BitwiseEqual(c.final_params, rhw->final_params)) {
      why = w->interrupt_after_round > 0
                ? "resumed run differs from the uninterrupted replay (hw)"
                : "Run() differs from the traced replay at the hw pool";
    } else if (!replays_ok) {
      why = "replay or self-test checks failed";
    }
    if (!why.empty()) {
      failed += std::max(rounds, 1);
      problems.push_back("run " + std::to_string(i + 1) + ": " + why);
    }
  }
  for (const std::string& p : problems) {
    std::fprintf(stderr, "fl_bench: CHECK FAILED: %s\n", p.c_str());
  }
  const bool correct = problems.empty() && failed == 0;

  // 5. Metrics.
  int64_t rounds = 0, cpu_ns = 0;
  SelectionTally sel;
  for (size_t i = 1; i < cycles.size(); ++i) {
    const Cycle& c = cycles[i];
    rounds += c.rounds;
    cpu_ns += c.cpu_ns;
    sel.selected += c.selection.selected;
    sel.byzantine += c.selection.byzantine;
  }
  std::map<std::string, Metric> e2e;
  e2e["setup_s"] = {Median(setup_s), "s"};
  e2e["rounds_per_s"] = {Median(block_rates), "1/s"};
  e2e["round_ms_p50"] = {Median(round_ms), "ms"};
  e2e["cpu_ms_per_round"] = {
      rounds > 0 ? static_cast<double>(cpu_ns) * 1e-6 / rounds : 0.0, "ms"};
  e2e["peak_rss_mb"] = {peak_rss_mb, "MiB"};
  e2e["final_accuracy"] = {cycles.front().final_accuracy, "ratio"};

  // Untraced figures too unsteady across seeds for a bound: the p95 round
  // (set by checkpoint fsyncs and pool wake-ups) and the defense outcome.
  std::map<std::string, Metric> layer;
  layer["trainer.round_ms_p95"] = {NearestRankPercentile(round_ms, kP95),
                                   "ms"};
  layer["byz_selected_frac"] = {
      sel.selected > 0 ? static_cast<double>(sel.byzantine) /
                             static_cast<double>(sel.selected)
                       : 0.0,
      "ratio"};
  std::map<std::string, double> shares;
  if (r1 != nullptr && rhw != nullptr) {
    for (const auto& [suffix, r] :
         {std::make_pair(".pool1", r1), std::make_pair(".poolhw", rhw)}) {
      for (const auto& [name, v] : r->layer) {
        layer[name + suffix] = {v, UnitOf(name)};
      }
      // Workers run their nn inline (nested dispatches do not fan out),
      // so the serial nn time is what a worker step pays.
      layer[std::string("worker.self_ms") + suffix] = {
          r->layer.at("worker.step_ms") - r1->layer.at("nn.fwd_bwd_ms"),
          "ms"};
    }
    // Median traced round over median untraced (warm-up) round, both at
    // the hardware pool size.
    layer["tracing.overhead_frac"] = {
        untraced_hw_round_ms > 0
            ? rhw->round_ms_median / untraced_hw_round_ms
            : 0.0,
        "ratio"};
    shares = rhw->shares;
    WriteTraceJson(args.out_dir + "/traces/" + w->name + ".pool1.json",
                   r1->spans);
    WriteTraceJson(args.out_dir + "/traces/" + w->name + ".poolhw.json",
                   rhw->spans);
  }

  std::ostringstream env;
  env << "{\"workload\": " << JsonString(w->name)
      << ", \"seed\": " << args.seed
      << ", \"data_seed\": " << seeds.data
      << ", \"trainer_seed\": " << seeds.trainer
      << ", \"cpu_model\": " << JsonString(CpuModel())
      << ", \"nproc\": " << std::thread::hardware_concurrency()
      << ", \"pool_size\": " << measure_pool.num_threads()
      << ", \"pool_hw\": " << ThreadPool::Global().num_threads()
      << ", \"isa\": " << JsonString(simd::IsaName(simd::ActiveIsa()))
      << ", \"build_type\": " << JsonString(PERFBENCH_BUILD_TYPE)
      << ", \"commit\": " << JsonString(args.commit)
      << ", \"runs\": " << cycles.size() - 1
      << ", \"round_samples\": " << round_ms.size()
      << ", \"round_blocks\": " << block_rates.size()
      << ", \"setup_samples\": " << setup_s.size()
      << ", \"p95_samples_beyond\": " << SamplesBeyond(round_ms.size(), kP95)
      << ", \"warmup_s\": " << JsonNumber(Seconds(t_measure - t_start))
      << ", \"measure_s\": " << JsonNumber(Seconds(t_replay - t_measure))
      << ", \"replay_pool1_s\": " << JsonNumber(Seconds(t_replay_hw - t_replay))
      << ", \"replay_poolhw_s\": "
      << JsonNumber(Seconds(t_replay_end - t_replay_hw))
      << ", \"wall_s\": " << JsonNumber(Seconds(NowNs() - t_start)) << "}";

  std::ostringstream full;
  full << "{\"env\": " << env.str() << ",\n \"correct\": "
       << (correct ? "true" : "false") << ", \"attempted\": " << attempted
       << ", \"failed\": " << failed << ",\n \"problems\": [";
  for (size_t i = 0; i < problems.size(); ++i) {
    full << (i ? ", " : "") << JsonString(problems[i]);
  }
  full << "],\n \"end_to_end\": " << MetricsJson(e2e)
       << ",\n \"per_layer\": " << MetricsJson(layer)
       << ",\n \"round_share_poolhw\": " << NumberMapJson(shares) << "}\n";
  std::string results_path = args.out_dir + "/results/" + w->name +
                             "-seed" + std::to_string(args.seed) + "-trace" +
                             std::to_string(args.trace) + ".json";
  std::ofstream(results_path) << full.str();

  std::printf("%s\n", env.str().c_str());
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed),
              MetricsJson(args.trace ? layer : e2e).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench
}  // namespace dpbr

int main(int argc, char** argv) { return dpbr::perfbench::Main(argc, argv); }
