// Checks of the benchmark's own math and instrumentation:
//   - the p95 sample-count rule and the order statistics;
//   - self time = duration minus the union of the children's intervals;
//   - the Byzantine-selection tally on a hand-built selection;
//   - the decorators pass the trainer through bit for bit, and the traced
//     replay ends on the same parameters as Run().
// Exits 1 when any check fails; run.py runs it before every
// benchmark run.

#include <cmath>
#include <cstdio>
#include <vector>

#include "data/synthetic.h"
#include "fl/trainer.h"
#include "replay.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

namespace dpbr {
namespace perfbench {
namespace {

int g_failures = 0;

#define EXPECT(cond)                                                  \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: expected %s\n", __FILE__, __LINE__, \
                   #cond);                                            \
      ++g_failures;                                                   \
    }                                                                 \
  } while (0)

void TestPercentileRule() {
  EXPECT(SamplesBeyond(200, 0.95) == 10);
  EXPECT(SamplesBeyond(199, 0.95) == 9);
  EXPECT(SamplesBeyond(220, 0.95) == 11);
  EXPECT(PercentileReportable(200, 0.95));
  EXPECT(!PercentileReportable(199, 0.95));
  EXPECT(MinSamplesForPercentile(0.95) == 200);
  EXPECT(MinSamplesForPercentile(0.5) == 20);
  std::vector<double> v;
  for (int i = 200; i >= 1; --i) v.push_back(i);
  EXPECT(NearestRankPercentile(v, 0.95) == 190.0);
  EXPECT(NearestRankPercentile(v, 1.0) == 200.0);
  EXPECT(NearestRankPercentile({7.0}, 0.95) == 7.0);
  EXPECT(Median({3.0, 1.0, 2.0}) == 2.0);
  EXPECT(Median({4.0, 1.0, 3.0, 2.0}) == 2.5);
  EXPECT(Median({}) == 0.0);
}

void TestSelfTime() {
  // Parallel children overlap; one child runs past its parent's end.
  EXPECT(CoveredLength({{10, 30}, {20, 50}, {60, 70}, {90, 120}}, 0, 100) ==
         60);
  EXPECT(CoveredLength({}, 0, 100) == 0);
  EXPECT(CoveredLength({{0, 100}, {10, 20}}, 0, 100) == 100);
  EXPECT(CoveredLength({{40, 30}}, 0, 100) == 0);

  Tracer tr;
  int root = tr.Add("round", kNoParent, 1, 0, 100);
  int phase = tr.Add("worker.phase", root, 1, 10, 60);
  tr.Add("worker.step", phase, 1, 10, 40);
  tr.Add("worker.step", phase, 1, 15, 55);  // overlaps the first step
  tr.Add("server.step", root, 1, 70, 90);
  std::vector<int64_t> self = SelfTimes(tr.spans());
  // Grandchildren count against their own parent only.
  EXPECT(self[0] == 100 - 50 - 20);
  EXPECT(self[1] == 50 - 45);
  EXPECT(self[2] == 30);
  EXPECT(self[3] == 40);
  std::map<std::string, SpanSummary> by_name = SummarizeByName(tr.spans());
  EXPECT(by_name["worker.step"].count == 2);
  EXPECT(by_name["worker.step"].total_ns == 70);
  EXPECT(by_name["round"].self_ns == 30);

  // Round 1: steps of 30 ns and 40 ns; round 2: one 4 ms step.
  tr.Add("worker.step", kNoParent, 2, 0, 4000000);
  EXPECT(std::fabs(PerRoundMedianMs(tr.spans(), "worker.step") -
                   (4.0 + 70e-6) / 2) < 1e-12);
  EXPECT(std::fabs(PerRoundMedianMs(tr.spans(), "worker.step", true) -
                   (4.0 + 35e-6) / 2) < 1e-12);
}

void TestSelectionTally() {
  // 5 cohort rows then 3 Byzantine rows (5, 6, 7).
  SelectionTally t = TallySelection({0, 3, 5, 7}, 8, 3);
  EXPECT(t.selected == 4);
  EXPECT(t.byzantine == 2);
  t = TallySelection({0, 1, 2}, 8, 3);
  EXPECT(t.byzantine == 0);
  t = TallySelection({}, 8, 3);
  EXPECT(t.selected == 0);
  t = TallySelection({0, 1}, 2, 0);
  EXPECT(t.byzantine == 0);
}

Workload TinyWorkload() {
  Workload w;
  w.name = "tiny";
  w.spec.num_classes = 4;
  w.spec.feature_dim = 16;
  w.spec.train_size = 400;
  w.spec.val_size = 40;
  w.spec.test_size = 80;
  w.spec.class_separation = 4.0;
  w.attack = "label_flip";
  w.options.num_honest = 4;
  w.options.num_byzantine = 3;
  w.options.epochs = 2;
  w.options.momentum_reset = fl::MomentumReset::kPersist;
  return w;
}

void TestPassThrough() {
  const Workload w = TinyWorkload();
  const DerivedSeeds seeds = DeriveSeeds(5);
  Result<data::DatasetBundle> bundle =
      data::GenerateSynthetic(w.spec, seeds.data);
  EXPECT(bundle.ok());
  if (!bundle.ok()) return;
  fl::TrainerOptions opts = w.options;
  opts.seed = seeds.trainer;

  Result<fl::AttackPtr> attack = AttackFor(w);
  EXPECT(attack.ok());
  fl::FederatedTrainer plain(&bundle.value(), ModelFactoryFor(w), MakeDpbr(),
                             std::move(attack).value(), opts);
  Result<fl::TrainingHistory> h_plain = plain.Run();
  EXPECT(h_plain.ok());

  Result<fl::AttackPtr> attack2 = AttackFor(w);
  SetupMarker marker(SetupModelBuilds(w, attack2.value().get()));
  RoundLog log;
  fl::FederatedTrainer decorated(
      &bundle.value(), MarkSetupEnd(ModelFactoryFor(w), &marker),
      std::make_unique<RoundClockAggregator>(MakeDpbr(), 3, &log),
      std::move(attack2).value(), opts);
  Result<fl::TrainingHistory> h_dec = decorated.Run();
  EXPECT(h_dec.ok());
  if (!h_plain.ok() || !h_dec.ok()) return;

  EXPECT(BitwiseEqual(plain.server()->params(), decorated.server()->params()));
  EXPECT(h_plain.value().final_accuracy == h_dec.value().final_accuracy);
  EXPECT(marker.seen());
  // 4 honest + 3 poisoned workers + the server: Setup's last build.
  EXPECT(marker.target == 8);
  EXPECT(static_cast<int>(log.marks_ns.size()) == plain.total_rounds());
  EXPECT(log.selection.selected > 0);

  Result<ReplayOutput> replay = RunTracedReplay(w, seeds, "");
  EXPECT(replay.ok());
  if (!replay.ok()) return;
  EXPECT(BitwiseEqual(replay.value().final_params, plain.server()->params()));
  EXPECT(replay.value().side_calls_consistent);
  EXPECT(replay.value().total_rounds == plain.total_rounds());
}

}  // namespace
}  // namespace perfbench
}  // namespace dpbr

int main() {
  using namespace dpbr::perfbench;  // NOLINT
  TestPercentileRule();
  TestSelfTime();
  TestSelectionTally();
  TestPassThrough();
  if (g_failures > 0) {
    std::fprintf(stderr, "fl_bench_selftest: %d check(s) failed\n",
                 g_failures);
    return 1;
  }
  std::printf("fl_bench_selftest: all checks passed\n");
  return 0;
}
