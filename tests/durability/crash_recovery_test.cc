// Kill-and-resume fault injection for the durable trainer: a run stopped
// at round k and resumed from its checkpoint directory must produce a
// TrainingHistory and final model *bitwise equal* to a never-interrupted
// reference — including when the directory was damaged in between
// (truncated / bit-flipped / torn WAL, corrupt newest checkpoint, all
// checkpoints corrupt), across thread-pool sizes 1 / 2 / hardware.

#include <gtest/gtest.h>

#include <csignal>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "aggregators/mean.h"
#include "attacks/gaussian_attack.h"
#include "common/shutdown.h"
#include "common/thread_pool.h"
#include "core/dpbr_aggregator.h"
#include "data/synthetic.h"
#include "durability/checkpoint.h"
#include "durability/io.h"
#include "fl/round_state.h"
#include "fl/trainer.h"
#include "nn/model_zoo.h"

namespace dpbr {
namespace fl {
namespace {

// 8 workers x |D_i| = 80, batch 8, 1 epoch => T = 10 rounds;
// eval_every_epochs = 0.3 => evals at rounds 3, 6, 9 and the final 10.
data::DatasetBundle SmallBundle() {
  data::SyntheticSpec spec;
  spec.num_classes = 4;
  spec.feature_dim = 16;
  spec.train_size = 640;
  spec.val_size = 80;
  spec.test_size = 200;
  spec.class_separation = 3.5;
  spec.noise_std = 0.6;
  auto b = data::GenerateSynthetic(spec, 7);
  EXPECT_TRUE(b.ok());
  return std::move(b).value();
}

TrainerOptions BaseOptions() {
  TrainerOptions o;
  o.num_honest = 8;
  o.epochs = 1;
  o.batch_size = 8;
  o.epsilon = 2.0;
  o.base_lr = 0.5;
  o.momentum_reset = MomentumReset::kPersist;
  o.seed = 1;
  o.eval_every_epochs = 0.3;
  return o;
}

// The durable benchmark's shape: the default kResetToUpload momentum
// (one stored row per worker) with half the clients sampled per round.
TrainerOptions ResetSubsampledOptions() {
  TrainerOptions o = BaseOptions();
  o.momentum_reset = MomentumReset::kResetToUpload;
  o.client_sampling_rate = 0.5;
  return o;
}

struct RunResult {
  TrainingHistory history;
  std::vector<float> params;
  int64_t rounds_charged = 0;
};

// use_dpbr adds 4 Byzantine workers under a loud Gaussian attack so the
// second stage's cumulative scores actually accumulate across the split.
RunResult RunOnce(const data::DatasetBundle* bundle, TrainerOptions o,
                  bool use_dpbr = false) {
  agg::AggregatorPtr aggregator;
  AttackPtr attack;
  if (use_dpbr) {
    aggregator = std::make_unique<core::DpbrAggregator>();
    attack = std::make_unique<attacks::GaussianAttack>(40.0);
    o.num_byzantine = 4;
  } else {
    aggregator = std::make_unique<agg::MeanAggregator>();
  }
  FederatedTrainer t(bundle, nn::MlpFactory(16, 8, 4), std::move(aggregator),
                     std::move(attack), std::move(o));
  auto h = t.Run();
  EXPECT_TRUE(h.ok()) << h.status().ToString();
  RunResult r;
  if (h.ok()) r.history = std::move(h).value();
  r.params = t.server()->params();
  r.rounds_charged = t.spent_ledger().rounds_charged();
  return r;
}

void ExpectHistoriesBitwiseEqual(const TrainingHistory& a,
                                 const TrainingHistory& b) {
  ASSERT_EQ(a.evals.size(), b.evals.size());
  for (size_t i = 0; i < a.evals.size(); ++i) {
    EXPECT_EQ(a.evals[i].round, b.evals[i].round);
    EXPECT_EQ(a.evals[i].epoch, b.evals[i].epoch);
    EXPECT_EQ(a.evals[i].test_accuracy, b.evals[i].test_accuracy);
  }
  EXPECT_EQ(a.final_accuracy, b.final_accuracy);
  EXPECT_EQ(a.best_accuracy, b.best_accuracy);
  EXPECT_EQ(a.total_rounds, b.total_rounds);
  EXPECT_EQ(a.round_participants, b.round_participants);
  EXPECT_EQ(a.epsilon, b.epsilon);
  EXPECT_EQ(a.sigma, b.sigma);
  EXPECT_EQ(a.learning_rate, b.learning_rate);
  EXPECT_EQ(a.completed_rounds, b.completed_rounds);
  EXPECT_EQ(a.interrupted, b.interrupted);
}

class CrashRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ClearShutdownRequest();
    std::string tmpl = ::testing::TempDir() + "dpbr_crash_XXXXXX";
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    ASSERT_NE(mkdtemp(buf.data()), nullptr);
    base_ = buf.data();
  }

  void TearDown() override {
    ClearShutdownRequest();
    auto dirs = durability::ListDir(base_);
    if (dirs.ok()) {
      for (const auto& d : dirs.value()) {
        std::string sub = base_ + "/" + d;
        auto names = durability::ListDir(sub);
        if (names.ok()) {
          // Best-effort temp-dir sweep; leftovers only leak /tmp space.
          for (const auto& n : names.value()) {
            (void)durability::RemoveFile(sub + "/" + n);
          }
          rmdir(sub.c_str());
        } else {
          (void)durability::RemoveFile(sub);
        }
      }
    }
    rmdir(base_.c_str());
  }

  // Fresh checkpoint directory for one interrupted+resumed sequence.
  std::string NewDir(const std::string& tag) { return base_ + "/" + tag; }

  // Runs to completion-with-interruption at `stop_round`, then resumes in
  // a fresh trainer against the same directory. `damage` (optional) runs
  // between the two, on the populated directory.
  RunResult StopAndResume(const data::DatasetBundle* bundle,
                          const std::string& dir, int stop_round,
                          bool use_dpbr = false,
                          void (*damage)(const std::string&) = nullptr,
                          const TrainerOptions& base = BaseOptions()) {
    TrainerOptions o = base;
    o.checkpoint_dir = dir;
    o.stop_after_round = stop_round;
    RunResult partial = RunOnce(bundle, o, use_dpbr);
    EXPECT_TRUE(partial.history.interrupted);
    EXPECT_EQ(partial.history.completed_rounds, stop_round);
    EXPECT_LT(partial.history.completed_rounds,
              partial.history.total_rounds);
    if (damage != nullptr) damage(dir);
    o.stop_after_round = -1;
    return RunOnce(bundle, o, use_dpbr);
  }

  std::string base_;
};

TEST_F(CrashRecoveryTest, ResumeEqualsUninterruptedAcrossPoolSizes) {
  data::DatasetBundle bundle = SmallBundle();
  RunResult reference = RunOnce(&bundle, BaseOptions());
  ASSERT_FALSE(reference.history.interrupted);
  ASSERT_EQ(reference.history.completed_rounds,
            reference.history.total_rounds);

  {
    ThreadPool pool(1);
    ScopedPoolOverride ov(&pool);
    RunResult resumed = StopAndResume(&bundle, NewDir("pool1"), 4);
    EXPECT_EQ(resumed.params, reference.params);
    ExpectHistoriesBitwiseEqual(resumed.history, reference.history);
  }
  {
    ThreadPool pool(2);
    ScopedPoolOverride ov(&pool);
    RunResult resumed = StopAndResume(&bundle, NewDir("pool2"), 4);
    EXPECT_EQ(resumed.params, reference.params);
    ExpectHistoriesBitwiseEqual(resumed.history, reference.history);
  }
  {
    // Hardware-default pool.
    RunResult resumed = StopAndResume(&bundle, NewDir("poolhw"), 4);
    EXPECT_EQ(resumed.params, reference.params);
    ExpectHistoriesBitwiseEqual(resumed.history, reference.history);
    // The resumed run's ledger covers the whole experiment.
    EXPECT_EQ(resumed.rounds_charged, reference.rounds_charged);
  }
}

TEST_F(CrashRecoveryTest, ResetToUploadSubsampledResumeIsBitwise) {
  data::DatasetBundle bundle = SmallBundle();
  TrainerOptions o = ResetSubsampledOptions();
  o.checkpoint_dir = NewDir("reset_reference");
  RunResult reference = RunOnce(&bundle, o);
  ASSERT_FALSE(reference.history.interrupted);
  const int64_t last = reference.history.total_rounds;
  auto reference_ckpt = durability::ReadFileToString(
      durability::CheckpointPath(o.checkpoint_dir, last));
  ASSERT_TRUE(reference_ckpt.ok());
  // The snapshot carries one momentum row per worker, not batch_size.
  auto reference_state = LoadDurableState(o.checkpoint_dir);
  ASSERT_TRUE(reference_state.ok());
  for (const auto& worker : reference_state.value().snapshot.honest_momentum) {
    EXPECT_EQ(worker.size(), 1u);
  }

  const size_t hw = std::max<size_t>(2, std::thread::hardware_concurrency());
  for (size_t threads : {size_t{1}, size_t{2}, hw}) {
    SCOPED_TRACE("pool " + std::to_string(threads));
    ThreadPool pool(threads);
    ScopedPoolOverride ov(&pool);
    std::string dir = NewDir("reset_pool" + std::to_string(threads));
    RunResult resumed = StopAndResume(&bundle, dir, 5, false, nullptr,
                                      ResetSubsampledOptions());
    EXPECT_EQ(resumed.params, reference.params);
    ExpectHistoriesBitwiseEqual(resumed.history, reference.history);
    EXPECT_EQ(resumed.rounds_charged, reference.rounds_charged);
    auto ckpt = durability::ReadFileToString(
        durability::CheckpointPath(dir, last));
    ASSERT_TRUE(ckpt.ok());
    EXPECT_TRUE(ckpt.value() == reference_ckpt.value());
  }
}

TEST_F(CrashRecoveryTest, DpbrSecondStageStateSurvivesResume) {
  data::DatasetBundle bundle = SmallBundle();
  RunResult reference = RunOnce(&bundle, BaseOptions(), /*use_dpbr=*/true);
  RunResult resumed =
      StopAndResume(&bundle, NewDir("dpbr"), 5, /*use_dpbr=*/true);
  EXPECT_EQ(resumed.params, reference.params);
  ExpectHistoriesBitwiseEqual(resumed.history, reference.history);
}

TEST_F(CrashRecoveryTest, WalDamageDoesNotBreakResume) {
  data::DatasetBundle bundle = SmallBundle();
  RunResult reference = RunOnce(&bundle, BaseOptions());

  // Tear the WAL tail (a crash mid-append).
  RunResult torn = StopAndResume(
      &bundle, NewDir("torn"), 4, false, [](const std::string& dir) {
        auto raw = durability::ReadFileToString(WalPath(dir));
        ASSERT_TRUE(raw.ok());
        std::string data = std::move(raw).value();
        ASSERT_GT(data.size(), 5u);
        ASSERT_TRUE(durability::WriteFileAtomic(
                        WalPath(dir), data.substr(0, data.size() - 5))
                        .ok());
      });
  EXPECT_EQ(torn.params, reference.params);
  ExpectHistoriesBitwiseEqual(torn.history, reference.history);

  // Flip a bit inside a committed record.
  RunResult flipped = StopAndResume(
      &bundle, NewDir("flip"), 4, false, [](const std::string& dir) {
        auto raw = durability::ReadFileToString(WalPath(dir));
        ASSERT_TRUE(raw.ok());
        std::string data = std::move(raw).value();
        data[data.size() / 2] ^= 0x20;
        ASSERT_TRUE(durability::WriteFileAtomic(WalPath(dir), data).ok());
      });
  EXPECT_EQ(flipped.params, reference.params);
  ExpectHistoriesBitwiseEqual(flipped.history, reference.history);

  // Garbage appended after the last record (torn next append).
  RunResult garbage = StopAndResume(
      &bundle, NewDir("garbage"), 4, false, [](const std::string& dir) {
        auto raw = durability::ReadFileToString(WalPath(dir));
        ASSERT_TRUE(raw.ok());
        ASSERT_TRUE(durability::WriteFileAtomic(
                        WalPath(dir),
                        std::move(raw).value() + "torn-garbage")
                        .ok());
      });
  EXPECT_EQ(garbage.params, reference.params);
  ExpectHistoriesBitwiseEqual(garbage.history, reference.history);
}

TEST_F(CrashRecoveryTest, CorruptNewestCheckpointFallsBackToOlder) {
  data::DatasetBundle bundle = SmallBundle();
  RunResult reference = RunOnce(&bundle, BaseOptions());
  std::string dir = NewDir("fallback");
  RunResult resumed = StopAndResume(
      &bundle, dir, 4, false, [](const std::string& d) {
        // checkpoint_every_n_rounds = 1 and retention = 2, so rounds 3
        // and 4 are on disk; corrupt the newest (4).
        std::string path = durability::CheckpointPath(d, 4);
        auto raw = durability::ReadFileToString(path);
        ASSERT_TRUE(raw.ok());
        std::string data = std::move(raw).value();
        data[data.size() - 1] ^= 0x01;
        ASSERT_TRUE(durability::WriteFileAtomic(path, data).ok());
        // Recovery must degrade to the round-3 snapshot.
        auto state = LoadDurableState(d);
        ASSERT_TRUE(state.ok());
        ASSERT_TRUE(state.value().has_snapshot);
        EXPECT_EQ(state.value().snapshot.completed_round, 3);
        EXPECT_EQ(state.value().skipped_corrupt_checkpoints, 1);
      });
  EXPECT_EQ(resumed.params, reference.params);
  ExpectHistoriesBitwiseEqual(resumed.history, reference.history);
}

TEST_F(CrashRecoveryTest, AllCheckpointsCorruptRestartsFromScratch) {
  data::DatasetBundle bundle = SmallBundle();
  RunResult reference = RunOnce(&bundle, BaseOptions());
  RunResult resumed = StopAndResume(
      &bundle, NewDir("scratch"), 4, false, [](const std::string& d) {
        auto names = durability::ListDir(d);
        ASSERT_TRUE(names.ok());
        for (const auto& n : names.value()) {
          if (n.find(".ckpt") == std::string::npos) continue;
          std::string path = d + "/" + n;
          auto raw = durability::ReadFileToString(path);
          ASSERT_TRUE(raw.ok());
          std::string data = std::move(raw).value();
          data[data.size() / 2] ^= 0xFF;
          ASSERT_TRUE(durability::WriteFileAtomic(path, data).ok());
        }
        auto state = LoadDurableState(d);
        ASSERT_TRUE(state.ok());
        EXPECT_FALSE(state.value().has_snapshot);
      });
  EXPECT_EQ(resumed.params, reference.params);
  ExpectHistoriesBitwiseEqual(resumed.history, reference.history);
}

TEST_F(CrashRecoveryTest, ShutdownRequestStopsGracefullyAndResumes) {
  data::DatasetBundle bundle = SmallBundle();
  RunResult reference = RunOnce(&bundle, BaseOptions());

  // The flag is up before Run(): the trainer still finishes the round in
  // flight (round 1), commits it, and returns a partial history.
  TrainerOptions o = BaseOptions();
  o.checkpoint_dir = NewDir("sigint");
  RequestShutdown();
  RunResult partial = RunOnce(&bundle, o);
  EXPECT_TRUE(partial.history.interrupted);
  EXPECT_EQ(partial.history.completed_rounds, 1);
  EXPECT_EQ(partial.rounds_charged, 1);

  ClearShutdownRequest();
  RunResult resumed = RunOnce(&bundle, o);
  EXPECT_EQ(resumed.params, reference.params);
  ExpectHistoriesBitwiseEqual(resumed.history, reference.history);
}

TEST_F(CrashRecoveryTest, SignalHandlerRaisesTheFlag) {
  InstallGracefulShutdownHandler();
  ASSERT_FALSE(ShutdownRequested());
  // The handler only sets the flag; ClearShutdownRequest in TearDown
  // re-arms the (one-shot) disposition for later tests.
  ASSERT_EQ(raise(SIGTERM), 0);
  EXPECT_TRUE(ShutdownRequested());
}

TEST_F(CrashRecoveryTest, FingerprintMismatchIsRejected) {
  data::DatasetBundle bundle = SmallBundle();
  std::string dir = NewDir("mismatch");
  TrainerOptions o = BaseOptions();
  o.checkpoint_dir = dir;
  o.stop_after_round = 4;
  RunOnce(&bundle, o);

  // Same directory, different experiment (ε changed): refuse to resume.
  TrainerOptions other = BaseOptions();
  other.checkpoint_dir = dir;
  other.epsilon = 1.0;
  FederatedTrainer t(&bundle, nn::MlpFactory(16, 8, 4),
                     std::make_unique<agg::MeanAggregator>(), nullptr,
                     other);
  auto h = t.Run();
  ASSERT_FALSE(h.ok());
  EXPECT_EQ(h.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(CrashRecoveryTest, FinishedRunReRunsAsNoOp) {
  data::DatasetBundle bundle = SmallBundle();
  TrainerOptions o = BaseOptions();
  o.checkpoint_dir = NewDir("finished");
  RunResult first = RunOnce(&bundle, o);
  ASSERT_FALSE(first.history.interrupted);

  // A fresh Run() against the completed directory replays nothing and
  // reports the same finished history and model.
  RunResult second = RunOnce(&bundle, o);
  EXPECT_EQ(second.params, first.params);
  ExpectHistoriesBitwiseEqual(second.history, first.history);
  EXPECT_EQ(second.rounds_charged, first.rounds_charged);
}

TEST_F(CrashRecoveryTest, SparserCheckpointCadenceStillResumesExactly) {
  data::DatasetBundle bundle = SmallBundle();
  RunResult reference = RunOnce(&bundle, BaseOptions());
  TrainerOptions o = BaseOptions();
  o.checkpoint_dir = NewDir("cadence");
  o.checkpoint_every_n_rounds = 3;
  o.stop_after_round = 5;  // stop forces a snapshot even off-cadence
  RunResult partial = RunOnce(&bundle, o);
  EXPECT_TRUE(partial.history.interrupted);
  o.stop_after_round = -1;
  RunResult resumed = RunOnce(&bundle, o);
  EXPECT_EQ(resumed.params, reference.params);
  ExpectHistoriesBitwiseEqual(resumed.history, reference.history);
}

}  // namespace
}  // namespace fl
}  // namespace dpbr
