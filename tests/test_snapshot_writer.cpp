// Async double-buffered snapshot writer: content parity with the blocking
// path, latest-wins coalescing, flush semantics, and the Djvm per-epoch
// snapshot hook.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "core/djvm.hpp"
#include "governor/snapshot.hpp"

namespace djvm {
namespace {

std::vector<std::uint8_t> slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>()};
}

class SnapshotWriterTest : public ::testing::Test {
 protected:
  SnapshotWriterTest() : heap(reg, 2), plan(heap) {
    klass = reg.register_class("X", 64);
    plan.set_nominal_gap(klass, 16);
  }

  KlassRegistry reg;
  Heap heap;
  SamplingPlan plan;
  ClassId klass = kInvalidClass;
};

TEST_F(SnapshotWriterTest, AsyncWriteMatchesBlockingWrite) {
  Governor gov(plan);
  gov.arm(GovernorConfig{});
  SquareMatrix tcm(3);
  tcm.at(0, 1) = 42.0;
  tcm.at(1, 0) = 42.0;

  const std::string sync_path = ::testing::TempDir() + "writer_sync.bin";
  const std::string async_path = ::testing::TempDir() + "writer_async.bin";
  ASSERT_TRUE(save_snapshot(sync_path, gov, tcm));
  {
    SnapshotWriter writer;
    writer.save_async(async_path, gov, tcm);
    writer.flush();
    EXPECT_EQ(writer.submitted(), 1u);
    EXPECT_EQ(writer.completed(), 1u);
    EXPECT_EQ(writer.coalesced(), 0u);
    EXPECT_TRUE(writer.all_ok());
  }
  EXPECT_EQ(slurp(async_path), slurp(sync_path));

  // And the async file round-trips through the normal loader.
  Governor gov2(plan);
  SquareMatrix tcm2;
  ASSERT_TRUE(load_snapshot(async_path, gov2, tcm2));
  EXPECT_EQ(tcm2, tcm);
  std::remove(sync_path.c_str());
  std::remove(async_path.c_str());
}

TEST_F(SnapshotWriterTest, CoalescesToLatestUnderBackPressure) {
  Governor gov(plan);
  gov.arm(GovernorConfig{});
  const std::string path = ::testing::TempDir() + "writer_coalesce.bin";

  SquareMatrix last;
  SnapshotWriter writer;
  const int kSubmits = 200;
  for (int i = 0; i < kSubmits; ++i) {
    SquareMatrix tcm(2);
    tcm.at(0, 1) = static_cast<double>(i);
    tcm.at(1, 0) = static_cast<double>(i);
    writer.save_async(path, gov, tcm);
    last = tcm;
  }
  writer.flush();
  EXPECT_EQ(writer.submitted(), static_cast<std::uint64_t>(kSubmits));
  EXPECT_EQ(writer.completed() + writer.coalesced(),
            static_cast<std::uint64_t>(kSubmits));
  EXPECT_GE(writer.completed(), 1u);
  EXPECT_TRUE(writer.all_ok());

  // Whatever was coalesced away, the file on disk is the *latest* snapshot.
  Governor gov2(plan);
  SquareMatrix tcm2;
  ASSERT_TRUE(load_snapshot(path, gov2, tcm2));
  EXPECT_EQ(tcm2, last);
  std::remove(path.c_str());
}

TEST_F(SnapshotWriterTest, DestructorDrainsPendingWrite) {
  Governor gov(plan);
  SquareMatrix tcm(2);
  tcm.at(0, 1) = 7.0;
  tcm.at(1, 0) = 7.0;
  const std::string path = ::testing::TempDir() + "writer_drain.bin";
  {
    SnapshotWriter writer;
    writer.save_async(path, gov, tcm);
    // No flush: destruction must still complete the queued write.
  }
  Governor gov2(plan);
  SquareMatrix tcm2;
  ASSERT_TRUE(load_snapshot(path, gov2, tcm2));
  EXPECT_EQ(tcm2, tcm);
  std::remove(path.c_str());
}

TEST_F(SnapshotWriterTest, ReportsFailedWrites) {
  Governor gov(plan);
  SquareMatrix tcm(2);
  SnapshotWriter writer;
  writer.save_async("/nonexistent-dir/snapshot.bin", gov, tcm);
  writer.flush();
  EXPECT_FALSE(writer.all_ok());
  EXPECT_EQ(writer.completed(), 1u);
}

TEST_F(SnapshotWriterTest, AppendChannelPreservesEveryLineInOrder) {
  const std::string path = ::testing::TempDir() + "writer_append.jsonl";
  std::remove(path.c_str());
  const int kLines = 500;
  {
    SnapshotWriter writer;
    for (int i = 0; i < kLines; ++i) {
      writer.append_async(path, "line " + std::to_string(i) + "\n");
    }
    writer.flush();
    EXPECT_EQ(writer.appended(), static_cast<std::uint64_t>(kLines));
    // Lines batch into fewer append-mode writes but are never dropped.
    EXPECT_GE(writer.append_writes(), 1u);
    EXPECT_LE(writer.append_writes(), static_cast<std::uint64_t>(kLines));
    EXPECT_TRUE(writer.all_ok());
  }
  std::ifstream f(path);
  std::string line;
  int n = 0;
  while (std::getline(f, line)) {
    EXPECT_EQ(line, "line " + std::to_string(n));
    ++n;
  }
  EXPECT_EQ(n, kLines);
  std::remove(path.c_str());
}

TEST_F(SnapshotWriterTest, AppendsInterleaveWithSnapshotsSafely) {
  Governor gov(plan);
  gov.arm(GovernorConfig{});
  const std::string snap = ::testing::TempDir() + "writer_mixed.bin";
  const std::string log = ::testing::TempDir() + "writer_mixed.jsonl";
  std::remove(log.c_str());

  SquareMatrix last;
  SnapshotWriter writer;
  const int kRounds = 100;
  for (int i = 0; i < kRounds; ++i) {
    SquareMatrix tcm(2);
    tcm.at(0, 1) = static_cast<double>(i);
    tcm.at(1, 0) = static_cast<double>(i);
    writer.save_async(snap, gov, tcm);
    writer.append_async(log, std::to_string(i) + "\n");
    last = tcm;
  }
  writer.flush();
  EXPECT_EQ(writer.appended(), static_cast<std::uint64_t>(kRounds));
  EXPECT_TRUE(writer.all_ok());

  // Snapshots coalesce to the latest; the log keeps every line.
  Governor gov2(plan);
  SquareMatrix tcm2;
  ASSERT_TRUE(load_snapshot(snap, gov2, tcm2));
  EXPECT_EQ(tcm2, last);
  std::ifstream f(log);
  std::string line;
  int n = 0;
  while (std::getline(f, line)) {
    EXPECT_EQ(line, std::to_string(n));
    ++n;
  }
  EXPECT_EQ(n, kRounds);
  std::remove(snap.c_str());
  std::remove(log.c_str());
}

TEST_F(SnapshotWriterTest, DestructorDrainsPendingAppends) {
  const std::string path = ::testing::TempDir() + "writer_append_drain.jsonl";
  std::remove(path.c_str());
  {
    SnapshotWriter writer;
    writer.append_async(path, "only line\n");
    // No flush: destruction must still write the buffered line.
  }
  std::ifstream f(path);
  std::string line;
  ASSERT_TRUE(static_cast<bool>(std::getline(f, line)));
  EXPECT_EQ(line, "only line");
  std::remove(path.c_str());
}

TEST(DjvmSnapshotHook, GovernedEpochsSnapshotEveryEpoch) {
  Config cfg;
  cfg.nodes = 2;
  cfg.threads = 2;
  cfg.oal_transfer = OalTransfer::kLocalOnly;
  cfg.governor.enabled = true;
  cfg.export_.snapshot_path = ::testing::TempDir() + "djvm_epoch_snapshot.bin";

  Djvm djvm(cfg);
  ASSERT_NE(djvm.snapshot_writer(), nullptr);
  djvm.spawn_threads_round_robin(cfg.threads);
  const ClassId k = djvm.registry().register_class("X", 64);
  std::vector<ObjectId> objs;
  for (int i = 0; i < 32; ++i) objs.push_back(djvm.gos().alloc(k, 0));

  const int kEpochs = 3;
  for (int e = 0; e < kEpochs; ++e) {
    for (ThreadId t = 0; t < cfg.threads; ++t) {
      for (ObjectId o : objs) djvm.read(t, o);
    }
    djvm.barrier_all();
    djvm.run_epoch();
  }
  djvm.snapshot_writer()->flush();
  EXPECT_EQ(djvm.snapshot_writer()->submitted(),
            static_cast<std::uint64_t>(kEpochs));
  EXPECT_TRUE(djvm.snapshot_writer()->all_ok());

  // The snapshot restores into a fresh same-shaped world.
  Djvm djvm2(cfg);
  djvm2.registry().register_class("X", 64);
  SquareMatrix tcm;
  ASSERT_TRUE(load_snapshot(cfg.export_.snapshot_path, djvm2.governor(), tcm));
  EXPECT_EQ(tcm.size(), djvm.daemon().latest().size());
  std::remove(cfg.export_.snapshot_path.c_str());
}

TEST(DjvmSnapshotHook, NoWriterWithoutPath) {
  Config cfg;
  cfg.nodes = 1;
  cfg.threads = 1;
  Djvm djvm(cfg);
  EXPECT_EQ(djvm.snapshot_writer(), nullptr);
}

}  // namespace
}  // namespace djvm
