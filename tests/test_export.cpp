// Export subsystem: varint/zigzag edge values, string-table dedup, the
// registry-independent snapshot parser (round trip + corruption robustness),
// and the pprof/collapsed/JSON/timeline exporters.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <sstream>

#include "balance/balancer_feedback.hpp"
#include "core/djvm.hpp"
#include "export/exporter.hpp"
#include "export/pprof.hpp"
#include "export/timeline.hpp"
#include "governor/snapshot.hpp"

#include "snapshot_helpers.hpp"

namespace djvm {
namespace {

// --- wire-format primitives -------------------------------------------------

TEST(PprofWire, VarintEdgeValuesRoundTrip) {
  const std::uint64_t edges[] = {0,
                                 1,
                                 127,
                                 128,
                                 16383,
                                 16384,
                                 (1ULL << 32) - 1,
                                 1ULL << 32,
                                 ~0ULL};
  for (std::uint64_t v : edges) {
    std::vector<std::uint8_t> buf;
    pprof::put_varint(buf, v);
    EXPECT_LE(buf.size(), 10u);
    std::size_t pos = 0;
    std::uint64_t back = 0;
    ASSERT_TRUE(pprof::get_varint(buf, pos, back)) << v;
    EXPECT_EQ(back, v);
    EXPECT_EQ(pos, buf.size());
  }
  // Known byte patterns from the protobuf spec.
  std::vector<std::uint8_t> buf;
  pprof::put_varint(buf, 1);
  EXPECT_EQ(buf, (std::vector<std::uint8_t>{0x01}));
  buf.clear();
  pprof::put_varint(buf, 300);
  EXPECT_EQ(buf, (std::vector<std::uint8_t>{0xAC, 0x02}));
}

TEST(PprofWire, VarintRejectsTruncationAndOverlength) {
  std::vector<std::uint8_t> buf;
  pprof::put_varint(buf, ~0ULL);
  ASSERT_EQ(buf.size(), 10u);
  for (std::size_t cut = 0; cut < buf.size(); ++cut) {
    std::vector<std::uint8_t> trunc(buf.begin(),
                                    buf.begin() + static_cast<long>(cut));
    std::size_t pos = 0;
    std::uint64_t v = 0;
    EXPECT_FALSE(pprof::get_varint(trunc, pos, v)) << cut;
  }
  // 11 continuation bytes: longer than any valid u64 varint.
  const std::vector<std::uint8_t> over(11, 0x80);
  std::size_t pos = 0;
  std::uint64_t v = 0;
  EXPECT_FALSE(pprof::get_varint(over, pos, v));
}

TEST(PprofWire, ZigzagMapsSignBitsToLowBit) {
  EXPECT_EQ(pprof::zigzag(0), 0u);
  EXPECT_EQ(pprof::zigzag(-1), 1u);
  EXPECT_EQ(pprof::zigzag(1), 2u);
  EXPECT_EQ(pprof::zigzag(-2), 3u);
  const std::int64_t edges[] = {0, -1, 1, INT64_MAX, INT64_MIN, 1234567,
                                -7654321};
  for (std::int64_t v : edges) {
    EXPECT_EQ(pprof::unzigzag(pprof::zigzag(v)), v) << v;
  }
}

TEST(PprofWire, StringTableDedups) {
  pprof::StringTable st;
  EXPECT_EQ(st.size(), 1u);  // "" preinterned at 0
  EXPECT_EQ(st.id(""), 0);
  const std::int64_t a = st.id("thread:0");
  const std::int64_t b = st.id("thread:1");
  EXPECT_NE(a, b);
  EXPECT_EQ(st.id("thread:0"), a);
  EXPECT_EQ(st.id("thread:1"), b);
  EXPECT_EQ(st.size(), 3u);
  EXPECT_EQ(st.strings()[static_cast<std::size_t>(a)], "thread:0");
}

TEST(PprofWire, BuilderDedupsFunctionsAndLocations) {
  pprof::ProfileBuilder b;
  b.add_sample_type("bytes", "bytes");
  const std::uint64_t l1 = b.location_id("thread:0");
  const std::uint64_t l2 = b.location_id("thread:1");
  EXPECT_NE(l1, 0u);  // 0 is "no location"
  EXPECT_NE(l1, l2);
  EXPECT_EQ(b.location_id("thread:0"), l1);
  const std::uint64_t locs[] = {l1, l2};
  const std::int64_t vals[] = {42};
  b.add_sample(locs, vals);
  EXPECT_EQ(b.sample_count(), 1u);
  EXPECT_FALSE(b.encode().empty());
}

// --- snapshot parsing --------------------------------------------------------

/// A governed world whose encode_snapshot output exercises every v4 section.
class ExportFixture : public ::testing::Test {
 protected:
  ExportFixture() : heap(reg, 2), plan(heap), gov(plan) {
    hot = reg.register_class("Hot", 64);
    bulky = reg.register_class("Bulky", 2048);
    plan.set_nominal_gap(hot, 16);
    plan.set_nominal_gap(bulky, 4);
    GovernorConfig gcfg;
    gcfg.overhead_budget = 0.03;
    gov.arm(gcfg);
    tcm = SquareMatrix(4);
    tcm.at(0, 1) = tcm.at(1, 0) = 1000.0;
    tcm.at(2, 3) = tcm.at(3, 2) = 250.0;
    tcm.at(0, 3) = tcm.at(3, 0) = 64.0;
    bytes = encode_snapshot(gov, tcm);
  }

  KlassRegistry reg;
  Heap heap;
  SamplingPlan plan;
  Governor gov;
  ClassId hot = kInvalidClass;
  ClassId bulky = kInvalidClass;
  SquareMatrix tcm;
  std::vector<std::uint8_t> bytes;
};

TEST_F(ExportFixture, ParseSnapshotRoundTripsEncodeSnapshot) {
  SnapshotInfo info;
  ASSERT_TRUE(parse_snapshot(bytes, info));
  EXPECT_EQ(info.version, kSnapshotVersion);
  EXPECT_EQ(info.overhead_budget, 0.03);
  EXPECT_EQ(info.classes.size(), reg.size());
  bool saw_hot = false;
  for (const auto& c : info.classes) {
    if (c.id == hot) {
      saw_hot = true;
      EXPECT_EQ(c.nominal_gap, plan.nominal_gap(hot));
      EXPECT_TRUE(c.rated);
    }
  }
  EXPECT_TRUE(saw_hot);
  ASSERT_EQ(info.tcm.size(), tcm.size());
  for (std::size_t i = 0; i < tcm.size(); ++i) {
    for (std::size_t j = 0; j < tcm.size(); ++j) {
      EXPECT_EQ(info.tcm.at(i, j), tcm.at(i, j));
    }
  }
  EXPECT_EQ(nonzero_pair_cells(info.tcm), 3u);
}

TEST_F(ExportFixture, ParseSnapshotNeverCrashesOnTruncatedPrefixes) {
  // Every strict prefix must be rejected cleanly (the parser's whole job).
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    std::vector<std::uint8_t> trunc(bytes.begin(),
                                    bytes.begin() + static_cast<long>(len));
    SnapshotInfo info;
    EXPECT_FALSE(parse_snapshot(trunc, info)) << "prefix " << len;
  }
}

TEST_F(ExportFixture, ParseSnapshotRejectsCorruptHeader) {
  {
    std::vector<std::uint8_t> bad = bytes;
    bad[0] ^= 0xFF;  // magic
    SnapshotInfo info;
    EXPECT_FALSE(parse_snapshot(bad, info));
  }
  {
    std::vector<std::uint8_t> bad = bytes;
    bad[4] = 99;  // version
    SnapshotInfo info;
    EXPECT_FALSE(parse_snapshot(bad, info));
  }
  {
    // Huge class count cannot fit the remaining bytes.  Re-sealed, so the
    // count reaches its bound instead of failing the checksum.
    std::vector<std::uint8_t> bad = bytes;
    // Offset: magic(4)+ver(4)+mode/state/flags/reserved(4)+5*f64(40)+2*u32(8)
    //         +2*u64(16) = 76.
    const std::size_t off = 76;
    ASSERT_LE(off + 4, bad.size());
    const std::uint32_t huge = 0x7FFFFFFF;
    std::memcpy(bad.data() + off, &huge, sizeof huge);
    SnapshotInfo info;
    EXPECT_FALSE(parse_snapshot(resealed(bad), info));
  }
}

TEST(SnapshotExport, InfluenceIdPastTheClassCountIsRejected) {
  // One class, one influence entry, a 2x2 map: a 193-byte blob.  An
  // influence id past the class count must not parse: at 0xFFFFFFFF,
  // export_pprof's per-class table would size itself by an `id + 1` that
  // wraps to 0 and then write out of bounds.
  KlassRegistry reg;
  Heap heap(reg, 1);
  reg.register_class("Only", 64);
  SamplingPlan plan(heap);
  Governor gov(plan);
  gov.arm(GovernorConfig{});
  BalancerFeedback fb;
  fb.influence = {0.625};  // a byte pattern the test can find
  fb.mass = {1.0};
  fb.total_mass = 1.0;
  fb.valid = true;
  gov.observe_balancer_feedback(fb);
  SquareMatrix tcm(2);
  tcm.at(0, 1) = tcm.at(1, 0) = 512.0;
  const std::vector<std::uint8_t> good = encode_snapshot(gov, tcm);
  ASSERT_EQ(good.size(), 193u);

  // The influence entry is {u32 class id, f64 share}: the id sits right
  // before the share's bytes.
  const double share = 0.625;
  std::uint8_t pat[sizeof share];
  std::memcpy(pat, &share, sizeof share);
  const auto it = std::search(good.begin(), good.end(), pat, pat + sizeof pat);
  ASSERT_NE(it, good.end());
  const auto id_pos = static_cast<std::size_t>(it - good.begin()) - 4;
  const auto with_id = [&](std::uint32_t id) {
    std::vector<std::uint8_t> out = good;
    std::memcpy(out.data() + id_pos, &id, sizeof id);
    return resealed(out);
  };

  SnapshotInfo info;
  EXPECT_FALSE(parse_snapshot(with_id(0xFFFFFFFFu), info));
  EXPECT_FALSE(parse_snapshot(with_id(1), info));  // == the class count

  // The same blob naming class 0 parses and runs every exporter.
  ASSERT_TRUE(parse_snapshot(with_id(0), info));
  ASSERT_EQ(info.influence.size(), 1u);
  PprofExportStats stats;
  EXPECT_FALSE(export_pprof(info, {}, &stats).empty());
  EXPECT_EQ(stats.class_samples, 1u);
  EXPECT_NE(export_collapsed(info, {}).find("class#0;action:influence 625000"),
            std::string::npos);
  EXPECT_NE(export_snapshot_json(info, {}).find("\"share\":0.625"),
            std::string::npos);
}

// --- exporters ---------------------------------------------------------------

TEST_F(ExportFixture, PprofExportCountsMatchSnapshot) {
  SnapshotInfo info;
  ASSERT_TRUE(parse_snapshot(bytes, info));
  const std::vector<std::string> names = {"Hot", "Bulky"};
  PprofExportStats stats;
  const std::vector<std::uint8_t> pb = export_pprof(info, names, &stats);
  EXPECT_FALSE(pb.empty());
  EXPECT_EQ(stats.pair_samples, nonzero_pair_cells(info.tcm));
  EXPECT_EQ(stats.class_samples, info.classes.size());
  EXPECT_EQ(stats.node_samples, info.copy_nodes.size());
}

TEST_F(ExportFixture, CollapsedLinesAreWellFormed) {
  SnapshotInfo info;
  ASSERT_TRUE(parse_snapshot(bytes, info));
  const std::string folded = export_collapsed(info, {});
  ASSERT_FALSE(folded.empty());
  std::istringstream is(folded);
  std::string line;
  std::size_t pair_lines = 0;
  while (std::getline(is, line)) {
    // frame(;frame)* <weight>, no empty frames, positive integer weight.
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    const std::string stack = line.substr(0, space);
    const std::string weight = line.substr(space + 1);
    EXPECT_FALSE(stack.empty());
    EXPECT_EQ(stack.find(' '), std::string::npos) << line;
    EXPECT_NE(stack.front(), ';') << line;
    EXPECT_NE(stack.back(), ';') << line;
    EXPECT_EQ(stack.find(";;"), std::string::npos) << line;
    ASSERT_FALSE(weight.empty());
    for (char c : weight) EXPECT_TRUE(c >= '0' && c <= '9') << line;
    EXPECT_GT(std::stoull(weight), 0u) << line;
    if (line.rfind("thread:", 0) == 0) ++pair_lines;
  }
  EXPECT_EQ(pair_lines, nonzero_pair_cells(info.tcm));
}

TEST(ClassDisplayName, FallsBackToIdWhenUnnamed) {
  const std::vector<std::string> names = {"Hot", ""};
  EXPECT_EQ(class_display_name(0, names), "Hot");
  EXPECT_EQ(class_display_name(1, names), "class#1");  // empty slot
  EXPECT_EQ(class_display_name(7, names), "class#7");  // past the table
  EXPECT_EQ(class_display_name(0, {}), "class#0");
}

TEST_F(ExportFixture, SnapshotJsonCarriesCrossCheckFields) {
  SnapshotInfo info;
  ASSERT_TRUE(parse_snapshot(bytes, info));
  const std::vector<std::string> names = {"Hot", "Bulky"};
  const std::string json = export_snapshot_json(info, names);
  EXPECT_NE(json.find("\"pair_cells\":3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"tcm_dim\":4"), std::string::npos) << json;
  EXPECT_NE(json.find("\"Hot\""), std::string::npos);
  EXPECT_EQ(json.back(), '\n');
}

TEST(CollapsedStacks, FoldsFramesRootFirst) {
  std::vector<JavaStack> stacks(2);
  stacks[0].push(/*method=*/7, /*nslots=*/0);
  stacks[0].push(/*method=*/9, /*nslots=*/0);
  const std::uint64_t weights[] = {5, 0};  // zero-weight stack skipped
  const std::string folded = collapsed_from_stacks(stacks, weights);
  EXPECT_EQ(folded, "thread:0;m7;m9 5\n");
}

// --- timeline ----------------------------------------------------------------

TEST(Timeline, GovernedRunEmitsOneValidLinePerEpoch) {
  Config cfg;
  cfg.nodes = 2;
  cfg.threads = 4;
  cfg.oal_transfer = OalTransfer::kSend;
  cfg.governor.enabled = true;
  cfg.export_.timeline_path = ::testing::TempDir() + "timeline_test.jsonl";

  Djvm djvm(cfg);
  ASSERT_NE(djvm.snapshot_writer(), nullptr);
  djvm.spawn_threads_round_robin(cfg.threads);
  const ClassId k = djvm.registry().register_class("T", 64);
  std::vector<ObjectId> objs;
  for (int i = 0; i < 64; ++i) objs.push_back(djvm.gos().alloc(k, 0));

  const int kEpochs = 4;
  for (int e = 0; e < kEpochs; ++e) {
    for (ThreadId t = 0; t < cfg.threads; ++t) {
      for (ObjectId o : objs) djvm.read(t, o);
      djvm.gos().clock(t).advance(objs.size() * 1000);
    }
    djvm.barrier_all();
    djvm.run_epoch();
  }
  djvm.snapshot_writer()->flush();
  EXPECT_EQ(djvm.snapshot_writer()->appended(),
            static_cast<std::uint64_t>(kEpochs));
  EXPECT_TRUE(djvm.snapshot_writer()->all_ok());

  std::ifstream f(cfg.export_.timeline_path);
  std::string line;
  int n = 0;
  while (std::getline(f, line)) {
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"epoch\":" + std::to_string(n)), std::string::npos)
        << line;
    for (const char* key :
         {"\"state\":", "\"action\":", "\"overhead\":", "\"node_overhead\":",
          "\"traffic\":", "\"influence_top\":", "\"retained_objects\":"}) {
      EXPECT_NE(line.find(key), std::string::npos) << key << " in " << line;
    }
    ++n;
  }
  EXPECT_EQ(n, kEpochs);
  std::remove(cfg.export_.timeline_path.c_str());
}

TEST(Timeline, TruncatesStaleLogAtConstruction) {
  const std::string path = ::testing::TempDir() + "timeline_stale.jsonl";
  {
    std::ofstream f(path);
    f << "stale line from a previous run\n";
  }
  Config cfg;
  cfg.nodes = 1;
  cfg.threads = 1;
  cfg.export_.timeline_path = path;
  Djvm djvm(cfg);
  std::ifstream f(path);
  std::string line;
  EXPECT_FALSE(static_cast<bool>(std::getline(f, line)));
  std::remove(path.c_str());
}

TEST(Timeline, ActionAndStateNamesAreStable) {
  EXPECT_STREQ(to_string(GovernorAction::kNone), "none");
  EXPECT_STREQ(to_string(GovernorAction::kTighten), "tighten");
  EXPECT_STREQ(to_string(GovernorAction::kBackOff), "backoff");
  EXPECT_STREQ(to_string(GovernorAction::kConverge), "converge");
  EXPECT_STREQ(to_string(GovernorAction::kRearm), "rearm");
  EXPECT_STREQ(to_string(GovernorState::kIdle), "idle");
  EXPECT_STREQ(to_string(GovernorState::kSentinel), "sentinel");
  EXPECT_STREQ(to_string(GovernorMode::kClosedLoop), "closed-loop");
}

}  // namespace
}  // namespace djvm
