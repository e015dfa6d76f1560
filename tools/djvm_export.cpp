// Offline snapshot converter: any governor snapshot (format v7, the only
// one) -> pprof / flamegraph-collapsed / JSON, without reconstructing the
// run.  It reads through parse_snapshot, the same reader restore uses, so
// it accepts exactly the blobs a large enough class registry would load.
//
//   djvm_export <snapshot.bin> [--pprof P] [--collapsed C] [--json J]
//                              [--names a,b,c]
//       Converts an existing snapshot.  With no output flags, writes all
//       three artifacts next to the input (<input>.pb, <input>.collapsed,
//       <input>.json).  Snapshots carry class ids, not names; --names
//       supplies display names by id (index = class id).
//
//   djvm_export demo <outdir>
//       Runs a short governed synthetic workload (retention + timeline
//       enabled), writing snapshot.bin and timeline.jsonl into <outdir>,
//       then converts the snapshot with the live registry's class names.
//       CI's exporter-smoke job drives this end to end.
//
// Exit status (distinct codes so scripts can tell the failure classes
// apart): 0 success, 1 bad CLI arguments, 2 unreadable input or failed
// output write, 3 corrupt snapshot (bad structure, failed checksum, or a
// version other than 7).
// The reason always goes to stderr.
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/djvm.hpp"
#include "export/exporter.hpp"
#include "governor/governor.hpp"
#include "governor/snapshot.hpp"

using namespace djvm;

namespace {

// Exit codes (see file header).
constexpr int kExitUsage = 1;
constexpr int kExitIo = 2;
constexpr int kExitCorrupt = 3;

bool read_file(const std::string& path, std::vector<std::uint8_t>& out) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return false;
  f.seekg(0, std::ios::end);
  const std::streamoff len = f.tellg();
  if (len < 0) return false;
  f.seekg(0, std::ios::beg);
  out.resize(static_cast<std::size_t>(len));
  f.read(reinterpret_cast<char*>(out.data()), len);
  return static_cast<bool>(f);
}

bool write_file(const std::string& path, const void* data, std::size_t size) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) return false;
  f.write(static_cast<const char*>(data), static_cast<std::streamsize>(size));
  return static_cast<bool>(f);
}

std::vector<std::string> split_names(const std::string& csv) {
  std::vector<std::string> names;
  std::istringstream is(csv);
  std::string item;
  while (std::getline(is, item, ',')) names.push_back(item);
  return names;
}

/// Parses + converts one snapshot file; empty output paths are skipped.
int convert(const std::string& input, const std::string& pprof_path,
            const std::string& collapsed_path, const std::string& json_path,
            const std::vector<std::string>& names) {
  std::vector<std::uint8_t> bytes;
  if (!read_file(input, bytes)) {
    std::cerr << "djvm_export: cannot read " << input << "\n";
    return kExitIo;
  }
  SnapshotInfo info;
  if (!parse_snapshot(bytes, info)) {
    std::cerr << "djvm_export: " << input
              << " is not a valid DJGV snapshot (corrupt, truncated, or "
                 "failed its checksum)\n";
    return kExitCorrupt;
  }
  std::cout << "parsed " << input << ": v" << info.version << ", "
            << info.classes.size() << " classes, TCM " << info.tcm.size()
            << "x" << info.tcm.size() << " (" << nonzero_pair_cells(info.tcm)
            << " nonzero pairs)\n";

  if (!pprof_path.empty()) {
    PprofExportStats stats;
    const std::vector<std::uint8_t> pb = export_pprof(info, names, &stats);
    if (!write_file(pprof_path, pb.data(), pb.size())) {
      std::cerr << "djvm_export: cannot write " << pprof_path << "\n";
      return kExitIo;
    }
    std::cout << "wrote " << pprof_path << " (" << pb.size() << " bytes, "
              << stats.pair_samples << " pair + " << stats.class_samples
              << " class + " << stats.node_samples << " node samples)\n";
  }
  if (!collapsed_path.empty()) {
    const std::string folded = export_collapsed(info, names);
    if (!write_file(collapsed_path, folded.data(), folded.size())) {
      std::cerr << "djvm_export: cannot write " << collapsed_path << "\n";
      return kExitIo;
    }
    std::cout << "wrote " << collapsed_path << "\n";
  }
  if (!json_path.empty()) {
    const std::string json = export_snapshot_json(info, names);
    if (!write_file(json_path, json.data(), json.size())) {
      std::cerr << "djvm_export: cannot write " << json_path << "\n";
      return kExitIo;
    }
    std::cout << "wrote " << json_path << "\n";
  }
  return 0;
}

/// Short governed synthetic run for CI smoke tests: two thread-pair sharing
/// phases over two object classes, retention + timeline + snapshots on.
int demo(const std::string& outdir) {
  std::error_code ec;
  std::filesystem::create_directories(outdir, ec);
  if (ec) {
    std::cerr << "djvm_export: cannot create " << outdir << ": " << ec.message()
              << "\n";
    return kExitIo;
  }

  constexpr std::uint32_t kNodes = 4;
  constexpr std::uint32_t kThreads = 8;
  constexpr std::uint32_t kEpochs = 12;
  constexpr std::uint32_t kPools = kThreads / 2;
  constexpr std::uint32_t kHotPerPool = 512;
  constexpr std::uint32_t kBulkyPerPool = 128;

  Config cfg;
  cfg.nodes = kNodes;
  cfg.threads = kThreads;
  cfg.oal_transfer = OalTransfer::kSend;
  cfg.export_.snapshot_path = outdir + "/snapshot.bin";
  cfg.export_.timeline_path = outdir + "/timeline.jsonl";
  cfg.retention.idle_epochs = 3;
  cfg.retention.compact_period = 2;
  Djvm djvm(cfg);
  djvm.spawn_threads_round_robin(kThreads);

  const ClassId hot = djvm.registry().register_class("DemoHot", 64);
  const ClassId bulky = djvm.registry().register_class("DemoBulky", 2048);
  std::vector<std::vector<ObjectId>> hot_pools(kPools), bulky_pools(kPools);
  for (std::uint32_t p = 0; p < kPools; ++p) {
    for (std::uint32_t i = 0; i < kHotPerPool; ++i) {
      hot_pools[p].push_back(
          djvm.gos().alloc(hot, static_cast<NodeId>(p % kNodes)));
    }
    for (std::uint32_t i = 0; i < kBulkyPerPool; ++i) {
      bulky_pools[p].push_back(
          djvm.gos().alloc(bulky, static_cast<NodeId>(p % kNodes)));
    }
  }

  djvm.plan().set_nominal_gap(hot, 64);
  djvm.plan().set_nominal_gap(bulky, 64);
  djvm.plan().resample_all();
  GovernorConfig gcfg;
  gcfg.overhead_budget = 0.04;
  gcfg.distance_threshold = 0.20;
  djvm.governor().arm(gcfg);

  for (std::uint32_t epoch = 0; epoch < kEpochs; ++epoch) {
    const bool second_half = epoch >= kEpochs / 2;
    for (ThreadId t = 0; t < kThreads; ++t) {
      djvm.gos().set_phase(t, second_half ? 2 : 1);
      std::uint64_t accesses = 0;
      const std::uint32_t pool =
          second_half ? ((t + 1) % kThreads) / 2 : t / 2;
      for (ObjectId o : bulky_pools[pool]) {
        djvm.read(t, o);
        ++accesses;
      }
      SplitMix64 rng(epoch * 1000003ULL + t);
      for (ObjectId o : hot_pools[pool]) {
        if (rng.next_double() < 0.5) {
          djvm.read(t, o);
          ++accesses;
        }
      }
      djvm.gos().clock(t).advance(accesses * 2000);
    }
    djvm.barrier_all();
    djvm.run_epoch();
  }
  if (SnapshotWriter* w = djvm.snapshot_writer()) {
    w->flush();
    if (!w->all_ok()) {
      std::cerr << "djvm_export: snapshot/timeline writes failed under "
                << outdir << "\n";
      return kExitIo;
    }
  }
  std::cout << "demo run complete: " << cfg.export_.snapshot_path << ", "
            << cfg.export_.timeline_path << "\n";

  std::vector<std::string> names;
  for (const Klass& k : djvm.registry().all()) {
    if (k.id >= names.size()) names.resize(k.id + 1);
    names[k.id] = k.name;
  }
  return convert(cfg.export_.snapshot_path, outdir + "/profile.pb",
                 outdir + "/collapsed.txt", outdir + "/snapshot.json", names);
}

int usage() {
  std::cerr
      << "usage: djvm_export <snapshot.bin> [--pprof P] [--collapsed C]\n"
         "                   [--json J] [--names a,b,c]\n"
         "       djvm_export demo <outdir>\n";
  return kExitUsage;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  if (std::strcmp(argv[1], "demo") == 0) {
    if (argc != 3) return usage();
    return demo(argv[2]);
  }

  const std::string input = argv[1];
  std::string pprof_path, collapsed_path, json_path;
  std::vector<std::string> names;
  bool any_output = false;
  for (int i = 2; i < argc; i += 2) {
    if (i + 1 >= argc) return usage();
    const std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--pprof") {
      pprof_path = value;
      any_output = true;
    } else if (flag == "--collapsed") {
      collapsed_path = value;
      any_output = true;
    } else if (flag == "--json") {
      json_path = value;
      any_output = true;
    } else if (flag == "--names") {
      names = split_names(value);
    } else {
      return usage();
    }
  }
  if (!any_output) {
    pprof_path = input + ".pb";
    collapsed_path = input + ".collapsed";
    json_path = input + ".json";
  }
  return convert(input, pprof_path, collapsed_path, json_path, names);
}
