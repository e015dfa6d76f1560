// Shared by the snapshot tests: re-seal a mutated blob's CRC32 footer so
// the mutation reaches the field rules instead of failing the checksum, and
// ask both readers about one blob.
#pragma once

#include <cstdint>
#include <cstring>
#include <vector>

#include "common/crc32.hpp"
#include "governor/snapshot.hpp"

namespace djvm {

/// `bytes` with its last four bytes replaced by the CRC32 of every byte
/// before them (blobs shorter than a footer come back unchanged).
inline std::vector<std::uint8_t> resealed(std::vector<std::uint8_t> bytes) {
  if (bytes.size() < sizeof(std::uint32_t)) return bytes;
  const std::size_t payload = bytes.size() - sizeof(std::uint32_t);
  const std::uint32_t crc = crc32(bytes.data(), payload);
  std::memcpy(bytes.data() + payload, &crc, sizeof(crc));
  return bytes;
}

/// True when parse_snapshot and decode_snapshot (into `gov`) both refuse
/// `bytes`.
inline bool both_readers_reject(const std::vector<std::uint8_t>& bytes,
                                Governor& gov) {
  SnapshotInfo info;
  SquareMatrix tcm;
  const bool parsed = parse_snapshot(bytes, info);
  const bool decoded = decode_snapshot(bytes, gov, tcm);
  return !parsed && !decoded;
}

}  // namespace djvm
