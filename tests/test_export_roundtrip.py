#!/usr/bin/env python3
"""End-to-end export round trip (ctest: test_export_roundtrip).

Runs `djvm_export demo` into a temp dir, then validates every artifact with
tools/validate_export.py -- the independent stdlib protobuf reader -- plus a
couple of corruption probes against the CLI's error paths.

Usage: test_export_roundtrip.py <djvm_export-binary> <validate_export.py>
"""

import os
import struct
import subprocess
import sys
import tempfile
import zlib


def run(argv, expect=0):
    proc = subprocess.run(argv, capture_output=True, text=True)
    if proc.returncode != expect:
        print(f"command {argv} exited {proc.returncode}, expected {expect}")
        print(proc.stdout)
        print(proc.stderr)
        sys.exit(1)
    return proc


def sealed(payload):
    """Appends the CRC32 footer. zlib.crc32 is the same IEEE CRC-32 as
    src/common/crc32.hpp; the format is host-endian, hence '='."""
    return payload + struct.pack("=I", zlib.crc32(payload))


def influence_blob(class_id):
    """A 193-byte v7 snapshot: one class, one influence entry naming
    `class_id`, a 2x2 map."""
    b = struct.pack("=II", 0x56474A44, 7)          # magic 'DJGV', version
    b += struct.pack("=BBBB", 2, 1, 0, 0)          # closed loop, adapting
    b += struct.pack("=5d", 0.02, 0.05, 0.25, 3.0, 0.0)
    b += struct.pack("=IIQQ", 2, 1 << 16, 0, 0)
    b += struct.pack("=I5I", 1, 0, 16, 17, 0, 1)   # class 0, rated
    b += struct.pack("=II", 0, 0)                  # no shifts, no copy rows
    b += struct.pack("=BBHd", 1, 1, 0, 0.5)        # influence seen
    b += struct.pack("=IId", 1, class_id, 0.625)
    b += struct.pack("=QIB", 0, 0, 0)              # no migrations, no lease
    b += struct.pack("=Q4d", 2, 0.0, 512.0, 512.0, 0.0)
    return sealed(b)


def main():
    if len(sys.argv) != 3:
        print(__doc__)
        return 2
    exporter, validator = sys.argv[1], sys.argv[2]

    with tempfile.TemporaryDirectory(prefix="djvm_export_") as outdir:
        run([exporter, "demo", outdir])
        for name in ("snapshot.bin", "timeline.jsonl", "profile.pb",
                     "collapsed.txt", "snapshot.json"):
            path = os.path.join(outdir, name)
            if not os.path.exists(path) or os.path.getsize(path) == 0:
                print(f"demo did not produce {name}")
                return 1
        run([sys.executable, validator, outdir])

        # Standalone conversion of the snapshot the demo wrote (no registry:
        # class names fall back to class#<id>).
        out2 = os.path.join(outdir, "second")
        os.mkdir(out2)
        run([exporter, os.path.join(outdir, "snapshot.bin"),
             "--pprof", os.path.join(out2, "p.pb"),
             "--json", os.path.join(out2, "s.json")])
        if os.path.getsize(os.path.join(out2, "p.pb")) == 0:
            print("standalone conversion produced an empty profile")
            return 1

        # Corruption probes: each failure class must map to its own exit
        # code (1 usage, 2 unreadable input, 3 corrupt snapshot) so restart
        # tooling can tell "retry another candidate" from "fix the CLI".
        with open(os.path.join(outdir, "snapshot.bin"), "rb") as f:
            blob = f.read()
        trunc = os.path.join(outdir, "trunc.bin")
        with open(trunc, "wb") as f:
            f.write(blob[:len(blob) // 2])
        run([exporter, trunc], expect=3)
        garbage = os.path.join(outdir, "garbage.bin")
        with open(garbage, "wb") as f:
            f.write(b"\x00" * 64)
        run([exporter, garbage], expect=3)
        run([exporter, os.path.join(outdir, "missing.bin")], expect=2)
        run([exporter], expect=1)

        # CRC-sealed probes reach the field rules instead of the checksum.
        if sealed(blob[:-4]) != blob:
            print("zlib.crc32 does not reproduce the snapshot's footer")
            return 1
        v6 = os.path.join(outdir, "v6.bin")
        with open(v6, "wb") as f:
            f.write(sealed(blob[:4] + struct.pack("=I", 6) + blob[8:-4]))
        run([exporter, v6], expect=3)  # v7 is the only format
        for class_id, expect in ((0, 0), (0xFFFFFFFF, 3)):
            crafted = os.path.join(outdir, f"influence{class_id}.bin")
            with open(crafted, "wb") as f:
                f.write(influence_blob(class_id))
            if os.path.getsize(crafted) != 193:
                print("crafted influence blob is not 193 bytes")
                return 1
            run([exporter, crafted, "--pprof", crafted + ".pb"], expect=expect)

    print("export round trip OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
