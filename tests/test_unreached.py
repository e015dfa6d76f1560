#!/usr/bin/env python3
"""Unit tests for tools/unreached.py's expected-list matcher, fed
hand-written listings.

The coverage job compares its listing of never-executed src/ functions
against tools/unreached-expected.txt: a function the listing reports but the
file does not name is "unexpected", a file entry the listing no longer
reports is "stale".  Entries match by path and demangled name, never by
line.  Registered with ctest (label `unit`).
"""

import os
import sys
import unittest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "tools"))
import unreached  # noqa: E402

EXPECTED = """\
# workload interface
src/apps/sor.cpp  djvm::SorApp::checksum() const

# test observers of behaviour that stays
src/governor/snapshot.cpp  djvm::SnapshotWriter::completed() const
src/dsm/gos.cpp  djvm::Gos::Hooks::on_access(unsigned int, unsigned int, bool)
"""


class UnreachedExpectedTest(unittest.TestCase):
    def setUp(self):
        self.expected = unreached.read_expected(EXPECTED.splitlines())

    def test_comments_and_blank_lines_are_not_entries(self):
        self.assertEqual(len(self.expected), 3)
        self.assertIn(("src/apps/sor.cpp", "djvm::SorApp::checksum() const"),
                      self.expected)

    def test_a_listing_that_matches_reports_nothing(self):
        cold = [
            ("src/apps/sor.cpp", 40, "djvm::SorApp::checksum() const"),
            ("src/governor/snapshot.cpp", 12, "djvm::SnapshotWriter::completed() const"),
            ("src/dsm/gos.cpp", 7,
             "djvm::Gos::Hooks::on_access(unsigned int, unsigned int, bool)"),
        ]
        self.assertEqual(unreached.compare(cold, self.expected), ([], []))

    def test_line_numbers_do_not_matter(self):
        moved = [
            ("src/apps/sor.cpp", 999, "djvm::SorApp::checksum() const"),
            ("src/governor/snapshot.cpp", 1, "djvm::SnapshotWriter::completed() const"),
            ("src/dsm/gos.cpp", 70,
             "djvm::Gos::Hooks::on_access(unsigned int, unsigned int, bool)"),
        ]
        self.assertEqual(unreached.compare(moved, self.expected), ([], []))

    def test_new_cold_function_is_unexpected(self):
        cold = [
            ("src/apps/sor.cpp", 40, "djvm::SorApp::checksum() const"),
            ("src/governor/snapshot.cpp", 12, "djvm::SnapshotWriter::completed() const"),
            ("src/dsm/gos.cpp", 7,
             "djvm::Gos::Hooks::on_access(unsigned int, unsigned int, bool)"),
            ("src/runtime/heap.cpp", 53, "djvm::Heap::orphan_helper(unsigned int) const"),
        ]
        unexpected, stale = unreached.compare(cold, self.expected)
        self.assertEqual(unexpected,
                         [("src/runtime/heap.cpp", "djvm::Heap::orphan_helper(unsigned int) const")])
        self.assertEqual(stale, [])

    def test_reached_or_deleted_entry_is_stale(self):
        cold = [("src/apps/sor.cpp", 40, "djvm::SorApp::checksum() const")]
        unexpected, stale = unreached.compare(cold, self.expected)
        self.assertEqual(unexpected, [])
        self.assertEqual(stale, [
            ("src/dsm/gos.cpp",
             "djvm::Gos::Hooks::on_access(unsigned int, unsigned int, bool)"),
            ("src/governor/snapshot.cpp", "djvm::SnapshotWriter::completed() const"),
        ])

    def test_same_name_in_another_file_does_not_match(self):
        cold = [("src/apps/sor_copy.cpp", 40, "djvm::SorApp::checksum() const")]
        unexpected, stale = unreached.compare(cold, self.expected)
        self.assertEqual(unexpected,
                         [("src/apps/sor_copy.cpp", "djvm::SorApp::checksum() const")])
        self.assertEqual(len(stale), 3)

    def test_checked_in_list_parses(self):
        path = os.path.join(REPO_ROOT, "tools", "unreached-expected.txt")
        with open(path) as f:
            entries = unreached.read_expected(f)
        self.assertGreater(len(entries), 0)
        for src, name in entries:
            self.assertTrue(src.startswith("src/"), src)
            self.assertTrue(os.path.isfile(os.path.join(REPO_ROOT, src)), src)
            self.assertTrue(name)


if __name__ == "__main__":
    unittest.main()
