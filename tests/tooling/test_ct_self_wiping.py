#!/usr/bin/env python3
"""Unit tests for tm_ct's self-wiping-type audit: a listed type the tree
defines must wipe in its destructor; a listed type the tree does not
define is not a finding."""

from __future__ import annotations

import pathlib
import sys
import unittest

ROOT = pathlib.Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "tools" / "analyze"))
import tm_ct  # noqa: E402

WIPING = ("struct Keypair {\n"
          "  ~Keypair() { SecureWipe(secret, 32); }\n"
          "};\n"
          "struct Sha256 {\n"
          "  ~Sha256() { SecureWipe(state_, 32); }\n"
          "};\n")


def audit(source: str) -> list[tuple[str, int]]:
    code = {"src/crypto/types.h": source.splitlines()}
    return [(f.file, f.line)
            for f in tm_ct.check_self_wiping_types(code, code)]


class SelfWipingTypesTest(unittest.TestCase):
    def test_listed_type_absent_from_tree_is_not_a_finding(self):
        self.assertNotIn("struct Commitment", WIPING)
        self.assertEqual(audit(WIPING), [])

    def test_forward_declaration_alone_is_not_a_definition(self):
        self.assertEqual(audit(WIPING + "struct Commitment;\n"), [])

    def test_defined_type_without_destructor_fires(self):
        source = WIPING + "struct Commitment {\n  int blinding;\n};\n"
        self.assertEqual(audit(source), [("src/crypto", 1)])


if __name__ == "__main__":
    unittest.main()
