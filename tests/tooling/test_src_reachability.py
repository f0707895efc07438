#!/usr/bin/env python3
"""Every header under src/ must be #included by some code that ships or is
measured: a file under src/, tools/, tmbench/, bench/ or examples/ other
than the header's own .cc. A header reached only from tests/ (or from
nowhere) is a module nothing runs, and this check names it."""

from __future__ import annotations

import pathlib
import re
import unittest

ROOT = pathlib.Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
INCLUDER_DIRS = ("src", "tools", "tmbench", "bench", "examples")
SOURCE_SUFFIXES = {".h", ".hpp", ".cc", ".cpp"}
INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"', re.MULTILINE)


def included_headers() -> dict[pathlib.Path, set[pathlib.Path]]:
    """Maps each src/ header that is #included to the files including it.
    Quoted includes resolve against src/ (the project include root) or
    against the including file's own directory."""
    includers: dict[pathlib.Path, set[pathlib.Path]] = {}
    for top in INCLUDER_DIRS:
        for path in sorted((ROOT / top).rglob("*")):
            if path.suffix not in SOURCE_SUFFIXES or not path.is_file():
                continue
            text = path.read_text(encoding="utf-8", errors="replace")
            for name in INCLUDE_RE.findall(text):
                for candidate in (SRC / name, path.parent / name):
                    candidate = candidate.resolve()
                    if candidate.is_file():
                        includers.setdefault(candidate, set()).add(path)
                        break
    return includers


def unreached_headers() -> list[str]:
    includers = included_headers()
    unreached = []
    for header in sorted(SRC.rglob("*.h")):
        own_cc = header.with_suffix(".cc").resolve()
        users = includers.get(header.resolve(), set()) - {own_cc}
        if not users:
            unreached.append(header.relative_to(SRC).as_posix())
    return unreached


class SrcReachabilityTest(unittest.TestCase):
    def test_every_src_header_has_an_includer(self):
        self.assertEqual(
            unreached_headers(), [],
            "headers under src/ that no file in src/, tools/, tmbench/, "
            "bench/ or examples/ includes (besides their own .cc): delete "
            "the module or wire it in")


if __name__ == "__main__":
    unittest.main()
