#!/usr/bin/env python3
"""Unit tests for tools/analyze/frontend.py, the C++ reading layer that
tm_lint, tm_analyze, tm_ct and tm_sync share."""

from __future__ import annotations

import contextlib
import io
import pathlib
import sys
import tempfile
import unittest

ROOT = pathlib.Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "tools" / "analyze"))
import frontend  # noqa: E402
import sarif  # noqa: E402  (put on the path by frontend)


def functions(source: str) -> list[frontend.FnDef]:
    code = frontend.strip_comments(source.splitlines())
    return frontend.lexical_functions("src/x.cc", code)


class LexicalFunctionsTest(unittest.TestCase):
    def test_head_wrapped_across_lines(self):
        fns = functions("int Sum(int a,\n"
                        "        int b) {\n"
                        "  return a + b;\n"
                        "}\n")
        self.assertEqual([f.name for f in fns], ["Sum"])
        self.assertEqual(fns[0].head_line, 1)
        self.assertEqual(fns[0].args, "int a,         int b")
        self.assertEqual(fns[0].segments, [(1, ""), (2, "  return a + b;"),
                                           (3, "")])

    def test_declaration_is_skipped(self):
        fns = functions("int Declared(int a);\n"
                        "void Defined() {}\n")
        self.assertEqual([f.name for f in fns], ["Defined"])

    def test_constructor_with_init_list_is_skipped(self):
        fns = functions("Widget::Widget(int v) : v_(v) {\n"
                        "  Touch();\n"
                        "}\n"
                        "void Widget::Touch() { ++v_; }\n")
        self.assertEqual([f.name for f in fns], ["Touch"])
        self.assertEqual(fns[0].head_line, 4)

    def test_qualified_name_reduces_to_leaf(self):
        fns = functions("void A::B::f() {\n}\n")
        self.assertEqual(fns[0].name, "f")
        self.assertEqual(fns[0].file, "src/x.cc")

    def test_control_flow_heads_are_not_functions(self):
        fns = functions("if (ready) {\n"
                        "  Go();\n"
                        "}\n"
                        "for (int i = 0; i < 3; ++i) {\n"
                        "}\n")
        self.assertEqual(fns, [])

    def test_brace_in_string_literal_opens_no_body(self):
        fns = functions('const char* Brace() { return "{"; }\n'
                        "void After() {}\n")
        self.assertEqual([f.name for f in fns], ["Brace", "After"])
        self.assertEqual(fns[0].segments, [(0, ' return ""; ')])

    def test_lambda_stays_in_enclosing_function(self):
        fns = functions("void Outer() {\n"
                        "  auto f = [&](int x) {\n"
                        "    return x;\n"
                        "  };\n"
                        "  f(1);\n"
                        "}\n")
        self.assertEqual([f.name for f in fns], ["Outer"])
        self.assertEqual([li for li, _ in fns[0].segments],
                         [0, 1, 2, 3, 4, 5])

    def test_head_line_is_one_based(self):
        fns = functions("\n\n\nvoid Third() {\n}\n")
        self.assertEqual(fns[0].head_line, 4)


class StripCommentsTest(unittest.TestCase):
    def test_line_and_block_comments(self):
        self.assertEqual(
            frontend.strip_comments(["int a;  // trailing",
                                     "int b; /* opens",
                                     "still comment */ int c;",
                                     "/* one */ int d; /* two */"]),
            ["int a;  ", "int b; ", " int c;", " int d; "])

    def test_strings_and_char_literals_are_blanked(self):
        self.assertEqual(
            frontend.strip_comments(['s = "a // not a comment";',
                                     'c = \'"\';',
                                     's = "esc \\" quote";']),
            ['s = "";', "c = '';", 's = "";'])

    def test_preprocessor_lines_are_blanked(self):
        self.assertEqual(
            frontend.strip_comments(['#include "core/x.h"',
                                     "  #define N 3",
                                     "int n = N;"]),
            ["", "", "int n = N;"])

    def test_hash_inside_block_comment_is_comment(self):
        self.assertEqual(
            frontend.strip_comments(["/*", "#include <queue>", "*/ int x;"]),
            ["", "", " int x;"])


class LoadFilesTest(unittest.TestCase):
    def test_reads_sources_under_named_subdirs(self):
        with tempfile.TemporaryDirectory() as tmp:
            root = pathlib.Path(tmp)
            for rel in ("src/a/one.h", "src/a/deep/two.cc", "src/a/notes.md",
                        "src/b/three.cc", "src/c/skipped.cc"):
                path = root / rel
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text("int x;  // c\n")
            files, code = frontend.load_files(
                root, ["src/a", "src/b", "src/missing"])
        self.assertEqual(list(files), ["src/a/deep/two.cc", "src/a/one.h",
                                       "src/b/three.cc"])
        self.assertEqual(files["src/a/one.h"], ["int x;  // c"])
        self.assertEqual(code["src/a/one.h"], ["int x;  "])


class RunCliTest(unittest.TestCase):
    def run_cli(self, root: pathlib.Path, *args: str):
        def check(fns, files, code):
            return [sarif.Finding(f.file, f.head_line, "rule", f.name)
                    for f in fns for _ in range(2)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = frontend.run_cli(
                ["--root", str(root), *args], tool="tm_x", version="1",
                description="test", rule_descriptions={"rule": "r"},
                subdirs=["src"], clang_functions=None, check=check)
        return rc, out.getvalue(), err.getvalue()

    def test_clang_requested_without_build_dir_exits_2(self):
        self.assertIsNone(frontend.clang_available(None)[0])
        with tempfile.TemporaryDirectory() as tmp:
            (pathlib.Path(tmp) / "src").mkdir()
            (pathlib.Path(tmp) / "src" / "a.cc").write_text("void f() {}\n")
            rc, _, err = self.run_cli(pathlib.Path(tmp), "--frontend",
                                      "clang")
        self.assertEqual(rc, 2)
        self.assertIn("tm_x: clang frontend unavailable", err)

    def test_findings_are_deduped_and_sorted(self):
        with tempfile.TemporaryDirectory() as tmp:
            (pathlib.Path(tmp) / "src").mkdir()
            (pathlib.Path(tmp) / "src" / "b.cc").write_text("void g() {}\n")
            (pathlib.Path(tmp) / "src" / "a.cc").write_text(
                "\nvoid f() {}\n")
            rc, _, err = self.run_cli(pathlib.Path(tmp), "--frontend",
                                      "lexical")
        self.assertEqual(rc, 1)
        self.assertEqual(err.splitlines()[-1], "tm_x: 2 error(s)")
        self.assertTrue(err.startswith("src/a.cc:2: [rule]"))

    def test_clean_tree_prints_ok_line(self):
        with tempfile.TemporaryDirectory() as tmp:
            (pathlib.Path(tmp) / "src").mkdir()
            (pathlib.Path(tmp) / "src" / "a.h").write_text("int x;\n")
            rc, out, _ = self.run_cli(pathlib.Path(tmp))
        self.assertEqual(rc, 0)
        self.assertEqual(out, "tm_x: OK (frontend=lexical, 1 files, "
                              "0 functions)\n")


if __name__ == "__main__":
    unittest.main()
