"""The C++ reading layer shared by the source checkers.

tm_lint, tm_analyze, tm_ct and tm_sync all read C++ line by line. This
module is that shared layer:

  * strip_comments blanks comments, string and char literals and
    preprocessor lines (callers that need an #include read the raw line);
    every checker runs its code rules over this copy.
  * comment_annotation, balanced_args and body_segments are the lexical
    primitives the taint and lock analyses use on statement text.
  * FnDef, lexical_functions and load_files are the lexical frontend of
    tm_ct and tm_sync: the audited files and every function definition
    with a body, cut into per-line segments.
  * clang_available probes for the libclang python bindings and a
    compilation database (tm_analyze, tm_ct, tm_sync).
  * run_cli is the command line tm_ct and tm_sync share: pick a frontend,
    run the checker, print and optionally SARIF-log its findings.

Each checker keeps its own rules and annotations, and its own
clang_functions (tm_ct and tm_sync) or clang_frontend (tm_analyze).
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import pathlib
import re
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "lint"))
import sarif  # noqa: E402  (tools/lint/sarif.py)

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]

KEYWORDS = {"if", "while", "for", "switch", "return", "do", "else",
            "catch", "sizeof", "static_cast", "reinterpret_cast",
            "const_cast", "alignof", "decltype", "new", "delete"}

# A function head: optional return type, optionally qualified name, "(".
HEAD_RE = re.compile(
    r'^(?:[\w:<>,*&\s]+?[\s*&])?((?:[\w]+::)*~?[A-Za-z_]\w*)\s*\(')


def comment_annotation(line: str, pattern: re.Pattern):
    """Matches `pattern` only right after the line's first `//` opener."""
    idx = line.find("//")
    if idx == -1:
        return None
    return pattern.match(line, idx)


def strip_comments(lines: list[str]) -> list[str]:
    """Per-line copy with comments, strings, and preprocessor blanked
    (callers that need includes read them from the raw lines)."""
    out = []
    in_block = False
    for line in lines:
        result = []
        i = 0
        if not in_block and line.lstrip().startswith("#"):
            out.append("")
            continue
        while i < len(line):
            if in_block:
                end = line.find("*/", i)
                if end == -1:
                    i = len(line)
                else:
                    in_block = False
                    i = end + 2
                continue
            ch = line[i]
            if ch == "/" and line.startswith("//", i):
                break
            if ch == "/" and line.startswith("/*", i):
                in_block = True
                i += 2
                continue
            if ch in "\"'":
                quote = ch
                result.append(quote)
                i += 1
                while i < len(line):
                    if line[i] == "\\":
                        i += 2
                        continue
                    if line[i] == quote:
                        break
                    i += 1
                result.append(quote)
                i += 1
                continue
            result.append(ch)
            i += 1
        out.append("".join(result))
    return out


def balanced_args(text: str, open_idx: int) -> str | None:
    """Returns the text between text[open_idx] == '(' and its match."""
    depth = 0
    for i in range(open_idx, len(text)):
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                return text[open_idx + 1:i]
    return None


def body_segments(code: list[str], open_line: int, open_col: int
                  ) -> tuple[list[tuple[int, str]], int]:
    """Segments from the '{' at (open_line, open_col) to its match."""
    segments = []
    depth = 0
    line_i = open_line
    start_col = open_col
    body_from = open_col + 1
    while line_i < len(code):
        text = code[line_i]
        for j in range(start_col, len(text)):
            if text[j] == "{":
                depth += 1
                if depth == 1:
                    body_from = j + 1
            elif text[j] == "}":
                depth -= 1
                if depth == 0:
                    begin = body_from if line_i == open_line else 0
                    segments.append((line_i, text[begin:j]))
                    return segments, line_i
        begin = open_col + 1 if line_i == open_line else 0
        if depth >= 1:
            segments.append((line_i, text[begin:]))
        line_i += 1
        start_col = 0
    return segments, line_i


# -- function discovery ------------------------------------------------------

@dataclasses.dataclass
class FnDef:
    name: str          # unqualified leaf name
    file: str          # repo-relative path
    head_line: int     # 1-based line of the signature start
    # (line_index_0based, code_text) segments of the body, in order.
    segments: list[tuple[int, str]]
    # The parameter list: the text between the head's parentheses
    # (lexical), or the parameter names joined by ", " (clang).
    args: str = ""
    # The scope written before the name of an out-of-line definition
    # ("Cluster" for `testnet::Cluster::Create`); empty when unknown: an
    # in-class or free-function body, or the clang frontend.
    qualifier: str = ""


def lexical_functions(path: str, code: list[str]) -> list[FnDef]:
    """Every function definition with a body in one comment-stripped file.
    Declarations and constructors with an init list are skipped; a
    lambda stays inside its enclosing function's segments."""
    fns = []
    i = 0
    while i < len(code):
        line = code[i]
        m = HEAD_RE.match(line)
        if not m or m.group(1).split("::")[-1] in KEYWORDS:
            i += 1
            continue
        # Join the head until its parens balance and we reach '{' or ';'.
        head = line
        j = i
        while (head.count("(") > head.count(")")
               or not re.search(r'[;{]', head)) and j + 1 < len(code) \
                and j - i < 8:
            j += 1
            head = head + " " + code[j]
        args_text = balanced_args(head, head.find("(", m.start(1)))
        if args_text is None or ";" in head.split("{")[0]:
            i += 1
            continue
        # Locate the body '{': skip declarations and init-list ctors.
        close = head.find("(", m.start(1)) + 1 + len(args_text)
        tail = head[close + 1:]
        tail_stripped = tail.lstrip()
        if tail_stripped.startswith(":") and not tail_stripped.startswith("::"):
            i = j + 1           # constructor with init list: not analyzed
            continue
        if "{" not in tail:
            i = j + 1
            continue
        # Find the '{' position in the original per-line layout.
        open_line, open_col = None, None
        for k in range(i, min(j + 1, len(code))):
            col = code[k].find("{")
            if col != -1:
                open_line, open_col = k, col
                break
        if open_line is None:
            i = j + 1
            continue
        segments, end_line = body_segments(code, open_line, open_col)
        scopes = m.group(1).split("::")
        fns.append(FnDef(name=scopes[-1], file=path,
                         head_line=i + 1, segments=segments,
                         args=args_text,
                         qualifier=scopes[-2] if len(scopes) > 1 else ""))
        i = end_line + 1
    return fns


def load_files(root: pathlib.Path, subdirs
               ) -> tuple[dict[str, list[str]], dict[str, list[str]]]:
    """(raw lines, strip_comments lines) of every .h/.cc file under each
    of `subdirs` (relative to `root`), keyed by repo-relative path. A
    missing subdirectory is skipped."""
    files: dict[str, list[str]] = {}
    code: dict[str, list[str]] = {}
    for sub in subdirs:
        base = root / sub
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix not in (".h", ".cc"):
                continue
            rel = str(path.relative_to(root))
            raw = path.read_text(encoding="utf-8",
                                 errors="replace").splitlines()
            files[rel] = raw
            code[rel] = strip_comments(raw)
    return files, code


# -- libclang frontend probe -------------------------------------------------

def clang_available(build_dir: pathlib.Path | None):
    """(cindex, None) when the clang bindings, libclang and
    build_dir/compile_commands.json are all usable, else (None, reason)."""
    try:
        from clang import cindex
    except Exception:
        return None, "python clang bindings not importable"
    if build_dir is None or not (build_dir / "compile_commands.json").exists():
        return None, "no compile_commands.json (pass --build-dir)"
    try:
        cindex.Index.create()
    except Exception as e:  # libclang.so missing/mismatched
        return None, f"libclang unusable: {e}"
    return cindex, None


# -- command line ------------------------------------------------------------

def run_cli(argv, *, tool: str, version: str, description: str,
            rule_descriptions: dict[str, str], subdirs,
            clang_functions, check) -> int:
    """Loads `subdirs`, discovers functions with the chosen frontend, runs
    `check(fns, files, code)` and reports its findings. Exit codes: 0
    clean, 1 findings, 2 --frontend clang requested but unavailable."""
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument("--root", type=pathlib.Path, default=REPO_ROOT)
    parser.add_argument("--build-dir", type=pathlib.Path, default=None,
                        help="build dir containing compile_commands.json "
                             "(enables the clang frontend)")
    parser.add_argument("--frontend", choices=("auto", "clang", "lexical"),
                        default="auto")
    parser.add_argument("--sarif", type=pathlib.Path, default=None)
    args = parser.parse_args(argv)

    root = args.root.resolve()
    files, code = load_files(root, subdirs)
    if not files:
        where = root / os.path.commonpath(subdirs)
        print(f"{tool}: no sources under {where}", file=sys.stderr)
        return 0

    fns = None
    if args.frontend != "lexical":
        cindex, problem = clang_available(args.build_dir)
        if cindex is None:
            problem = f"unavailable: {problem}"
        else:
            fns = clang_functions(cindex, root, args.build_dir, files, code)
            problem = "produced no translation units"
        if fns is None and args.frontend == "clang":
            print(f"{tool}: clang frontend {problem}", file=sys.stderr)
            return 2
    frontend = "lexical" if fns is None else "clang"
    if fns is None:
        fns = [fn for rel in sorted(files)
               for fn in lexical_functions(rel, code[rel])]

    findings = {(f.file, f.line, f.rule_id): f
                for f in check(fns, files, code)}
    findings = sorted(findings.values(),
                      key=lambda f: (f.file, f.line, f.rule_id))

    if args.sarif:
        sarif.write_log(args.sarif, sarif.make_log(
            tool, version, findings, rule_descriptions))

    if findings:
        for f in findings:
            print(f.render(), file=sys.stderr)
        print(f"{tool}: {len(findings)} error(s)", file=sys.stderr)
        return 1
    print(f"{tool}: OK (frontend={frontend}, {len(files)} files, "
          f"{len(fns)} functions)")
    return 0
