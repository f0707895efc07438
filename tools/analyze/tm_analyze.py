#!/usr/bin/env python3
"""tm-analyze: view-lifetime and cache-coherence analyzer for TokenMagic.

Run from anywhere:  python3 tools/analyze/tm_analyze.py
                        [--root REPO_ROOT] [--build-dir BUILD]
                        [--frontend auto|clang|lexical] [--sarif OUT.sarif]

tm_lint.py (same findings format, tools/lint/sarif.py) is a line lexer for
bans and layering; this tool reasons about *lifetimes*: which structs hold
non-owning views into storage someone else owns, and which mutations
invalidate those views. Registered as the `analyze` ctest target; non-zero
exit fails the build.

Frontends
---------
Two interchangeable frontends discover the same fact set (view-typed
members, ref-capturing escaping lambdas, view-returning functions and
their owning locals):

  * clang   — libclang over compile_commands.json (--build-dir). The AST
              gives exact member types, lambda capture lists, and return
              statements. Used in CI, where clang + python3-clang are
              installed.
  * lexical — a self-contained scope tracker (brace depth + class stack)
              with type regexes. No dependencies beyond the stdlib, so the
              gate runs on any dev box; it is deliberately conservative
              and tuned to this codebase's style (one decl per line).

--frontend auto (the default) uses clang when the bindings and a
compilation database are available, else falls back to lexical. Both
frontends feed the same rule evaluation and annotation registry, so the
set of *required annotations* is identical; the clang frontend can only
see strictly more sites.

The view-lifetime model
-----------------------
A "view" is a type that references storage it does not own:
std::span<...>, std::string_view, chain::RsView references/pointers, and
analysis::AnalysisContext pointers/references. Function *parameters* of
view type are fine by convention — they borrow from the caller for the
duration of the call. Everything longer-lived must be annotated
(grammar documented in src/common/annotations.h):

  // tm-owns: <what>                    owning storage others point into
  // tm-borrows(<owner>): <why>         a stored view + who outlives it
  // tm-invalidates(<Type::member>): <why>   a method that invalidates

Rules (stable ids, also the SARIF rule ids):

  view-member        a struct/class member of view type (or an owning
                     vector<RsView> history) lacks tm-owns / tm-borrows
                     on its declaration line or the two lines above.
  lambda-escape      a by-reference-capturing lambda escapes: returned,
                     or stored into a std::function member/static. The
                     captured locals die with the frame; annotate the
                     audited cases with tm-borrows(<owner>).
  view-return        a function whose return type is a view returns a
                     local owning object (vector/string/array declared in
                     its own body) — the classic dangling span.
  borrow-owner       tm-borrows(<owner>) names an unknown owner: it must
                     be `caller`, a sibling member declared tm-owns, or a
                     `Type::member` declared tm-owns somewhere in src/.
  invalidate-target  tm-invalidates(<Type::member>) names a member that
                     is not declared tm-owns anywhere.
  owner-mutation     a tm-owns member is cleared / reassigned / reset
                     outside a method annotated tm-invalidates for it —
                     an unadvertised invalidation of live borrowers.
  annotation-grammar a tm-owns/tm-borrows/tm-invalidates comment that
                     does not parse or is not attached to a declaration.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import pathlib
import re
import sys

sys.path.insert(
    0, str(pathlib.Path(__file__).resolve().parents[1] / "lint"))
import sarif  # noqa: E402  (tools/lint/sarif.py)
from frontend import clang_available, strip_comments  # noqa: E402

TOOL_VERSION = "1.0"

RULE_DESCRIPTIONS = {
    "view-member": "view-typed member needs tm-owns or tm-borrows",
    "lambda-escape": "ref-capturing lambda escapes its frame",
    "view-return": "view return type referencing a local owner",
    "borrow-owner": "tm-borrows owner must be caller or a tm-owns member",
    "invalidate-target": "tm-invalidates target must be a tm-owns member",
    "owner-mutation": "tm-owns member mutated outside a tm-invalidates "
                      "method",
    "annotation-grammar": "malformed or unattached tm- annotation",
}

# Directories whose members must be annotated. common/ and crypto/ hold no
# stored views (checked by the frontends anyway: a view member there is
# still flagged); chain::RsView itself owns its members vector.
AUDITED_DIRS = ("analysis", "chain", "core", "data", "node", "rpc", "sim",
                "testnet")

# -- annotation grammar ------------------------------------------------------

# Anchored at comment start so prose *about* the grammar (e.g. the
# documentation block in common/annotations.h) is not parsed as a use.
OWNS_RE = re.compile(r'^\s*//\s*tm-owns:\s*(\S.*)')
BORROWS_RE = re.compile(r'^\s*//\s*tm-borrows\(([^)]+)\):\s*(\S.*)')
INVALIDATES_RE = re.compile(r'^\s*//\s*tm-invalidates\(([^)]+)\):')
ANY_TM_RE = re.compile(r'^\s*//\s*tm-(owns|borrows|invalidates)\b')
TM_MACRO_RE = re.compile(r'\bTM_[A-Z_]+\([^()]*(?:\([^()]*\)[^()]*)*\)')

# -- lexical type patterns ---------------------------------------------------

VIEW_TYPE_RE = re.compile(
    r'std::span<|std::string_view\b'
    r'|(?:const\s+)?(?:analysis::)?AnalysisContext\s*[*&]'
    r'|(?:const\s+)?(?:chain::)?RsView\s*[*&]')
OWNING_HISTORY_RE = re.compile(r'std::vector<\s*(?:chain::)?RsView\s*>')
# A member declaration: optional qualifiers, a type, an identifier,
# terminated by ; or {…} or = default-init. Excludes function decls via the
# no-"(" check done by callers.
MEMBER_NAME_RE = re.compile(r'\b([A-Za-z_]\w*)\s*(?:=[^=].*)?;')
# An access specifier is not a member: the declaration that follows it is
# checked, and annotated, on its own line.
ACCESS_SPECIFIER_RE = re.compile(r'^(?:public|protected|private)\s*:$')
CLASS_RE = re.compile(r'\b(?:class|struct)\s+([A-Za-z_]\w*)\s*'
                      r'(?:final\s*)?(?::[^;{]*)?{')
DEF_RE = re.compile(r'^\S[^;{]*?\b([A-Z]\w*)::(~?[A-Za-z_]\w*)\s*\(')
METHOD_NAME_RE = re.compile(r'\b(~?[A-Za-z_]\w*)\s*\(')
REF_LAMBDA_RE = re.compile(r'\[(?:[^\]]*[&][^\]]*)?\]\s*(?:\([^)]*\))?\s*'
                           r'(?:mutable\s*)?(?:->[^{]*)?{')
REF_CAPTURE_RE = re.compile(r'\[\s*&|[\[,]\s*&\s*[A-Za-z_]')
RETURN_LAMBDA_RE = re.compile(r'\breturn\s*\[[^\]]*&')
FUNCTION_MEMBER_RE = re.compile(r'std::function<[^;]*>\s+\w+')
VIEW_RETURN_TYPE_RE = re.compile(
    r'^(?:[\w:\[\]<>,\s]*\s)?'
    r'(std::span<[^;]*>|std::string_view|'
    r'(?:const\s+)?(?:chain::)?RsView\s*&|'
    r'(?:const\s+)?(?:analysis::)?AnalysisContext\s*[*&])\s*'
    r'[A-Za-z_][\w:]*\s*\(')
OWNING_LOCAL_RE = re.compile(
    r'^\s*(?:const\s+)?(?:std::vector<[^;=]*>|std::string|std::array<[^;=]*>)'
    r'\s+([A-Za-z_]\w*)\s*[;({=]')
RETURN_IDENT_RE = re.compile(r'\breturn\s+\{?\s*([A-Za-z_]\w*)\s*[;,}]')
MUTATION_RES = {
    "clear": r'\b{m}\s*\.\s*clear\s*\(',
    "reset": r'\b{m}\s*\.\s*reset\s*\(',
    "erase": r'\b{m}\s*\.\s*erase\s*\(',
    "assign": r'(?<![\w.>])(?:this->)?{m}\s*=(?!=)',
}


@dataclasses.dataclass
class Member:
    cls: str
    name: str
    file: str
    line: int
    owns: bool = False
    borrows: str | None = None   # owner token, when tm-borrows is present


@dataclasses.dataclass
class Invalidator:
    cls: str
    method: str
    target: str   # "Type::member"
    file: str
    line: int


class Registry:
    """All tm- annotations plus the declarations they attach to."""

    def __init__(self):
        self.members: dict[str, Member] = {}        # "Cls::name" -> Member
        self.owns: set[str] = set()                 # "Cls::name"
        self.borrows: list[Member] = []
        self.invalidators: list[Invalidator] = []
        self.grammar_errors: list[sarif.Finding] = []

    def invalidator_methods(self, target: str) -> set[tuple[str, str]]:
        return {(inv.cls, inv.method) for inv in self.invalidators
                if inv.target == target}


class ScopeTracker:
    """Brace-depth tracker with a (kind, name, depth) scope stack.

    Kinds: 'class' (class/struct body), 'func' (any other braced scope:
    function bodies, lambdas, control flow). Namespace braces are treated
    as transparent (they don't affect member detection)."""

    def __init__(self):
        self.depth = 0
        self.stack: list[tuple[str, str, int]] = []
        self._pending: str | None = None  # classified-but-unopened scope

    def enclosing_class(self) -> str | None:
        for kind, name, _ in reversed(self.stack):
            if kind == "class":
                return name
        return None

    def in_function(self) -> bool:
        return any(kind == "func" for kind, _, _ in self.stack)

    def feed(self, code_line: str) -> None:
        class_m = CLASS_RE.search(code_line)
        i = 0
        while i < len(code_line):
            ch = code_line[i]
            if ch == "{":
                name = ""
                kind = "func"
                if class_m is not None and class_m.end() - 1 == i:
                    kind, name = "class", class_m.group(1)
                    class_m = None
                elif re.search(r'\bnamespace\b[^{]*$', code_line[:i]):
                    kind = "namespace"
                self.depth += 1
                if kind != "namespace":
                    self.stack.append((kind, name, self.depth))
            elif ch == "}":
                if self.stack and self.stack[-1][2] == self.depth:
                    self.stack.pop()
                self.depth = max(0, self.depth - 1)
            i += 1


def rel(path: pathlib.Path, root: pathlib.Path) -> str:
    return path.relative_to(root).as_posix()


def join_stmt(code: list[str], i: int, limit: int = 5) -> tuple[str, int]:
    """Joins code lines starting at index `i` until one carries a ';' or
    '{' (a declaration can wrap; TM_* attribute macros are stripped from
    the joined text). Returns (statement, index of the last line used)."""
    parts = []
    last = i
    for j in range(i, min(len(code), i + limit)):
        parts.append(code[j].strip())
        last = j
        if ";" in code[j] or "{" in code[j]:
            break
    return TM_MACRO_RE.sub("", " ".join(parts)).strip(), last


def iter_source_files(src: pathlib.Path):
    for path in sorted(src.rglob("*")):
        if path.suffix in (".h", ".cc"):
            yield path


def has_annotation(raw: list[str], line_no: int) -> tuple[bool, str | None]:
    """(annotated, borrows-owner) for a decl at 1-based `line_no`, looking
    at the line itself and the two lines above."""
    owns = False
    owner = None
    for i in range(max(0, line_no - 3), line_no):
        if OWNS_RE.search(raw[i]):
            owns = True
        m = BORROWS_RE.search(raw[i])
        if m:
            owner = m.group(1).strip()
    return owns or owner is not None, owner


# -- pass 1: annotation registry --------------------------------------------


def build_registry(files: list[pathlib.Path], root: pathlib.Path,
                   contents: dict[pathlib.Path, list[str]]) -> Registry:
    reg = Registry()
    for path in files:
        raw = contents[path]
        code = strip_comments(raw)
        scope = ScopeTracker()
        current_def: tuple[str, str] | None = None
        pending: list[tuple[str, str, int]] = []  # (kind, payload, line)
        for i, code_line in enumerate(code):
            line_no = i + 1
            raw_line = raw[i]
            def_m = DEF_RE.match(code_line)
            if def_m and not scope.in_function():
                current_def = (def_m.group(1), def_m.group(2))

            # Collect annotations; they attach to the next decl line.
            for kind, regex in (("owns", OWNS_RE), ("borrows", BORROWS_RE),
                                ("invalidates", INVALIDATES_RE)):
                m = regex.search(raw_line)
                if m:
                    payload = m.group(1) if kind != "owns" else ""
                    pending.append((kind, payload, line_no))
            if ANY_TM_RE.search(raw_line) and not (
                    OWNS_RE.search(raw_line) or BORROWS_RE.search(raw_line)
                    or INVALIDATES_RE.search(raw_line)):
                reg.grammar_errors.append(sarif.Finding(
                    rel(path, root), line_no, "annotation-grammar",
                    "unparsable tm- annotation; grammar: 'tm-owns: <what>', "
                    "'tm-borrows(<owner>): <why>', "
                    "'tm-invalidates(<Type::member>): <why>'"))

            if not code_line.strip():
                continue

            if pending:
                cls = scope.enclosing_class()
                stmt, _ = join_stmt(code, i)
                for kind, payload, ann_line in list(pending):
                    if kind == "invalidates":
                        name_m = METHOD_NAME_RE.search(stmt)
                        if def_m is not None:
                            reg.invalidators.append(Invalidator(
                                def_m.group(1), def_m.group(2),
                                payload.strip(), rel(path, root), ann_line))
                        elif cls and name_m and "(" in stmt:
                            reg.invalidators.append(Invalidator(
                                cls, name_m.group(1), payload.strip(),
                                rel(path, root), ann_line))
                        else:
                            reg.grammar_errors.append(sarif.Finding(
                                rel(path, root), ann_line,
                                "annotation-grammar",
                                "tm-invalidates must annotate a method "
                                "declaration or definition"))
                    else:
                        name_m = (None if "(" in stmt
                                  else MEMBER_NAME_RE.search(stmt))
                        if cls and name_m:
                            key = f"{cls}::{name_m.group(1)}"
                            member = reg.members.setdefault(
                                key, Member(cls, name_m.group(1),
                                            rel(path, root), line_no))
                            if kind == "owns":
                                member.owns = True
                                reg.owns.add(key)
                            else:
                                member.borrows = payload.strip()
                                reg.borrows.append(member)
                        # tm-owns on non-member lines (e.g. a local) is
                        # legal documentation; only class members register.
                pending.clear()
            scope.feed(code_line)
    return reg


# -- pass 2: lexical frontend ------------------------------------------------


def lexical_frontend(files: list[pathlib.Path], root: pathlib.Path,
                     contents: dict[pathlib.Path, list[str]],
                     findings: list[sarif.Finding]) -> None:
    src = root / "src"
    for path in files:
        raw = contents[path]
        code = strip_comments(raw)
        module = path.relative_to(src).parts[0]
        audited = module in AUDITED_DIRS
        scope = ScopeTracker()
        # view-return bookkeeping: (returns_view, {owning locals}, depth)
        fn_stack: list[tuple[bool, set, int]] = []
        paren_bal = 0       # >0 while inside a wrapped parameter list
        member_done = -1    # last line consumed by a joined member stmt
        for i, code_line in enumerate(code):
            line_no = i + 1
            stripped = code_line.strip()

            # ---- view-member ----
            in_class = (scope.enclosing_class() is not None
                        and not scope.in_function())
            if (in_class and stripped and paren_bal == 0
                    and i > member_done
                    and not ACCESS_SPECIFIER_RE.match(stripped)):
                stmt, last = join_stmt(code, i)
                if ("(" not in stmt and MEMBER_NAME_RE.search(stmt)):
                    member_done = last
                    is_view = VIEW_TYPE_RE.search(stmt)
                    is_owning_history = (audited
                                         and OWNING_HISTORY_RE.search(stmt))
                    if is_view or is_owning_history:
                        annotated, _ = has_annotation(raw, line_no)
                        if not annotated:
                            what = ("view-typed member" if is_view else
                                    "owning RsView history member")
                            findings.append(sarif.Finding(
                                rel(path, root), line_no, "view-member",
                                f"{what} "
                                f"'{MEMBER_NAME_RE.search(stmt).group(1)}' "
                                "has no lifetime annotation; add "
                                "'// tm-owns: <what>' (owning storage) or "
                                "'// tm-borrows(<owner>): <why>' (stored "
                                "view) above the declaration"))

            # ---- lambda-escape ----
            ret_lambda = RETURN_LAMBDA_RE.search(code_line)
            # A std::function holding a by-ref lambda only escapes when it
            # outlives the frame: a member/static. Local recursion helpers
            # (std::function<...> f = [&](...){...} inside a body) do not.
            fn_member_lambda = (FUNCTION_MEMBER_RE.search(code_line)
                                and REF_CAPTURE_RE.search(code_line)
                                and (not scope.in_function()
                                     or stripped.startswith("static ")))
            if ret_lambda or fn_member_lambda:
                annotated, _ = has_annotation(raw, line_no)
                if not annotated:
                    how = ("returned" if ret_lambda
                           else "stored in a std::function")
                    findings.append(sarif.Finding(
                        rel(path, root), line_no, "lambda-escape",
                        f"by-reference-capturing lambda is {how}: its "
                        "captures die with the enclosing frame; capture by "
                        "value, or annotate an audited lifetime with "
                        "'// tm-borrows(<owner>): <why>'"))

            # ---- view-return ----
            if (VIEW_RETURN_TYPE_RE.match(stripped)
                    and not stripped.endswith(";")):
                fn_stack.append((True, set(), scope.depth + 1))
            if fn_stack:
                local_m = OWNING_LOCAL_RE.match(code_line)
                if local_m:
                    fn_stack[-1][1].add(local_m.group(1))
                ret_m = RETURN_IDENT_RE.search(code_line)
                if (ret_m and fn_stack[-1][0]
                        and ret_m.group(1) in fn_stack[-1][1]):
                    annotated, _ = has_annotation(raw, line_no)
                    if not annotated:
                        findings.append(sarif.Finding(
                            rel(path, root), line_no, "view-return",
                            f"returning a view into local "
                            f"'{ret_m.group(1)}', which is destroyed when "
                            "this function returns; return the owning "
                            "object, or take the storage from the caller"))
            scope.feed(code_line)
            paren_bal = max(
                0, paren_bal + code_line.count("(") - code_line.count(")"))
            while fn_stack and scope.depth < fn_stack[-1][2]:
                fn_stack.pop()


# -- pass 2 (alternative): libclang frontend ---------------------------------


VIEW_TYPE_SPELLINGS = ("std::span<", "span<", "std::string_view",
                       "string_view", "basic_string_view")
VIEW_POINTEE_SPELLINGS = ("AnalysisContext", "RsView")


def clang_is_view_type(type_obj) -> bool:
    spelling = type_obj.get_canonical().spelling
    if any(tok in spelling for tok in VIEW_TYPE_SPELLINGS):
        return True
    if spelling.endswith(("*", "&")):
        return any(tok in spelling for tok in VIEW_POINTEE_SPELLINGS)
    return False


def clang_frontend(cindex, files, root, contents, build_dir,
                   findings) -> None:
    """AST-exact version of the lexical frontend. Feeds the same rules, so
    annotations are looked up in the raw text around the cursor location."""
    from clang.cindex import CursorKind, CompilationDatabase
    db = CompilationDatabase.fromDirectory(str(build_dir))
    index = cindex.Index.create()
    src = root / "src"
    wanted = {str(p) for p in files}
    seen_members: set[tuple[str, int]] = set()

    def annotated(path: pathlib.Path, line: int) -> bool:
        raw = contents.get(path)
        if raw is None:
            return True  # outside the audited file set
        got, _ = has_annotation(raw, line)
        return got

    def visit(cursor, fn_locals, fn_returns_view):
        for child in cursor.get_children():
            loc = child.location
            in_scope = (loc.file is not None
                        and str(loc.file) in wanted)
            path = pathlib.Path(str(loc.file)) if in_scope else None
            if child.kind == CursorKind.FIELD_DECL and in_scope:
                is_view = clang_is_view_type(child.type)
                spelling = child.type.get_canonical().spelling
                owning_history = ("vector" in spelling
                                  and "RsView" in spelling)
                key = (str(path), loc.line)
                if ((is_view or owning_history)
                        and key not in seen_members
                        and not annotated(path, loc.line)):
                    seen_members.add(key)
                    findings.append(sarif.Finding(
                        rel(path, root), loc.line, "view-member",
                        f"view-typed member '{child.spelling}' has no "
                        "lifetime annotation; add '// tm-owns: <what>' or "
                        "'// tm-borrows(<owner>): <why>'"))
            if child.kind == CursorKind.VAR_DECL:
                spelling = child.type.get_canonical().spelling
                if any(t in spelling for t in ("vector<", "basic_string<",
                                               "array<")):
                    fn_locals.add(child.spelling)
            if (child.kind == CursorKind.RETURN_STMT and in_scope
                    and fn_returns_view):
                tokens = [t.spelling for t in child.get_tokens()]
                if any(t in fn_locals for t in tokens):
                    if not annotated(path, loc.line):
                        findings.append(sarif.Finding(
                            rel(path, root), loc.line, "view-return",
                            "returning a view into a local owning object"))
                if "[" in tokens and "&" in tokens:
                    if not annotated(path, loc.line):
                        findings.append(sarif.Finding(
                            rel(path, root), loc.line, "lambda-escape",
                            "by-reference-capturing lambda is returned"))
            if child.kind in (CursorKind.FUNCTION_DECL, CursorKind.CXX_METHOD,
                              CursorKind.CONSTRUCTOR, CursorKind.LAMBDA_EXPR):
                visit(child, set(), clang_is_view_type(child.result_type)
                      if child.kind != CursorKind.LAMBDA_EXPR
                      else fn_returns_view)
            else:
                visit(child, fn_locals, fn_returns_view)

    parsed = set()
    for cmd in db.getAllCompileCommands():
        tu_file = pathlib.Path(cmd.directory) / cmd.filename
        tu_file = tu_file.resolve()
        if not str(tu_file).startswith(str(src)) or tu_file in parsed:
            continue
        parsed.add(tu_file)
        args = [a for a in list(cmd.arguments)[1:]
                if a not in (str(cmd.filename), "-c", "-o")][:-1]
        tu = index.parse(str(tu_file), args=args)
        visit(tu.cursor, set(), False)


# -- pass 3: cache coherence -------------------------------------------------


def check_cache_coherence(reg: Registry, files, root, contents,
                          findings: list[sarif.Finding]) -> None:
    # borrow-owner: every tm-borrows names a valid owner.
    for member in reg.borrows:
        owner = member.borrows
        ok = (owner == "caller"
              or f"{member.cls}::{owner}" in reg.owns
              or owner in reg.owns)
        if not ok:
            findings.append(sarif.Finding(
                member.file, member.line, "borrow-owner",
                f"tm-borrows({owner}) on {member.cls}::{member.name}: "
                "owner must be 'caller', a sibling tm-owns member, or a "
                "'Type::member' declared tm-owns"))

    # invalidate-target: every tm-invalidates names a tm-owns member.
    for inv in reg.invalidators:
        if inv.target not in reg.owns:
            findings.append(sarif.Finding(
                inv.file, inv.line, "invalidate-target",
                f"tm-invalidates({inv.target}): target is not declared "
                "tm-owns anywhere in src/"))

    # owner-mutation: invalidating mutations of tm-owns members may only
    # happen inside methods annotated tm-invalidates for that member.
    by_class: dict[str, list[Member]] = {}
    for key in reg.owns:
        member = reg.members[key]
        by_class.setdefault(member.cls, []).append(member)
    for path in files:
        raw = contents[path]
        code = strip_comments(raw)
        scope = ScopeTracker()
        current: tuple[str, str] | None = None  # (class, method)
        for i, code_line in enumerate(code):
            line_no = i + 1
            def_m = DEF_RE.match(code_line)
            if def_m and not scope.in_function():
                current = (def_m.group(1), def_m.group(2))
            cls = (current[0] if current and scope.in_function()
                   else scope.enclosing_class())
            if cls in by_class and scope.in_function():
                method = current[1] if current else "<inline>"
                for member in by_class[cls]:
                    target = f"{member.cls}::{member.name}"
                    allowed = reg.invalidator_methods(target)
                    for verb, template in MUTATION_RES.items():
                        regex = re.compile(
                            template.format(m=re.escape(member.name)))
                        if not regex.search(code_line):
                            continue
                        if (cls, method) in allowed or method == member.cls:
                            continue  # annotated invalidator or constructor
                        findings.append(sarif.Finding(
                            rel(path, root), line_no, "owner-mutation",
                            f"{verb} of tm-owns member {target} inside "
                            f"{cls}::{method}, which is not annotated "
                            f"'tm-invalidates({target})'; borrowers cannot "
                            "know their views just died"))
            scope.feed(code_line)


# -- driver ------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--root", type=pathlib.Path,
                        default=pathlib.Path(__file__).resolve().parents[2])
    parser.add_argument("--build-dir", type=pathlib.Path, default=None,
                        help="build tree holding compile_commands.json "
                             "(enables the clang frontend)")
    parser.add_argument("--frontend", choices=("auto", "clang", "lexical"),
                        default="auto")
    parser.add_argument("--sarif", type=pathlib.Path, default=None,
                        help="also write findings as a SARIF 2.1.0 log")
    args = parser.parse_args()

    root = args.root.resolve()
    src = root / "src"
    files = list(iter_source_files(src))
    contents = {p: p.read_text().splitlines() for p in files}

    findings: list[sarif.Finding] = []
    reg = build_registry(files, root, contents)
    findings.extend(reg.grammar_errors)

    frontend = args.frontend
    cindex = reason = None
    if frontend in ("auto", "clang"):
        cindex, reason = clang_available(args.build_dir)
        if cindex is None:
            if frontend == "clang":
                print(f"tm_analyze: clang frontend unavailable: {reason}",
                      file=sys.stderr)
                return 2
            frontend = "lexical"
        else:
            frontend = "clang"

    if frontend == "clang":
        clang_frontend(cindex, files, root, contents,
                       args.build_dir.resolve(), findings)
        # The lexical view-member pass also runs under clang: headers that
        # no TU in the compilation database includes would otherwise be
        # silently unaudited.
        lexical_frontend(files, root, contents, findings)
        findings[:] = list({(f.file, f.line, f.rule_id): f
                            for f in findings}.values())
    else:
        lexical_frontend(files, root, contents, findings)

    check_cache_coherence(reg, files, root, contents, findings)
    findings.sort(key=lambda f: (f.file, f.line, f.rule_id))

    if args.sarif is not None:
        sarif.write_log(args.sarif, sarif.make_log(
            "tm_analyze", TOOL_VERSION, findings, RULE_DESCRIPTIONS))

    if findings:
        for finding in findings:
            print(finding.render(), file=sys.stderr)
        print(f"tm_analyze: {len(findings)} error(s) "
              f"(frontend={frontend})", file=sys.stderr)
        return 1
    print(f"tm_analyze: OK (frontend={frontend}, {len(files)} files, "
          f"{len(reg.owns)} owners, {len(reg.borrows)} borrows, "
          f"{len(reg.invalidators)} invalidators)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
