#!/usr/bin/env python3
"""tm_sync: lock-order & atomic-publication analyzer for the concurrent core.

Usage:
  tools/analyze/tm_sync.py [--root DIR] [--build-dir BUILD]
                           [--frontend auto|clang|lexical] [--sarif OUT.sarif]

Third member of the analyzer family (tm_analyze: borrow contracts; tm_ct:
secret taint). The TSan lane only proves the interleavings our tests drive;
tm_sync makes the synchronization *discipline* itself checkable, so a
deadlock cycle or a half-published epoch cannot hide on a path no test
exercises. It enforces a checked comment grammar over
src/{common,analysis,core,node,rpc,testnet,sim}:

  lock order      Every common::Mutex / common::SharedMutex member carries
                  `// tm-lock-rank(<n>)`. Ranks form one global total order
                  (per member name): a thread may only acquire a mutex whose
                  rank is strictly greater than every rank it already holds,
                  so every cross-module acquisition chain descends the same
                  DAG and cycles are impossible by construction. Acquisition
                  sites are the RAII guards (MutexLock / WriterMutexLock /
                  ReaderMutexLock); held sets propagate through calls via
                  per-function summaries computed to a fixpoint, so
                  "ProcessCluster holds node_mu_ and calls Persist which
                  locks state_mu_" is checked even though the two
                  acquisitions live in different modules.
  publication     Cross-thread publish points are audited pairs:
                  `// tm-publishes(<field>)` on a release store,
                  `// tm-consumes(<field>)` on the matching acquire load.
                  publish-release / consume-acquire reject relaxed or
                  missing memory orders at annotated sites and unpaired
                  fields (a publish nobody consumes is dead weight; a
                  consume nobody publishes reads garbage). Every other
                  std::atomic / std::atomic_ref touch must either be on a
                  declaration audited with `// tm-atomic(<reason>)`
                  (standalone flags and counters) or carry a per-site
                  `// tm-atomic(<reason>)` (e.g. the benign boundary-slot
                  race in RsTailTable); anything else is bare-atomic.
  wait hygiene    cv-predicate rejects condition_variable wait / wait_for /
                  wait_until forms without a predicate (lost-wakeup +
                  spurious-wakeup bugs). held-over-wait flags any blocking
                  point — cv wait, sleep_for, thread join, or a call whose
                  summary may block — reached while a ranked lock is held.
  thread owner    std::thread / std::jthread / .detach() / #include
                  <thread> are banned outside audited owners carrying
                  `// tm-sync: allow(thread-ownership, <reason>)`
                  (WorkerPool owns every thread in the serving stack).
                  Subsumes the thread half of tm_lint check 9.

Escape hatch (uniform across rules, staleness-checked like tm_lint's):

  // tm-sync: allow(<rule>, <reason>)

on the finding line or up to two lines above. An allow naming an unknown
rule, carrying an empty reason, or suppressing nothing is an allow-hygiene
finding, so escapes cannot rot.

Known modeling limits (v1, deliberate): raw std::mutex is unranked — the
only raw-mutex owners are BoundedQueue (condition_variable needs the
standard BasicLockable shape) and WorkerPool's reap list, both leaf locks
audited here by the wait rules instead; implicit atomic conversions
(`if (flag)` on a std::atomic<bool>) are invisible to the access scanner,
so audited flags keep their tm-atomic at the declaration where every
access is covered by name.

Frontends are shared with tm_ct: libclang over compile_commands.json
(--build-dir) segments function bodies from the AST; the lexical
brace-scanner is the dependency-free fallback of --frontend auto. Rule
evaluation is identical either way.

Exit codes: 0 clean, 1 findings, 2 --frontend clang requested but
unavailable.
"""

from __future__ import annotations

import dataclasses
import pathlib
import re
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "lint"))
import sarif  # noqa: E402
from frontend import (  # noqa: E402
    FnDef, balanced_args, body_segments, comment_annotation,
    lexical_functions, run_cli)

TOOL_NAME = "tm_sync"
TOOL_VERSION = "1.0.0"

RULE_DESCRIPTIONS = {
    "lock-order":
        "Every common::Mutex/SharedMutex member declares a tm-lock-rank; "
        "locks may only be acquired in strictly increasing rank order, "
        "including transitively through calls.",
    "publish-release":
        "A tm-publishes(<field>) site must be a store/exchange with "
        "release (or stronger) order, and the field must have a matching "
        "tm-consumes somewhere in the tree.",
    "consume-acquire":
        "A tm-consumes(<field>) site must be a load with acquire (or "
        "stronger) order, and the field must have a matching tm-publishes "
        "somewhere in the tree.",
    "bare-atomic":
        "std::atomic/std::atomic_ref accesses must be covered by a "
        "tm-publishes/tm-consumes pair, a tm-atomic(<reason>) audited "
        "declaration, or a per-site tm-atomic(<reason>).",
    "cv-predicate":
        "condition_variable wait/wait_for/wait_until must take a "
        "predicate; bare waits miss wakeups and wake spuriously.",
    "held-over-wait":
        "No blocking point (cv wait, sleep_for, join, or a call that may "
        "block) may be reached while holding a ranked lock.",
    "thread-ownership":
        "std::thread/std::jthread/detach and <thread> are banned outside "
        "audited owners carrying tm-sync: allow(thread-ownership, ...).",
    "allow-hygiene":
        "tm-sync annotations must be well-formed, attached, and live: "
        "unknown rules, empty reasons, and stale escapes are findings.",
}

RULES = ("lock-order", "publish-release", "consume-acquire", "bare-atomic",
         "cv-predicate", "held-over-wait", "thread-ownership")

AUDITED_SUBDIRS = ("common", "analysis", "core", "node", "rpc", "testnet",
                   "sim")

# -- annotation grammar ------------------------------------------------------

# Anchored at the first comment opener of the line, so prose *about* the
# grammar is not parsed as a use.
LOCK_RANK_RE = re.compile(r'//\s*tm-lock-rank\((\d+)\)')
LOCK_RANK_BARE_RE = re.compile(r'//\s*tm-lock-rank\b(?!\()')
PUBLISHES_RE = re.compile(r'//\s*tm-publishes\(([A-Za-z_]\w*)\)')
CONSUMES_RE = re.compile(r'//\s*tm-consumes\(([A-Za-z_]\w*)\)')
ATOMIC_RE = re.compile(r'//\s*tm-atomic\(([^)]*)\)')
ATOMIC_BARE_RE = re.compile(r'//\s*tm-atomic\b(?!\()')
ALLOW_RE = re.compile(r'//\s*tm-sync:\s*allow\(([a-z-]+)\s*,\s*([^)]*)\)')
ALLOW_BARE_RE = re.compile(r'//\s*tm-sync\b(?!:\s*allow\()')


# -- lexical patterns --------------------------------------------------------

IDENT_RE = re.compile(r'[A-Za-z_]\w*')

MUTEX_DECL_RE = re.compile(
    r'^\s*(?:mutable\s+|static\s+)*(?:common::)?(?:Shared)?Mutex\s+'
    r'([A-Za-z_]\w*)\s*;')
LOCK_ACQ_RE = re.compile(
    r'\b(?:common::)?(MutexLock|WriterMutexLock|ReaderMutexLock)\s+'
    r'[A-Za-z_]\w*\s*\(')
CV_DECL_RE = re.compile(
    r'\bstd::condition_variable(?:_any)?\s+([A-Za-z_]\w*)\s*;')
CV_WAIT_RE = re.compile(
    r'([A-Za-z_]\w*)\s*\.\s*(wait|wait_for|wait_until)\s*\(')
ATOMIC_OP_RE = re.compile(
    r'([A-Za-z_]\w*)\s*(?:\[[^\]]*\])?\s*(?:\.|->)\s*'
    r'(load|store|exchange|fetch_add|fetch_sub|fetch_and|fetch_or|'
    r'fetch_xor|compare_exchange_weak|compare_exchange_strong)\s*\(')
ATOMIC_REF_RE = re.compile(r'\bstd::atomic_ref\s*<')
SLEEP_RE = re.compile(r'\bstd::this_thread::sleep_(?:for|until)\s*\(')
JOIN_RE = re.compile(r'\.\s*join\s*\(\s*\)')
THREAD_RE = re.compile(r'\bstd::j?thread\b')
DETACH_RE = re.compile(r'\.\s*detach\s*\(\s*\)')
THREAD_INCLUDE_RE = re.compile(r'^\s*#\s*include\s+<thread>')

RELEASE_ORDERS = ("memory_order_release", "memory_order_acq_rel",
                  "memory_order_seq_cst")
ACQUIRE_ORDERS = ("memory_order_acquire", "memory_order_acq_rel",
                  "memory_order_seq_cst")


def joined_args(code: list[str], line_i: int, open_idx: int,
                max_lines: int = 4) -> str | None:
    """balanced_args across up to `max_lines` joined code lines."""
    text = code[line_i]
    for extra in range(max_lines):
        args = balanced_args(text, open_idx)
        if args is not None:
            return args
        if line_i + 1 + extra >= len(code):
            return None
        text = text + " " + code[line_i + 1 + extra]
    return balanced_args(text, open_idx)


def last_ident(text: str) -> str | None:
    idents = IDENT_RE.findall(text)
    return idents[-1] if idents else None


def top_level_commas(args: str) -> int:
    depth = 0
    count = 0
    for ch in args:
        if ch in "<([{":
            depth += 1
        elif ch in ">)]}":
            depth -= 1
        elif ch == "," and depth == 0:
            count += 1
    return count


# -- libclang frontend -------------------------------------------------------

def clang_functions(cindex, root: pathlib.Path, build_dir: pathlib.Path,
                    files: dict[str, list[str]],
                    code: dict[str, list[str]]) -> list[FnDef] | None:
    """AST-precise function discovery; rule evaluation stays shared."""
    from clang.cindex import CursorKind, CompilationDatabase
    index = cindex.Index.create()
    db = CompilationDatabase.fromDirectory(str(build_dir))
    fn_kinds = (CursorKind.FUNCTION_DECL, CursorKind.CXX_METHOD,
                CursorKind.CONSTRUCTOR, CursorKind.DESTRUCTOR)
    fns, seen = [], set()

    def visit(cur):
        try:
            loc_file = cur.location.file
        except Exception:
            loc_file = None
        if cur.kind in fn_kinds and cur.is_definition() and loc_file:
            fpath = pathlib.Path(loc_file.name).resolve()
            try:
                rel = str(fpath.relative_to(root.resolve()))
            except ValueError:
                rel = None
            if rel in files:
                body = None
                for child in cur.get_children():
                    if child.kind == CursorKind.COMPOUND_STMT:
                        body = child
                if body is not None:
                    key = (rel, cur.spelling, cur.extent.start.line)
                    if key not in seen:
                        seen.add(key)
                        clines = code[rel]
                        open_line = body.extent.start.line - 1
                        open_col = body.extent.start.column - 1
                        if (0 <= open_line < len(clines)
                                and clines[open_line].find("{", open_col)
                                >= 0):
                            open_col = clines[open_line].find("{", open_col)
                            segs, _ = body_segments(clines, open_line,
                                                    open_col)
                            fns.append(FnDef(
                                name=cur.spelling.split("::")[-1],
                                file=rel,
                                head_line=cur.extent.start.line,
                                segments=segs))
        for child in cur.get_children():
            visit(child)

    parsed_any = False
    for rel in sorted(files):
        if not rel.endswith(".cc"):
            continue
        cmds = db.getCompileCommands(str((root / rel).resolve()))
        if not cmds:
            continue
        args = list(cmds[0].arguments)[1:]
        filtered, skip = [], False
        for a in args:
            if skip:
                skip = False
                continue
            if a in ("-o", "-c"):
                skip = a == "-o"
                continue
            if a.endswith(".cc") or a.endswith(".o"):
                continue
            filtered.append(a)
        try:
            tu = index.parse(str((root / rel).resolve()), args=filtered)
        except Exception:
            continue
        parsed_any = True
        visit(tu.cursor)
    # Headers (inline bodies) are only seen through includes; merge in a
    # lexical pass over any header no TU covered so header-only code
    # (bounded_queue.h) is never silently skipped.
    covered = {f.file for f in fns}
    for rel in sorted(files):
        if rel.endswith(".h") and rel not in covered:
            fns.extend(lexical_functions(rel, code[rel]))
    return fns if parsed_any else None


# -- registries --------------------------------------------------------------

@dataclasses.dataclass
class Registry:
    # mutex member name -> (rank, file, 1-based decl line)
    mutex_ranks: dict = dataclasses.field(default_factory=dict)
    atomics: set = dataclasses.field(default_factory=set)
    audited_atomics: set = dataclasses.field(default_factory=set)
    atomic_decl_sites: list = dataclasses.field(default_factory=list)
    cvs: set = dataclasses.field(default_factory=set)
    # field -> [(file, line)]
    publishes: dict = dataclasses.field(default_factory=dict)
    consumes: dict = dataclasses.field(default_factory=dict)
    # names appearing as receivers at annotated publish/consume sites
    paired_names: set = dataclasses.field(default_factory=set)
    # (file, 1-based line) -> (rule, reason); consumed set mirrors tm_lint
    allows: dict = dataclasses.field(default_factory=dict)
    consumed_allows: set = dataclasses.field(default_factory=set)


def extract_atomic_decl(code_line: str) -> str | None:
    """Name declared by a `std::atomic<...>` declaration, if any.

    Returns None for atomics buried inside other templates
    (shared_ptr<atomic<bool>>, vector<unique_ptr<atomic<T>[]>>) — those
    are storage, reached through an owner that is itself audited.
    """
    idx = code_line.find("std::atomic<")
    if idx == -1:
        return None
    i = idx + len("std::atomic")
    depth = 0
    while i < len(code_line):
        if code_line[i] == "<":
            depth += 1
        elif code_line[i] == ">":
            depth -= 1
            if depth == 0:
                break
        i += 1
    if depth != 0:
        return None
    i += 1
    while i < len(code_line) and code_line[i] in " \t*&":
        i += 1
    m = IDENT_RE.match(code_line, i)
    if not m:
        return None
    rest = code_line[m.end():].lstrip()
    if rest[:1] in (";", "{", "=", "") or rest[:1] == "[":
        return m.group(0)
    return None


def annotation_at(raw: list[str], line_1based: int, pattern: re.Pattern,
                  span: int = 2):
    """First `pattern` annotation on the line or up to `span` lines above.

    Returns (match, annotation_line_1based) or (None, None).
    """
    for t in range(line_1based - 1, max(-1, line_1based - 2 - span), -1):
        if not 0 <= t < len(raw):
            continue
        m = comment_annotation(raw[t], pattern)
        if m:
            return m, t + 1
    return None, None


class Analysis:
    def __init__(self, files: dict[str, list[str]],
                 code: dict[str, list[str]]):
        self.files = files
        self.code = code
        self.reg = Registry()
        self.findings: list[sarif.Finding] = []

    def report(self, file: str, line: int, rule: str, msg: str):
        """Emits a finding unless an allow(<rule>) covers this line."""
        for t in (line, line - 1, line - 2):
            allow = self.reg.allows.get((file, t))
            if allow is not None and allow[0] == rule:
                self.reg.consumed_allows.add((file, t))
                return
        self.findings.append(
            sarif.Finding(file=file, line=line, rule_id=rule, message=msg))

    # -- registries ----------------------------------------------------------

    def collect_allows(self):
        for path, raw in sorted(self.files.items()):
            for i, line in enumerate(raw):
                m = comment_annotation(line, ALLOW_RE)
                if m:
                    rule, reason = m.group(1), m.group(2).strip()
                    if rule not in RULES:
                        self.findings.append(sarif.Finding(
                            file=path, line=i + 1, rule_id="allow-hygiene",
                            message=f"tm-sync allow names unknown rule "
                                    f"'{rule}'"))
                        continue
                    if not reason:
                        self.findings.append(sarif.Finding(
                            file=path, line=i + 1, rule_id="allow-hygiene",
                            message="tm-sync allow has an empty reason"))
                        continue
                    self.reg.allows[(path, i + 1)] = (rule, reason)
                elif comment_annotation(line, ALLOW_BARE_RE):
                    self.findings.append(sarif.Finding(
                        file=path, line=i + 1, rule_id="allow-hygiene",
                        message="malformed tm-sync annotation: expected "
                                "tm-sync: allow(<rule>, <reason>)"))

    def collect_mutexes(self):
        for path, raw in sorted(self.files.items()):
            clines = self.code[path]
            rank_lines: set[int] = set()
            for i, cl in enumerate(clines):
                m = MUTEX_DECL_RE.match(cl)
                if not m:
                    continue
                name = m.group(1)
                ann, ann_line = annotation_at(raw, i + 1, LOCK_RANK_RE,
                                              span=1)
                if ann is None:
                    self.report(path, i + 1, "lock-order",
                                f"mutex member '{name}' lacks a "
                                f"// tm-lock-rank(<n>) annotation")
                    continue
                rank_lines.add(ann_line)
                rank = int(ann.group(1))
                prev = self.reg.mutex_ranks.get(name)
                if prev is not None and prev[0] != rank:
                    self.report(path, i + 1, "lock-order",
                                f"mutex '{name}' re-declared with rank "
                                f"{rank} but {prev[1]}:{prev[2]} says "
                                f"{prev[0]}; ranks are a per-name global "
                                f"order")
                    continue
                self.reg.mutex_ranks[name] = (rank, path, i + 1)
            # Stale / malformed rank annotations.
            for i, line in enumerate(raw):
                if comment_annotation(line, LOCK_RANK_BARE_RE):
                    self.report(path, i + 1, "lock-order",
                                "malformed tm-lock-rank: a (<n>) rank is "
                                "required")
                    continue
                if not comment_annotation(line, LOCK_RANK_RE):
                    continue
                if i + 1 in rank_lines:
                    continue
                self.report(path, i + 1, "lock-order",
                            "stale tm-lock-rank: attaches to no "
                            "common::Mutex/SharedMutex member declaration")

    def collect_atomics_and_cvs(self):
        for path, raw in sorted(self.files.items()):
            clines = self.code[path]
            for i, cl in enumerate(clines):
                m = CV_DECL_RE.search(cl)
                if m:
                    self.reg.cvs.add(m.group(1))
                name = extract_atomic_decl(cl)
                if name is None:
                    continue
                ann, _ = annotation_at(raw, i + 1, ATOMIC_RE, span=1)
                if ann is not None:
                    if not ann.group(1).strip():
                        self.report(path, i + 1, "bare-atomic",
                                    f"tm-atomic on '{name}' has an empty "
                                    f"reason")
                    else:
                        self.reg.audited_atomics.add(name)
                self.reg.atomics.add(name)
                self.reg.atomic_decl_sites.append((path, i + 1, name))

    # -- publication / atomic-access pass ------------------------------------

    def scan_atomic_sites(self):
        for path, raw in sorted(self.files.items()):
            clines = self.code[path]
            decl_lines = {ln for (p, ln, _) in self.reg.atomic_decl_sites
                          if p == path}
            for i, cl in enumerate(clines):
                if i + 1 in decl_lines:
                    continue
                for m in ATOMIC_OP_RE.finditer(cl):
                    receiver, op = m.group(1), m.group(2)
                    open_idx = cl.find("(", m.end() - 1)
                    args = joined_args(clines, i, open_idx) or ""
                    if (receiver not in self.reg.atomics
                            and "memory_order" not in args):
                        continue   # not an atomic access (vector.load etc.)
                    self.check_site(path, raw, i + 1, receiver, op, args)
                for m in ATOMIC_REF_RE.finditer(cl):
                    # The op may trail on the next line:
                    #   std::atomic_ref<T>(x)
                    #       .store(v, order);
                    window = " ".join(clines[i:i + 3])
                    op, args = None, ""
                    om = re.search(
                        r'\)\s*\.\s*(load|store|exchange|fetch_\w+|'
                        r'compare_exchange_\w+)\s*\(', window)
                    if om:
                        op = om.group(1)
                        args = balanced_args(window,
                                             window.find("(", om.end() - 1)) \
                            or ""
                    self.check_site(path, raw, i + 1, None, op, args)

    def check_site(self, path: str, raw: list[str], line: int,
                   receiver: str | None, op: str | None, args: str):
        pub, _ = annotation_at(raw, line, PUBLISHES_RE)
        con, _ = annotation_at(raw, line, CONSUMES_RE)
        site_audit, _ = annotation_at(raw, line, ATOMIC_RE)
        if pub is not None:
            field = pub.group(1)
            self.reg.publishes.setdefault(field, []).append((path, line))
            if receiver:
                self.reg.paired_names.add(receiver)
            if op not in ("store", "exchange"):
                self.report(path, line, "publish-release",
                            f"tm-publishes({field}) must annotate a "
                            f"store/exchange, not '{op}'")
            elif not any(o in args for o in RELEASE_ORDERS):
                self.report(path, line, "publish-release",
                            f"tm-publishes({field}) store needs "
                            f"memory_order_release (or stronger); relaxed "
                            f"or defaulted orders don't order the "
                            f"published payload")
            return
        if con is not None:
            field = con.group(1)
            self.reg.consumes.setdefault(field, []).append((path, line))
            if receiver:
                self.reg.paired_names.add(receiver)
            if op != "load":
                self.report(path, line, "consume-acquire",
                            f"tm-consumes({field}) must annotate a load, "
                            f"not '{op}'")
            elif not any(o in args for o in ACQUIRE_ORDERS):
                self.report(path, line, "consume-acquire",
                            f"tm-consumes({field}) load needs "
                            f"memory_order_acquire (or stronger) to pair "
                            f"with its release store")
            return
        if site_audit is not None:
            if not site_audit.group(1).strip():
                self.report(path, line, "bare-atomic",
                            "tm-atomic annotation has an empty reason")
            return
        if receiver is not None and receiver in self.reg.audited_atomics:
            return
        what = f"'{receiver}.{op}'" if receiver else "std::atomic_ref access"
        self.report(path, line, "bare-atomic",
                    f"unannotated atomic access {what}: annotate the site "
                    f"with tm-publishes/tm-consumes/tm-atomic(<reason>) or "
                    f"audit the declaration with tm-atomic(<reason>)")

    def check_pairing(self):
        for field, sites in sorted(self.reg.publishes.items()):
            if field not in self.reg.consumes:
                f, ln = sites[0]
                self.report(f, ln, "publish-release",
                            f"published field '{field}' has no matching "
                            f"tm-consumes anywhere in the tree")
        for field, sites in sorted(self.reg.consumes.items()):
            if field not in self.reg.publishes:
                f, ln = sites[0]
                self.report(f, ln, "consume-acquire",
                            f"consumed field '{field}' has no matching "
                            f"tm-publishes anywhere in the tree")

    def check_atomic_decls(self):
        """Every atomic declaration is audited or part of a pair."""
        for path, line, name in self.reg.atomic_decl_sites:
            if name in self.reg.audited_atomics:
                continue
            if name in self.reg.paired_names:
                continue
            self.report(path, line, "bare-atomic",
                        f"std::atomic '{name}' is neither audited with "
                        f"tm-atomic(<reason>) nor accessed through an "
                        f"annotated tm-publishes/tm-consumes pair")

    def check_stale_atomics(self):
        """tm-atomic / tm-publishes / tm-consumes attached to nothing."""
        pub_lines = {(f, ln) for sites in self.reg.publishes.values()
                     for (f, ln) in sites}
        con_lines = {(f, ln) for sites in self.reg.consumes.values()
                     for (f, ln) in sites}
        for path, raw in sorted(self.files.items()):
            clines = self.code[path]
            atomic_ann_ok: set[int] = set()
            for (p, ln, _n) in self.reg.atomic_decl_sites:
                if p == path:
                    atomic_ann_ok.update((ln, ln - 1))
            site_lines = {ln for (f, ln) in pub_lines | con_lines
                          if f == path}
            # An annotation at line L is live when an atomic access sits
            # at L or up to two lines below (the annotation_at window).
            atomic_sites: set[int] = set()
            for i, cl in enumerate(clines):
                if ATOMIC_OP_RE.search(cl) or ATOMIC_REF_RE.search(cl):
                    atomic_sites.update((i + 1, i, i - 1))
            for i, line in enumerate(raw):
                if comment_annotation(line, ATOMIC_BARE_RE):
                    self.report(path, i + 1, "bare-atomic",
                                "malformed tm-atomic: a (<reason>) is "
                                "required")
                    continue
                if comment_annotation(line, ATOMIC_RE) \
                        and i + 1 not in atomic_ann_ok \
                        and i + 1 not in atomic_sites:
                    self.report(path, i + 1, "bare-atomic",
                                "stale tm-atomic: attaches to no atomic "
                                "declaration or access")
                for pat, rule, kind in ((PUBLISHES_RE, "publish-release",
                                         "tm-publishes"),
                                        (CONSUMES_RE, "consume-acquire",
                                         "tm-consumes")):
                    m = comment_annotation(line, pat)
                    if not m:
                        continue
                    near = any(ln in site_lines
                               for ln in (i + 1, i + 2, i + 3))
                    if not near:
                        self.report(path, i + 1, rule,
                                    f"stale {kind}({m.group(1)}): attaches "
                                    f"to no atomic access")

    # -- wait hygiene (file-scope cv checks) ---------------------------------

    def check_cv_predicates(self):
        for path, raw in sorted(self.files.items()):
            clines = self.code[path]
            for i, cl in enumerate(clines):
                for m in CV_WAIT_RE.finditer(cl):
                    receiver, op = m.group(1), m.group(2)
                    if receiver not in self.reg.cvs:
                        continue
                    open_idx = cl.find("(", m.end() - 1)
                    args = joined_args(clines, i, open_idx)
                    need = 1 if op == "wait" else 2
                    if args is None or top_level_commas(args) < need:
                        self.report(path, i + 1, "cv-predicate",
                                    f"condition_variable {op} without a "
                                    f"predicate: spurious wakeups and lost "
                                    f"notifies make bare waits incorrect")

    # -- thread ownership ----------------------------------------------------

    def check_thread_ownership(self):
        for path, raw in sorted(self.files.items()):
            clines = self.code[path]
            for i, line in enumerate(raw):
                if THREAD_INCLUDE_RE.match(line):
                    self.report(path, i + 1, "thread-ownership",
                                "#include <thread> outside an audited "
                                "thread owner; threads live in "
                                "rpc::WorkerPool")
            for i, cl in enumerate(clines):
                if THREAD_RE.search(cl):
                    self.report(path, i + 1, "thread-ownership",
                                "std::thread outside an audited owner: "
                                "route work through rpc::WorkerPool "
                                "(Start/Spawn/Join) so every thread is "
                                "joined")
                if DETACH_RE.search(cl):
                    self.report(path, i + 1, "thread-ownership",
                                "detached threads are banned: nothing can "
                                "join them at shutdown")

    # -- lock order / held-over-wait (function passes) -----------------------

    def function_pass(self, fn: FnDef, summaries: dict,
                      call_re: re.Pattern | None, collect: bool
                      ) -> tuple[set, bool]:
        reg = self.reg
        acquired: set[int] = set()
        may_wait = False
        held: list[tuple[int, str, int]] = []   # (rank, name, depth)
        depth = 0
        for line_i, text in fn.segments:
            events = []   # (pos, kind, payload)
            for m in LOCK_ACQ_RE.finditer(text):
                open_idx = text.find("(", m.end() - 1)
                args = balanced_args(text, open_idx)
                leaf = last_ident(args) if args else None
                if leaf and leaf in reg.mutex_ranks:
                    events.append((m.start(), "acq", leaf))
            for m in CV_WAIT_RE.finditer(text):
                if m.group(1) in reg.cvs:
                    events.append((m.start(), "wait",
                                   f"{m.group(1)}.{m.group(2)}"))
            for m in SLEEP_RE.finditer(text):
                events.append((m.start(), "wait", "sleep_for"))
            for m in JOIN_RE.finditer(text):
                events.append((m.start(), "wait", "join"))
            if call_re is not None:
                for m in call_re.finditer(text):
                    events.append((m.start(1), "call", m.group(1)))
            events.sort(key=lambda e: e[0])
            ev_idx = 0
            for j, ch in enumerate(text + "\n"):
                while ev_idx < len(events) and events[ev_idx][0] == j:
                    _, kind, payload = events[ev_idx]
                    ev_idx += 1
                    if kind == "acq":
                        rank = reg.mutex_ranks[payload][0]
                        for (h_rank, h_name, _d) in held:
                            if h_rank >= rank:
                                if collect:
                                    self.report(
                                        fn.file, line_i + 1, "lock-order",
                                        f"acquiring '{payload}' "
                                        f"(rank {rank}) while holding "
                                        f"'{h_name}' (rank {h_rank}); "
                                        f"locks must be acquired in "
                                        f"strictly increasing rank order")
                                break
                        held.append((rank, payload, depth))
                        acquired.add(rank)
                    elif kind == "wait":
                        may_wait = True
                        if held and collect:
                            self.report(
                                fn.file, line_i + 1, "held-over-wait",
                                f"blocking on {payload} while holding "
                                f"'{held[-1][1]}' (rank {held[-1][0]}): "
                                f"waits stall every thread queued on the "
                                f"held lock")
                    elif kind == "call":
                        s = summaries.get(payload)
                        if s is None:
                            continue
                        callee_ranks, callee_waits = s
                        acquired |= callee_ranks
                        if held:
                            bad = [r for r in sorted(callee_ranks)
                                   if any(h[0] >= r for h in held)]
                            if bad and collect:
                                self.report(
                                    fn.file, line_i + 1, "lock-order",
                                    f"call to '{payload}' acquires rank "
                                    f"{bad[0]} while a rank-"
                                    f"{max(h[0] for h in held)} lock is "
                                    f"held; transitive acquisitions must "
                                    f"also descend the rank order")
                            if callee_waits:
                                may_wait = True
                                if collect:
                                    self.report(
                                        fn.file, line_i + 1,
                                        "held-over-wait",
                                        f"call to '{payload}' may block "
                                        f"(cv wait/sleep/join) while "
                                        f"'{held[-1][1]}' (rank "
                                        f"{held[-1][0]}) is held")
                        elif callee_waits:
                            may_wait = True
                if ch == "{":
                    depth += 1
                elif ch == "}":
                    depth -= 1
                    while held and held[-1][2] > depth:
                        held.pop()
            # End of segment line: nothing to pop (RAII scopes close on
            # '}' which the char walk above already handled).
        return acquired, may_wait

    def run_lock_analysis(self, fns: list[FnDef]):
        # Merge summaries by leaf name (conservative union across
        # overloads and same-named methods), then iterate to a fixpoint.
        names = sorted({fn.name for fn in fns})
        summaries: dict[str, tuple[set, bool]] = \
            {n: (set(), False) for n in names}
        call_re = None
        if names:
            call_re = re.compile(
                r'\b(' + "|".join(re.escape(n) for n in names) +
                r')\s*\(')
        for _ in range(10):
            new: dict[str, tuple[set, bool]] = \
                {n: (set(), False) for n in names}
            for fn in fns:
                acq, waits = self.function_pass(fn, summaries, call_re,
                                                collect=False)
                old_acq, old_waits = new[fn.name]
                new[fn.name] = (old_acq | acq, old_waits or waits)
            if new == summaries:
                break
            summaries = new
        for fn in fns:
            self.function_pass(fn, summaries, call_re, collect=True)

    # -- allow staleness -----------------------------------------------------

    def check_stale_allows(self):
        for (path, line), (rule, _reason) in sorted(self.reg.allows.items()):
            if (path, line) not in self.reg.consumed_allows:
                self.findings.append(sarif.Finding(
                    file=path, line=line, rule_id="allow-hygiene",
                    message=f"stale tm-sync allow({rule}): it suppresses "
                            f"nothing in its three-line window"))


def run(fns: list[FnDef], files: dict[str, list[str]],
        code: dict[str, list[str]]) -> list[sarif.Finding]:
    a = Analysis(files, code)
    a.collect_allows()
    a.collect_mutexes()
    a.collect_atomics_and_cvs()
    a.scan_atomic_sites()
    a.check_pairing()
    a.check_atomic_decls()
    a.check_stale_atomics()
    a.check_cv_predicates()
    a.check_thread_ownership()
    a.run_lock_analysis(fns)
    a.check_stale_allows()
    return a.findings


def main(argv=None) -> int:
    return run_cli(argv, tool=TOOL_NAME, version=TOOL_VERSION,
                   description="lock-order & atomic-publication discipline "
                               "analyzer",
                   rule_descriptions=RULE_DESCRIPTIONS,
                   subdirs=[f"src/{sub}" for sub in AUDITED_SUBDIRS],
                   clang_functions=clang_functions,
                   check=run)


if __name__ == "__main__":
    sys.exit(main())
