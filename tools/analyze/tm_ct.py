#!/usr/bin/env python3
"""tm_ct: secret-taint constant-time analyzer for the crypto layer.

Usage:
  tools/analyze/tm_ct.py [--root DIR] [--build-dir BUILD]
                         [--frontend auto|clang|lexical] [--sarif OUT.sarif]

Tracks secret values through src/crypto/ and rejects any code path whose
*timing or memory-access pattern* depends on them. Taint enters at
declarations annotated `// tm-secret` (Keypair::secret, the LSAG nonce u)
and at calls of functions whose return value is derived from such a
declaration; it propagates interprocedurally through
assignments, calls, and returns via per-function summaries computed to a
fixpoint. Taint exits only at audited declassification points — a
`CtDeclassify(...)` call carrying a `// tm-declassify(<reason>)` annotation
— or at a wipe (SecureWipe / WipeScalars).

Frontends (same rule evaluation either way; they differ only in how
function definitions are discovered):

  * clang   — libclang over compile_commands.json (--build-dir). Function
              boundaries, parameter names, and header-inline definitions
              come from the AST, so wrapped signatures and operator
              overloads are segmented exactly. Used in CI, where clang +
              python3-clang are installed.
  * lexical — self-contained regex/brace scanner. No dependencies; used
              locally and as the automatic fallback of --frontend auto.

Rules:

  secret-branch     if/while/for/switch/ternary/TM_CHECK condition reads a
                    tainted value (branch-predictor + trace timing oracle).
  secret-index      array subscript computed from a tainted value (cache
                    timing oracle).
  variable-time-op  `/` or `%` on tainted operands, or a tainted argument
                    passed to a variable-time routine (Secp256k1::Mul /
                    MulBase / MulAdd and their wNAF kernel WnafMul,
                    ScalarInv, FieldInv). Secret
                    scalars must route through the audited constant-time
                    kernels (MulCT / MulBaseCT).
  secret-libcall    memcmp/strcmp/printf-family/HexEncode/ToHex on tainted
                    bytes; use crypto::CtEquals for secret comparisons.
  wipe-on-exit      a tainted local must reach SecureWipe / WipeScalars (or
                    be returned — ownership transfer — or be of a
                    self-wiping type: Keypair, Sha256, Commitment) before
                    the function exits.
  declassify-audit  CtDeclassify without an adjacent tm-declassify
                    annotation; stale/malformed annotations (attached to
                    nothing, empty reason); tm-secret attached to nothing;
                    a self-wiping type whose destructor does not wipe.
  ladder-hygiene    inside a function marked `// tm-ct-ladder`: scalar
                    .Bit() extraction, a non-CT multiply, or control flow
                    lacking a tm-declassify annotation. Replaces the old
                    tm_lint ct-region check with a checked contract.

Annotation grammar (anchored at comment start; prose about the grammar is
not parsed as a use):

  // tm-secret                  on a member or local declaration: the value
                                is a taint root.
  // tm-declassify(<reason>)    on a CtDeclassify(...) statement, or on
                                control flow inside a tm-ct-ladder
                                function: audited taint exit. The reason is
                                mandatory and is carried into the finding
                                when the audit fails.
  // tm-ct-ladder               on a function definition: the body is an
                                audited constant-time kernel; the
                                ladder-hygiene rule scans it.

The model deliberately treats the outputs of MulCT/MulBaseCT as public:
every curve point those kernels produce is public in the protocol: public
keys, key images, and the LSAG nonce points u*G and u*H_p(P), which any
verifier recomputes from the published signature. A point that had to stay
secret would be re-classified with CtPoison + tm-secret at its call site;
see ARCHITECTURE.md "Constant-time discipline".

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
    KEYWORDS, FnDef, balanced_args, body_segments, comment_annotation,
    run_cli)

TOOL_NAME = "tm_ct"
TOOL_VERSION = "1.0.0"

RULE_DESCRIPTIONS = {
    "secret-branch":
        "Control flow must not depend on secret-tainted values.",
    "secret-index":
        "Memory indexing must not depend on secret-tainted values.",
    "variable-time-op":
        "Division/modulo and variable-time routines must not see secret "
        "operands; route secret scalars through MulCT/MulBaseCT.",
    "secret-libcall":
        "Variable-time library calls (memcmp, printf-family, hex encoding) "
        "must not touch secret bytes; use crypto::CtEquals.",
    "wipe-on-exit":
        "Secret-tainted locals must be wiped (SecureWipe/WipeScalars), "
        "returned, or of a self-wiping type before the function exits.",
    "declassify-audit":
        "Every CtDeclassify needs an adjacent // tm-declassify(<reason>); "
        "annotations must attach to real declassification points.",
    "ladder-hygiene":
        "tm-ct-ladder functions must stay branch-free in the scalar: no "
        ".Bit() extraction, no non-CT multiply, no unannotated control "
        "flow.",
}

# Only the crypto layer is audited; the wallet/chain layers see secrets
# solely through the self-wiping carriers defined here.
AUDITED_SUBDIR = pathlib.Path("src") / "crypto"

# Types whose destructor wipes their secret members; locals of these
# types are exempt from wipe-on-exit (and the destructors themselves are
# verified below — see check_self_wiping_types).
SELF_WIPING_TYPES = ("Keypair", "Sha256", "Commitment")

# -- annotation grammar ------------------------------------------------------

# Anchored at the first comment opener of the line, so prose *about* the
# grammar (the documentation block in ct.h, say) is not parsed as a use.
# Annotations may stand alone or trail the code they mark.
DECLASSIFY_RE = re.compile(r'//\s*tm-declassify\(([^)]*)\)')
DECLASSIFY_BARE_RE = re.compile(r'//\s*tm-declassify\b(?!\()')
LADDER_RE = re.compile(r'^\s*//\s*tm-ct-ladder\b')
SECRET_TRAIL_RE = re.compile(r'//\s*tm-secret\b')


# -- lexical patterns --------------------------------------------------------

# A local/member declaration: qualifiers, a type (possibly templated), an
# identifier, then array/init/terminator.
DECL_RE = re.compile(
    r'^\s*(?:const\s+|static\s+|constexpr\s+|mutable\s+)*'
    r'([\w:]+(?:<[^<>;]*(?:<[^<>]*>[^<>;]*)?>)?)(?:\s*[&*])*\s+'
    r'([A-Za-z_]\w*)\s*(\[[^\]]*\])?\s*([;={(]|$)')
ASSIGN_RE = re.compile(
    r'(?<![<>!=+\-*/%&|^])\s*=(?!=)')
IDENT_RE = re.compile(r'[A-Za-z_]\w*')
COND_KEYWORD_RE = re.compile(r'\b(if|while|switch)\s*\(')
FOR_RE = re.compile(r'\bfor\s*\(')
CHECK_MACRO_RE = re.compile(r'\bTM_D?CHECK\s*\(')
CLASS_RE = re.compile(r'\b(?:class|struct)\s+([A-Za-z_]\w*)\s*'
                      r'(?:final\s*)?(?::[^;{]*)?{')
RECEIVER_UPDATE_RE = re.compile(r'([A-Za-z_]\w*)\s*\.\s*Update\s*\(')
WIPE_RE = re.compile(r'\b(?:SecureWipe|WipeScalars)\s*\(')
POISON_RE = re.compile(r'\bCtPoison\s*\(')
DECLASSIFY_CALL_RE = re.compile(r'\bCtDeclassify\s*\(')
DIV_RE = re.compile(r'(?<![/*])[/%](?![/*=])')

# Audited constant-time boundary: these accept tainted scalars and their
# point outputs are public by protocol (or re-classified at the caller).
SINK_CALL_RES = [
    re.compile(r'\b(?:Secp256k1::)?MulCT\s*\('),
    re.compile(r'\b(?:Secp256k1::)?MulBaseCT\s*\('),
]

# Variable-time routines: a tainted argument is a finding.
VAR_TIME_CALLS = [
    ("Secp256k1::Mul", re.compile(r'\bSecp256k1::Mul\s*\(')),
    ("Secp256k1::MulBase", re.compile(r'\bSecp256k1::MulBase\s*\(')),
    ("Secp256k1::MulAdd", re.compile(r'\bSecp256k1::MulAdd\s*\(')),
    ("WnafMul", re.compile(r'\bWnafMul\s*\(')),
    ("ScalarInv", re.compile(r'\bScalarInv\s*\(')),
    ("FieldInv", re.compile(r'\bFieldInv\s*\(')),
]

# Variable-time library calls on secret bytes.
LIBCALL_RES = [
    ("memcmp", re.compile(r'\b(?:std::)?memcmp\s*\(')),
    ("strcmp", re.compile(r'\b(?:std::)?strn?cmp\s*\(')),
    ("printf", re.compile(r'\b(?:f|s|sn)?printf\s*\(')),
    ("fwrite", re.compile(r'\bfwrite\s*\(')),
    ("HexEncode", re.compile(r'\bHexEncode\s*\(')),
    ("ToHex", re.compile(r'\.\s*ToHex\s*\(')),
    ("ToString", re.compile(r'\.\s*ToString\s*\(')),
]

# Non-CT forms banned inside tm-ct-ladder bodies (unqualified forms
# included: the CT kernels live next to them in secp256k1.cc).
LADDER_BANNED = [
    (".Bit() scalar bit extraction", re.compile(r'\.\s*Bit\s*\(')),
    ("non-CT multiply", re.compile(
        r'\bSecp256k1::Mul(?:Base)?\s*\(|(?<![:\w.])Mul(?:Base)?\s*\(|'
        r'\bWnafMul\s*\(')),
]
LADDER_FLOW_RE = re.compile(r'\b(?:if|while|for|switch)\s*\(|\?')


def subscripts(text: str) -> list[str]:
    """Contents of every balanced [...] in text, outer and nested alike.

    `table[(k.limbs[0] & 15) >> 1]` yields both the outer index
    expression and the inner `0`, so a secret index is seen even when it
    wraps another subscript.
    """
    out, opens = [], []
    for i, ch in enumerate(text):
        if ch == "[":
            opens.append(i)
        elif ch == "]" and opens:
            out.append(text[opens.pop() + 1:i])
    return out


def first_ident(text: str) -> str | None:
    m = IDENT_RE.search(text)
    return m.group(0) if m else None


# -- parameter names ---------------------------------------------------------

def split_params(params_text: str) -> list[str]:
    """Last identifier of each top-level comma-separated parameter."""
    parts, depth, cur = [], 0, []
    for ch in params_text:
        if ch in "<([":
            depth += 1
        elif ch in ">)]":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    names = []
    for p in parts:
        p = p.split("=")[0]
        p = re.sub(r'\[[^\]]*\]', '', p)
        idents = IDENT_RE.findall(p)
        if idents and idents[-1] not in ("void", "const", "int", "size_t",
                                         "uint64_t", "uint8_t", "U256"):
            names.append(idents[-1])
    return names


# -- libclang frontend -------------------------------------------------------

def clang_functions(cindex, root: pathlib.Path, build_dir: pathlib.Path,
                    files: dict[str, list[str]],
                    code: dict[str, list[str]]) -> list[FnDef] | None:
    """AST-precise function discovery; rule evaluation stays shared."""
    from clang.cindex import CursorKind, CompilationDatabase
    index = cindex.Index.create()
    db = CompilationDatabase.fromDirectory(str(build_dir))
    crypto_dir = (root / AUDITED_SUBDIR).resolve()
    fn_kinds = (CursorKind.FUNCTION_DECL, CursorKind.CXX_METHOD,
                CursorKind.DESTRUCTOR)
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
                                file=rel, head_line=cur.extent.start.line,
                                segments=segs,
                                args=", ".join(a.spelling for a in
                                               cur.get_arguments()
                                               if a.spelling)))
        for child in cur.get_children():
            visit(child)

    parsed_any = False
    for rel in sorted(files):
        if not rel.endswith(".cc"):
            continue
        cmds = db.getCompileCommands(str((root / rel).resolve()))
        if not cmds:
            continue
        args = [a for a in list(cmds[0].arguments)[1:]
                if a not in ("-c", "-o")]
        # Drop the "-o out.o in.cc" operands; keep include dirs/standards.
        filtered, skip = [], False
        for a in args:
            if skip:
                skip = False
                continue
            if a in ("-o",):
                skip = True
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
    return fns if parsed_any else None


# -- taint engine ------------------------------------------------------------

@dataclasses.dataclass
class Var:
    line: int
    declared: bool = False       # a real local declaration (wipe duty)
    tainted: bool = False
    wiped: bool = False
    returned: bool = False
    self_wiping: bool = False
    carrier: bool = False        # typed as a class with tm-secret members


class Context:
    """Cross-function facts shared by both analysis passes."""

    def __init__(self):
        self.secret_members: set[str] = set()   # member names marked tm-secret
        self.carrier_types: set[str] = set()    # classes owning such members
        self.always_taint: set[str] = set()     # fns returning taint always
        self.never_taint: set[str] = set()      # fns whose calls are masked
        self.used_annotations: set[tuple[str, int]] = set()

    def member_access_re(self):
        if not self.secret_members:
            return None
        names = "|".join(sorted(re.escape(n) for n in self.secret_members))
        return re.compile(r'(?:\.|->)\s*(?:' + names + r')\b')


def mask_call_args(text: str, ctx: Context) -> str:
    """Blanks the argument lists of audited-boundary and taint-free calls.

    Only the "(args)" part is removed; receivers stay visible so that
    `hasher.Finalize()` still reads as tainted when `hasher` is.
    """
    patterns = list(SINK_CALL_RES)
    for name in ctx.never_taint:
        patterns.append(re.compile(r'\b' + re.escape(name) + r'\s*\('))
    changed = True
    while changed:
        changed = False
        for pat in patterns:
            m = pat.search(text)
            while m:
                open_idx = text.find("(", m.start())
                args = balanced_args(text, open_idx)
                if args is None or args == "":
                    break
                text = text[:open_idx] + "()" + \
                    text[open_idx + len(args) + 2:]
                changed = True
                m = pat.search(text)
    return text


def expr_tainted(expr: str, tainted: set[str], ctx: Context,
                 pre_masked: bool = False,
                 carriers: frozenset[str] = frozenset()) -> bool:
    """True when `expr` reads a secret-tainted value.

    `carriers` are tainted locals of carrier types (Keypair, Commitment):
    only their tm-secret members are secret, so `key.pub` stays public
    while `key.secret` (and the whole-object token `key`) is tainted.
    """
    if not pre_masked:
        expr = mask_call_args(expr, ctx)
    for name in ctx.always_taint:
        if re.search(r'\b' + re.escape(name) + r'\s*\(', expr):
            return True
    acc_re = ctx.member_access_re()
    if acc_re and acc_re.search(expr):
        return True
    for m in IDENT_RE.finditer(expr):
        tok = m.group(0)
        if tok not in tainted:
            continue
        if tok in carriers:
            after = expr[m.end():].lstrip()
            if after.startswith(".") or after.startswith("->"):
                continue   # non-secret member access: public
        return True
    return False


def iter_statements(segments):
    """Joins body segments into statements: (line_1based, text)."""
    buf, buf_line, depth = [], None, 0
    for line_i, text in segments:
        if not text.strip() and not buf:
            continue
        if buf_line is None:
            buf_line = line_i
        buf.append(text)
        depth += text.count("(") - text.count(")")
        stripped = text.rstrip()
        if depth <= 0 and stripped and stripped[-1] in ";{}":
            yield buf_line + 1, " ".join(s.strip() for s in buf)
            buf, buf_line, depth = [], None, 0
    if buf:
        yield buf_line + 1, " ".join(s.strip() for s in buf)


def stmt_annotations(raw: list[str], line_1based: int):
    """Annotations on a statement's first line or the line above it.

    Returns (declassify_reason | None, has_secret, annotation_line).
    """
    declassify = None
    secret = False
    ann_line = None
    for t in (line_1based - 1, line_1based - 2):   # own line, line above
        if not 0 <= t < len(raw):
            continue
        m = comment_annotation(raw[t], DECLASSIFY_RE)
        if m and declassify is None:
            declassify = m.group(1).strip()
            ann_line = t + 1
        if comment_annotation(raw[t], SECRET_TRAIL_RE):
            secret = True
    return declassify, secret, ann_line


def extract_conditions(stmt: str) -> list[str]:
    """Condition texts of if/while/switch/for/TM_CHECK/ternary in stmt."""
    conds = []
    for m in COND_KEYWORD_RE.finditer(stmt):
        args = balanced_args(stmt, stmt.find("(", m.start()))
        if args is not None:
            conds.append(args)
    for m in CHECK_MACRO_RE.finditer(stmt):
        args = balanced_args(stmt, stmt.find("(", m.start()))
        if args is not None:
            conds.append(args)
    for m in FOR_RE.finditer(stmt):
        args = balanced_args(stmt, stmt.find("(", m.start()))
        if args is not None and args.count(";") >= 2:
            conds.append(args.split(";")[1])   # classic for: middle clause
    q = stmt.find("?")
    if q != -1 and ":" in stmt[q:] and "::" not in stmt[q - 1:q + 2]:
        before = stmt[:q]
        eq = None
        for m in ASSIGN_RE.finditer(before):
            eq = m.end()
        conds.append(before[eq:] if eq else before)
    return conds


def analyze_function(fn: FnDef, raw: list[str], ctx: Context,
                     tainted_params: set[str], collect: bool
                     ) -> tuple[list[sarif.Finding], bool]:
    """One pass over a function body.

    Returns (findings, returns_tainted). `tainted_params` selects which
    parameters enter tainted: the findings pass and the base summary taint
    the secret-named ones; the param summary pass taints all of them.
    """
    findings: list[sarif.Finding] = []
    vars: dict[str, Var] = {}
    tainted: set[str] = set()
    returns_tainted = False

    def report(rule, line, msg):
        if collect:
            findings.append(sarif.Finding(file=fn.file, line=line,
                                          rule_id=rule, message=msg))

    params = split_params(fn.args)
    head0 = fn.head_line - 1
    is_ladder = any(LADDER_RE.match(raw[t])
                    for t in range(max(0, head0 - 2), head0))
    for p in params:
        vars[p] = Var(line=fn.head_line)
        if p in tainted_params:
            vars[p].tainted = True
            tainted.add(p)

    def taint_var(name, line, declared=False, self_wiping=False):
        v = vars.get(name)
        if v is None:
            v = Var(line=line)
            vars[name] = v
        v.tainted = True
        v.declared = v.declared or declared
        v.self_wiping = v.self_wiping or self_wiping
        v.wiped = False
        tainted.add(name)

    def untaint_var(name):
        v = vars.get(name)
        if v is not None:
            v.tainted = False
        tainted.discard(name)

    def is_tainted(expr, pre_masked=False):
        carriers = frozenset(n for n in tainted
                             if n in vars and vars[n].carrier)
        return expr_tainted(expr, tainted, ctx, pre_masked=pre_masked,
                            carriers=carriers)

    for line, stmt in iter_statements(fn.segments):
        declassify, has_secret, ann_line = stmt_annotations(raw, line)
        decl = DECL_RE.match(stmt)
        decl_type = None
        decl_name = None
        if decl and decl.group(1) not in KEYWORDS and \
                decl.group(2) not in KEYWORDS and "(" not in stmt[:decl.start(2)]:
            decl_type = decl.group(1)
            decl_name = decl.group(2)
            base_type = decl_type.split("<")[0].split("::")[-1]
            v = vars.setdefault(decl_name, Var(line=line))
            v.line = line
            v.declared = True
            v.self_wiping = base_type in SELF_WIPING_TYPES
            v.carrier = base_type in ctx.carrier_types
            if has_secret:
                taint_var(decl_name, line, declared=True,
                          self_wiping=v.self_wiping)
                ctx.used_annotations.add((fn.file, line))
                ctx.used_annotations.add((fn.file, line - 1))
        elif has_secret and collect:
            report("declassify-audit", line,
                   "tm-secret annotation does not attach to a recognizable "
                   "declaration")

        # Wipes kill taint and discharge the wipe-on-exit obligation.
        for m in WIPE_RE.finditer(stmt):
            args = balanced_args(stmt, stmt.find("(", m.start()))
            target = first_ident(args or "")
            if target:
                v = vars.setdefault(target, Var(line=line))
                v.wiped = True
                untaint_var(target)

        for m in POISON_RE.finditer(stmt):
            args = balanced_args(stmt, stmt.find("(", m.start()))
            target = first_ident(args or "")
            if target:
                taint_var(target, line)

        is_declassify_stmt = False
        for m in DECLASSIFY_CALL_RE.finditer(stmt):
            is_declassify_stmt = True
            args = balanced_args(stmt, stmt.find("(", m.start()))
            target = first_ident(args or "")
            if declassify is None:
                report("declassify-audit", line,
                       "CtDeclassify without an adjacent "
                       "// tm-declassify(<reason>) annotation")
            elif not declassify:
                report("declassify-audit", line,
                       "tm-declassify annotation has an empty reason")
            else:
                if ann_line is not None:
                    ctx.used_annotations.add((fn.file, ann_line))
            if target:
                untaint_var(target)

        # Receiver taint: absorbing secret bytes taints the hasher.
        for m in RECEIVER_UPDATE_RE.finditer(stmt):
            args = balanced_args(stmt, stmt.find("(", m.end(1)))
            if args is not None and is_tainted(args):
                taint_var(m.group(1), line)

        # Variable-time calls and libcalls: check each call's own
        # argument list so masked/public siblings don't mislead.
        for display, pat in VAR_TIME_CALLS:
            for m in pat.finditer(stmt):
                args = balanced_args(stmt, stmt.find("(", m.start()))
                if args is not None and is_tainted(args):
                    report("variable-time-op", line,
                           f"secret-tainted argument to variable-time "
                           f"{display}; route secret scalars through "
                           f"MulCT/MulBaseCT")
        for display, pat in LIBCALL_RES:
            for m in pat.finditer(stmt):
                open_idx = stmt.find("(", m.start())
                args = balanced_args(stmt, open_idx)
                recv = stmt[:m.start()].split()[-1] if display in (
                    "ToHex", "ToString") and stmt[:m.start()].split() else ""
                probe = (args or "") + " " + recv
                if is_tainted(probe):
                    report("secret-libcall", line,
                           f"secret-tainted bytes reach variable-time "
                           f"{display}; use crypto::CtEquals / avoid "
                           f"formatting secrets")

        masked = mask_call_args(stmt, ctx)

        if not is_declassify_stmt:
            for cond in extract_conditions(masked):
                if is_tainted(cond, pre_masked=True):
                    if declassify is not None and is_ladder:
                        if ann_line is not None:
                            ctx.used_annotations.add((fn.file, ann_line))
                        continue
                    report("secret-branch", line,
                           "control flow depends on a secret-tainted value; "
                           "compute a branch-free verdict (CtIsZero/"
                           "CtLess) and CtDeclassify it first")

        for index in subscripts(masked):
            if is_tainted(index, pre_masked=True):
                report("secret-index", line,
                       "array subscript depends on a secret-tainted value "
                       "(cache-timing oracle)")

        if DIV_RE.search(masked) and is_tainted(masked, pre_masked=True):
            report("variable-time-op", line,
                   "division/modulo in a statement reading secret-tainted "
                   "values; use the branch-free scalar/field routines")

        # Ladder hygiene: the audited kernels stay branch-free by
        # construction, and the analyzer holds them to it.
        if is_ladder:
            for display, pat in LADDER_BANNED:
                if pat.search(stmt):
                    report("ladder-hygiene", line,
                           f"{display} inside a tm-ct-ladder function")
            if LADDER_FLOW_RE.search(masked) and declassify is None:
                report("ladder-hygiene", line,
                       "control flow inside a tm-ct-ladder function needs "
                       "a // tm-declassify(<reason>) annotation stating "
                       "why the trip count is public")
            elif LADDER_FLOW_RE.search(masked) and ann_line is not None:
                ctx.used_annotations.add((fn.file, ann_line))

        # Assignment: taint flows left, into the base variable of the
        # lvalue chain (`sig.responses[i] = ...` taints `sig`).
        am = ASSIGN_RE.search(masked)
        if am:
            rhs = masked[am.end():]
            if decl_name is not None:
                lhs = decl_name
            else:
                before = masked[:masked.find("=", am.start())].rstrip()
                chain = re.search(r'([A-Za-z_][\w.\[\]>-]*)\s*$', before)
                lhs = first_ident(chain.group(1)) if chain else None
            if lhs and lhs not in KEYWORDS and \
                    is_tainted(rhs, pre_masked=True):
                existing = vars.get(lhs)
                taint_var(lhs, existing.line if existing else line,
                          declared=existing.declared if existing else False,
                          self_wiping=existing.self_wiping
                          if existing else False)

        rm = re.search(r'\breturn\b\s*([^;]*);', masked)
        if rm:
            expr = rm.group(1)
            if expr and is_tainted(expr, pre_masked=True):
                returns_tainted = True
            simple = re.fullmatch(r'([A-Za-z_]\w*)', expr.strip())
            if simple and simple.group(1) in vars:
                vars[simple.group(1)].returned = True

    if collect:
        for name, v in sorted(vars.items(), key=lambda kv: kv[1].line):
            if (v.tainted and v.declared and not v.wiped and not v.returned
                    and not v.self_wiping and name not in params):
                report("wipe-on-exit", v.line,
                       f"secret-tainted local '{name}' is not wiped on "
                       f"every exit path; SecureWipe/WipeScalars it, "
                       f"return it, or use a self-wiping carrier type")

    return findings, returns_tainted


# -- registry / whole-program passes -----------------------------------------

def collect_secret_members(files: dict[str, list[str]],
                           code: dict[str, list[str]],
                           fn_lines: dict[str, set[int]],
                           ctx: Context) -> list[sarif.Finding]:
    """tm-secret annotations outside function bodies name secret members.

    The enclosing class of each member is tracked so the engine can treat
    accesses to the *other* members of such a carrier type as public.
    """
    findings = []
    for path, raw in sorted(files.items()):
        clines = code[path]
        # (class_name, depth_at_open) stack per line, for carrier lookup.
        enclosing: list[str | None] = []
        stack: list[tuple[str, int]] = []
        depth = 0
        for cl in clines:
            m = CLASS_RE.search(cl)
            opens, closes = cl.count("{"), cl.count("}")
            if m:
                stack.append((m.group(1), depth + 1))
            depth += opens - closes
            while stack and depth < stack[-1][1]:
                stack.pop()
            enclosing.append(stack[-1][0] if stack else None)
        for i, line in enumerate(raw):
            if not comment_annotation(line, SECRET_TRAIL_RE):
                continue
            # Attach: code on the same line, else the next code line.
            targets = [i] if clines[i].strip() else [i + 1, i + 2]
            attached = None
            for t in targets:
                if t < len(clines) and clines[t].strip():
                    attached = t
                    break
            if attached is None:
                findings.append(sarif.Finding(
                    file=path, line=i + 1, rule_id="declassify-audit",
                    message="tm-secret annotation attaches to no "
                            "declaration"))
                continue
            if attached + 1 in fn_lines.get(path, set()):
                continue   # local: handled by the per-function engine
            decl = DECL_RE.match(clines[attached])
            if decl and decl.group(2) not in KEYWORDS:
                ctx.secret_members.add(decl.group(2))
                if enclosing[attached]:
                    ctx.carrier_types.add(enclosing[attached])
                ctx.used_annotations.add((path, i + 1))
            else:
                findings.append(sarif.Finding(
                    file=path, line=i + 1, rule_id="declassify-audit",
                    message="tm-secret annotation attaches to no "
                            "declaration"))
    return findings


def check_self_wiping_types(files: dict[str, list[str]],
                            code: dict[str, list[str]]
                            ) -> list[sarif.Finding]:
    """Each SELF_WIPING type the tree defines must have a destructor that
    wipes. A listed type the tree does not define has nothing to audit."""
    findings = []
    for type_name in SELF_WIPING_TYPES:
        def_re = re.compile(r'\b(?:struct|class)\s+' + type_name +
                            r'\b(?!\s*;)')
        if not any(def_re.search(line)
                   for clines in code.values() for line in clines):
            continue
        dtor_re = re.compile(r'~' + type_name + r'\s*\(\s*\)')
        ok = False
        where = None
        for path, clines in sorted(code.items()):
            for i, line in enumerate(clines):
                if dtor_re.search(line) and ";" not in line.split("{")[0]:
                    where = (path, i + 1)
                    window = " ".join(clines[i:i + 8])
                    if "SecureWipe" in window or "WipeScalars" in window:
                        ok = True
        if not ok:
            f, ln = where if where else ("src/crypto", 1)
            findings.append(sarif.Finding(
                file=f, line=ln, rule_id="declassify-audit",
                message=f"self-wiping type {type_name} has no destructor "
                        f"that wipes its secret members"))
    return findings


def check_annotation_use(files: dict[str, list[str]], ctx: Context
                         ) -> list[sarif.Finding]:
    """Stale or malformed annotations are findings, not dead weight."""
    findings = []
    for path, raw in sorted(files.items()):
        for i, line in enumerate(raw):
            if comment_annotation(line, DECLASSIFY_BARE_RE):
                findings.append(sarif.Finding(
                    file=path, line=i + 1, rule_id="declassify-audit",
                    message="malformed tm-declassify: a (<reason>) is "
                            "required"))
            m = comment_annotation(line, DECLASSIFY_RE)
            if m:
                if not m.group(1).strip():
                    findings.append(sarif.Finding(
                        file=path, line=i + 1, rule_id="declassify-audit",
                        message="tm-declassify annotation has an empty "
                                "reason"))
                elif (path, i + 1) not in ctx.used_annotations:
                    findings.append(sarif.Finding(
                        file=path, line=i + 1, rule_id="declassify-audit",
                        message="stale tm-declassify: does not attach to a "
                                "CtDeclassify call or audited ladder "
                                "control flow"))
    return findings


def run(fns: list[FnDef], files: dict[str, list[str]],
        code: dict[str, list[str]]) -> list[sarif.Finding]:
    ctx = Context()
    fn_lines: dict[str, set[int]] = {}
    for fn in fns:
        s = fn_lines.setdefault(fn.file, set())
        for li, _ in fn.segments:
            s.add(li + 1)

    findings = collect_secret_members(files, code, fn_lines, ctx)

    # Interprocedural fixpoint: optimistic start (nothing taints), then
    # escalate until the summaries stop changing. The base summary taints
    # only secret-named parameters (a `blinding` argument taints whatever
    # is derived from it); the param summary taints all of them, and a
    # function tainting neither way is a masked, taint-free call.
    base: dict[str, bool] = {fn.name: False for fn in fns}
    param: dict[str, bool] = {fn.name: False for fn in fns}
    special = {"SecureWipe", "WipeScalars", "CtPoison", "CtDeclassify"}
    for _ in range(8):
        ctx.always_taint = {n for n, t in base.items() if t}
        ctx.never_taint = {n for n in base
                           if not base[n] and not param[n]
                           and n not in special}
        new_base = {n: False for n in base}
        new_param = {n: False for n in param}
        for fn in fns:
            params = split_params(fn.args)
            secret_params = {p for p in params if p in ctx.secret_members}
            _, rb = analyze_function(fn, files[fn.file], ctx,
                                     tainted_params=secret_params,
                                     collect=False)
            _, rp = analyze_function(fn, files[fn.file], ctx,
                                     tainted_params=set(params),
                                     collect=False)
            new_base[fn.name] = new_base[fn.name] or rb
            new_param[fn.name] = new_param[fn.name] or rp or rb
        if new_base == base and new_param == param:
            break
        base, param = new_base, new_param

    ctx.always_taint = {n for n, t in base.items() if t}
    ctx.never_taint = {n for n in base
                       if not base[n] and not param[n] and n not in special}

    ctx.used_annotations = set()
    # Re-register member annotations as used (consumed during collection).
    findings = collect_secret_members(files, code, fn_lines, ctx)
    for fn in fns:
        secret_params = {p for p in split_params(fn.args)
                         if p in ctx.secret_members}
        fn_findings, _ = analyze_function(fn, files[fn.file], ctx,
                                          tainted_params=secret_params,
                                          collect=True)
        findings.extend(fn_findings)

    findings.extend(check_self_wiping_types(files, code))
    findings.extend(check_annotation_use(files, ctx))
    return findings


def main(argv=None) -> int:
    return run_cli(argv, tool=TOOL_NAME, version=TOOL_VERSION,
                   description="secret-taint constant-time analyzer",
                   rule_descriptions=RULE_DESCRIPTIONS,
                   subdirs=(AUDITED_SUBDIR,),
                   clang_functions=clang_functions, check=run)


if __name__ == "__main__":
    sys.exit(main())
