#!/usr/bin/env python3
"""TokenMagic source linter.

Run from anywhere:  python3 tools/lint/tm_lint.py [--root REPO_ROOT]
                                                  [--sarif OUT.sarif]

Registered as the `lint` ctest target; a non-zero exit fails the build.
With --sarif the findings are additionally written as a SARIF 2.1.0 log
(tools/lint/sarif.py) for CI code-scanning upload; plain text on stderr
stays the default for local runs.

Escape comments
---------------
Audited exceptions use ONE syntax, checked by the linter itself:

    // tm-lint: allow(<check>, <reason>)

where <check> is one of: float, clock, history, rpc-bounded,
context-build, test-sleep. The annotation
suppresses that check on the same line or the two lines below it.
The linter rejects
  * unknown <check> names,
  * legacy tokens (float-ok/clock-ok/history-ok/ct-ok), and
  * stale allows that no longer suppress anything,
so escape comments cannot rot silently.

Checks
------
1. Layering [layering]: src/ modules form the DAG

       common <- crypto <- chain <- data <- analysis <- core <- node
              <- sim <- rpc

   (left of the arrow is lower). A module may #include only itself and
   strictly lower modules; any upward or sideways include is an error.

2. Banned patterns (all of src/) [banned-randomness, banned-wallclock]:
     * libc randomness: rand(), std::rand, srand, random() -- all entropy
       must flow through common::Rng (deterministic, seedable) or the
       crypto hash-derived scalars.
     * wall-clock seeding: time(nullptr)/time(NULL)/std::time -- results
       must be reproducible from explicit seeds.

3. Float hygiene [float-exact]: `float`/`double` are banned in the
   exact-arithmetic analysis files (diversity, dtrs, matching,
   related_set, chain_reaction, incremental) where the paper requires
   exact rational/integer verdicts. Audited exceptions carry
   `tm-lint: allow(float, <reason>)`.

4. [[nodiscard]] [nodiscard]: every function declared in a src/ header
   returning common::Status or common::Result<T> must be marked
   [[nodiscard]] so an ignored error is a compile-time warning (an error
   under -Werror).

5. RETIRED (was: constant-time region hygiene [ct-region]). The
   lexical ct-begin/ct-end region checker is superseded by the
   secret-taint dataflow analyzer tools/analyze/tm_ct.py, which tracks
   `// tm-secret` roots interprocedurally across all of src/crypto/
   instead of scanning hand-marked regions in two files. tm_lint now
   rejects the old markers and allow(ct) escapes as unknown directives
   so they cannot linger unchecked.

6. Clock hygiene [clock-hygiene]: raw std::chrono clock reads
   (system_clock/steady_clock/high_resolution_clock::now) are banned
   outside src/common/. Budgeted algorithms must measure time through an
   injected common::Clock (common/deadline.h) so timeout paths are
   deterministically testable; audited exceptions carry
   `tm-lint: allow(clock, <reason>)`.

7. History-span hygiene [history-span]: `std::vector<chain::RsView>` is
   banned in the src/core/ and src/analysis/ API surface (headers). Read
   paths take `std::span<const chain::RsView>` (or an
   analysis::AnalysisContext) so one interned batch snapshot is shared
   instead of copied per call; legitimate owning storage (snapshot
   owners, incremental state) carries `tm-lint: allow(history, <reason>)`.

8. Escape-comment hygiene [allow-hygiene]: every `tm-lint:` directive
   must parse as allow(<known-check>, ...) or a ct region marker, and
   every allow must actually suppress a finding.

9. Bounded serving layer [rpc-bounded]: `std::queue` and its gateway
   include (<queue>) are banned in src/rpc/ and src/testnet/. The
   serving layer's overload story depends on every queue being
   capacity-bounded (rpc::BoundedQueue sheds with Overloaded); an
   unbounded std::queue silently reintroduces the failure modes the
   daemon exists to rule out. The regtest harness (src/testnet/)
   drives those same servers concurrently, so it is held to the same
   discipline. Audited owners carry
   `tm-lint: allow(rpc-bounded, <reason>)` on the exact lines.
   The std::thread half of this check moved to the sync analyzer
   (tools/analyze/tm_sync.py, rule thread-ownership), which also
   understands detach() and join() — thread discipline is a
   synchronization property, not a lexical one.

10. Epoch-chain ownership [context-build]: direct `AnalysisContext::Build`
    calls are banned in src/node/ and src/core/. Those layers rebuild
    contexts on the block-append hot path, where Build is O(history) per
    block; they must route deltas through the batch's
    analysis::EpochChain (Append + View, O(delta)) instead. The chain
    itself (src/analysis/) and cold paths audited with
    `tm-lint: allow(context-build, <reason>)` are exempt — an escape
    names the reason a full rebuild is genuinely required (reorg,
    snapshot restore), so hot-path regressions cannot slip in as
    convenience calls.

11. Test sleep hygiene [test-sleep]: `std::this_thread::sleep_for` /
    `sleep_until` are banned in tests/ (fixture corpora under
    tests/tooling/ are inputs to the analyzers, not tests, and are
    skipped). Sleeping in a test is either a race papered over with a
    timing guess (flaky under load / TSan) or wasted wall-clock.
    Tests wait on observable state — counters, futures, bounded
    polls through an injected clock. The rare legitimate poll
    interval carries `tm-lint: allow(test-sleep, <reason>)` on the
    exact line.
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]
                       / "analyze"))
import sarif  # noqa: E402  (tools/lint/sarif.py)
from frontend import strip_comments  # noqa: E402  (tools/analyze/frontend.py)

TOOL_VERSION = "3.3"

MODULE_RANK = {
    "common": 0,
    "crypto": 1,
    "chain": 2,
    "data": 3,
    "analysis": 4,
    "core": 5,
    "node": 6,
    "sim": 7,
    "rpc": 8,
    "testnet": 9,
}

# Files where the paper's guarantees hinge on exact integer/rational math.
FLOAT_BANNED_FILES = {
    "analysis/diversity.h", "analysis/diversity.cc",
    "analysis/dtrs.h", "analysis/dtrs.cc",
    "analysis/matching.h", "analysis/matching.cc",
    "analysis/related_set.h", "analysis/related_set.cc",
    "analysis/chain_reaction.h", "analysis/chain_reaction.cc",
    "analysis/context.h", "analysis/context.cc",
    "chain/ht_index.h", "chain/ht_index.cc",
}

#: The unified escape-comment checks (check 8 rejects anything else).
ALLOW_CHECKS = {"float", "clock", "history", "rpc-bounded", "context-build",
                "test-sleep"}

RULE_DESCRIPTIONS = {
    "layering": "module include must follow the layering DAG",
    "banned-randomness": "libc randomness is banned; use common::Rng",
    "banned-wallclock": "wall-clock seeding is banned; thread a seed",
    "float-exact": "float/double banned in exact-arithmetic analysis code",
    "nodiscard": "Status/Result returns must be [[nodiscard]]",
    "clock-hygiene": "raw std::chrono clock reads banned outside common/",
    "history-span": "by-value RsView history banned in core/analysis API",
    "allow-hygiene": "tm-lint escape comments must be known and non-stale",
    "rpc-bounded": "std::queue banned in src/rpc/ and src/testnet/; use "
                   "BoundedQueue (std::thread is tm_sync's domain)",
    "context-build": "direct AnalysisContext::Build banned in src/node/ "
                     "and src/core/; append epochs via EpochChain",
    "test-sleep": "sleep_for/sleep_until banned in tests/; wait on "
                  "observable state instead of a timing guess",
}

INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"')
RAND_RE = re.compile(r'\b(?:std::)?(?:s?rand|random)\s*\(')
TIME_RE = re.compile(r'\b(?:std::)?time\s*\(\s*(?:nullptr|NULL|0)\s*\)')
FLOAT_RE = re.compile(r'\b(?:float|double)\b')
NODISCARD_RE = re.compile(r'\[\[nodiscard\]\]')
# Friend declarations are deliberately excluded: [[nodiscard]] on a friend
# declaration that is not a definition is ignored (and -Werror=attributes
# rejects it); the namespace-scope declaration carries the attribute instead.
STATUS_DECL_RE = re.compile(
    r'^\s*(?:\[\[nodiscard\]\]\s*)?(?:static\s+|virtual\s+)*'
    r'(?:::)?(?:tokenmagic::)?(?:common::)?'
    r'(?:Status|Result<[^;=]*>)\s+'
    r'[A-Za-z_]\w*\s*\(')
CLOCK_RE = re.compile(
    r'\b(?:std::chrono::)?'
    r'(?:system_clock|steady_clock|high_resolution_clock)::now\s*\(')
HISTORY_VEC_RE = re.compile(r'std::vector<\s*(?:chain::)?RsView\s*>')
RPC_UNBOUNDED_RE = re.compile(r'\bstd::queue\b')
RPC_INCLUDE_RE = re.compile(r'^\s*#\s*include\s+<queue>')
TEST_SLEEP_RE = re.compile(r'\bstd::this_thread::sleep_(?:for|until)\s*\(')
CONTEXT_BUILD_RE = re.compile(r'\bAnalysisContext::Build\s*\(')

DIRECTIVE_RE = re.compile(r'tm-lint:\s*([A-Za-z-]+)')
ALLOW_RE = re.compile(
    r'tm-lint:\s*allow\(\s*([A-Za-z-]+)\s*(?:,\s*([^)]*))?\)')
LEGACY_RE = re.compile(
    r'tm-lint:\s*(float-ok|clock-ok|history-ok|ct-ok)\s*\(')


class Allow:
    """One parsed `tm-lint: allow(check, reason)` escape comment."""

    def __init__(self, line_no: int, check: str):
        self.line_no = line_no
        self.check = check
        self.used = False


class Linter:
    def __init__(self, root: pathlib.Path):
        self.root = root
        self.src = root / "src"
        self.findings: list[sarif.Finding] = []
        #: path -> parsed allow comments, filled before the checks run.
        self.allows: dict[pathlib.Path, list[Allow]] = {}

    def error(self, path: pathlib.Path, line_no: int, rule: str,
              message: str) -> None:
        rel = path.relative_to(self.root).as_posix()
        self.findings.append(sarif.Finding(rel, line_no, rule, message))

    # -- helpers ----------------------------------------------------------

    def iter_source_files(self):
        for path in sorted(self.src.rglob("*")):
            if path.suffix in (".h", ".cc"):
                yield path

    def iter_test_files(self):
        """tests/ sources, minus the fixture corpora under tests/tooling/
        (those are analyzer inputs, deliberately full of banned shapes)."""
        tests = self.root / "tests"
        if not tests.is_dir():
            return
        for path in sorted(tests.rglob("*")):
            if path.suffix not in (".h", ".cc"):
                continue
            if "tooling" in path.relative_to(tests).parts:
                continue
            yield path

    def scan_allows(self, path: pathlib.Path, raw: list[str]) -> None:
        """Parses every tm-lint directive; rejects malformed ones now and
        records allow() comments for the stale check after the scan."""
        allows: list[Allow] = []
        for i, line in enumerate(raw, start=1):
            if "tm-lint:" not in line:
                continue
            legacy = LEGACY_RE.search(line)
            if legacy:
                self.error(path, i, "allow-hygiene",
                           f"legacy escape token 'tm-lint: {legacy.group(1)}"
                           "(...)'; migrate to the unified "
                           "'tm-lint: allow(<check>, <reason>)' syntax")
                continue
            m = ALLOW_RE.search(line)
            if not m:
                directive = DIRECTIVE_RE.search(line)
                name = directive.group(1) if directive else "<unparsable>"
                self.error(path, i, "allow-hygiene",
                           f"unknown tm-lint directive '{name}'; expected "
                           "'allow(<check>, <reason>)' (constant-time "
                           "hygiene moved to tools/analyze/tm_ct.py)")
                continue
            check = m.group(1)
            if check not in ALLOW_CHECKS:
                self.error(path, i, "allow-hygiene",
                           f"allow({check}): unknown check; known checks: "
                           f"{', '.join(sorted(ALLOW_CHECKS))}")
                continue
            allows.append(Allow(i, check))
        self.allows[path] = allows

    def consume_allow(self, path: pathlib.Path, check: str,
                      line_no: int) -> bool:
        """True when an allow(check) covers `line_no` (same line or the two
        lines above); marks it used so the stale check passes."""
        lo = line_no - 2
        hit = False
        for allow in self.allows.get(path, []):
            if allow.check == check and lo <= allow.line_no <= line_no:
                allow.used = True
                hit = True
        return hit

    # -- checks -----------------------------------------------------------

    def check_layering(self, path: pathlib.Path, raw: list[str]) -> None:
        rel = path.relative_to(self.src)
        module = rel.parts[0]
        if module not in MODULE_RANK:
            self.error(path, 1, "layering",
                       f"unknown module '{module}' (update the DAG "
                       "in tools/lint/tm_lint.py and docs)")
            return
        rank = MODULE_RANK[module]
        for i, line in enumerate(raw, start=1):
            m = INCLUDE_RE.match(line)
            if not m:
                continue
            target = m.group(1).split("/")[0]
            if target not in MODULE_RANK:
                continue  # third-party or relative include
            if MODULE_RANK[target] > rank or (
                    MODULE_RANK[target] == rank and target != module):
                self.error(path, i, "layering",
                           f"layering violation: '{module}' (rank {rank}) "
                           f"may not include '{m.group(1)}' "
                           f"(module '{target}', rank {MODULE_RANK[target]})")

    def check_banned_patterns(self, path: pathlib.Path,
                              code: list[str]) -> None:
        for i, line in enumerate(code, start=1):
            if RAND_RE.search(line):
                self.error(path, i, "banned-randomness",
                           "banned randomness: use common::Rng (explicit "
                           "seed) instead of libc rand()/srand()/random()")
            if TIME_RE.search(line):
                self.error(path, i, "banned-wallclock",
                           "banned wall-clock seeding: time(nullptr) makes "
                           "runs irreproducible; thread an explicit seed")

    def check_float_ban(self, path: pathlib.Path, code: list[str]) -> None:
        rel = str(path.relative_to(self.src)).replace("\\", "/")
        if rel not in FLOAT_BANNED_FILES:
            return
        for i, line in enumerate(code, start=1):
            if not FLOAT_RE.search(line):
                continue
            if self.consume_allow(path, "float", i):
                continue
            self.error(path, i, "float-exact",
                       "float/double in exact-arithmetic analysis code; "
                       "use integer/rational math or annotate an audited "
                       "use with 'tm-lint: allow(float, <reason>)'")

    def check_nodiscard(self, path: pathlib.Path, code: list[str]) -> None:
        if path.suffix != ".h":
            return
        for i, line in enumerate(code, start=1):
            if not STATUS_DECL_RE.match(line):
                continue
            if NODISCARD_RE.search(line):
                continue
            prev = code[i - 2] if i >= 2 else ""
            if NODISCARD_RE.search(prev):
                continue
            self.error(path, i, "nodiscard",
                       "Status/Result-returning function must be "
                       "[[nodiscard]] (silently dropped errors corrupt "
                       "results)")

    def check_clock_hygiene(self, path: pathlib.Path,
                            code: list[str]) -> None:
        rel = path.relative_to(self.src)
        if rel.parts[0] == "common":
            return  # SteadyClock/StopWatch implementations live here
        for i, line in enumerate(code, start=1):
            if not CLOCK_RE.search(line):
                continue
            if self.consume_allow(path, "clock", i):
                continue
            self.error(path, i, "clock-hygiene",
                       "raw std::chrono clock read; inject a common::Clock "
                       "(common/deadline.h) so deadlines are testable, or "
                       "annotate an audited use with "
                       "'tm-lint: allow(clock, <reason>)'")

    def check_history_span(self, path: pathlib.Path,
                           code: list[str]) -> None:
        rel = path.relative_to(self.src)
        if rel.parts[0] not in ("core", "analysis") or path.suffix != ".h":
            return
        for i, line in enumerate(code, start=1):
            if not HISTORY_VEC_RE.search(line):
                continue
            if self.consume_allow(path, "history", i):
                continue
            self.error(path, i, "history-span",
                       "by-value RsView history in the core/analysis API "
                       "surface; take std::span<const chain::RsView> (or "
                       "an AnalysisContext) so the batch snapshot is "
                       "shared, or annotate owning storage with "
                       "'tm-lint: allow(history, <reason>)'")

    def check_rpc_bounded(self, path: pathlib.Path, raw: list[str],
                          code: list[str]) -> None:
        rel = path.relative_to(self.src)
        if rel.parts[0] not in ("rpc", "testnet"):
            return
        for i, (raw_line, line) in enumerate(zip(raw, code), start=1):
            if not (RPC_INCLUDE_RE.match(raw_line) or
                    RPC_UNBOUNDED_RE.search(line)):
                continue
            if self.consume_allow(path, "rpc-bounded", i):
                continue
            self.error(path, i, "rpc-bounded",
                       "unbounded std::queue in the serving layer: use "
                       "rpc::BoundedQueue (typed shedding), or annotate an "
                       "audited owner with "
                       "'tm-lint: allow(rpc-bounded, <reason>)'")

    def check_context_build(self, path: pathlib.Path,
                            code: list[str]) -> None:
        rel = path.relative_to(self.src)
        if rel.parts[0] not in ("node", "core"):
            return
        for i, line in enumerate(code, start=1):
            if not CONTEXT_BUILD_RE.search(line):
                continue
            if self.consume_allow(path, "context-build", i):
                continue
            self.error(path, i, "context-build",
                       "direct AnalysisContext::Build in src/node//src/core/"
                       " rebuilds O(history) state per call; route the "
                       "block delta through the batch's analysis::EpochChain"
                       " (Append + View) or annotate an audited cold path "
                       "with 'tm-lint: allow(context-build, <reason>)'")

    def check_test_sleep(self, path: pathlib.Path,
                         code: list[str]) -> None:
        for i, line in enumerate(code, start=1):
            if not TEST_SLEEP_RE.search(line):
                continue
            if self.consume_allow(path, "test-sleep", i):
                continue
            self.error(path, i, "test-sleep",
                       "sleep in a test: a timing guess is either a "
                       "papered-over race or wasted wall-clock; wait on "
                       "observable state (counters, Join, bounded poll via "
                       "an injected clock) or annotate a legitimate poll "
                       "interval with 'tm-lint: allow(test-sleep, <reason>)'")

    def check_stale_allows(self) -> None:
        for path, allows in sorted(self.allows.items()):
            for allow in allows:
                if allow.used:
                    continue
                self.error(path, allow.line_no, "allow-hygiene",
                           f"stale allow({allow.check}): nothing within its "
                           "window needs suppression; delete the escape "
                           "comment (or move it to the offending line)")

    # -- driver -----------------------------------------------------------

    def run(self, sarif_out: pathlib.Path | None = None) -> int:
        files = list(self.iter_source_files())
        test_files = list(self.iter_test_files())
        # Pass 1: parse every escape comment so the per-file checks can
        # consume allows and the stale check sees the full registry.
        contents = {}
        for path in files + test_files:
            raw = path.read_text().splitlines()
            contents[path] = raw
            self.scan_allows(path, raw)
        # Pass 2: the checks.
        for path in files:
            raw = contents[path]
            code = strip_comments(raw)
            self.check_layering(path, raw)
            self.check_banned_patterns(path, code)
            self.check_float_ban(path, code)
            self.check_nodiscard(path, code)
            self.check_clock_hygiene(path, code)
            self.check_history_span(path, code)
            self.check_rpc_bounded(path, raw, code)
            self.check_context_build(path, code)
        for path in test_files:
            self.check_test_sleep(path, strip_comments(contents[path]))
        self.check_stale_allows()

        if sarif_out is not None:
            sarif.write_log(sarif_out, sarif.make_log(
                "tm_lint", TOOL_VERSION, self.findings, RULE_DESCRIPTIONS))

        if self.findings:
            for finding in self.findings:
                print(finding.render(), file=sys.stderr)
            print(f"tm_lint: {len(self.findings)} error(s)", file=sys.stderr)
            return 1
        print("tm_lint: OK")
        return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", type=pathlib.Path,
                        default=pathlib.Path(__file__).resolve().parents[2])
    parser.add_argument("--sarif", type=pathlib.Path, default=None,
                        help="also write findings as a SARIF 2.1.0 log")
    args = parser.parse_args()
    return Linter(args.root.resolve()).run(args.sarif)


if __name__ == "__main__":
    sys.exit(main())
