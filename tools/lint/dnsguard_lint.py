#!/usr/bin/env python3
"""dnsguard-lint: project-invariant static analysis for the dnsguard tree.

Seven rules, each guarding an invariant that a previous PR established at
runtime and that ordinary code review keeps failing to protect:

  hot-path-alloc   Functions reachable from the registered hot-path roots
                   (guard cookie verification, EventQueue::pop/run_next,
                   packet encode/deliver/consume) must not allocate:
                   no `new`/`malloc`, no growing std::string/std::vector
                   calls, no std::function construction.
  drop-reason      Every drop site in src/guard, src/tcp, src/ratelimit
                   and src/server must charge a DropReason other than
                   kNone (compile-time extension of the runtime audit in
                   tests/test_anomaly.cpp).
  bounded-state    No std::{unordered_,}map/set keyed by attacker-
                   influenced values in those directories — per-source
                   state must use common::BoundedTable.
  sim-time-purity  No wall-clock reads (std::chrono clocks, ::time,
                   gettimeofday, clock_gettime) anywhere except
                   src/common/time.cpp and bench/bench_common.h.
  shard-isolation  In classes that carry a per-shard `struct Shard`,
                   per-source mutable state (BoundedTable / *Limiter
                   members) must live inside Shard, and functions on the
                   sharded packet path (process / serve_lane)
                   must not index `shards_` with a hard-coded constant.
                   Deliberately global state carries `shardsafe`.
  determinism      Across src/ and bench/: no rand()/std::random_device,
                   no pointer-value hashing or ordering (uintptr_t casts,
                   pointer-keyed std maps, std::hash<T*>), and no
                   iteration over std::unordered_* containers — the
                   rerun-digest guarantees bench_guard_shards and
                   fig_flashcrowd assert at runtime depend on it.
  decode-bounds    In src/dns/, parse paths over attacker-controlled wire
                   bytes must go through the bounds-checked dns::Cursor:
                   no raw ByteReader, no pos()/seek()/remaining() offset
                   arithmetic, no reinterpret_cast on wire buffers
                   outside cursor.h.

Escape hatch: a finding is suppressed by an annotation comment on the
offending line or one of the two lines above it:

    // DNSGUARD_LINT_ALLOW(<rule>): <reason>

where <rule> is one of alloc, drop, bounded, simtime, shardsafe,
determinism, decode. The reason is mandatory; an annotation without one
is itself a finding. Annotation counts across src/ are budgeted — in
total and per token — by tools/lint/baseline.json so the escape hatch
cannot silently become the default (--check-baseline).

Front-ends: when the python libclang bindings (clang.cindex) and a
libclang shared library are available, the hot-path-alloc call graph is
built from the AST using CMake's compile_commands.json (--compile-commands
or autodetected at build*/compile_commands.json), and the shard-isolation
/ determinism / decode-bounds rules run their shared dataflow core over
libclang's lexer and AST function extents instead of the built-in
tokenizer. Otherwise — including in minimal CI containers — the built-in
lexer front-end computes all rules from tokenized sources; the fixture
suite pins both front-ends to identical verdicts. Force one with
--engine={auto,clang,text}.

Reporting: human-readable findings on stdout, a JSON report via --json,
and SARIF 2.1.0 via --sarif (consumed by the CI static-analysis job for
code annotations). --list-rules enumerates rules; --only=<rule>[,rule]
restricts a run for fast local iteration.

Exit codes: 0 clean, 1 findings (with --strict), 2 usage/internal error.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import re
import sys
from dataclasses import dataclass, field, asdict

# --------------------------------------------------------------------------
# Shared configuration
# --------------------------------------------------------------------------

RULES = ("hot-path-alloc", "drop-reason", "bounded-state", "sim-time-purity",
         "shard-isolation", "determinism", "decode-bounds")

ALLOW_TOKEN = {
    "hot-path-alloc": "alloc",
    "drop-reason": "drop",
    "bounded-state": "bounded",
    "sim-time-purity": "simtime",
    "shard-isolation": "shardsafe",
    "determinism": "determinism",
    "decode-bounds": "decode",
}

# One-line summaries for --list-rules and the SARIF rule catalog.
RULE_HELP = {
    "hot-path-alloc": ("no allocation in functions reachable from the "
                       "registered hot-path roots"),
    "drop-reason": ("every drop site in attack-surface code charges a "
                    "DropReason other than kNone"),
    "bounded-state": ("attacker-keyed state uses common::BoundedTable, not "
                      "std::{unordered_,}map/set"),
    "sim-time-purity": ("no wall-clock reads outside the sanctioned "
                        "time/profiler/bench files"),
    "shard-isolation": ("per-source state in sharded classes lives inside "
                        "struct Shard; packet-path code never hard-codes a "
                        "shard index"),
    "determinism": ("no rand()/random_device, pointer-value hashing or "
                    "ordering, or std::unordered_* iteration in src/ and "
                    "bench/"),
    "decode-bounds": ("src/dns parse paths use dns::Cursor — no raw "
                      "ByteReader or unchecked offset arithmetic on wire "
                      "bytes"),
}

# Directories whose per-source state and drop bookkeeping are in scope for
# the drop-reason and bounded-state rules (attacker-facing subsystems).
ATTACK_SURFACE_DIRS = ("src/guard", "src/tcp", "src/ratelimit", "src/server")

# The hot-path root set: functions whose transitive callees must stay
# allocation-free. Matched against qualified names ("Class::name"); a
# trailing '*' is a prefix wildcard.
HOT_PATH_ROOTS = (
    "EventQueue::schedule",
    "EventQueue::pop",
    "EventQueue::run_next",
    "CookieEngine::verify*",
    "SynCookieGenerator::validate",
    "DropCounters::count",
    "TokenBucket::try_consume",
    "Packet::release_payload",
    "Node::deliver",
    # Lane service path: every packet of every node is served by
    # serve_lane, and each one hashes at most a few MD5 blocks.
    "Node::serve_lane",
    "CookieHasher::compute",
    "Node::maybe_schedule_lane",
    "Node::flush_outbox_at",
    # Wall-clock profiler probes (obs/profiler.h): a probe fires inside
    # every hot-path root above, so the probes themselves must stay
    # allocation-free. Profiler::enable()/report() are cold and excluded.
    "Profiler::span_begin",
    "Profiler::span_end",
    "Profiler::record",
    "Scope::Scope",
    "Scope::~Scope",
    "DispatchWindow::tick",
)

# Callee names never followed and never flagged (std/builtin vocabulary the
# tokenizer would otherwise resolve to unrelated project functions).
CALL_IGNORE = {
    "if", "for", "while", "switch", "return", "sizeof", "alignof",
    "static_cast", "reinterpret_cast", "const_cast", "dynamic_cast",
    "static_assert", "assert", "defined", "decltype", "noexcept",
    "size", "empty", "begin", "end", "data", "value", "reset", "get",
    "front", "back", "first", "second", "count", "min", "max", "swap",
    "move", "forward", "find", "erase", "clear", "contains", "at",
}

# Direct allocation constructs (regexes over comment/string-stripped code).
ALLOC_PATTERNS = (
    (r"\bnew\b(?!\s*\()", "operator new"),
    (r"\b(?:malloc|calloc|realloc|strdup)\s*\(", "C allocation"),
    (r"\bstd::make_(?:unique|shared)\b", "std::make_unique/make_shared"),
    (r"\.\s*push_back\s*\(", "vector/string growth (push_back)"),
    (r"\.\s*emplace_back\s*\(", "vector growth (emplace_back)"),
    (r"\.\s*emplace\s*\(", "container growth (emplace)"),
    (r"\.\s*resize\s*\(", "container growth (resize)"),
    (r"\.\s*reserve\s*\(", "container growth (reserve)"),
    (r"\.\s*append\s*\(", "string growth (append)"),
    (r"\.\s*substr\s*\(", "string allocation (substr)"),
    (r"\bstd::to_string\s*\(", "string allocation (to_string)"),
    (r"\bstd::string\s*[({]", "std::string construction"),
    (r"\bstd::function\s*<", "std::function construction"),
)

# Wall-clock constructs and their sanctioned homes.
TIME_PATTERNS = (
    r"\bstd::chrono::system_clock\b",
    r"\bstd::chrono::steady_clock\b",
    r"\bstd::chrono::high_resolution_clock\b",
    r"\bgettimeofday\s*\(",
    r"\bclock_gettime\s*\(",
    r"(?<![\w:.])::time\s*\(",
    r"(?<![\w:.>])time\s*\(\s*(?:nullptr|NULL|0)\s*\)",
)
# Sim-time-purity allowlist. Everything under src/ must run on the sim
# clock except:
#   * src/common/time.cpp — the sim clock's own formatting helpers.
#   * bench/bench_common.h — benches measure host throughput by design.
#   * src/obs/profiler.{h,cpp} — the wall-clock cost-attribution profiler
#     *is* a host-time instrument: profiler.h reads the TSC (steady_clock
#     on non-x86), profiler.cpp calibrates ticks against steady_clock.
#     Attributing wall time is its whole purpose, so the exemption lives
#     here as a documented allowlist entry, not as inline suppressions.
TIME_EXEMPT_FILES = (
    "src/common/time.cpp",
    "bench/bench_common.h",
    "src/obs/profiler.h",
    "src/obs/profiler.cpp",
)

# Counter names whose increment marks a drop decision and therefore needs a
# DropReason charged in the surrounding statement window.
DROPPISH_COUNTER = re.compile(
    r"\b\w*(?:dropped|throttled|rejected|malformed|refused)\w*\s*"
    r"(?:\+\+|\.inc\s*\(|\+=)"
)
DROP_COUNT_CALL = re.compile(r"\bdrops_?\s*(?:\.|->)\s*count\s*\(")
DROP_REASON_USE = re.compile(r"\bDropReason::k(?!None\b)\w+")
DROP_REASON_NONE = re.compile(r"\bDropReason::kNone\b")
SEND_RST_CALL = re.compile(r"\bsend_rst\s*\(")
# A DropReason-typed parameter in the enclosing function signature also
# satisfies the rule (drop_spoof/drop_other style helpers charge a reason
# the caller chose).
DROP_REASON_PARAM = re.compile(r"(?:obs::)?DropReason\s+\w+")
DROP_WINDOW = 4  # lines of context around a drop site that may carry the reason

STD_CONTAINER_DECL = re.compile(
    r"\bstd::(unordered_map|unordered_set|map|set)\s*<")

# --- shard-isolation -------------------------------------------------------
# A class is "sharded" when it nests a `struct Shard`. Per-source state
# types that must live inside it: BoundedTable instantiations and the
# rate-limiter classes (but not their nested ::Config types, which are
# plain parameter blocks).
SHARD_STRUCT_RE = re.compile(r"\bstruct\s+Shard\s*\{")
SHARD_PER_SOURCE_DECL = re.compile(
    r"(?:\w+::)*(?:BoundedTable\s*<[^;]*?>|\w+Limiter(?!\s*::))"
    r"\s+(\w+)\s*(?:\{[^;]*\})?;")
# Hard-coded shard subscripts (`shards_[0]`) are fine in cold setup code
# but a cross-shard leak on the packet path.
SHARD_LITERAL_INDEX = re.compile(r"\bshards_\s*\[\s*\d+\s*\]")
# Functions whose bodies (and transitive callees) form the sharded packet
# path: the per-packet service entry and the lane service loop.
SHARD_PATH_ROOTS = ("process", "serve_lane")

# --- determinism -----------------------------------------------------------
DETERMINISM_PATTERNS = (
    (r"(?<![\w:.])(?:rand|srand)\s*\(",
     "libc rand()/srand() — use the seeded common::Rng"),
    (r"\b(?:drand48|lrand48|mrand48|rand_r)\s*\(",
     "libc PRNG — use the seeded common::Rng"),
    (r"\bstd::random_device\b",
     "std::random_device draws entropy from the host — use a fixed seed"),
    (r"\breinterpret_cast\s*<\s*std::uintptr_t\s*>",
     "pointer value converted to an integer — pointer-derived keys/order "
     "vary per run; key on a stable id instead"),
    (r"\bstd::hash\s*<\s*[\w:]+\s*\*\s*>",
     "std::hash over a pointer type — hashes vary with heap layout"),
    (r"\bstd::(?:unordered_)?(?:multi)?(?:map|set)\s*<\s*(?:const\s+)?"
     r"[\w:]+\s*\*\s*[,>]",
     "pointer-keyed container — iteration/lookup order varies with heap "
     "layout; key on a stable id instead"),
)
# Declared-unordered container names -> later iteration over them.
UNORDERED_DECL = re.compile(
    r"\bstd::unordered_(?:map|set|multimap|multiset)\s*<[^;]*?>\s+"
    r"(\w+)\s*[;{=(]")
RANGE_FOR_OVER = re.compile(r"\bfor\s*\([^;()]*?:\s*(?:\w+\s*\.\s*)?(\w+)\s*\)")
BEGIN_CALL_ON = re.compile(r"\b(\w+)\s*\.\s*c?begin\s*\(")

# --- decode-bounds ---------------------------------------------------------
# Inside src/dns/, everything positional must go through dns::Cursor
# (cursor.h itself is the sanctioned implementation and is exempt).
DECODE_SANCTIONED_FILES = ("src/dns/cursor.h",)
DECODE_PATTERNS = (
    (r"\bByteReader\b",
     "raw ByteReader over wire bytes — decode paths must use dns::Cursor"),
    (r"\breinterpret_cast\b",
     "reinterpret_cast on wire data — only dns::Cursor::chars() may "
     "convert wire octets"),
    (r"\.\s*pos\s*\(\s*\)",
     "cursor-position arithmetic — use Cursor windows "
     "(push_window/at_limit) instead of comparing offsets"),
    (r"\.\s*seek\s*\(",
     "absolute seek — use Cursor::jump_back()/resume() for compression "
     "pointers"),
    (r"\.\s*remaining\s*\(",
     "remaining-byte arithmetic — use Cursor::push_window() for length-"
     "prefixed fields"),
    (r"\.\s*data\s*\(\s*\)\s*[+\-]",
     "raw pointer arithmetic on a wire buffer"),
)

ALLOW_RE = re.compile(
    r"//\s*DNSGUARD_LINT_ALLOW\("
    r"(alloc|drop|bounded|simtime|shardsafe|determinism|decode)"
    r"\)\s*(?::\s*(.*))?")
NOLINT_RE = re.compile(r"//\s*NOLINT")

CPP_EXTS = (".cpp", ".h", ".cc", ".hpp")


@dataclass
class Finding:
    rule: str
    file: str
    line: int
    message: str
    context: str = ""
    allowed: bool = False  # suppressed by a DNSGUARD_LINT_ALLOW annotation

    def format(self) -> str:
        tag = "allowed" if self.allowed else "error"
        return f"{self.file}:{self.line}: [{self.rule}] {tag}: {self.message}"


@dataclass
class SourceFile:
    path: str          # repo-relative, forward slashes
    raw_lines: list = field(default_factory=list)
    code_lines: list = field(default_factory=list)  # comments/strings blanked
    allows: dict = field(default_factory=dict)      # line -> (token, reason)


# --------------------------------------------------------------------------
# Lexing helpers (shared by the text front-end and the fixture tests)
# --------------------------------------------------------------------------

def strip_comments_and_strings(text: str) -> str:
    """Blanks comments and string/char literals, preserving line structure
    (and preserving the DNSGUARD_LINT_ALLOW/NOLINT markers, which live in
    comments but are meaningful to the linter)."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            j = n if j == -1 else j
            comment = text[i:j]
            if "DNSGUARD_LINT_ALLOW" in comment or "NOLINT" in comment:
                out.append(comment)
            else:
                out.append(" " * (j - i))
            i = j
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n - 2 if j == -1 else j
            seg = text[i:j + 2]
            out.append("".join(ch if ch == "\n" else " " for ch in seg))
            i = j + 2
        elif c == "'" and i > 0 and text[i - 1].isalnum() and nxt.isalnum():
            # C++14 digit separator (1'000'000), not a char literal.
            out.append(c)
            i += 1
        elif c in "\"'":
            q = c
            j = i + 1
            while j < n and text[j] != q and text[j] != "\n":
                j += 2 if text[j] == "\\" else 1
            closed = j < n and text[j] == q
            out.append(q + " " * max(0, j - i - 1) + (q if closed else ""))
            i = j + 1 if closed else j
        else:
            out.append(c)
            i += 1
    return "".join(out)


def load_source(root: str, rel: str) -> SourceFile:
    abspath = os.path.join(root, rel)
    with open(abspath, encoding="utf-8", errors="replace") as f:
        text = f.read()
    sf = SourceFile(path=rel.replace(os.sep, "/"))
    sf.raw_lines = text.splitlines()
    sf.code_lines = strip_comments_and_strings(text).splitlines()
    for idx, line in enumerate(sf.raw_lines, start=1):
        m = ALLOW_RE.search(line)
        if m:
            sf.allows[idx] = (m.group(1), (m.group(2) or "").strip())
    return sf


def allow_covers(sf: SourceFile, line: int, token: str) -> bool:
    """An annotation covers its own line, the line directly after it, and
    — when it heads a comment block — the first code line below that
    block. So both of these are covered:

        x = grow();  // DNSGUARD_LINT_ALLOW(alloc): reason
        // DNSGUARD_LINT_ALLOW(alloc): reason spanning
        // several comment lines
        x = grow();
    """
    for probe in (line, line - 1):
        entry = sf.allows.get(probe)
        if entry and entry[0] == token:
            return True
    lno = line - 1
    while lno > 0 and lno <= len(sf.raw_lines):
        if sf.raw_lines[lno - 1].lstrip().startswith("//"):
            entry = sf.allows.get(lno)
            if entry and entry[0] == token:
                return True
            lno -= 1
            continue
        break
    return False


# --------------------------------------------------------------------------
# Text front-end: function extraction + name-based call graph
# --------------------------------------------------------------------------

FUNC_DEF = re.compile(
    r"""(?:^|[;}\s])
        (?P<qual>(?:[A-Za-z_]\w*::)*)          # optional Class:: scope
        (?P<name>~?[A-Za-z_]\w*)\s*
        \((?P<args>[^;{}()]*(?:\([^()]*\)[^;{}()]*)*)\)\s*
        (?:const\s*|noexcept\s*|override\s*|final\s*|->\s*[\w:<>,&*\s]+)*
        \{""",
    re.VERBOSE,
)

# A class/struct head up to its opening brace (`class X final : Base {`).
CLASS_HEAD = re.compile(
    r"\b(?:class|struct)\s+(?P<name>[A-Za-z_]\w*)\s*(?:final\s*)?"
    r"(?::[^;{}()]*)?\{")

KEYWORD_NONFUNC = {
    "if", "for", "while", "switch", "catch", "return", "else", "do",
    "new", "delete", "sizeof", "alignas", "alignof", "case", "default",
}

CALL_SITE = re.compile(r"(?<![.>\w:])([A-Za-z_]\w*)\s*\(")
METHOD_CALL_SITE = re.compile(r"(?:\.|->|::)\s*([A-Za-z_]\w*)\s*\(")


@dataclass
class FunctionDef:
    qualified: str     # e.g. "EventQueue::pop" or "scheme_name"
    name: str          # unqualified tail
    file: str
    start_line: int    # line of the opening brace match start
    end_line: int
    body: str          # code-stripped body text (between braces)
    owner: str = ""    # enclosing class of an in-class definition

    @property
    def root_name(self) -> str:
        """The name hot-path roots are matched against: "Class::name" for
        methods defined inside their class body (whose `qualified` is the
        bare name), `qualified` otherwise."""
        if self.owner and self.qualified == self.name:
            return f"{self.owner}::{self.name}"
        return self.qualified


def extract_functions(sf: SourceFile) -> list:
    """Heuristic function-definition extractor over stripped code. Good
    enough for this codebase's clang-format-enforced style; the clang
    front-end replaces it when libclang is available."""
    text = "\n".join(sf.code_lines)
    line_of = _line_index(text)
    class_spans = []  # (open brace, close brace, class name)
    for m in CLASS_HEAD.finditer(text):
        close = _match_brace(text, m.end() - 1)
        if close != -1:
            class_spans.append((m.end() - 1, close, m.group("name")))
    funcs = []
    for m in FUNC_DEF.finditer(text):
        name = m.group("name")
        if name in KEYWORD_NONFUNC:
            continue
        qual = (m.group("qual") or "").rstrip(":")
        # Reject control-flow false positives: `= [...] {`, `struct X {`.
        open_idx = m.end() - 1
        body_end = _match_brace(text, open_idx)
        if body_end == -1:
            continue
        # Class name context: walk back for "ClassName::" already captured;
        # nested in-class definitions get the unqualified name, and the
        # innermost enclosing class is kept as their owner.
        qualified = f"{qual}::{name}" if qual else name
        at = m.start("name")
        owners = [(a, c) for a, b, c in class_spans if a < at < b]
        funcs.append(FunctionDef(
            qualified=qualified,
            name=name,
            file=sf.path,
            start_line=line_of(m.start()),
            end_line=line_of(body_end),
            body=text[open_idx + 1:body_end],
            owner=max(owners)[1] if owners and not qual else "",
        ))
    return funcs


def _match_brace(text: str, open_idx: int) -> int:
    depth = 0
    for i in range(open_idx, len(text)):
        c = text[i]
        if c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
            if depth == 0:
                return i
    return -1


def _line_index(text: str):
    starts = [0]
    for i, c in enumerate(text):
        if c == "\n":
            starts.append(i + 1)

    def line_of(pos: int) -> int:
        lo, hi = 0, len(starts) - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if starts[mid] <= pos:
                lo = mid
            else:
                hi = mid - 1
        return lo + 1

    return line_of


def calls_of(fn: FunctionDef) -> set:
    names = set()
    for m in CALL_SITE.finditer(fn.body):
        names.add(m.group(1))
    for m in METHOD_CALL_SITE.finditer(fn.body):
        names.add(m.group(1))
    return {n for n in names if n not in CALL_IGNORE and n not in KEYWORD_NONFUNC}


def root_matches(qualified: str, name: str, roots) -> bool:
    for r in roots:
        if r.endswith("*"):
            if qualified.startswith(r[:-1]) or name.startswith(r[:-1].split("::")[-1]):
                return True
        elif qualified == r or (("::" not in r) and name == r):
            return True
    return False


# --------------------------------------------------------------------------
# Rule: hot-path-alloc (text engine)
# --------------------------------------------------------------------------

def check_hot_path_alloc(sources, roots=HOT_PATH_ROOTS, max_depth=3):
    """BFS over the name-resolved call graph from the hot-path roots;
    every reached function is scanned for direct allocation constructs.
    Depth is bounded (default 3) because name-based resolution loses
    precision with distance; the clang engine raises it."""
    by_name: dict = {}
    all_funcs = []
    func_src: dict = {}
    for sf in sources:
        if not (sf.path.startswith("src/") or _is_fixture(sf.path)):
            continue
        for fn in extract_functions(sf):
            by_name.setdefault(fn.name, []).append(fn)
            all_funcs.append(fn)
            func_src[id(fn)] = sf

    start = [(fn, fn.root_name) for fn in all_funcs
             if root_matches(fn.root_name, fn.name, roots)]

    def callees(fn):
        for callee in calls_of(fn):
            defs = by_name.get(callee, [])
            # Name-based resolution: only follow unambiguous project
            # functions (a name defined once, or methods of one class).
            if defs and len({d.qualified for d in defs}) == 1:
                yield from ((d, d.qualified) for d in defs)

    findings = []
    for fn, path in reachable(start, callees, max_depth, key=id).values():
        findings.extend(_scan_alloc(fn, func_src[id(fn)], path))
    return findings


def reachable(roots, callees, max_depth, key=lambda n: n):
    """Breadth-first reach from `roots` (pairs of node and display name),
    following `callees(node)` (pairs of callee and display name) to at
    most `max_depth` edges. The queue is FIFO, so every node is first
    reached by one of its shortest routes: whether a node lies within
    `max_depth` never depends on which root gets to it first (a
    depth-first walk could reach it first by a long route, stop at the
    cap, and never expand it from a shorter one). Returns
    {key(node): (node, "a -> b -> c" trail)}."""
    found = {}
    work = collections.deque()
    for node, label in roots:
        if key(node) not in found:
            found[key(node)] = (node, label)
            work.append((node, 0, label))
    while work:
        node, depth, trail = work.popleft()
        if depth >= max_depth:
            continue
        for callee, label in callees(node):
            if key(callee) not in found:
                route = f"{trail} -> {label}"
                found[key(callee)] = (callee, route)
                work.append((callee, depth + 1, route))
    return found


def _scan_alloc(fn: FunctionDef, sf: SourceFile, path: str):
    findings = []
    for off, line in enumerate(fn.body.splitlines()):
        lineno = fn.start_line + off  # body starts on the brace line
        for pat, what in ALLOC_PATTERNS:
            if re.search(pat, line):
                findings.append(Finding(
                    rule="hot-path-alloc",
                    file=sf.path,
                    line=lineno,
                    message=(f"{what} in hot-path function "
                             f"'{fn.qualified}' (reachable via {path})"),
                    context=sf.raw_lines[lineno - 1].strip()
                    if lineno <= len(sf.raw_lines) else "",
                    allowed=allow_covers(sf, lineno, "alloc"),
                ))
    return findings


# --------------------------------------------------------------------------
# Rule: drop-reason
# --------------------------------------------------------------------------

def _is_fixture(path: str) -> bool:
    return "tools/lint/fixtures/" in path or path.startswith("fixtures/")


def _in_scope(path: str, scope_dirs=ATTACK_SURFACE_DIRS) -> bool:
    if _is_fixture(path):
        return True
    return any(path.startswith(d + "/") or path == d for d in scope_dirs)


def check_drop_reason(sources, scope_dirs=ATTACK_SURFACE_DIRS):
    findings = []
    for sf in sources:
        if not _in_scope(sf.path, scope_dirs):
            continue
        funcs = extract_functions(sf) if sf.path.endswith(CPP_EXTS) else []
        reason_param_spans = []
        for fn in funcs:
            # Signature text: the raw line(s) right before the body.
            sig_line = sf.raw_lines[fn.start_line - 1] if \
                fn.start_line <= len(sf.raw_lines) else ""
            sig = " ".join(sf.code_lines[max(0, fn.start_line - 3):fn.start_line])
            if DROP_REASON_PARAM.search(sig) or DROP_REASON_PARAM.search(sig_line):
                reason_param_spans.append((fn.start_line, fn.end_line))

        def has_reason_param(lineno: int) -> bool:
            return any(a <= lineno <= b for a, b in reason_param_spans)

        for idx, line in enumerate(sf.code_lines, start=1):
            window = "\n".join(
                sf.code_lines[max(0, idx - 1 - DROP_WINDOW):idx + DROP_WINDOW])

            if DROP_REASON_NONE.search(line) and DROP_COUNT_CALL.search(line):
                findings.append(Finding(
                    rule="drop-reason", file=sf.path, line=idx,
                    message="drop charged to DropReason::kNone",
                    context=sf.raw_lines[idx - 1].strip(),
                    allowed=allow_covers(sf, idx, "drop")))
                continue

            hit = None
            if DROPPISH_COUNTER.search(line):
                hit = "drop-classed counter incremented"
            elif SEND_RST_CALL.search(line) and not re.search(
                    r"\bvoid\b[^;()]*send_rst", line):
                # (the `void ... send_rst(...)` form is the declaration or
                # definition of the helper itself, not a drop site)
                hit = "RST emitted (segment discarded)"
            elif DROP_COUNT_CALL.search(line) and not (
                    DROP_REASON_USE.search(line) or has_reason_param(idx)):
                hit = "DropCounters::count() call"
            if hit is None:
                continue
            if (DROP_REASON_USE.search(window)
                    or DROP_COUNT_CALL.search(window)
                    or has_reason_param(idx)):
                continue
            findings.append(Finding(
                rule="drop-reason", file=sf.path, line=idx,
                message=(f"{hit} without a DropReason charged within "
                         f"{DROP_WINDOW} lines"),
                context=sf.raw_lines[idx - 1].strip(),
                allowed=allow_covers(sf, idx, "drop")))
    return findings


# --------------------------------------------------------------------------
# Rule: bounded-state
# --------------------------------------------------------------------------

def check_bounded_state(sources, scope_dirs=ATTACK_SURFACE_DIRS):
    findings = []
    for sf in sources:
        if not _in_scope(sf.path, scope_dirs):
            continue
        for idx, line in enumerate(sf.code_lines, start=1):
            raw = sf.raw_lines[idx - 1] if idx <= len(sf.raw_lines) else ""
            if "#include" in raw:
                continue
            m = STD_CONTAINER_DECL.search(line)
            if not m:
                continue
            # Declaration heuristic: using/typedef/member/local declaration,
            # not a template parameter mention inside another type.
            findings.append(Finding(
                rule="bounded-state", file=sf.path, line=idx,
                message=(f"std::{m.group(1)} in attack-surface code — "
                         "attacker-keyed state must use common::BoundedTable "
                         "(annotate benign config/zone-keyed tables)"),
                context=sf.raw_lines[idx - 1].strip(),
                allowed=allow_covers(sf, idx, "bounded")))
    return findings


# --------------------------------------------------------------------------
# Rule: sim-time-purity
# --------------------------------------------------------------------------

def check_sim_time(sources, exempt=TIME_EXEMPT_FILES):
    findings = []
    for sf in sources:
        if sf.path in exempt:
            continue
        if not (sf.path.startswith("src/") or sf.path.startswith("bench/")
                or sf.path.startswith("examples/")
                or sf.path.startswith("tools/lint/fixtures/")):
            continue
        for idx, line in enumerate(sf.code_lines, start=1):
            for pat in TIME_PATTERNS:
                if re.search(pat, line):
                    findings.append(Finding(
                        rule="sim-time-purity", file=sf.path, line=idx,
                        message=("wall-clock read outside "
                                 "src/common/time.cpp / bench/bench_common.h "
                                 "— simulation code must use the sim clock"),
                        context=sf.raw_lines[idx - 1].strip(),
                        allowed=allow_covers(sf, idx, "simtime")))
                    break
    return findings


# --------------------------------------------------------------------------
# Front-end seam for the dataflow rules
# --------------------------------------------------------------------------
# The shard-isolation / determinism / decode-bounds rules run one shared
# dataflow core (unit grouping, Shard spans, packet-path BFS, two-pass
# container tracking) over a front-end that supplies comment/string-free
# code lines and function extents. TextFrontend is the built-in lexer;
# try_clang_frontend() (further down) swaps in libclang's lexer and AST
# extents when available. Sharing the core is what keeps the two engines
# verdict-pinned.

class TextFrontend:
    name = "text"

    def view(self, sf: SourceFile) -> SourceFile:
        return sf

    def functions(self, sf: SourceFile) -> list:
        return extract_functions(sf)


TEXT_FRONTEND = TextFrontend()


def _unit_key(path: str):
    """Files of one class (foo.h + foo.cpp in the same directory) form one
    analysis unit; name resolution never crosses units, so `process` in
    remote_guard.cpp cannot alias `process` in some other node class."""
    base = os.path.basename(path)
    stem = base.rsplit(".", 1)[0]
    return (os.path.dirname(path), stem)


def _group_units(sources) -> dict:
    units: dict = {}
    for sf in sources:
        units.setdefault(_unit_key(sf.path), []).append(sf)
    return units


# --------------------------------------------------------------------------
# Rule: shard-isolation
# --------------------------------------------------------------------------

def check_shard_isolation(sources, frontend=None):
    """Two complementary checks over every unit that nests a
    `struct Shard`:

      1. declaration-level: per-source state types (BoundedTable, the
         *Limiter classes) declared outside the Shard struct are findings
         — shared mutable state the sharded packet path could touch. The
         shardsafe annotation marks deliberately global members (the TCP
         framer table, a cookie key schedule).
      2. packet-path dataflow: BFS over the unit's call graph from the
         packet-path roots (process / serve_lane); any function
         reached may not index `shards_` with a hard-coded constant —
         cold setup code (constructors, bind_metrics) legitimately pins
         shard 0, but on the packet path that is a cross-shard leak."""
    fe = frontend or TEXT_FRONTEND
    findings = []
    for _, unit in sorted(_group_units(sources).items()):
        if not all(sf.path.startswith("src/") or _is_fixture(sf.path)
                   for sf in unit):
            continue
        views = {sf.path: fe.view(sf) for sf in unit}

        # Pass 0: locate Shard struct spans; a unit without one is not a
        # sharded class and is out of scope.
        spans: dict = {}
        for sf in unit:
            text = "\n".join(views[sf.path].code_lines)
            line_of = _line_index(text)
            for m in SHARD_STRUCT_RE.finditer(text):
                end = _match_brace(text, m.end() - 1)
                end_line = line_of(end) if end != -1 else len(sf.raw_lines)
                spans.setdefault(sf.path, []).append(
                    (line_of(m.start()), end_line))
        if not spans:
            continue

        # Pass 1: per-source state declared outside the Shard spans.
        for sf in unit:
            text = "\n".join(views[sf.path].code_lines)
            line_of = _line_index(text)
            for m in SHARD_PER_SOURCE_DECL.finditer(text):
                lineno = line_of(m.start(1))
                if any(a <= lineno <= b for a, b in spans.get(sf.path, [])):
                    continue
                findings.append(Finding(
                    rule="shard-isolation", file=sf.path, line=lineno,
                    message=(f"per-source state '{m.group(1)}' declared "
                             "outside the per-shard Shard struct — move it "
                             "into Shard so each lane owns its slice, or "
                             "annotate shardsafe for deliberately shared "
                             "state"),
                    context=sf.raw_lines[lineno - 1].strip()
                    if lineno <= len(sf.raw_lines) else "",
                    allowed=allow_covers(sf, lineno, "shardsafe")))

        # Pass 2: packet-path BFS; hard-coded shard indexing in any
        # reached function.
        by_name: dict = {}
        src_of: dict = {}
        roots = []
        for sf in unit:
            for fn in fe.functions(views[sf.path]):
                by_name.setdefault(fn.name, []).append(fn)
                src_of[id(fn)] = sf
                if fn.name in SHARD_PATH_ROOTS:
                    roots.append(fn)
        work = list(roots)
        seen = {id(fn) for fn in work}
        while work:
            fn = work.pop()
            sf = src_of[id(fn)]
            for off, line in enumerate(fn.body.splitlines()):
                lineno = fn.start_line + off  # body starts on the brace line
                if SHARD_LITERAL_INDEX.search(line):
                    findings.append(Finding(
                        rule="shard-isolation", file=sf.path, line=lineno,
                        message=(f"hard-coded shard index in '{fn.qualified}'"
                                 " on the sharded packet path — use the lane "
                                 "index or cur_shard_; a constant subscript "
                                 "reads another lane's state"),
                        context=sf.raw_lines[lineno - 1].strip()
                        if lineno <= len(sf.raw_lines) else "",
                        allowed=allow_covers(sf, lineno, "shardsafe")))
            for callee in calls_of(fn):
                for d in by_name.get(callee, []):
                    if id(d) not in seen:
                        seen.add(id(d))
                        work.append(d)
    return findings


# --------------------------------------------------------------------------
# Rule: determinism
# --------------------------------------------------------------------------

def check_determinism(sources, frontend=None):
    """Nondeterminism sources across src/ and bench/: host entropy,
    pointer-value keys/order, and iteration over std::unordered_*
    containers. Iteration tracking is two-pass within an analysis unit:
    collect names declared as unordered containers, then flag range-for /
    .begin() traversal of those names. Lookup-only use (find/count/[]) is
    deterministic and stays legal."""
    fe = frontend or TEXT_FRONTEND
    scoped = [sf for sf in sources
              if sf.path.startswith(("src/", "bench/")) or
              _is_fixture(sf.path)]
    findings = []
    views = {sf.path: fe.view(sf) for sf in scoped}

    for sf in scoped:
        for idx, line in enumerate(views[sf.path].code_lines, start=1):
            for pat, why in DETERMINISM_PATTERNS:
                if re.search(pat, line):
                    findings.append(Finding(
                        rule="determinism", file=sf.path, line=idx,
                        message=why,
                        context=sf.raw_lines[idx - 1].strip()
                        if idx <= len(sf.raw_lines) else "",
                        allowed=allow_covers(sf, idx, "determinism")))
                    break

    for _, unit in sorted(_group_units(scoped).items()):
        unordered = set()
        for sf in unit:
            text = "\n".join(views[sf.path].code_lines)
            for m in UNORDERED_DECL.finditer(text):
                unordered.add(m.group(1))
        if not unordered:
            continue
        for sf in unit:
            for idx, line in enumerate(views[sf.path].code_lines, start=1):
                for rex in (RANGE_FOR_OVER, BEGIN_CALL_ON):
                    m = rex.search(line)
                    if m and m.group(1) in unordered:
                        findings.append(Finding(
                            rule="determinism", file=sf.path, line=idx,
                            message=(f"iteration over std::unordered_* "
                                     f"'{m.group(1)}' — bucket order varies "
                                     "across libraries and runs; iterate a "
                                     "registration-ordered vector or sort "
                                     "first"),
                            context=sf.raw_lines[idx - 1].strip()
                            if idx <= len(sf.raw_lines) else "",
                            allowed=allow_covers(sf, idx, "determinism")))
                        break
    return findings


# --------------------------------------------------------------------------
# Rule: decode-bounds
# --------------------------------------------------------------------------

def check_decode_bounds(sources, frontend=None):
    """src/dns parses attacker bytes; all positional reasoning must live
    in dns::Cursor (cursor.h — the sanctioned, exempt implementation).
    Everything else in the directory is banned from raw ByteReader use,
    offset arithmetic (pos/seek/remaining), reinterpret_cast, and pointer
    arithmetic on buffer data."""
    fe = frontend or TEXT_FRONTEND
    findings = []
    for sf in sources:
        if not (sf.path.startswith("src/dns/") or _is_fixture(sf.path)):
            continue
        if sf.path in DECODE_SANCTIONED_FILES:
            continue
        v = fe.view(sf)
        for idx, line in enumerate(v.code_lines, start=1):
            for pat, why in DECODE_PATTERNS:
                if re.search(pat, line):
                    findings.append(Finding(
                        rule="decode-bounds", file=sf.path, line=idx,
                        message=why,
                        context=sf.raw_lines[idx - 1].strip()
                        if idx <= len(sf.raw_lines) else "",
                        allowed=allow_covers(sf, idx, "decode")))
                    break
    return findings


# --------------------------------------------------------------------------
# Annotation audit (reasons mandatory; budget vs baseline.json)
# --------------------------------------------------------------------------

def check_annotations(sources):
    findings = []
    for sf in sources:
        for lineno, (token, reason) in sorted(sf.allows.items()):
            if not reason:
                findings.append(Finding(
                    rule="annotation", file=sf.path, line=lineno,
                    message=(f"DNSGUARD_LINT_ALLOW({token}) without a reason "
                             "— the justification is the contract"),
                    context=sf.raw_lines[lineno - 1].strip()))
    return findings


def count_annotations(sources):
    allow_total = 0
    nolint_total = 0
    per_file = {}
    by_token = {token: 0 for token in ALLOW_TOKEN.values()}
    for sf in sources:
        if not sf.path.startswith("src/"):
            continue
        a = len(sf.allows)
        n = sum(1 for line in sf.raw_lines if NOLINT_RE.search(line))
        for token, _reason in sf.allows.values():
            by_token[token] = by_token.get(token, 0) + 1
        if a or n:
            per_file[sf.path] = {"allow": a, "nolint": n}
        allow_total += a
        nolint_total += n
    return {"allow_total": allow_total, "nolint_total": nolint_total,
            "allow_by_token": by_token, "per_file": per_file}


def check_baseline(counts, baseline_path):
    try:
        with open(baseline_path, encoding="utf-8") as f:
            baseline = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return [Finding(rule="annotation-budget", file=baseline_path, line=1,
                        message=f"unreadable baseline: {e}")]
    findings = []
    for key in ("allow_total", "nolint_total"):
        have = counts[key]
        budget = baseline.get(key, 0)
        if have > budget:
            findings.append(Finding(
                rule="annotation-budget", file=baseline_path, line=1,
                message=(f"{key} grew to {have} (budget {budget}) — update "
                         "tools/lint/baseline.json in the same commit to "
                         "acknowledge the new annotation")))
    # Per-token budgets: each escape hatch is budgeted separately, so a
    # surge of (say) decode annotations can't hide inside headroom the
    # alloc budget happens to have.
    token_budgets = baseline.get("allow_by_token", {})
    for token, have in sorted(counts["allow_by_token"].items()):
        budget = token_budgets.get(token, 0)
        if have > budget:
            findings.append(Finding(
                rule="annotation-budget", file=baseline_path, line=1,
                message=(f"ALLOW({token}) grew to {have} (budget {budget}) "
                         "— update allow_by_token in tools/lint/"
                         "baseline.json in the same commit")))
    return findings


# --------------------------------------------------------------------------
# SARIF 2.1.0 emitter (CI code annotations)
# --------------------------------------------------------------------------

def to_sarif(findings, rules_run, engine_name):
    """One SARIF run: the rule catalog (every rule that ran plus any
    synthetic rules that fired, e.g. annotation-budget), and one result
    per finding. Annotated findings are emitted at `note` level with an
    inSource suppression so viewers show them as suppressed rather than
    hiding them."""
    rule_ids = sorted(set(rules_run) | {f.rule for f in findings})
    results = []
    for f in sorted(findings, key=lambda f: (f.file, f.line, f.rule)):
        result = {
            "ruleId": f.rule,
            "ruleIndex": rule_ids.index(f.rule),
            "level": "note" if f.allowed else "error",
            "message": {"text": f.message},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {"uri": f.file,
                                         "uriBaseId": "SRCROOT"},
                    "region": {"startLine": max(1, f.line)},
                },
            }],
        }
        if f.context:
            result["locations"][0]["physicalLocation"]["region"]["snippet"] \
                = {"text": f.context}
        if f.allowed:
            result["suppressions"] = [{
                "kind": "inSource",
                "justification": "DNSGUARD_LINT_ALLOW annotation",
            }]
        results.append(result)
    return {
        "$schema": "https://json.schemastore.org/sarif-2.1.0.json",
        "version": "2.1.0",
        "runs": [{
            "tool": {"driver": {
                "name": "dnsguard-lint",
                "informationUri":
                    "https://github.com/dnsguard/dnsguard/blob/main/docs/"
                    "STATIC_ANALYSIS.md",
                "semanticVersion": "2.0.0",
                "properties": {"engine": engine_name},
                "rules": [{
                    "id": rid,
                    "shortDescription": {
                        "text": RULE_HELP.get(
                            rid, "dnsguard-lint internal check")},
                } for rid in rule_ids],
            }},
            "originalUriBaseIds": {"SRCROOT": {"uri": "file:///"}},
            "columnKind": "utf16CodeUnits",
            "results": results,
        }],
    }


# --------------------------------------------------------------------------
# Optional clang front-end (hot-path-alloc precision)
# --------------------------------------------------------------------------

def try_clang_engine(root, compile_commands):
    """Returns a callable with the check_hot_path_alloc signature, or None
    when libclang is unavailable. The clang engine builds the call graph
    from the AST (qualified names, overload-resolved), so it follows calls
    the text engine's unique-name heuristic must skip."""
    try:
        from clang import cindex  # noqa: F401
    except ImportError:
        return None
    try:
        index = cindex.Index.create()
    except Exception:
        return None

    def engine(sources, roots=HOT_PATH_ROOTS, max_depth=6):
        from clang.cindex import CursorKind
        db = None
        if compile_commands and os.path.isdir(os.path.dirname(compile_commands)):
            try:
                db = cindex.CompilationDatabase.fromDirectory(
                    os.path.dirname(compile_commands))
            except cindex.CompilationDatabaseError:
                db = None

        defs = {}        # USR -> (cursor extent info, qualified name)
        callees = {}     # USR -> set(USR)
        alloc_sites = {}  # USR -> [(file, line, what)]
        src_paths = {os.path.join(root, sf.path) for sf in sources
                     if sf.path.startswith("src/")}

        def qualified_name(cur):
            parts = []
            c = cur
            while c is not None and c.kind != CursorKind.TRANSLATION_UNIT:
                if c.spelling:
                    parts.append(c.spelling)
                c = c.semantic_parent
            return "::".join(reversed(parts[:2]))  # Class::name at most

        def args_for(path):
            base = ["-std=c++20", f"-I{os.path.join(root, 'src')}"]
            if db is None:
                return base
            cmds = db.getCompileCommands(path)
            if not cmds:
                return base
            out = []
            it = iter(list(cmds[0].arguments)[1:-1])
            for a in it:
                if a in ("-c", "-o"):
                    next(it, None)
                    continue
                out.append(a)
            return out or base

        for path in sorted(src_paths):
            if not path.endswith(".cpp"):
                continue
            try:
                tu = index.parse(path, args=args_for(path))
            except cindex.TranslationUnitLoadError:
                continue

            def visit(cur, current=None):
                if cur.kind in (CursorKind.FUNCTION_DECL, CursorKind.CXX_METHOD,
                                CursorKind.CONSTRUCTOR) and cur.is_definition():
                    current = cur.get_usr()
                    defs[current] = (cur.location.file.name if cur.location.file
                                     else path, cur.location.line,
                                     qualified_name(cur))
                    callees.setdefault(current, set())
                    alloc_sites.setdefault(current, [])
                if current is not None:
                    if cur.kind == CursorKind.CALL_EXPR:
                        ref = cur.referenced
                        if ref is not None:
                            callees[current].add(ref.get_usr())
                            nm = ref.spelling or ""
                            if nm in ("malloc", "calloc", "realloc", "strdup",
                                      "push_back", "emplace_back", "emplace",
                                      "resize", "reserve", "append", "substr",
                                      "to_string", "make_unique", "make_shared"):
                                loc = cur.location
                                alloc_sites[current].append(
                                    (loc.file.name if loc.file else path,
                                     loc.line, f"allocating call '{nm}'"))
                    elif cur.kind == CursorKind.CXX_NEW_EXPR:
                        loc = cur.location
                        alloc_sites[current].append(
                            (loc.file.name if loc.file else path, loc.line,
                             "operator new"))
                for child in cur.get_children():
                    visit(child, current)

            visit(tu.cursor)

        by_path = {os.path.join(root, sf.path): sf for sf in sources}
        start = [(usr, info[2]) for usr, info in defs.items()
                 if root_matches(info[2], info[2].split("::")[-1], roots)]
        reach = reachable(
            start,
            lambda usr: ((c, defs[c][2]) for c in callees.get(usr, ())
                         if c in defs),
            max_depth)
        findings = []
        for usr, trail in reach.values():
            for fpath, line, what in alloc_sites.get(usr, []):
                sf = by_path.get(os.path.abspath(fpath)) or by_path.get(fpath)
                rel = sf.path if sf else os.path.relpath(fpath, root)
                findings.append(Finding(
                    rule="hot-path-alloc", file=rel, line=line,
                    message=f"{what} in hot-path (reachable via {trail})",
                    allowed=bool(sf and allow_covers(sf, line, "alloc"))))
        return findings

    return engine


# --------------------------------------------------------------------------
# Optional clang front-end for the dataflow rules
# --------------------------------------------------------------------------

def try_clang_frontend(root, compile_commands):
    """Builds a front-end (the TextFrontend interface) over libclang, or
    returns None when the bindings are unavailable.

    view() re-derives comment/string-free code lines from libclang's
    token stream — each token is placed back at its source line/column,
    so the shared rule regexes see the same layout the text lexer
    produces. functions() takes definitions and brace extents from the
    AST instead of the FUNC_DEF heuristic. Any per-file parse failure
    falls back to the text front-end for that file, so a broken include
    path degrades precision, never verdicts."""
    try:
        from clang import cindex
        index = cindex.Index.create()
    except Exception:
        return None

    cc_dir = (os.path.dirname(compile_commands)
              if compile_commands else None)

    class ClangFrontend:
        name = "clang"

        def __init__(self):
            self._tus: dict = {}
            self._views: dict = {}
            self._funcs: dict = {}

        def _tu(self, sf):
            if sf.path in self._tus:
                return self._tus[sf.path]
            tu = None
            try:
                path = os.path.join(root, sf.path)
                args = ["-std=c++20", f"-I{os.path.join(root, 'src')}",
                        f"-I{root}"]
                if cc_dir:
                    args.append(f"-I{os.path.join(cc_dir, '..')}")
                tu = index.parse(path, args=args)
            except Exception:
                tu = None
            self._tus[sf.path] = tu
            return tu

        def view(self, sf):
            if sf.path in self._views:
                return self._views[sf.path]
            out = sf  # fall back to the text lexer's view
            tu = self._tu(sf)
            if tu is not None:
                try:
                    out = self._view_from_tokens(sf, tu)
                except Exception:
                    out = sf
            self._views[sf.path] = out
            return out

        def _view_from_tokens(self, sf, tu):
            from clang.cindex import TokenKind
            grid = [[" "] * len(line) for line in sf.raw_lines]

            def place(line, col, text):
                if not (1 <= line <= len(grid)):
                    return
                row = grid[line - 1]
                for i, ch in enumerate(text):
                    at = col - 1 + i
                    if at >= len(row):
                        row.extend(" " * (at - len(row) + 1))
                    row[at] = ch

            for tok in tu.cursor.get_tokens():
                loc = tok.location
                spelling = tok.spelling
                if tok.kind == TokenKind.COMMENT:
                    # Keep only the markers the linter itself consumes.
                    if ("DNSGUARD_LINT_ALLOW" in spelling
                            or "NOLINT" in spelling):
                        place(loc.line, loc.column,
                              spelling.splitlines()[0])
                    continue
                if tok.kind == TokenKind.LITERAL and spelling[:1] in "\"'":
                    place(loc.line, loc.column,
                          spelling[0] + " " * (len(spelling) - 2)
                          + spelling[-1] if len(spelling) > 1 else spelling)
                    continue
                if "\n" in spelling:  # raw string or other multi-liner
                    continue
                place(loc.line, loc.column, spelling)

            view = SourceFile(path=sf.path)
            view.raw_lines = sf.raw_lines
            view.code_lines = ["".join(row) for row in grid]
            view.allows = sf.allows
            return view

        def functions(self, sf):
            if sf.path in self._funcs:
                return self._funcs[sf.path]
            tu = self._tu(sf)
            out = None
            if tu is not None:
                try:
                    out = self._functions_from_ast(sf, tu)
                except Exception:
                    out = None
            if out is None:
                out = extract_functions(self.view(sf))
            self._funcs[sf.path] = out
            return out

        def _functions_from_ast(self, sf, tu):
            from clang.cindex import CursorKind
            view = self.view(sf)
            text = "\n".join(view.code_lines)
            line_starts = [0]
            for i, c in enumerate(text):
                if c == "\n":
                    line_starts.append(i + 1)
            main_file = os.path.join(root, sf.path)
            kinds = (CursorKind.FUNCTION_DECL, CursorKind.CXX_METHOD,
                     CursorKind.CONSTRUCTOR, CursorKind.DESTRUCTOR)
            funcs = []

            def visit(cur):
                if (cur.kind in kinds and cur.is_definition()
                        and cur.location.file
                        and os.path.samefile(cur.location.file.name,
                                             main_file)):
                    start = cur.extent.start.line
                    end = min(cur.extent.end.line, len(view.code_lines))
                    if 1 <= start <= end:
                        seg_start = line_starts[start - 1]
                        seg_end = (line_starts[end] - 1
                                   if end < len(line_starts)
                                   else len(text))
                        seg = text[seg_start:seg_end]
                        brace = seg.find("{")
                        if brace != -1:
                            brace_line = start + seg.count("\n", 0, brace)
                            parent = cur.semantic_parent
                            qual = (f"{parent.spelling}::{cur.spelling}"
                                    if parent is not None and parent.kind in
                                    (CursorKind.CLASS_DECL,
                                     CursorKind.STRUCT_DECL,
                                     CursorKind.CLASS_TEMPLATE)
                                    else cur.spelling)
                            funcs.append(FunctionDef(
                                qualified=qual,
                                name=cur.spelling.lstrip("~"),
                                file=sf.path,
                                start_line=brace_line,
                                end_line=end,
                                body=seg[brace + 1:],
                            ))
                for child in cur.get_children():
                    visit(child)

            visit(tu.cursor)
            return funcs

    return ClangFrontend()


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------

def gather_sources(root, paths):
    rels = []
    for p in paths:
        absolute = p if os.path.isabs(p) else os.path.join(root, p)
        if os.path.isdir(absolute):
            for dirpath, _, names in os.walk(absolute):
                for nm in sorted(names):
                    if nm.endswith(CPP_EXTS):
                        rels.append(os.path.relpath(
                            os.path.join(dirpath, nm), root))
        elif absolute.endswith(CPP_EXTS):
            rels.append(os.path.relpath(absolute, root))
    return [load_source(root, rel) for rel in sorted(set(rels))]


def find_compile_commands(root, explicit):
    if explicit:
        return explicit if os.path.isfile(explicit) else None
    for cand in ("build", "build-san", "."):
        p = os.path.join(root, cand, "compile_commands.json")
        if os.path.isfile(p):
            return p
    return None


def run(argv=None):
    ap = argparse.ArgumentParser(
        prog="dnsguard_lint.py",
        description="Project-invariant static analysis for dnsguard.")
    ap.add_argument("paths", nargs="*", default=[],
                    help="files/dirs to lint (default: src/ and bench/)")
    ap.add_argument("--root", default=None,
                    help="repo root (default: two levels above this script)")
    ap.add_argument("--rule", action="append", choices=RULES, default=None,
                    help="run only the named rule(s)")
    ap.add_argument("--only", action="append", default=None,
                    metavar="RULE[,RULE]",
                    help="comma-separated rule selection (same as repeated "
                         "--rule; faster local iteration)")
    ap.add_argument("--list-rules", action="store_true",
                    help="list rules with their one-line invariants and "
                         "allow-tokens, then exit")
    ap.add_argument("--engine", choices=("auto", "clang", "text"),
                    default="auto",
                    help="front-end for the call-graph/dataflow rules "
                         "(default auto: clang when libclang is "
                         "importable, else text)")
    ap.add_argument("--compile-commands", default=None,
                    help="path to compile_commands.json for the clang engine")
    ap.add_argument("--strict", action="store_true",
                    help="exit 1 on any unannotated finding")
    ap.add_argument("--json", dest="json_out", default=None,
                    help="write the full report (findings + annotation "
                         "census) to this file")
    ap.add_argument("--sarif", dest="sarif_out", default=None,
                    help="write a SARIF 2.1.0 report to this file (CI "
                         "code annotations)")
    ap.add_argument("--check-baseline", default=None, metavar="BASELINE",
                    help="fail if the src/ annotation counts (total and "
                         "per-token) exceed the budgets recorded in this "
                         "baseline.json")
    ap.add_argument("--quiet", action="store_true")
    args = ap.parse_args(argv)

    if args.list_rules:
        for rule in RULES:
            print(f"{rule:16} ALLOW({ALLOW_TOKEN[rule]})")
            print(f"{'':16} {RULE_HELP[rule]}")
        return 0

    root = args.root or os.path.abspath(
        os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", ".."))
    paths = args.paths or ["src", "bench"]
    sources = gather_sources(root, paths)
    if not sources:
        print("dnsguard-lint: no sources found", file=sys.stderr)
        return 2
    rules = list(args.rule) if args.rule else []
    for only in (args.only or []):
        for name in only.split(","):
            name = name.strip()
            if name and name not in RULES:
                print(f"dnsguard-lint: unknown rule '{name}' "
                      f"(see --list-rules)", file=sys.stderr)
                return 2
            if name:
                rules.append(name)
    rules = rules or list(RULES)

    compile_commands = find_compile_commands(root, args.compile_commands)
    frontend = None
    dataflow_rules = {"shard-isolation", "determinism", "decode-bounds"}
    if args.engine in ("auto", "clang") and dataflow_rules & set(rules):
        frontend = try_clang_frontend(root, compile_commands)

    findings = []
    clang_used = False
    if "hot-path-alloc" in rules:
        engine = None
        if args.engine in ("auto", "clang"):
            engine = try_clang_engine(root, compile_commands)
        clang_used = clang_used or engine is not None
        findings += (engine or check_hot_path_alloc)(sources)
    clang_capable = ({"hot-path-alloc"} | dataflow_rules) & set(rules)
    if (args.engine == "clang" and clang_capable
            and not (clang_used or frontend)):
        print("dnsguard-lint: --engine=clang requested but libclang "
              "is unavailable", file=sys.stderr)
        return 2
    if "drop-reason" in rules:
        findings += check_drop_reason(sources)
    if "bounded-state" in rules:
        findings += check_bounded_state(sources)
    if "sim-time-purity" in rules:
        findings += check_sim_time(sources)
    if "shard-isolation" in rules:
        findings += check_shard_isolation(sources, frontend)
    if "determinism" in rules:
        findings += check_determinism(sources, frontend)
    if "decode-bounds" in rules:
        findings += check_decode_bounds(sources, frontend)
    clang_used = clang_used or frontend is not None
    engine_name = "clang" if clang_used else "text"
    findings += check_annotations(sources)

    counts = count_annotations(sources)
    if args.check_baseline:
        findings += check_baseline(counts, args.check_baseline)

    errors = [f for f in findings if not f.allowed]
    allowed = [f for f in findings if f.allowed]

    if not args.quiet:
        for f in sorted(errors, key=lambda f: (f.file, f.line)):
            print(f.format())
            if f.context:
                print(f"    {f.context}")
        print(f"dnsguard-lint [{engine_name} engine]: "
              f"{len(errors)} finding(s), {len(allowed)} annotated, "
              f"{counts['allow_total']} ALLOW / "
              f"{counts['nolint_total']} NOLINT across src/")

    if args.json_out:
        report = {
            "engine": engine_name,
            "rules": rules,
            "findings": [asdict(f) for f in findings],
            "error_count": len(errors),
            "allowed_count": len(allowed),
            "annotations": counts,
        }
        with open(args.json_out, "w", encoding="utf-8") as f:
            json.dump(report, f, indent=2)
            f.write("\n")

    if args.sarif_out:
        with open(args.sarif_out, "w", encoding="utf-8") as f:
            json.dump(to_sarif(findings, rules, engine_name), f, indent=2)
            f.write("\n")

    if errors and args.strict:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(run())
