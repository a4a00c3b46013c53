#!/usr/bin/env python3
"""Static analyzer for CRH's determinism, locking, error and layering contracts.

One pass reads every C++ file under src tests bench examples fuzz and
blanks comments and string contents once. Two kinds of rule share that
pass. Line rules judge a line or a file. Whole-program checks judge a
lexical program model built from src and bench: a function table and a
cross-TU call graph, with the lock set held at every call site.

  rule                 scope                      flags
  include-cc           all                        `#include` of a .cc file
  naked-new            all but src/common         naked new/delete
  determinism          all                        std::rand, srand, time(nullptr) seeding
                       src/{core,weights,stream}  also any raw clock, rand(),
                                                  std::random_device or getenv
  raw-assert           all but tests              raw assert(); use CRH_CHECK
  float-equality       src                        ==/!= on a float literal or a
                                                  Value's continuous payload
  unchecked-io-write   all                        fwrite/fflush/rename/fclose result
                                                  dropped, `(void)` included
  mutex-annotations    headers, and all of src    a lock member in a header that
                                                  lacks common/thread_annotations.h or
                                                  any CRH_* annotation; a mutex that no
                                                  CRH_* annotation in its file names
  unordered-iteration  src                        range-for over an unordered container
  status-path          all                        a Status/Result call statement whose
                                                  value is dropped (named with its
                                                  call path when modeled), or a
                                                  `(void)` cast of a Result
  determinism-taint    model                      clock/RNG/env/address/unordered-order
                                                  values reaching published output
  lock-order           model                      lock-acquisition cycles; a fail
                                                  point, callback, or call into either
                                                  while a lock is held
  failpoint-dominance  model: src/{stream,common, raw I/O not preceded by a fail
                       data,serve}                point; fail-point site unregistered
  taint                model: src/{serve,stream,  untrusted bytes reaching a size,
                       data}                      index, length or loop bound unchecked
  snapshot-lifetime    model: src/serve           a view of an epoch snapshot outliving
                                                  its shared_ptr
  arch                 model                      include/call edges against
                                                  scripts/arch_layers.json
  global-state         model: src but src/tools   mutable globals and static locals
  hot                  model                      CRH_HOT kernels that (transitively)
                                                  allocate, lock, block, throw or hit a
                                                  fail point

docs/TOOLING.md describes each rule and its escape hatches. Suppress one
line with a trailing `// analyzer:allow(<rule>)`. Findings are gated
against scripts/crh_analyzer_baseline.txt (committed empty): new findings
fail, and stale entries fail full-tree runs. Exit 0 clean, 1 findings, 2
tooling error.

Usage: scripts/crh_analyzer.py [--self-test] [--check=LIST] [--stats]
         [--budget JSON] [--sarif OUT] [--graph-svg OUT]
         [--update-baseline] [--no-baseline] [paths...]
"""

from __future__ import annotations

import argparse
import functools
import json
import pathlib
import re
import sys
import tempfile
import time
from typing import NamedTuple

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BASELINE = REPO_ROOT / "scripts" / "crh_analyzer_baseline.txt"
ARCH_MANIFEST = REPO_ROOT / "scripts" / "arch_layers.json"
DEFAULT_DIRS = ["src", "tests", "bench", "examples", "fuzz"]
ALL_DIRS = tuple(d + "/" for d in DEFAULT_DIRS)
# The whole-program model: the library plus the binaries that publish results.
MODEL_DIRS = ("src/", "bench/")
CXX_SUFFIXES = {".h", ".cc", ".cpp", ".hpp"}
ALLOW_RE = re.compile(r"//\s*analyzer:allow\(([\w-]+)\)")

# The lock/fail-point primitives are excluded from the rules they implement.
PRIMITIVE_FILES = {
    "src/common/mutex.h",
    "src/common/fault_injection.h",
    "src/common/fault_injection.cc",
    "src/common/determinism.h",
    "src/common/hot.h",
    "src/common/global_state.h",
    "src/common/taint.h",
}

# --- line rules ---------------------------------------------------------------
INCLUDE_CC_RE = re.compile(r'#\s*include\s+["<][^">]+\.cc[">]')
NAKED_NEW_RE = re.compile(
    r"(?:^|[^\w.])(?:new\s+[A-Za-z_:<(]|delete(?:\s*\[\s*\])?\s+[A-Za-z_*(])")
RAW_ASSERT_RE = re.compile(r"(?:^|\W)assert\s*\(")
# A floating-point literal (1.0, .5, 2.5e-3, 1.f) or the continuous payload
# of a Value on either side of == or !=. Heuristic by design: it cannot see
# declared types, but these two shapes cover the double comparisons here.
_FLOAT_OPERAND = r"(?:\d+\.\d*|\.\d+)(?:[eE][+-]?\d+)?f?"
_CONTINUOUS_OPERAND = r"(?:\.|->)continuous\(\)|\bcontinuous_"
FLOAT_EQ_RE = re.compile(
    rf"(?:{_FLOAT_OPERAND}|{_CONTINUOUS_OPERAND})\s*[!=]=(?!=)"
    rf"|[!=]=\s*[-+]?(?:{_FLOAT_OPERAND}|{_CONTINUOUS_OPERAND})")
# A statement-level cstdio write/commit call whose result is dropped.
UNCHECKED_IO_RE = re.compile(
    r"^\s*(?:\(void\)\s*)?(?:std::)?(?:fwrite|fflush|rename|fclose)\s*\(.*\)\s*;\s*$")
NONDETERMINISM_RE = re.compile(
    r"std::rand\b|[^\w.]s?rand\s*\(|\btime\s*\(\s*(?:nullptr|NULL|0)\s*\)")
# Bit-identity at every thread count and across kill-and-resume is the
# guarantee these layers carry: clocks and entropy only through the shims.
DETERMINISM_DIRS = ("src/core/", "src/weights/", "src/stream/")
DETERMINISM_LAYER_RE = re.compile(
    NONDETERMINISM_RE.pattern
    + r"|(?<![\w.:])time\s*\(|\bclock_gettime\s*\(|\bgettimeofday\s*\("
    r"|(?<![\w.:])s?rand\s*\(|std::random_device\b"
    r"|(?<![\w.:])getenv\s*\(|std::getenv\b")
MUTEX_MEMBER_RE = re.compile(
    r"^\s*(?:mutable\s+)?(?:crh::)?(Mutex|CondVar|std::mutex|"
    r"std::condition_variable(?:_any)?)\s+(\w+)\s*;")
THREAD_ANNOTATIONS_INCLUDE_RE = re.compile(
    r'#\s*include\s+"common/thread_annotations\.h"')
CRH_ANNOTATION_USE_RE = re.compile(
    r"\bCRH_(?:CAPABILITY|SCOPED_CAPABILITY|GUARDED_BY|PT_GUARDED_BY|"
    r"ACQUIRE|RELEASE|REQUIRES|EXCLUDES|RETURN_CAPABILITY|ASSERT_CAPABILITY)\b")
# The lock an annotation names (its first argument).
GUARDED_NAME_RE = re.compile(
    r"CRH_(?:GUARDED_BY|PT_GUARDED_BY|REQUIRES|EXCLUDES|ACQUIRE|RELEASE|"
    r"RETURN_CAPABILITY|ASSERT_CAPABILITY)\s*\(\s*(?:this\s*->\s*)?[&*]?(\w+)")
UNORDERED_DECL_RE = re.compile(
    r"std::unordered_(?:map|set|multimap|multiset)\s*<[^;]*?>\s*[*&]{0,2}\s*"
    r"(\w+)\s*[;{=(,)]")
UNORDERED_ALIAS_RE = re.compile(
    r"using\s+(\w+)\s*=\s*std::unordered_(?:map|set|multimap|multiset)\b")
RANGE_FOR_RE = re.compile(r"\bfor\s*\(([^;]*?):([^;)]*)\)")

# --- determinism-taint ------------------------------------------------------
TAINT_SOURCE_RES = [
    (re.compile(r"::now\s*\("), "a wall/steady clock read (`::now()`)"),
    (re.compile(r"(?<![\w.:])time\s*\("), "a `time()` call"),
    (re.compile(r"\bclock_gettime\s*\(|\bgettimeofday\s*\("),
     "a raw clock syscall"),
    (re.compile(r"std::random_device\b"), "std::random_device"),
    (re.compile(r"(?<![\w.:])s?rand\s*\("), "unseeded C rand()"),
    (re.compile(r"(?<![\w.:])getenv\s*\(|std::getenv\b"),
     "an environment variable read"),
    (re.compile(r"reinterpret_cast\s*<\s*(?:std::)?u?intptr_t"),
     "a pointer address cast to integer"),
]
EXEMPT_RE = re.compile(r"\bCRH_DETERMINISM_EXEMPT\s*\(")
# Functions whose output is published program state: checkpoint bytes, CSV
# rows, and the mains of bench/CLI binaries (their stdout/JSON is the
# artifact the paper's figures are rebuilt from).
TAINT_SINKS = {
    "EncodeCheckpoint",
    "CheckpointManager::Save",
    "WriteObservationsCsv",
    "WriteGroundTruthCsv",
}
SINK_MAIN_DIRS = ("bench/", "src/tools/")

# --- status-path ------------------------------------------------------------
STATUS_DECL_RE = re.compile(
    r"(?:^|[;{}]|\n)\s*(?:\[\[nodiscard\]\]\s*)?(?:static\s+|virtual\s+)?"
    r"(?:crh::)?(Status|Result<[^;{}=]{1,120}?>)\s+(?:[\w:]+::)?(\w+)\s*\(")
# Factories whose Status is the point of the call: never an error path.
STATUS_FACTORIES = {
    "OK", "InvalidArgument", "OutOfRange", "NotFound", "AlreadyExists",
    "FailedPrecondition", "IOError", "NotImplemented", "Internal",
}
# An expression statement whose whole effect is a call. Wrapped calls
# (`(void)x.Foo();`, `CRH_RETURN_NOT_OK(x.Foo());`) do not match, and
# call_statement() rejects lines the callee's parentheses do not close
# (`Foo(x).ok());`, the tail of a wrapped expression).
CALL_STMT_RE = re.compile(r"^\s*(?:[\w\]\[]+(?:\.|->))*(\w+)\s*\(.*\)\s*;\s*$")
VOID_CAST_RE = re.compile(r"\(\s*void\s*\)\s*((?:[\w:]+(?:\.|->|::))*)(\w+)\s*\(")

# --- lock-order -------------------------------------------------------------
LOCK_DECL_RE = re.compile(
    r"(?:crh::)?MutexLock\s+\w+\s*[({]\s*&?([\w.>-]+)"
    r"|std::(?:lock_guard|unique_lock|scoped_lock)\s*<[^>]*>\s+\w+\s*[({]\s*([\w.>-]+)")
MANUAL_LOCK_RE = re.compile(r"\b([\w.>-]*\w)\s*\.\s*Lock\s*\(\s*\)")
MANUAL_UNLOCK_RE = re.compile(r"\b([\w.>-]*\w)\s*\.\s*Unlock\s*\(\s*\)")
ADOPT_LOCK_RE = re.compile(r"std::adopt_lock")
FAIL_POINT_CALL_RE = re.compile(
    r"\bCRH_FAIL_POINT\s*\(|\bFailPoints\b[^;\n]*\.\s*Hit(?:Write)?\s*\(")
FUNCTION_OBJ_RE = re.compile(
    r"std::function\s*<[^;]*?>\s*[*&]?\s*[*&]?(\w+)\s*[;,)=]")
# `(*callback)(...)`: a call through a dereferenced function object.
DEREF_CALL_RE = re.compile(r"\(\s*\*\s*(\w+)\s*\)\s*\(")
# Statements that leave the enclosing block's function or loop.
EXIT_RE = re.compile(r"\b(?:return|break|continue|throw)\b")

# --- failpoint-dominance ----------------------------------------------------
# Where durable I/O lives, and the serving layer's socket surface.
IO_SCOPED_DIRS = ("src/stream/", "src/common/", "src/data/", "src/serve/")
IO_CALL_RE = re.compile(
    r"\b(?:std::)?(fopen|fwrite|fread|fflush|fclose|rename|remove|fputs|"
    r"fprintf|fscanf|fseek|ftell)\s*\("
    r"|\bstd::(ofstream|ifstream|fstream)\s+\w+\s*[({]"
    r"|\bstd::filesystem::(create_directories|create_directory|remove_all|"
    r"remove|rename|resize_file|directory_iterator)\s*\("
    # poll/close/pipe are deliberately absent: control-plane plumbing whose
    # failure modes the fail-point registry does not model.
    r"|\b(socket|bind|listen|accept4|accept|recvmsg|recv|sendmsg|send)\s*\(")
FAIL_SITE_RE = re.compile(
    r"(?:CRH_FAIL_POINT|\.\s*Hit(?:Write)?)\s*\(\s*\"([^\"]+)\"")
REGISTRY_FN_RE = re.compile(r"\w*FailPointSites$")
STRING_LIT_RE = re.compile(r"\"([\w.]+)\"")

# --- arch -------------------------------------------------------------------
INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"([^"]+)"')

# --- global-state -----------------------------------------------------------
GLOBAL_STATE_EXCLUDED = ("src/tools/", "src/common/global_state.h")
GLOBAL_EXEMPT_MACRO = "CRH_GLOBAL_STATE_EXEMPT"
# Namespace-scope statements that declare something other than a mutable
# variable (types, aliases, constants, templates, externs, ...).
GLOBAL_SKIP_RE = re.compile(
    r"\b(?:const|constexpr|constinit|using|typedef|extern|friend|enum|class|"
    r"struct|union|namespace|template|static_assert|operator)\b")
GLOBAL_DECL_RE = re.compile(
    r"^(?:inline\s+|static\s+|thread_local\s+)*"
    r"[A-Za-z_][\w:]*(?:\s*<[^;]*>)?[\s*&]+"
    r"((?:[A-Za-z_][\w:]*::)?[A-Za-z_]\w*)\s*"
    r"(?:\[[^\]]*\])?\s*(?:=.*)?$")
STATIC_LOCAL_RE = re.compile(
    r"^\s*(?:thread_local\s+)?static\s+(?:thread_local\s+)?"
    r"(?!const\b|constexpr\b)")

# --- hot (CRH_HOT real-time discipline) -------------------------------------
HOT_ATTR_RE = re.compile(r"\bCRH_HOT\b")
# Locks, raw I/O, fail points and std::function invocations are modeled as
# their own events; these cover allocation, container growth and throws.
HOT_VIOLATION_RES = [
    (re.compile(r"\bnew\b"), "calls operator new"),
    (re.compile(r"(?<![\w.:])(?:malloc|calloc|realloc|strdup)\s*\("),
     "calls a C heap allocator"),
    (re.compile(r"\bstd::make_(?:unique|shared)\b"),
     "allocates via std::make_unique/make_shared"),
    (re.compile(r"(?:\.|->)\s*(?:push_back|emplace_back|emplace|resize|"
                r"reserve|assign|insert|append)\s*\("),
     "grows a container"),
    (re.compile(r"\bstd::(?:vector|string|map|set|unordered_map|"
                r"unordered_set|deque|list|function|[io]?stringstream)\s*"
                r"(?:<[^;&(]*>)?\s+\w+\s*[({=;]"),
     "constructs a local container/std::function"),
    (re.compile(r"\bthrow\b"), "throws"),
    (re.compile(r"\bstd::to_string\b"), "calls std::to_string (allocates)"),
    (re.compile(r"\bstd::stable_sort\b"),
     "calls std::stable_sort (allocates)"),
]

# --- taint (untrusted input) ------------------------------------------------
# Where externally supplied bytes enter: the serving socket and protocol,
# the CSV reader, and the checkpoint loader.
UNTRUSTED_SCOPED_DIRS = ("src/serve/", "src/stream/", "src/data/")
# Seed set of untrusted-returning functions, grown by a fixpoint: a scoped
# function returning an unsanitized tainted value joins it.
UNTRUSTED_RETURNING = {
    "recv", "recvmsg", "strtoll", "strtoull", "strtod",
    "ParseJsonObject", "Find", "GetString", "GetInt", "GetUint",
    "GetDouble", "GetDoubleArray", "GetStringArray",
    "ReadObservationsCsv", "SplitCsvLine", "Decode", "DecodeCheckpoint",
}
# `cursor.ReadU64(&count)` makes `count` untrusted.
UNTRUSTED_OUTPARAM_RE = re.compile(
    r"\bRead(?:U8|U16|U32|U64|I8|I16|I32|I64|F32|F64|Varint)\w*"
    r"\s*\(\s*&\s*([\w.]*\w)")
UNTRUSTED_ASSIGN_RE = re.compile(r"\b([A-Za-z_]\w*)\s*=(?![=])")
UNTRUSTED_CALLEE_RE = re.compile(r"\b([A-Za-z_]\w*)\s*\(")
# Sanitizers: a range comparison on an `if` or a CRH_CHECK/
# CRH_VERIFY_OR_RETURN line, or CRH_SANITIZED. (`for`/`while` conditions
# are not sanitizers: a tainted loop bound is the hazard.)
UNTRUSTED_GUARD_MACRO_RE = re.compile(
    r"\bCRH_(?:CHECK|DCHECK|VERIFY_OR_RETURN|SANITIZED)\w*\s*\(")
UNTRUSTED_IF_RE = re.compile(r"\bif\s*\(")
RELATIONAL_RE = re.compile(r"[<>]=?|==|!=")
SANITIZED_ARGS_RE = re.compile(r"\bCRH_SANITIZED\s*\(([^;]*)")
IDENT_RE = re.compile(r"[A-Za-z_]\w*")
# Sinks: (description, regex whose group(1) holds the controlled operand,
# last_arg_only). For memcpy/memmove/memset and two-arg append/assign only
# the final argument is the length. The loop pattern captures the whole
# condition so `->` in it cannot truncate the match.
UNTRUSTED_SINK_RES = [
    ("an allocation size",
     re.compile(r"(?:\.|->)\s*(?:resize|reserve)\s*\(([^;]*)"), False),
    ("an array-new size",
     re.compile(r"\bnew\s+[\w:]+(?:\s*<[^;\[]*>)?\s*\[([^\]]*)\]"), False),
    ("a raw copy length",
     re.compile(r"\b(?:memcpy|memmove|memset)\s*\(([^;]*)"), True),
    ("a buffer length argument",
     re.compile(r"(?:\.|->)\s*(?:append|assign)\s*\(([^;]*,[^;]*)"), True),
    ("a container index",
     re.compile(r"[\w\])]\s*\[([^\]]+)\]"), False),
    ("pointer arithmetic off .data()",
     re.compile(r"(?:\.|->)\s*data\s*\(\s*\)\s*\+\s*([^;,)]*)"), False),
    ("a loop bound",
     re.compile(r"\bfor\s*\([^;]*;([^;]*[<>][^;]*);"), False),
]
UNTRUSTED_RETURN_RE = re.compile(r"^\s*(?:co_)?return\b(.*)")

# --- snapshot-lifetime ------------------------------------------------------
SNAPSHOT_SCOPED_DIRS = ("src/serve/",)
# A shared_ptr<const ServeSnapshot> declaration or a `.Current()` result.
# The atomic member `std::atomic<std::shared_ptr<...>> current_` does not
# match: its `>>` never precedes an identifier.
SNAPSHOT_DECL_RE = re.compile(
    r"shared_ptr\s*<\s*(?:const\s+)?(?:crh::)?ServeSnapshot\s*>"
    r"\s*&?\s+(\w+)\b")
SNAPSHOT_CURRENT_RE = re.compile(
    r"\b(\w+)\s*=\s*[^;=]*\.\s*Current\s*\(\s*\)")
SNAPSHOT_VIEW_RETURN_RE = re.compile(r"[*&]|\bstring_view\b|\b[Ss]pan\b")
SNAPSHOT_MEMBER_STORE_RE = re.compile(r"\b\w+_\s*=(?![=])")

CONTROL_KEYWORDS = {
    "if", "for", "while", "switch", "catch", "return", "sizeof", "do",
    "else", "new", "delete", "throw", "co_return", "co_await", "alignof",
    "static_assert", "defined", "decltype",
}
CALL_RE = re.compile(r"(?:([\w:]+)\s*(?:\.|->|::))?\b([A-Za-z_]\w*)\s*\(")
PREPROC_RE = re.compile(r"^\s*#")
HEAD_ATTR_RE = re.compile(r"\[\[[^\]]*\]\]|\bCRH_[A-Z_]+\s*\([^()]*\)")


class Finding(NamedTuple):
    path: str  # repo-relative posix path
    line: int
    rule: str
    message: str

    def key(self) -> str:
        return f"{self.path}: [{self.rule}]"

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


# ---------------------------------------------------------------------------
# Source walker: every file is read and stripped once.

LEXEME_RE = re.compile(
    r'//[^\n]*|/\*.*?(?:\*/|\Z)|R"([^()\\ ]{0,16})\(.*?\)\1"'
    r'|"(?:\\.|[^"\\])*"|\'(?:\\.|[^\'\\])*\'', re.S)


def _blank(text: str) -> str:
    return "\n".join(" " * len(part) for part in text.split("\n"))


def _blank_lexeme(m: re.Match) -> str:
    s = m.group(0)
    if s[0] in "\"'":
        return s[0] + _blank(s[1:-1]) + s[-1]
    return _blank(s)


def strip_comments_and_strings(text: str) -> str:
    """Blanks comments, raw strings and the contents of string and char
    literals (their quotes stay), preserving every newline."""
    return LEXEME_RE.sub(_blank_lexeme, text)


class Source:
    """One scanned file. `raw_lines` and `lines` (comments and strings
    blanked) align line for line."""

    def __init__(self, root: pathlib.Path, path: pathlib.Path):
        resolved = path.resolve()
        self.rel = (resolved.relative_to(root).as_posix()
                    if resolved.is_relative_to(root) else path.as_posix())
        self.raw = path.read_text(encoding="utf-8", errors="replace")
        self.clean = strip_comments_and_strings(self.raw)
        self.raw_lines = self.raw.split("\n")
        self.lines = self.clean.split("\n")
        self.allow = {i: set(ALLOW_RE.findall(line))
                      for i, line in enumerate(self.raw_lines, 1)
                      if "analyzer:allow" in line}

    def allowed(self, lineno: int, rule: str) -> bool:
        return rule in self.allow.get(lineno, ())

    @functools.cached_property
    def unordered_names(self) -> set[str]:
        """Variables and members declared with an unordered container type
        (directly or through a `using` alias) anywhere in the file."""
        names = {m.group(1) for line in self.lines
                 for m in UNORDERED_DECL_RE.finditer(line)}
        aliases = {m.group(1) for line in self.lines
                   for m in UNORDERED_ALIAS_RE.finditer(line)}
        if aliases:
            alias_decl = re.compile(
                r"\b(?:%s)\s*(?:<[^;]*?>)?\s+(\w+)\s*[;{=(]"
                % "|".join(sorted(aliases)))
            names |= {m.group(1) for line in self.lines
                      for m in alias_decl.finditer(line)}
        return names


def load_sources(root: pathlib.Path, paths: list[str]) -> list[Source]:
    roots = [pathlib.Path(p) for p in paths] or [root / d for d in DEFAULT_DIRS]
    files: list[pathlib.Path] = []
    for top in roots:
        candidates = [top] if top.is_file() else sorted(top.rglob("*"))
        files += [f for f in candidates
                  if f.suffix in CXX_SUFFIXES and "build" not in f.parts]
    # Path order fixes the model's function order, which the fixpoints'
    # witnesses (the line a finding names) depend on.
    return [Source(root, f) for f in sorted(files)]


def call_statement(line: str) -> str | None:
    """The callee of a line that is exactly one call statement."""
    m = CALL_STMT_RE.match(line)
    if m is None:
        return None
    depth = 0
    for i in range(m.end(1), len(line)):
        depth += {"(": 1, ")": -1}.get(line[i], 0)
        if depth == 0 and line[i] == ")":
            return m.group(1) if line[i + 1:].strip() == ";" else None
    return None


def unordered_range_expr(expr: str, unordered_names: set[str]) -> bool:
    """True when a range-for's range expression names (or derefs to) a
    known unordered container. Trailing call parens (`obj.items()`) hide
    the type, so only bare names and member chains are classified."""
    m = re.search(r"([A-Za-z_]\w*)\s*$", expr.strip())
    return bool(m) and m.group(1) in unordered_names


# ---------------------------------------------------------------------------
# Program model: file -> function models.


class FunctionModel:
    """Lexical model of one function definition."""

    def __init__(self, qual_name: str, name: str, rel: str,
                 start_line: int, end_line: int, open_line: int):
        self.qual_name = qual_name
        self.name = name
        self.rel = rel
        self.start_line = start_line
        self.end_line = end_line
        # Line where the body `{` opens: the signature's own `name(` match
        # up to here must not be mistaken for a recursive call.
        self.open_line = open_line
        # [(line, callee_simple_name, frozenset(held_lock_ids))]
        self.calls: list[tuple[int, str, frozenset]] = []
        self.taint_sources: list[tuple[int, str]] = []  # (line, description)
        self.exempt = False
        self.io_sites: list[tuple[int, str]] = []  # (line, call text)
        self.failpoint_lines: list[int] = []
        self.failpoint_sites: list[tuple[int, str]] = []  # (line, site id)
        self.failpoints_held: list[tuple[int, frozenset]] = []
        # [(line, acquired_lock_id, tuple(held_before))]
        self.lock_acquires: list[tuple[int, str, tuple]] = []
        self.callback_invokes: list[tuple[int, str, frozenset]] = []
        self.is_registry = bool(REGISTRY_FN_RE.match(name))
        self.registered_sites: set[str] = set()
        self.hot = False  # carries the CRH_HOT annotation
        self.hot_violations: list[tuple[int, str]] = []  # (line, what)
        # Untrusted-input taint events (the `taint` check).
        self.ut_sources: list[tuple[int, str, str]] = []  # (line, var, desc)
        self.ut_assigns: list[tuple[int, str, str]] = []  # (line, var, callee)
        self.ut_guards: list[tuple[int, frozenset]] = []  # (line, idents)
        self.ut_sinks: list[tuple[int, str, frozenset]] = []
        self.ut_returns: list[tuple[int, frozenset]] = []
        self.ut_sanitized: list[tuple[int, frozenset]] = []
        # Escapes of epoch-snapshot views (the `snapshot-lifetime` check).
        self.snap_escapes: list[tuple[int, str]] = []  # (line, what)


def blank_preprocessor(clean: str) -> str:
    """Blanks preprocessor directives (including continuation lines) so
    `#define`/`#if` bodies do not confuse brace tracking."""
    out_lines = []
    cont = False
    for line in clean.split("\n"):
        active = cont or bool(PREPROC_RE.match(line))
        cont = active and line.rstrip().endswith("\\")
        out_lines.append(" " * len(line) if active else line)
    return "\n".join(out_lines)


def classify_head(head: str):
    """Classifies the text between the previous `;`/`{`/`}` and an opening
    `{`. Returns (kind, name) with kind in namespace|class|function|block."""
    head = HEAD_ATTR_RE.sub(" ", head).strip()
    m = re.search(r"\bnamespace\s+([\w:]+)?\s*$", head)
    if m or head.endswith("namespace"):
        return "namespace", (m.group(1) if m and m.group(1) else "")
    m = re.search(r"\b(?:class|struct)\s+(\w+)[^;()]*$", head)
    if m and "(" not in head.split(m.group(1))[-1].split(":")[0]:
        return "class", m.group(1)
    if re.search(r"\benum\b", head) or re.search(r"\b(?:extern|union)\b\s*$",
                                                 head):
        return "block", None
    # Function: the identifier chain right before the first top-level '('.
    depth = 0
    paren_at = -1
    for i, c in enumerate(head):
        if c in "<([":
            if c == "(" and depth == 0:
                paren_at = i
                break
            depth += 1
        elif c in ">)]":
            depth = max(0, depth - 1)
    if paren_at < 0:
        return "block", None
    m = re.search(r"([\w:~]+)\s*$", head[:paren_at])
    if not m:
        return "block", None
    # Member access right before the name (`obj.push_back({...})`,
    # `p->emplace({...})`) is a call whose brace-init argument reached us.
    if m.start() > 0 and (head[m.start() - 1] == "."
                          or head[m.start() - 2:m.start()] == "->"):
        return "block", None
    name = m.group(1)
    simple = name.split("::")[-1].lstrip("~")
    if simple in CONTROL_KEYWORDS or not simple:
        return "block", None
    if simple == "operator":  # normalise overloads to a stable name
        name = name.replace("operator", "operatorX")
    return "function", name


def scan_file_functions(text: str):
    """Returns (qual_name, name, start_line, end_line, open_line) spans for
    every function definition in preprocessor-blanked, stripped text."""
    line = 1
    head_start = 0
    head_line = 1
    scope: list[tuple[str, str]] = []  # (kind, name) of enclosing scopes
    spans = []
    in_fn = None  # (qual, name, start_line, brace_depth_at_entry, open_line)
    depth = 0
    for i, c in enumerate(text):
        if c == "\n":
            line += 1
            continue
        if in_fn is not None:
            if c == "{":
                depth += 1
            elif c == "}":
                depth -= 1
                if depth == in_fn[3]:
                    spans.append((in_fn[0], in_fn[1], in_fn[2], line,
                                  in_fn[4]))
                    in_fn = None
                    head_start = i + 1
                    head_line = line
            continue
        if c == "{":
            kind, name = classify_head(text[head_start:i])
            if kind == "function":
                classes = [s_name for s_kind, s_name in scope
                           if s_kind == "class"]
                if "::" in name:
                    qual = "::".join(name.split("::")[-2:])
                elif classes:
                    qual = f"{classes[-1]}::{name}"
                else:
                    qual = name
                in_fn = (qual, name.split("::")[-1], head_line, depth, line)
                depth += 1
                continue
            scope.append((kind, name or ""))
            depth += 1
            head_start = i + 1
            head_line = line
        elif c == "}":
            depth -= 1
            if scope:
                scope.pop()
            head_start = i + 1
            head_line = line
        elif c == ";":
            head_start = i + 1
            head_line = line
        elif not c.isspace() and text[head_start:i].strip() == "":
            head_line = line
    return spans


def scan_namespace_statements(text: str):
    """Yields (line, statement_text) for every `;`-terminated statement all
    of whose enclosing brace scopes are namespaces (file scope included).
    Brace initializers (`std::atomic<int> g{0};`) stay part of their
    statement; class/function/enum bodies are skipped."""
    line = 1
    head_start = 0
    stmt_line = None
    scope: list[str] = []  # kinds of the enclosing brace scopes
    depth_skip = 0  # > 0 while inside a brace initializer
    for i, c in enumerate(text):
        if c == "\n":
            line += 1
            continue
        if depth_skip:
            if c == "{":
                depth_skip += 1
            elif c == "}":
                depth_skip -= 1
            continue
        if c == "{":
            head = text[head_start:i]
            kind, _ = classify_head(head)
            tail = head.rstrip()
            # A plain block whose head ends in an identifier/`=`/`>`/`]` is
            # a brace initializer (or an enum/union body): consume it
            # without opening a scope so the statement keeps accumulating.
            if kind == "block" and tail and (tail[-1].isalnum()
                                             or tail[-1] in "_=>]"):
                depth_skip = 1
            else:
                scope.append(kind)
                head_start = i + 1
                stmt_line = None
        elif c == "}":
            if scope:
                scope.pop()
            head_start = i + 1
            stmt_line = None
        elif c == ";":
            if all(k == "namespace" for k in scope):
                stmt = text[head_start:i].strip()
                if stmt and stmt_line is not None:
                    yield (stmt_line, stmt)
            head_start = i + 1
            stmt_line = None
        elif not c.isspace() and stmt_line is None:
            stmt_line = line


def lock_id(name: str, qual_name: str, rel: str) -> str:
    """Stable cross-TU identity for a lock. Member locks (`mu_`, possibly
    reached via `this->` or `obj.`) are identified by owning class; locals
    and parameters by the enclosing function."""
    base = name.split(".")[-1].split(">")[-1]
    cls = qual_name.split("::")[0] if "::" in qual_name else None
    if base.endswith("_") and cls:
        return f"{cls}::{base}"
    if base.endswith("_"):
        return f"{pathlib.PurePosixPath(rel).stem}::{base}"
    return f"{qual_name}::{base}"


def starts_statement(lines: list[str], lineno: int, col: int) -> bool:
    """True if the token at (lineno, col) begins a statement: only `{`, `;`,
    `}` or a label's `:` precede it. A braceless `if (x) return;` is a
    conditional exit, not a block's own."""
    before = lines[lineno - 1][:col].rstrip()
    if before:
        return before[-1] in "{;}:"
    for prev in range(lineno - 1, 0, -1):
        text = lines[prev - 1].strip()
        if text:
            return text[-1] in "{;}:"
    return True


def extract_body(fn: FunctionModel, src: Source,
                 function_objs: set[str]) -> None:
    """Populates a FunctionModel's event lists from its line span. Braces
    are walked in column order with the events, so a manual `Unlock()`
    knows the block it sits in: inside a nested block that then leaves the
    function or loop (`if (done) { mu_.Unlock(); return; }`), it releases
    the lock only until that block closes."""
    depth = 0
    scoped_locks: list[tuple[int, str]] = []
    manual_locks: set[str] = set()
    # [block depth, lock, block exits after the unlock] per nested Unlock().
    early_unlocks: list[list] = []
    local_function_objs = set(function_objs)
    for lineno in range(fn.start_line, min(fn.end_line, len(src.lines)) + 1):
        line = src.lines[lineno - 1]
        raw_line = src.raw_lines[lineno - 1]
        allow = src.allow.get(lineno, set())
        line_depth = depth

        declared_objs = {m.group(1) for m in FUNCTION_OBJ_RE.finditer(line)}
        local_function_objs |= declared_objs

        if "determinism-taint" not in allow:
            for pattern, desc in TAINT_SOURCE_RES:
                if pattern.search(line):
                    fn.taint_sources.append((lineno, desc))
            for m in RANGE_FOR_RE.finditer(line):
                if unordered_range_expr(m.group(2), src.unordered_names):
                    fn.taint_sources.append(
                        (lineno, "unordered-container iteration order"))
        if EXEMPT_RE.search(line):
            fn.exempt = True

        # CRH_HOT annotation (signature head) + real-time violations. Every
        # function is scanned: non-hot callees must carry their dirt so the
        # hot check's transitive closure sees it.
        if lineno <= fn.open_line and HOT_ATTR_RE.search(line):
            fn.hot = True
        if "hot" not in allow:
            for pattern, desc in HOT_VIOLATION_RES:
                if pattern.search(line):
                    fn.hot_violations.append((lineno, desc))

        # Untrusted-input taint events; guards are always recorded (they
        # only ever suppress findings).
        line_idents = frozenset(IDENT_RE.findall(line))
        if UNTRUSTED_GUARD_MACRO_RE.search(line) or (
                UNTRUSTED_IF_RE.search(line) and RELATIONAL_RE.search(line)):
            fn.ut_guards.append((lineno, line_idents))
        if "taint" not in allow:
            for m in UNTRUSTED_OUTPARAM_RE.finditer(line):
                fn.ut_sources.append(
                    (lineno, m.group(1).split(".")[-1],
                     "decoded from untrusted payload bytes"))
            for m in UNTRUSTED_ASSIGN_RE.finditer(line):
                rhs = line[m.end():].split(";", 1)[0]
                for cm in UNTRUSTED_CALLEE_RE.finditer(rhs):
                    fn.ut_assigns.append((lineno, m.group(1), cm.group(1)))
            for m in SANITIZED_ARGS_RE.finditer(line):
                fn.ut_sanitized.append(
                    (lineno, frozenset(IDENT_RE.findall(m.group(1)))))
            for desc, pattern, last_arg_only in UNTRUSTED_SINK_RES:
                for m in pattern.finditer(line):
                    operand = last_call_arg(m.group(1)) if last_arg_only \
                        else m.group(1)
                    fn.ut_sinks.append(
                        (lineno, desc, frozenset(IDENT_RE.findall(operand))))
            m = UNTRUSTED_RETURN_RE.match(line)
            if m:
                fn.ut_returns.append(
                    (lineno, frozenset(IDENT_RE.findall(m.group(1)))))

        # Fail points (the site literal comes from the raw line: the
        # stripped text blanks string contents).
        if FAIL_POINT_CALL_RE.search(line):
            fn.failpoint_lines.append(lineno)
            for m in FAIL_SITE_RE.finditer(raw_line):
                fn.failpoint_sites.append((lineno, m.group(1)))
        if fn.is_registry:
            for m in STRING_LIT_RE.finditer(raw_line):
                fn.registered_sites.add(m.group(1))

        # I/O sites (stderr/stdout writes are crash-path reporting: the
        # CRH_CHECK handlers must not themselves fault-inject).
        if "failpoint-dominance" not in allow:
            for m in IO_CALL_RE.finditer(line):
                if m.group(1) in ("fprintf", "fputs", "fflush", "fscanf") \
                        and re.search(r"\b(?:stderr|stdout)\b",
                                      line[m.start():]):
                    continue
                fn.io_sites.append(
                    (lineno,
                     (m.group(1) or m.group(2) or m.group(3) or m.group(4))))

        # Column-ordered event walk: lock acquisitions and releases, fail
        # points, calls.
        events = []
        if not ADOPT_LOCK_RE.search(line):
            for m in LOCK_DECL_RE.finditer(line):
                name = m.group(1) or m.group(2) or "?"
                events.append((m.start(), "scoped_lock",
                               lock_id(name, fn.qual_name, fn.rel)))
        for m in MANUAL_LOCK_RE.finditer(line):
            events.append((m.start(), "manual_lock",
                           lock_id(m.group(1), fn.qual_name, fn.rel)))
        for m in MANUAL_UNLOCK_RE.finditer(line):
            events.append((m.start(), "manual_unlock",
                           lock_id(m.group(1), fn.qual_name, fn.rel)))
        for m in FAIL_POINT_CALL_RE.finditer(line):
            events.append((m.start(), "failpoint", None))
        for m in CALL_RE.finditer(line):
            callee = m.group(2)
            if callee in CONTROL_KEYWORDS or callee == "CRH_FAIL_POINT":
                continue
            # The function's own signature is not a recursive call.
            if callee == fn.name and lineno <= fn.open_line:
                continue
            events.append((m.start(), "call", callee))
        for m in DEREF_CALL_RE.finditer(line):
            if m.group(1) in local_function_objs:
                events.append((m.start(), "call", m.group(1)))
        for m in re.finditer(r"[{}]", line):
            events.append((m.start(), m.group(0), None))
        for m in EXIT_RE.finditer(line):
            if starts_statement(src.lines, lineno, m.start()):
                events.append((m.start(), "exit", None))
        # A declaration is not an invocation.
        events = sorted((e for e in events
                         if not (e[1] == "call" and e[2] in declared_objs)),
                        key=lambda e: e[0])
        allow_lock = "lock-order" in allow
        for _, ekind, val in events:
            if ekind == "{":
                depth += 1
                continue
            if ekind == "}":
                depth -= 1
                scoped_locks = [(d, n) for (d, n) in scoped_locks
                                if d < depth]
                for entry in [e for e in early_unlocks if e[0] > depth]:
                    early_unlocks.remove(entry)
                    if entry[2]:
                        manual_locks.add(entry[1])
                continue
            if ekind == "exit":
                for entry in early_unlocks:
                    if entry[0] == depth:
                        entry[2] = True
                continue
            held = frozenset(n for _, n in scoped_locks) | manual_locks
            if ekind in ("scoped_lock", "manual_lock"):
                if not allow_lock:
                    fn.lock_acquires.append((lineno, val, tuple(sorted(held))))
                if ekind == "scoped_lock":
                    scoped_locks.append((line_depth, val))
                else:
                    manual_locks.add(val)
            elif ekind == "manual_unlock":
                manual_locks.discard(val)
                if depth > 1:
                    early_unlocks.append([depth, val, False])
            elif ekind == "failpoint":
                if held and not allow_lock:
                    fn.failpoints_held.append((lineno, held))
            elif val in local_function_objs:
                fn.callback_invokes.append((lineno, val, held))
            else:
                fn.calls.append((lineno, val, held))


def last_call_arg(argtext: str) -> str:
    """Given the text following a call's `(`, returns its final top-level
    argument (stopping at the call's own closing paren)."""
    depth = 0
    last_start = 0
    end = len(argtext)
    for i, ch in enumerate(argtext):
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            if depth == 0:
                end = i
                break
            depth -= 1
        elif ch == "," and depth == 0:
            last_start = i + 1
    return argtext[last_start:end]


def scan_snapshot_escapes(fn: FunctionModel, src: Source) -> None:
    """Populates fn.snap_escapes: uses of an epoch-snapshot handle that
    outlive the owning shared_ptr's scope. Pass 1 finds the handles
    (declarations and `.Current()` assignments, signature lines included);
    pass 2 finds escapes: a view-returning function returning through the
    handle, a member assignment storing an address derived from it, or a
    by-reference lambda capture on a line that names it."""
    span = range(fn.start_line, min(fn.end_line, len(src.lines)) + 1)
    handles: set[str] = set()
    for lineno in span:
        line = src.lines[lineno - 1]
        handles |= {m.group(1) for m in SNAPSHOT_DECL_RE.finditer(line)}
        handles |= {m.group(1) for m in SNAPSHOT_CURRENT_RE.finditer(line)}
    if not handles:
        return
    alt = "|".join(sorted(handles))
    # `snap->...` or `snap.get()`: a raw view through the handle.
    deref_re = re.compile(r"\b(?:%s)\s*(?:->|\.\s*get\s*\()" % alt)
    # An address derived from the handle: `&...snap`, `snap.get()`, or a
    # `data()/c_str()/begin()` view reached through it. `&&` is logical.
    addr_re = re.compile(
        r"(?<![&\w])&\s*[\w.\[\]()>-]*\b(?:%s)\b" % alt
        + r"|\b(?:%s)\s*\.\s*get\s*\(" % alt
        + r"|\b(?:%s)\s*->[\w.>\[\]()\s-]*?\b(?:data|c_str|begin)\s*\("
        % alt)
    lambda_ref_re = re.compile(r"\[\s*&[^\]]*\]\s*[({]")
    mention_re = re.compile(r"\b(?:%s)\b" % alt)
    head = " ".join(ln.strip() for ln in src.lines[fn.start_line - 1:fn.open_line])
    returns_view = bool(SNAPSHOT_VIEW_RETURN_RE.search(head.split("(", 1)[0]))
    for lineno in span:
        line = src.lines[lineno - 1]
        if src.allowed(lineno, "snapshot-lifetime"):
            continue
        if returns_view and UNTRUSTED_RETURN_RE.match(line) \
                and deref_re.search(line):
            fn.snap_escapes.append(
                (lineno, "returns a pointer/reference/view derived from "
                         "an epoch snapshot handle; the owning shared_ptr "
                         "dies with this scope and the next Publish() "
                         "frees the snapshot under the caller"))
        if SNAPSHOT_MEMBER_STORE_RE.search(line) and addr_re.search(line):
            fn.snap_escapes.append(
                (lineno, "stores an address derived from an epoch snapshot "
                         "handle into a member that outlives the handle's "
                         "scope; store the shared_ptr itself (pinning the "
                         "epoch) or copy the value out"))
        if lambda_ref_re.search(line) and mention_re.search(line):
            fn.snap_escapes.append(
                (lineno, "captures an epoch snapshot handle by reference "
                         "in a lambda; if the callback outlives the scope "
                         "it reads a freed snapshot — capture the "
                         "shared_ptr by value instead"))


class ProgramModel:
    def __init__(self, sources: list[Source]):
        self.sources = sources
        self.functions: list[FunctionModel] = []
        self.by_simple: dict[str, list[FunctionModel]] = {}
        self.status_functions: set[str] = set()
        self.result_functions: set[str] = set()
        # rel -> [(line, quoted include target)], analyzer:allow filtered.
        self.includes: dict[str, list[tuple[int, str]]] = {}
        # rel -> [(line, name, kind)] unexempted mutable globals/statics.
        self.global_decls: dict[str, list[tuple[int, str, str]]] = {}

    def add(self, fn: FunctionModel) -> None:
        self.functions.append(fn)
        self.by_simple.setdefault(fn.name, []).append(fn)

    def resolve(self, callee: str) -> list[FunctionModel]:
        return self.by_simple.get(callee, [])

    def scoped(self, dirs: tuple[str, ...], exclude: tuple[str, ...] = ()):
        return [s for s in self.sources
                if s.rel.startswith(dirs) and not s.rel.startswith(exclude)]


def model_file(model: ProgramModel, src: Source) -> None:
    rel, raw_lines, clean_lines = src.rel, src.raw_lines, src.lines
    model.includes[rel] = [
        (lineno, m.group(1)) for lineno, raw_line in enumerate(raw_lines, 1)
        if (m := INCLUDE_RE.match(raw_line)) and not src.allowed(lineno, "arch")]
    function_objs = {m.group(1) for line in clean_lines
                     for m in FUNCTION_OBJ_RE.finditer(line)}
    code = blank_preprocessor(src.clean)

    decls: list[tuple[int, str, str]] = []
    for stmt_line, stmt in scan_namespace_statements(code):
        if "(" in stmt or GLOBAL_SKIP_RE.search(stmt):
            continue
        m = GLOBAL_DECL_RE.match(re.sub(r"\{[^{}]*\}", " ", stmt).strip())
        # CRH_GLOBAL_STATE_EXEMPT on the declaration's first line or in
        # the four raw lines above it (the macro call may wrap).
        if not m or src.allowed(stmt_line, "global-state") or any(
                GLOBAL_EXEMPT_MACRO in raw_lines[k]
                for k in range(max(0, stmt_line - 5), stmt_line)):
            continue
        decls.append((stmt_line, m.group(1),
                      "namespace-scope mutable variable"))

    for qual, name, start, end, open_line in scan_file_functions(code):
        fn = FunctionModel(qual, name, rel, start, end, open_line)
        extract_body(fn, src, function_objs)
        scan_snapshot_escapes(fn, src)
        model.add(fn)

        # Mutable function-local statics (singletons). The enclosing
        # function vouches for all of them by carrying the exemption macro
        # anywhere in its body.
        if any(GLOBAL_EXEMPT_MACRO in raw_lines[k]
               for k in range(fn.start_line - 1, fn.end_line)):
            continue
        # From the line after the body `{` opens: the head itself may be a
        # `static` member-function definition.
        for lineno in range(fn.open_line + 1, fn.end_line + 1):
            if STATIC_LOCAL_RE.match(clean_lines[lineno - 1]) \
                    and not src.allowed(lineno, "global-state"):
                decls.append((lineno, fn.qual_name,
                              "mutable function-local static in"))
    if decls:
        model.global_decls[rel] = sorted(decls)


def build_model(sources: list[Source]) -> ProgramModel:
    model = ProgramModel(sources)
    for src in sources:
        for m in STATUS_DECL_RE.finditer(src.clean):
            model.status_functions.add(m.group(2))
            if m.group(1) != "Status":
                model.result_functions.add(m.group(2))
        if src.rel.startswith(MODEL_DIRS):
            model_file(model, src)
    model.status_functions -= STATUS_FACTORIES
    return model


# ---------------------------------------------------------------------------
# Whole-program fixpoints.


def fix_reachable(model: ProgramModel, seed) -> set[int]:
    """Backward fixpoint: the ids of functions for which `seed(fn)` holds
    or that call such a function."""
    flagged = {id(fn) for fn in model.functions if seed(fn)}
    changed = True
    while changed:
        changed = False
        for fn in model.functions:
            if id(fn) in flagged:
                continue
            for _, callee, _ in fn.calls:
                if any(id(t) in flagged for t in model.resolve(callee)):
                    flagged.add(id(fn))
                    changed = True
                    break
    return flagged


def transitive_lock_acquires(model: ProgramModel) -> dict[int, set[str]]:
    """For each function: the lock ids it or any transitive callee
    acquires."""
    acquires: dict[int, set[str]] = {
        id(fn): {lock for _, lock, _ in fn.lock_acquires}
        for fn in model.functions}
    changed = True
    while changed:
        changed = False
        for fn in model.functions:
            mine = acquires[id(fn)]
            before = len(mine)
            for _, callee, _ in fn.calls:
                for target in model.resolve(callee):
                    mine |= acquires[id(target)]
            if len(mine) != before:
                changed = True
    return acquires


def follow_chain(start: FunctionModel, step, max_hops: int = 8):
    """Follows `step(fn, seen_ids) -> next fn or None` for up to max_hops.
    Returns the visited functions in order."""
    chain = [start]
    seen = {id(start)}
    for _ in range(max_hops):
        nxt = step(chain[-1], seen)
        if nxt is None:
            break
        seen.add(id(nxt))
        chain.append(nxt)
    return chain


# ---------------------------------------------------------------------------
# The rules.


def grep_rule(rule: str, message: str, pattern: re.Pattern,
              scope=ALL_DIRS, exclude=(), raw=False):
    """A rule that flags every line in scope matching `pattern`."""
    def check(model: ProgramModel, findings: list[Finding]) -> None:
        for src in model.scoped(scope, exclude):
            for lineno, line in enumerate(src.raw_lines if raw else src.lines,
                                          1):
                if pattern.search(line) and not src.allowed(lineno, rule):
                    findings.append(Finding(src.rel, lineno, rule, message))
    return check


def check_determinism(model: ProgramModel, findings: list[Finding]) -> None:
    grep_rule("determinism",
              "use the seeded crh::Rng, not std::rand/srand/time seeding",
              NONDETERMINISM_RE, exclude=DETERMINISM_DIRS)(model, findings)
    grep_rule("determinism",
              "raw clock/RNG/getenv in a deterministic layer; go through "
              "common/stopwatch.h, common/rng.h or the fault-injection shims "
              "(they carry CRH_DETERMINISM_EXEMPT)",
              DETERMINISM_LAYER_RE, scope=DETERMINISM_DIRS)(model, findings)


def check_mutex_annotations(model: ProgramModel,
                            findings: list[Finding]) -> None:
    for src in model.sources:
        header = src.rel.endswith((".h", ".hpp"))
        # mutex.h defines the annotated lock types themselves.
        if src.rel == "src/common/mutex.h" or not (
                src.rel.startswith("src/")
                or (header and src.rel.startswith(ALL_DIRS))):
            continue
        missing = None
        if header and not THREAD_ANNOTATIONS_INCLUDE_RE.search(src.raw):
            missing = "the common/thread_annotations.h include"
        elif header and not CRH_ANNOTATION_USE_RE.search(src.clean):
            missing = "any CRH_* capability annotation"
        guarded = {m.group(1) for m in GUARDED_NAME_RE.finditer(src.clean)}
        for lineno, line in enumerate(src.lines, 1):
            m = MUTEX_MEMBER_RE.match(line)
            if not m or src.allowed(lineno, "mutex-annotations"):
                continue
            kind, name = m.groups()
            if missing:
                why = f"its header lacks {missing}"
            elif kind in ("Mutex", "std::mutex") and name not in guarded:
                why = "no CRH_GUARDED_BY/CRH_REQUIRES/... in this file names it"
            else:
                continue
            findings.append(Finding(
                src.rel, lineno, "mutex-annotations",
                f"lock member '{name}' is invisible to -Wthread-safety: {why}; "
                "annotate what it protects (common/thread_annotations.h)"))


def check_unordered_iteration(model: ProgramModel,
                              findings: list[Finding]) -> None:
    for src in model.scoped(("src/",)):
        for lineno, line in enumerate(src.lines, 1):
            if any(unordered_range_expr(m.group(2), src.unordered_names)
                   for m in RANGE_FOR_RE.finditer(line)) \
                    and not src.allowed(lineno, "unordered-iteration"):
                findings.append(Finding(
                    src.rel, lineno, "unordered-iteration",
                    "range-for over an unordered container: bucket order "
                    "is implementation-defined and leaks into anything "
                    "this loop computes; probe keys in a deterministic "
                    "order instead (see WeightedVote)"))


def check_determinism_taint(model: ProgramModel,
                            findings: list[Finding]) -> None:
    tainted = fix_reachable(
        model, lambda fn: bool(fn.taint_sources) and not fn.exempt
        and fn.rel not in PRIMITIVE_FILES)
    # Exempt functions are barriers even when their callees are tainted.
    tainted -= {id(fn) for fn in model.functions if fn.exempt}

    def next_tainted(fn: FunctionModel, seen: set[int]):
        if fn.taint_sources:
            return None
        return next((t for _, callee, _ in fn.calls
                     for t in model.resolve(callee)
                     if id(t) in tainted and id(t) not in seen), None)

    for fn in model.functions:
        if fn.exempt or not (
                fn.qual_name in TAINT_SINKS or fn.name in TAINT_SINKS
                or (fn.name == "main" and fn.rel.startswith(SINK_MAIN_DIRS))):
            continue
        for lineno, desc in fn.taint_sources:
            findings.append(Finding(
                fn.rel, lineno, "determinism-taint",
                f"{fn.qual_name} publishes results but derives a value from "
                f"{desc}; route it through a CRH_DETERMINISM_EXEMPT shim "
                "(common/stopwatch.h) or remove it"))
        # Transitive: a call chain from the sink to a tainted source.
        for lineno, callee, _ in fn.calls:
            target = next((t for t in model.resolve(callee)
                           if id(t) in tainted), None)
            if target is None:
                continue
            chain = follow_chain(target, next_tainted)
            leaf = chain[-1].taint_sources
            findings.append(Finding(
                fn.rel, lineno, "determinism-taint",
                f"{fn.qual_name} publishes results but calls "
                f"{' -> '.join(f.qual_name for f in chain)}, which reads "
                f"{leaf[0][1] if leaf else 'a nondeterministic source'}; add "
                "CRH_DETERMINISM_EXEMPT(\"why\") at the boundary that "
                "provably keeps it out of published state, or fix the "
                "source"))


def check_status_path(model: ProgramModel, findings: list[Finding]) -> None:
    callers: dict[str, list[FunctionModel]] = {}
    by_rel: dict[str, list[FunctionModel]] = {}
    for fn in model.functions:
        by_rel.setdefault(fn.rel, []).append(fn)
        for _, callee, _ in fn.calls:
            callers.setdefault(callee, []).append(fn)
    for src in model.scoped(ALL_DIRS):
        for lineno, line in enumerate(src.lines, 1):
            callee = call_statement(line)
            if callee in model.status_functions:
                what = "is dropped"
            else:
                callee = next((v.group(2) for v in VOID_CAST_RE.finditer(line)
                               if v.group(2) in model.result_functions), None)
                what = "is (void)-cast away: a Result is a value or an error"
            if callee is None or src.allowed(lineno, "status-path"):
                continue
            fn = next((f for f in by_rel.get(src.rel, ())
                       if f.start_line <= lineno <= f.end_line), None)
            via = ""
            if fn is not None:
                # A representative entry-point -> ... -> offender chain.
                chain = follow_chain(fn, lambda f, seen: next(
                    (c for c in callers.get(f.name, ()) if id(c) not in seen),
                    None))
                via = " on call-path " + " -> ".join(
                    [f.qual_name for f in reversed(chain)] + [f"{callee}()"])
            findings.append(Finding(
                src.rel, lineno, "status-path",
                f"Status/Result from {callee}() {what}{via}; propagate with "
                "CRH_RETURN_NOT_OK or handle it (a `(void)` cast is the "
                "visible opt-out for a Status only)"))


def check_lock_order(model: ProgramModel, findings: list[Finding]) -> None:
    acquires = transitive_lock_acquires(model)
    hits_failpoint = fix_reachable(
        model, lambda fn: bool(fn.failpoint_lines)
        and fn.rel not in PRIMITIVE_FILES)
    invokes_callback = fix_reachable(
        model, lambda fn: bool(fn.callback_invokes))
    functions = [fn for fn in model.functions if fn.rel not in PRIMITIVE_FILES]

    # Edge set: (held, acquired) -> first site.
    edges: dict[tuple[str, str], tuple[str, int, str]] = {}
    for fn in functions:
        for lineno, acquired, held in fn.lock_acquires:
            for h in held:
                if h != acquired:
                    edges.setdefault((h, acquired),
                                     (fn.rel, lineno, fn.qual_name))
        for lineno, callee, held in fn.calls:
            if not held:
                continue
            for target in model.resolve(callee):
                if target.rel in PRIMITIVE_FILES:
                    continue
                for acquired in acquires[id(target)]:
                    for h in held:
                        if h != acquired:
                            edges.setdefault(
                                (h, acquired),
                                (fn.rel, lineno,
                                 f"{fn.qual_name} via {target.qual_name}"))

    # Cycle detection over the lock digraph.
    graph: dict[str, set[str]] = {}
    for (a, b) in edges:
        graph.setdefault(a, set()).add(b)
        graph.setdefault(b, set())
    state: dict[str, int] = {}
    stack: list[str] = []
    cycles: list[list[str]] = []

    def dfs(node: str) -> None:
        state[node] = 1
        stack.append(node)
        for nxt in sorted(graph.get(node, ())):
            if state.get(nxt, 0) == 0:
                dfs(nxt)
            elif state.get(nxt) == 1:
                cycles.append(stack[stack.index(nxt):] + [nxt])
        stack.pop()
        state[node] = 2

    for node in sorted(graph):
        if state.get(node, 0) == 0:
            dfs(node)
    for cycle in cycles:
        a, b = cycle[0], cycle[1]
        rel, lineno, where = edges.get((a, b)) or edges.get((b, a)) or \
            ("", 1, "?")
        findings.append(Finding(
            rel, lineno, "lock-order",
            f"lock-order cycle {' -> '.join(cycle)} (edge acquired in "
            f"{where}); impose a single global acquisition order"))

    # Locks held across fail-point / callback boundaries: directly in this
    # function, or through any call that reaches one.
    for fn in functions:
        for lineno, callee, held in fn.calls:
            if not held:
                continue
            for target in model.resolve(callee):
                if target.rel in PRIMITIVE_FILES:
                    continue
                hazard = None
                if id(target) in hits_failpoint:
                    hazard = "evaluates a fail point"
                elif id(target) in invokes_callback:
                    hazard = "invokes a std::function callback"
                if hazard:
                    findings.append(Finding(
                        fn.rel, lineno, "lock-order",
                        f"{fn.qual_name} holds {{{', '.join(sorted(held))}}} "
                        f"while calling {target.qual_name}, which "
                        f"{hazard}; release the lock first (reserve-then-"
                        "write, see CheckpointManager::Save)"))
                    break
        for lineno, name, held in fn.callback_invokes:
            if held:
                findings.append(Finding(
                    fn.rel, lineno, "lock-order",
                    f"{fn.qual_name} invokes callback '{name}' while "
                    f"holding {{{', '.join(sorted(held))}}}; user code must "
                    "never run under a library lock"))
        for lineno, held in fn.failpoints_held:
            findings.append(Finding(
                fn.rel, lineno, "lock-order",
                f"{fn.qual_name} evaluates a fail point while holding "
                f"{{{', '.join(sorted(held))}}}; release the lock first "
                "(reserve-then-write, see CheckpointManager::Save)"))


def check_failpoint_dominance(model: ProgramModel,
                              findings: list[Finding]) -> None:
    registered: set[str] = set()
    used: dict[str, tuple[str, int]] = {}
    for fn in model.functions:
        registered |= fn.registered_sites
        for lineno, site in fn.failpoint_sites:
            used.setdefault(site, (fn.rel, lineno))

    for fn in model.functions:
        if not fn.rel.startswith(IO_SCOPED_DIRS) or \
                fn.rel in PRIMITIVE_FILES:
            continue
        for lineno, what in fn.io_sites:
            if not any(fp <= lineno for fp in fn.failpoint_lines):
                findings.append(Finding(
                    fn.rel, lineno, "failpoint-dominance",
                    f"raw I/O call {what}() in {fn.qual_name} is not "
                    "dominated by a fail point; add CRH_FAIL_POINT(\"...\") "
                    "before it and register the site in the component's "
                    "*FailPointSites() list so fault sweeps cover it"))

    for site, (rel, lineno) in sorted(used.items()):
        if site not in registered:
            findings.append(Finding(
                rel, lineno, "failpoint-dominance",
                f"fail-point site \"{site}\" is hit here but not listed in "
                "any *FailPointSites() registry; fault-sweep tests cannot "
                "see it"))


def load_arch_manifest():
    """Returns (module -> layer index, private_headers map) from
    scripts/arch_layers.json."""
    data = json.loads(ARCH_MANIFEST.read_text())
    layer_of = {mod: idx for idx, layer in enumerate(data["layers"])
                for mod in layer}
    return layer_of, data.get("private_headers", {})


def module_of(rel: str) -> str | None:
    parts = pathlib.PurePosixPath(rel).parts
    if parts and parts[0] == "bench":
        return "bench"
    if len(parts) >= 3 and parts[0] == "src":
        return parts[1]
    return None


def check_arch(model: ProgramModel, findings: list[Finding]) -> None:
    try:
        layer_of, private = load_arch_manifest()
    except (OSError, json.JSONDecodeError, KeyError, TypeError) as exc:
        findings.append(Finding("scripts/arch_layers.json", 1, "arch",
                                f"layer manifest unreadable: {exc}"))
        return

    for rel in sorted(model.includes):
        mod = module_of(rel)
        if mod is None:
            continue
        if mod not in layer_of:
            findings.append(Finding(
                rel, 1, "arch",
                f"module '{mod}' is not declared in any layer of "
                "scripts/arch_layers.json; add it to the manifest"))
            continue
        for lineno, target in model.includes[rel]:
            tmod = target.split("/", 1)[0]
            if "/" not in target or tmod not in layer_of:
                continue
            if target in private and mod not in private[target]:
                findings.append(Finding(
                    rel, lineno, "arch",
                    f"\"{target}\" is a private header "
                    "(scripts/arch_layers.json private_headers); module "
                    f"'{mod}' may not include it — go through the owning "
                    "module's public interface, or widen the allow-list "
                    "with a justification"))
            if tmod != mod and layer_of[tmod] >= layer_of[mod]:
                what = "back-edge" if layer_of[tmod] > layer_of[mod] \
                    else "peer edge"
                findings.append(Finding(
                    rel, lineno, "arch",
                    f"layer {what}: module '{mod}' (layer {layer_of[mod]}) "
                    f"includes \"{target}\" from module '{tmod}' (layer "
                    f"{layer_of[tmod]}); dependencies must point at the "
                    "same module or a strictly earlier layer"))

    # Cross-TU call edges. Simple-name resolution is ambiguous, so an edge
    # is flagged only when EVERY candidate resolution of the callee lives
    # in a strictly later layer: one plausible clean target acquits it.
    for fn in model.functions:
        mod = module_of(fn.rel)
        if mod is None or mod not in layer_of:
            continue
        reported: set[str] = set()
        for lineno, callee, _ in fn.calls:
            targets = model.resolve(callee)
            # Only free functions: a simple name shared with any method
            # (size/empty/push_back/...) says nothing about the receiver.
            if callee in reported or not targets or any(
                    t.qual_name != t.name for t in targets):
                continue
            tmods = {module_of(t.rel) for t in targets}
            if not tmods <= layer_of.keys():
                continue
            if all(tm != mod and layer_of[tm] > layer_of[mod]
                   for tm in tmods):
                reported.add(callee)
                findings.append(Finding(
                    fn.rel, lineno, "arch",
                    f"call back-edge: {fn.qual_name} (module '{mod}') "
                    f"calls {callee}(), which resolves only into later "
                    f"layer(s) {{{', '.join(sorted(tmods))}}}; invert the "
                    "dependency or move the callee down the stack"))


def check_global_state(model: ProgramModel,
                       findings: list[Finding]) -> None:
    for rel in sorted(model.global_decls):
        if not rel.startswith("src/") or rel.startswith(GLOBAL_STATE_EXCLUDED):
            continue
        for lineno, name, kind in model.global_decls[rel]:
            findings.append(Finding(
                rel, lineno, "global-state",
                f"{kind} `{name}`: an epoch snapshot must be a pure "
                "function of its inputs, so library layers keep no mutable "
                "global/static state; make it caller-owned, or annotate "
                "with CRH_GLOBAL_STATE_EXEMPT(\"why\") "
                "(src/common/global_state.h)"))


def check_hot(model: ProgramModel, findings: list[Finding]) -> None:
    # Local dirt: allocation/throw patterns plus the modeled lock, I/O,
    # fail-point and std::function-invocation events.
    local_reasons: dict[int, list[tuple[int, str]]] = {}
    for fn in model.functions:
        if fn.rel in PRIMITIVE_FILES:
            continue
        reasons = list(fn.hot_violations)
        reasons += [(ln, f"performs raw I/O ({what})")
                    for ln, what in fn.io_sites]
        reasons += [(ln, f"acquires lock {lock}")
                    for ln, lock, _ in fn.lock_acquires]
        reasons += [(ln, "evaluates a fail point")
                    for ln in fn.failpoint_lines]
        reasons += [(ln, f"invokes std::function '{name}'")
                    for ln, name, _ in fn.callback_invokes]
        if reasons:
            local_reasons[id(fn)] = sorted(reasons)

    # Transitive closure, optimistic on ambiguity: a call dirties its
    # caller only when it resolves and EVERY resolution is dirty (span/
    # allocating overload pairs with shared simple names stay apart).
    dirty: dict[int, tuple] = {fid: ("local",) for fid in local_reasons}
    changed = True
    while changed:
        changed = False
        for fn in model.functions:
            if id(fn) in dirty:
                continue
            for lineno, callee, _ in fn.calls:
                targets = model.resolve(callee)
                if targets and all(id(t) in dirty for t in targets):
                    dirty[id(fn)] = ("call", lineno, callee, targets[0])
                    changed = True
                    break

    for fn in model.functions:
        if not fn.hot or id(fn) not in dirty:
            continue
        entry = dirty[id(fn)]
        if entry[0] == "local":
            for lineno, desc in local_reasons[id(fn)][:3]:
                findings.append(Finding(
                    fn.rel, lineno, "hot",
                    f"{fn.qual_name} is CRH_HOT but {desc}; hot solver "
                    "kernels must be allocation-, lock-, I/O- and "
                    "throw-free — hoist the work into caller-owned "
                    "scratch (see SolverScratch in core/crh.cc)"))
            continue
        # Follow the recorded dirtying call down to a locally dirty leaf.
        chain = follow_chain(fn, lambda f, _: dirty[id(f)][3]
                             if dirty[id(f)][0] == "call" else None)
        leaf_why = local_reasons.get(
            id(chain[-1]),
            [(0, "performs a hot-unsafe operation")])[0][1]
        findings.append(Finding(
            fn.rel, entry[1], "hot",
            f"{fn.qual_name} is CRH_HOT but calls "
            f"{' -> '.join(f.qual_name for f in chain[1:])}, which "
            f"{leaf_why}; every transitive callee of a hot kernel must be "
            "real-time safe"))


def untrusted_taint_state(fn: FunctionModel, names: set[str]):
    """Flow-sensitive (line-ordered) taint for one function body, given the
    current set of untrusted-returning function names. Returns
    (tainted: var -> (source line, description),
     bad_sinks: [(sink line, kind, var, source line, description)],
     returns_tainted: bool)."""
    tainted: dict[str, tuple[int, str]] = {}
    for line, var, desc in fn.ut_sources:
        if var not in tainted or line < tainted[var][0]:
            tainted[var] = (line, desc)
    for line, var, callee in fn.ut_assigns:
        if callee in names and (var not in tainted or line < tainted[var][0]):
            tainted[var] = (line, f"untrusted bytes via {callee}()")
    if not tainted:
        return tainted, [], False

    guard_lines: dict[str, list[int]] = {v: [] for v in tainted}
    for gline, idents in fn.ut_guards:
        for v in tainted:
            if v in idents:
                guard_lines[v].append(gline)

    def sanitized(var: str, use_line: int) -> bool:
        src = tainted[var][0]
        return any(src <= g <= use_line for g in guard_lines[var])

    bad_sinks: list[tuple[int, str, str, int, str]] = []
    for sline, kind, idents in fn.ut_sinks:
        for var in sorted(idents & tainted.keys()):
            src, desc = tainted[var]
            if sline >= src and not sanitized(var, sline):
                bad_sinks.append((sline, kind, var, src, desc))
                break  # one finding per sink site
    returns_tainted = any(
        var in idents and rline >= tainted[var][0]
        and not sanitized(var, rline)
        for rline, idents in fn.ut_returns for var in tainted)
    return tainted, bad_sinks, returns_tainted


def check_untrusted_taint(model: ProgramModel,
                          findings: list[Finding]) -> None:
    scoped = [fn for fn in model.functions
              if fn.rel.startswith(UNTRUSTED_SCOPED_DIRS)
              and fn.rel not in PRIMITIVE_FILES]
    # Interprocedural fixpoint: a scoped function that returns a tainted
    # value without sanitizing it taints every `x = Fn(...)` assignment
    # from its callers, across TUs.
    names = set(UNTRUSTED_RETURNING)
    changed = True
    while changed:
        changed = False
        for fn in scoped:
            if fn.name not in names and untrusted_taint_state(fn, names)[2]:
                names.add(fn.name)
                changed = True

    for fn in model.functions:
        if fn.rel in PRIMITIVE_FILES:
            continue
        tainted, bad_sinks, _ = untrusted_taint_state(fn, names)
        if fn.rel.startswith(UNTRUSTED_SCOPED_DIRS):
            for sline, kind, var, src, desc in bad_sinks:
                findings.append(Finding(
                    fn.rel, sline, "taint",
                    f"`{var}` ({desc}, line {src}) reaches {kind} in "
                    f"{fn.qual_name} without a dominating bounds check; "
                    "guard it with an if/CRH_CHECK/CRH_VERIFY_OR_RETURN "
                    "range comparison first, or wrap the use in "
                    "CRH_SANITIZED(expr, \"why\") (src/common/taint.h)"))
        # CRH_SANITIZED misuse is flagged everywhere: the escape hatch may
        # only bless values the analyzer tracks as untrusted.
        for sline, idents in fn.ut_sanitized:
            if not (idents & tainted.keys()):
                findings.append(Finding(
                    fn.rel, sline, "taint",
                    f"CRH_SANITIZED in {fn.qual_name} wraps a value the "
                    "analyzer does not track as untrusted; the escape "
                    "hatch exists to bless a real source->sink path — "
                    "remove it, or name the tainted variable in the "
                    "wrapped expression"))


def check_snapshot_lifetime(model: ProgramModel,
                            findings: list[Finding]) -> None:
    for fn in model.functions:
        if fn.rel.startswith(SNAPSHOT_SCOPED_DIRS) and \
                fn.rel not in PRIMITIVE_FILES:
            for lineno, what in fn.snap_escapes:
                findings.append(Finding(
                    fn.rel, lineno, "snapshot-lifetime",
                    f"{fn.qual_name} {what}"))


# name -> (check, one-line description). Line rules first, then the
# whole-program checks over the model.
RULES = {
    "include-cc": (grep_rule(
        "include-cc", "do not #include .cc files", INCLUDE_CC_RE, raw=True),
        "#include of a .cc file"),
    "naked-new": (grep_rule(
        "naked-new", "naked new/delete outside src/common/; own memory "
        "through containers and smart pointers", NAKED_NEW_RE,
        exclude=("src/common/",)),
        "naked new/delete outside src/common/"),
    "determinism": (check_determinism,
                    "std::rand/srand/time(nullptr) seeding anywhere; raw "
                    "clock/RNG/getenv in src/core, src/weights, src/stream"),
    "raw-assert": (grep_rule(
        "raw-assert", "use CRH_CHECK/CRH_DCHECK instead of assert()",
        RAW_ASSERT_RE, exclude=("tests/",)),
        "raw assert() outside tests/"),
    "float-equality": (grep_rule(
        "float-equality", "exact ==/!= on a double; use NearlyEqual or an "
        "explicit tolerance", FLOAT_EQ_RE, scope=("src/",)),
        "exact ==/!= on a floating-point value"),
    "unchecked-io-write": (grep_rule(
        "unchecked-io-write", "fwrite/fflush/rename/fclose return value is "
        "dropped; a failed write or close is how torn output happens",
        UNCHECKED_IO_RE), "fwrite/fflush/rename/fclose return dropped"),
    "mutex-annotations": (check_mutex_annotations,
                          "lock member the thread-safety analysis cannot "
                          "check"),
    "unordered-iteration": (check_unordered_iteration,
                            "iteration order of an unordered container "
                            "leaks into computed state"),
    "determinism-taint": (check_determinism_taint,
                          "nondeterministic value can reach a published "
                          "output (checkpoint, CSV, bench/CLI report)"),
    "status-path": (check_status_path,
                    "Status/Result call dropped, or a Result (void)-cast "
                    "away"),
    "lock-order": (check_lock_order,
                   "lock-acquisition cycle, or lock held across a "
                   "fail-point/callback boundary"),
    "failpoint-dominance": (check_failpoint_dominance,
                            "raw I/O call not dominated by a registered "
                            "fail point, or fail-point site not registered"),
    "taint": (check_untrusted_taint,
              "untrusted byte-derived value reaches an allocation size, "
              "index, copy length, or loop bound without a dominating "
              "bounds check (or CRH_SANITIZED is misused on trusted data)"),
    "snapshot-lifetime": (check_snapshot_lifetime,
                          "raw pointer/view derived from an epoch "
                          "ServeSnapshot escapes the owning shared_ptr's "
                          "scope"),
    "arch": (check_arch,
             "include or call edge violates the committed layer DAG "
             "(scripts/arch_layers.json), or a private header leaks"),
    "global-state": (check_global_state,
                     "mutable global/static state in a library layer "
                     "breaks epoch-snapshot isolation"),
    "hot": (check_hot,
            "CRH_HOT function (transitively) allocates, locks, blocks, "
            "throws, or evaluates a fail point"),
}


def run_checks(model: ProgramModel, checks=None,
               timings: dict[str, float] | None = None) -> list[Finding]:
    findings: list[Finding] = []
    for name, (check, _) in RULES.items():
        if checks is not None and name not in checks:
            continue
        t0 = time.monotonic()
        check(model, findings)
        if timings is not None:
            timings[name] = time.monotonic() - t0
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings


# ---------------------------------------------------------------------------
# Layer diagram (--graph-svg), built from the manifest plus the observed
# include edges and fully deterministic: CI regenerates docs/architecture.svg
# and diffs it against the committed copy.


def collect_module_edges(sources: list[Source]):
    """Observed include edges between manifest modules:
    (from_module, to_module) -> include count."""
    layer_of, _ = load_arch_manifest()
    edges: dict[tuple[str, str], int] = {}
    for src in sources:
        mod = module_of(src.rel)
        if mod is None or mod not in layer_of:
            continue
        for raw_line in src.raw_lines:
            m = INCLUDE_RE.match(raw_line)
            if not m or "/" not in m.group(1):
                continue
            tmod = m.group(1).split("/", 1)[0]
            if tmod in layer_of and tmod != mod:
                edges[(mod, tmod)] = edges.get((mod, tmod), 0) + 1
    return edges


def render_module_svg(edges: dict[tuple[str, str], int]) -> str:
    layers = json.loads(ARCH_MANIFEST.read_text())["layers"]
    bw, bh, hgap, vgap = 130, 40, 46, 70
    margin, top = 40, 72
    nlayers = len(layers)
    widths = [len(lr) * bw + (len(lr) - 1) * hgap for lr in layers]
    total_w = max(widths) + 2 * margin
    total_h = top + nlayers * bh + (nlayers - 1) * vgap + margin
    pos: dict[str, tuple[int, int]] = {}
    for i, layer in enumerate(layers):
        y = top + (nlayers - 1 - i) * (bh + vgap)
        x0 = (total_w - widths[i]) // 2
        for j, mod in enumerate(layer):
            pos[mod] = (x0 + j * (bw + hgap), y)
    layer_fill = ["#e8f5e9", "#e3f2fd", "#fff3e0", "#f3e5f5", "#ffebee",
                  "#e0f7fa", "#f9fbe7"]
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{total_w}" '
        f'height="{total_h}" viewBox="0 0 {total_w} {total_h}" '
        'font-family="Helvetica, Arial, sans-serif">',
        ' <defs><marker id="arr" viewBox="0 0 10 10" refX="9" refY="5" '
        'markerWidth="7" markerHeight="7" orient="auto">'
        '<path d="M 0 0 L 10 5 L 0 10 z" fill="#546e7a"/></marker></defs>',
        f' <rect width="{total_w}" height="{total_h}" fill="#ffffff"/>',
        f' <text x="{margin}" y="28" font-size="14" fill="#263238" '
        'font-weight="bold">CRH layer DAG</text>',
        f' <text x="{margin}" y="46" font-size="11" fill="#546e7a">arrows '
        'point at the dependency; generated by scripts/crh_analyzer.py '
        '--graph-svg, checked by --check=arch</text>']
    for (a, b) in sorted(edges):
        x1, y1 = pos[a][0] + bw // 2, pos[a][1] + bh
        x2, y2 = pos[b][0] + bw // 2, pos[b][1]
        out.append(f' <line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
                   'stroke="#90a4ae" stroke-width="1.2" '
                   'marker-end="url(#arr)"/>')
    for i, layer in enumerate(layers):
        fill = layer_fill[i % len(layer_fill)]
        out.append(f' <text x="{margin - 28}" '
                   f'y="{top + (nlayers - 1 - i) * (bh + vgap) + bh // 2 + 4}"'
                   f' font-size="11" fill="#90a4ae">L{i}</text>')
        for mod in layer:
            x, y = pos[mod]
            out.append(f' <rect x="{x}" y="{y}" width="{bw}" '
                       f'height="{bh}" rx="6" fill="{fill}" '
                       'stroke="#546e7a"/>')
            out.append(f' <text x="{x + bw // 2}" y="{y + bh // 2 + 5}" '
                       'font-size="14" text-anchor="middle" '
                       f'fill="#263238">{mod}</text>')
    out.append('</svg>')
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Baseline, SARIF and budget.


def load_baseline() -> set[str]:
    if not BASELINE.exists():
        return set()
    entries = set()
    for line in BASELINE.read_text().splitlines():
        line = line.split(" #", 1)[0].strip()
        if line and not line.startswith("#"):
            entries.add(line)
    return entries


def write_baseline(findings: list[Finding]) -> None:
    lines = [
        "# crh_analyzer baseline: one `path: [rule]` per line. Every entry",
        "# must carry a trailing `# <justification>` explaining why the",
        "# finding is accepted rather than fixed (see docs/TOOLING.md).",
        "# Stale entries fail the run: delete them when the finding is",
        "# fixed, or regenerate with --update-baseline.",
    ]
    for key in sorted({f.key() for f in findings}):
        lines.append(f"{key}  # TODO: justify or fix")
    BASELINE.write_text("\n".join(lines) + "\n")


def write_sarif(path: str, findings: list[Finding]) -> None:
    """Writes a SARIF 2.1.0 log: one run, one result per finding, one
    reportingDescriptor per registered rule."""
    rules = [{"id": name, "shortDescription": {"text": doc},
              "defaultConfiguration": {"level": "error"}}
             for name, (_, doc) in sorted(RULES.items())]
    results = [{
        "ruleId": f.rule,
        "level": "error",
        "message": {"text": f.message},
        "locations": [{"physicalLocation": {
            "artifactLocation": {"uri": f.path, "uriBaseId": "SRCROOT"},
            "region": {"startLine": max(1, f.line)}}}],
    } for f in findings]
    log = {
        "$schema": "https://json.schemastore.org/sarif-2.1.0.json",
        "version": "2.1.0",
        "runs": [{
            "tool": {"driver": {
                "name": "crh_analyzer",
                "informationUri":
                    "https://github.com/crh/crh/blob/main/docs/TOOLING.md",
                "rules": rules}},
            "originalUriBaseIds": {"SRCROOT": {"uri": "file:///"}},
            "results": results,
        }],
    }
    out = pathlib.Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(log, indent=2) + "\n", encoding="utf-8")


def check_budget_file(path: str, timings: dict[str, float]) -> list[str]:
    """Compares per-rule wall times against the committed budget (ms). A
    rule with no budget entry, or one exceeding its budget by >50%, is a
    failure message."""
    try:
        budgets = json.loads(pathlib.Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return [f"crh_analyzer: unreadable budget file {path}: {exc}"]
    problems: list[str] = []
    for name in sorted(timings):
        ms = timings[name] * 1000.0
        budget = budgets.get(name)
        if not isinstance(budget, (int, float)):
            problems.append(
                f"crh_analyzer: check '{name}' has no committed wall-time "
                f"budget in {path}; add one so CI tracks its cost")
        elif ms > budget * 1.5:
            problems.append(
                f"crh_analyzer: check '{name}' took {ms:.0f}ms, more than "
                f"1.5x its {budget:.0f}ms budget in {path}; speed the check "
                "up or commit a justified new budget")
    return problems


def parse_check_arg(raw: str):
    """Parses a --check=LIST value. Returns (checks, None) on success or
    (None, one-line error naming every valid check) on an unknown name."""
    checks = {c.strip() for c in raw.split(",") if c.strip()}
    unknown = sorted(checks - set(RULES))
    if unknown:
        return None, (
            f"crh_analyzer: unknown check(s): {', '.join(unknown)}; "
            f"valid checks: {', '.join(sorted(RULES))}")
    return checks, None


# ---------------------------------------------------------------------------
# Self-test corpus: a miniature multi-TU tree. A file named
# `<rule>_pos<N>.<ext>` must draw a finding of that rule; one named
# `<rule>_neg<N>.<ext>` must draw none. Other files are shared helpers.

SELF_TEST_FILES = {
    # --- line rules: each positive sits inside its rule's scope; each
    # negative spells the code right or sits where the rule exempts it.
    "tests/include-cc_pos.cc": '#include "core/crh.cc"\n',
    "tests/include-cc_neg.cc": '#include "core/crh.h"\n',
    "src/core/naked-new_pos.cc": "int* Leak() { return new int(7); }\n",
    "src/core/naked-new_neg.cc":
        "auto Own() { return std::make_unique<int>(7); }\n",
    "src/common/naked-new_neg2.cc": "int* Raw() { return new int(7); }\n",
    "tests/determinism_pos.cc": "int Roll() { return std::rand() % 6; }\n",
    "src/core/determinism_pos2.cc":
        'const char* Home() { return std::getenv("HOME"); }\n',
    "src/data/determinism_neg.cc":
        'const char* Home() { return std::getenv("HOME"); }\n',
    "src/core/raw-assert_pos.cc": "void Check(int n) { assert(n > 0); }\n",
    "src/core/raw-assert_neg.cc": "static_assert(sizeof(int) == 4);\n",
    "tests/raw-assert_neg2.cc": "void Check(int n) { assert(n > 0); }\n",
    "src/core/float-equality_pos.cc":
        "bool IsHalf(double x) { return x == 0.5; }\n",
    "src/core/float-equality_neg.cc":
        "bool IsHalf(double x) { return NearlyEqual(x, 0.5); }\n",
    "tests/float-equality_neg2.cc":
        "bool IsHalf(double x) { return x == 0.5; }\n",
    "examples/unchecked-io-write_pos.cc":
        "void Flush(std::FILE* out) {\n  std::fflush(out);\n}\n",
    "examples/unchecked-io-write_neg.cc":
        "bool Flush(std::FILE* out) {\n  return std::fflush(out) == 0;\n}\n",
    # --- mutex-annotations: a header lacking the annotations include, a
    # mutex that guards nothing in an annotated header, and a lock in a
    # test header (positive) vs a fully annotated header (negative).
    "src/stream/mutex-annotations_pos.h": """
#include "common/mutex.h"
namespace crh {
class Unguarded {
 private:
  Mutex mu_;
  int counter_ = 0;
};
}
""",
    "src/stream/mutex-annotations_pos2.h": """
#include "common/mutex.h"
#include "common/thread_annotations.h"
class HalfGuarded {
  Mutex mu_;
  Mutex idle_mu_;
  int counter_ CRH_GUARDED_BY(mu_) = 0;
};
""",
    "tests/mutex-annotations_pos3.h":
        "class Waiter {\n  std::condition_variable cv_;\n};\n",
    "src/stream/mutex-annotations_neg.h": """
#include "common/mutex.h"
#include "common/thread_annotations.h"
namespace crh {
class Guarded {
 private:
  Mutex mu_;
  CondVar cv_;
  int counter_ CRH_GUARDED_BY(mu_) = 0;
};
}
""",
    "src/core/unordered-iteration_pos.h": """
#include <unordered_map>
namespace crh {
inline int Sum(const std::unordered_map<int, int>& histogram) {
  int total = 0;
  for (const auto& [key, count] : histogram) total += key * count;
  return total;
}
}
""",
    "src/core/unordered-iteration_neg.h": """
#include <unordered_map>
#include <vector>
namespace crh {
inline int Sum(const std::vector<int>& keys,
               const std::unordered_map<int, int>& histogram) {
  int total = 0;
  for (int key : keys) total += histogram.count(key);
  return total;
}
}
""",
    # --- determinism-taint: clock read flows through a helper into the
    # checkpoint encoder (positive), exempt twin is a barrier (negative).
    "src/stream/determinism-taint_pos.cc": """
namespace crh {
double SampleClock() {
  return static_cast<double>(Clock::now().time_since_epoch().count());
}
double Jitter() { return SampleClock() * 0.5; }
std::string EncodeCheckpoint(const CheckpointState& state) {
  std::string out;
  out += std::to_string(Jitter());
  return out;
}
}
""",
    "src/stream/determinism-taint_neg.cc": """
namespace crh {
double SampleClockExempt() {
  CRH_DETERMINISM_EXEMPT("timing report only; never serialized");
  return static_cast<double>(Clock::now().time_since_epoch().count());
}
std::string EncodeCheckpointNeg(const CheckpointState& state) {
  std::string out;
  out += "v1";
  return out;
}
}
""",
    # --- status-path: a dropped Status call in the library and in a test,
    # and a (void)-cast Result (positive) vs propagation, a consumed
    # Result, and the (void) opt-out a Status allows (negative).
    "src/stream/status-path_pos.cc": """
namespace crh {
Status SaveThing(int x) { return OkStatus(); }
void CallerDrops() {
  SaveThing(1);
}
void EntryPoint() { CallerDrops(); }
}
""",
    "src/stream/status-path_pos2.h": """
#include "common/status.h"
namespace crh {
Result<int> ParseCount(int raw);
inline void Oops(int raw) {
  (void)ParseCount(raw);
}
}
""",
    "tests/status-path_pos3.cc": "TEST(Save, Drops) {\n  SaveThing(2);\n}\n",
    "src/stream/status-path_neg.cc": """
namespace crh {
Status SaveOther(int x) { return OkStatus(); }
Status CallerPropagates() {
  CRH_RETURN_NOT_OK(SaveOther(1));
  (void)SaveOther(2);
  return OkStatus();
}
inline int Fine(int raw) {
  auto result = ParseCount(raw);
  return result.ok() ? *result : 0;
}
}
""",
    # --- lock-order: AB/BA cycle across two classes (positive) vs a
    # consistent global order (negative).
    "src/stream/lock-order_pos.cc": """
namespace crh {
class Left {
 public:
  void PokeRight() {
    MutexLock lock(&mu_);
    right_->PokeBack();
  }
  void TouchLeft() {
    MutexLock lock(&mu_);
  }
  Right* right_;
  Mutex mu_;
};
class Right {
 public:
  void PokeBack() {
    MutexLock lock(&mu_);
    left_->TouchLeft();
  }
  Left* left_;
  Mutex mu_;
};
}
""",
    "src/stream/lock-order_neg.cc": """
namespace crh {
class Ordered {
 public:
  void CrossA() {
    MutexLock lock(&first_mu_);
    MutexLock lock2(&second_mu_);
  }
  void CrossB() {
    MutexLock lock(&first_mu_);
    MutexLock lock2(&second_mu_);
  }
  Mutex first_mu_;
  Mutex second_mu_;
};
}
""",
    # --- lock-order, held across user code: a callback invoked and a fail
    # point evaluated under the lock (positive) vs the same work after the
    # lock's scope closes or before it opens (negative).
    "src/stream/lock-order_pos2.h": """
#include <functional>
#include "common/mutex.h"
#include "common/thread_annotations.h"
namespace crh {
class Bad {
 public:
  void Run(const std::function<void()>& callback) {
    MutexLock lock(&mu_);
    ++generation_;
    callback();
  }
 private:
  Mutex mu_;
  int generation_ CRH_GUARDED_BY(mu_) = 0;
};
}
""",
    "src/stream/lock-order_neg2.h": """
#include <functional>
#include "common/mutex.h"
#include "common/thread_annotations.h"
namespace crh {
class Good {
 public:
  void Run(const std::function<void()>& callback) {
    {
      MutexLock lock(&mu_);
      ++generation_;
    }
    callback();
  }
 private:
  Mutex mu_;
  int generation_ CRH_GUARDED_BY(mu_) = 0;
};
}
""",
    "src/stream/lock-order_pos3.cc": """
Status Journal::Append() {
  MutexLock lock(&mu_);
  CRH_FAIL_POINT("selftest.journal_append");
  return OkStatus();
}
""",
    "src/stream/lock-order_neg3.cc": """
Status Journal::AppendGuarded() {
  CRH_FAIL_POINT("selftest.journal_append");
  MutexLock lock(&mu_);
  return OkStatus();
}
""",
    # --- lock-order, manual Lock()/Unlock() with an early exit: the
    # unlock on the shutdown branch releases mu_ only until that branch
    # returns, so a job callback invoked later in the loop still runs under
    # mu_ (positive) unless the loop drops mu_ around it (negative).
    "src/stream/lock-order_pos4.cc": """
#include <functional>
namespace crh {
void WorkerPool::HelperLoop(size_t worker) {
  mu_.Lock();
  for (;;) {
    while (!shutdown_ && generation_ == seen_) work_cv_.Wait(&mu_);
    if (shutdown_) {
      mu_.Unlock();
      return;
    }
    const std::function<void(size_t)>* fn = job_fn_;
    for (size_t index = worker; index < count_; index += workers_) (*fn)(index);
    ++finished_;
  }
}
}
""",
    "src/stream/lock-order_neg4.cc": """
#include <functional>
namespace crh {
void WorkerPool::HelperLoop(size_t worker) {
  mu_.Lock();
  for (;;) {
    while (!shutdown_ && generation_ == seen_) work_cv_.Wait(&mu_);
    if (shutdown_) {
      mu_.Unlock();
      return;
    }
    const std::function<void(size_t)>* fn = job_fn_;
    mu_.Unlock();
    for (size_t index = worker; index < count_; index += workers_) (*fn)(index);
    mu_.Lock();
    ++finished_;
  }
}
}
""",
    # --- failpoint-dominance: bare fopen (positive) vs hit-then-open with
    # the site registered (negative), plus an unregistered-site positive.
    "src/stream/failpoint-dominance_pos.cc": """
namespace crh {
Status WriteRaw(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return IOError(path);
  return OkStatus();
}
}
""",
    "src/stream/failpoint-dominance_neg.cc": """
namespace crh {
Status WriteGuarded(const std::string& path) {
  CRH_FAIL_POINT("selftest.open_write");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return IOError(path);
  return OkStatus();
}
std::vector<std::string> SelfTestFailPointSites() {
  return {"selftest.open_write", "selftest.orphan_reg",
          "selftest.journal_append"};
}
}
""",
    "src/stream/failpoint-dominance_pos2.cc": """
namespace crh {
Status TouchUnregistered() {
  CRH_FAIL_POINT("selftest.unregistered_site");
  std::FILE* f = std::fopen("x", "wb");
  if (f == nullptr) return IOError("x");
  return OkStatus();
}
}
""",
    # --- failpoint-dominance, serving layer: a bare recv() (positive) vs
    # hit-then-recv with the site registered (negative).
    "src/serve/failpoint-dominance_pos3.cc": """
namespace crh {
Status ReadRequest(int fd) {
  char buffer[256];
  const ssize_t n = recv(fd, buffer, sizeof(buffer), 0);
  if (n < 0) return IOError("recv");
  return OkStatus();
}
}
""",
    "src/serve/failpoint-dominance_neg2.cc": """
namespace crh {
Status ReadRequestGuarded(int fd) {
  CRH_RETURN_NOT_OK(FailPoints::Instance().Hit("selftest.serve_recv"));
  char buffer[256];
  const ssize_t n = recv(fd, buffer, sizeof(buffer), 0);
  if (n < 0) return IOError("recv");
  return OkStatus();
}
std::vector<std::string> SelfTestServeFailPointSites() {
  return {"selftest.serve_recv"};
}
}
""",
    # --- arch: a data-layer file includes a stream header (back-edge) and
    # a tools file grabs a private common header (leak); the negative twin
    # is a stream file reading data (strictly earlier layer).
    "src/data/arch_pos.cc": """
#include "data/dataset.h"
#include "stream/chunks.h"
namespace crh {
int DataUsesStream() { return 1; }
}
""",
    "src/tools/arch_pos2.cc": """
#include "common/mutex.h"
namespace crh {
int ToolsGrabsMutex() { return 2; }
}
""",
    "src/stream/arch_neg.cc": """
#include "common/status.h"
#include "data/dataset.h"
namespace crh {
int StreamReadsData() { return 3; }
}
""",
    # --- global-state: bare mutable global + singleton static local
    # (positive) vs constants and exempted twins (negative).
    "src/core/global-state_pos.cc": """
namespace crh {
int g_iterations = 0;
double Bump() {
  static int calls = 0;
  ++calls;
  ++g_iterations;
  return 1.0;
}
}
""",
    "src/core/global-state_neg.cc": """
namespace crh {
constexpr int kMaxIters = 100;
const double kTolerance = 1e-9;
CRH_GLOBAL_STATE_EXEMPT("test-only metrics registry; "
                        "never read by snapshot code");
int g_exempted_registry = 0;
double BumpNeg() {
  CRH_GLOBAL_STATE_EXEMPT("per-process diagnostics counter");
  static int calls = 0;
  ++calls;
  return 2.0;
}
}
""",
    # --- hot: a CRH_HOT kernel that allocates, and one that reaches an
    # allocating helper transitively (positive) vs an index-writing clean
    # kernel next to a non-hot allocator (negative).
    "src/core/hot_pos.cc": """
namespace crh {
void GrowBuffer(std::vector<double>* buf) { buf->push_back(1.0); }
CRH_HOT double HotAccumulate(const double* xs, size_t n) {
  std::vector<double> copy(xs, xs + n);
  double total = 0.0;
  for (size_t i = 0; i < n; ++i) total += copy[i];
  return total;
}
CRH_HOT void HotTransitive(std::vector<double>* buf) {
  GrowBuffer(buf);
}
}
""",
    "src/core/hot_neg.cc": """
namespace crh {
void StageResults(std::vector<double>* out) { out->push_back(3.0); }
CRH_HOT double HotDotProduct(const double* xs, const double* ys,
                             double* acc, size_t n) {
  double total = 0.0;
  for (size_t i = 0; i < n; ++i) {
    acc[i] = xs[i] * ys[i];
    total += acc[i];
  }
  return total;
}
}
""",
    # --- hot + arena: mirrors src/common/arena.h's scratch discipline. A
    # kernel that grows a std::vector per element allocates (positive); a
    # kernel that bump-carves from a preallocated arena is pointer
    # arithmetic only and must stay quiet (negative).
    "src/core/hot_pos2.cc": """
namespace crh {
CRH_HOT double HotGatherVector(const double* xs, size_t n,
                               std::vector<double>* scratch) {
  scratch->clear();
  for (size_t i = 0; i < n; ++i) scratch->push_back(xs[i]);
  double total = 0.0;
  for (size_t i = 0; i < n; ++i) total += (*scratch)[i];
  return total;
}
}
""",
    "src/core/hot_neg2.cc": """
namespace crh {
class MiniArena {
 public:
  double* Carve(size_t n) {
    double* out = cursor_;
    cursor_ += n;
    return out;
  }
 private:
  double* cursor_ = nullptr;
};
CRH_HOT double HotGatherArena(const double* xs, size_t n, MiniArena* arena) {
  double* scratch = arena->Carve(n);
  for (size_t i = 0; i < n; ++i) scratch[i] = xs[i];
  double total = 0.0;
  for (size_t i = 0; i < n; ++i) total += scratch[i];
  return total;
}
}
""",
    # --- taint: a checkpoint count decoded from payload bytes sizes an
    # allocation unguarded (positive) vs the remaining-bytes guard and a
    # justified CRH_SANITIZED (negative).
    "src/stream/taint_pos.cc": """
namespace crh {
Status LoadFrame(Cursor& cursor, std::vector<double>* out) {
  uint64_t count = 0;
  CRH_RETURN_NOT_OK(cursor.ReadU64(&count));
  out->resize(count);
  return OkStatus();
}
}
""",
    "src/stream/taint_neg.cc": """
namespace crh {
Status LoadFrameGuarded(Cursor& cursor, std::vector<double>* out) {
  uint64_t count = 0;
  CRH_RETURN_NOT_OK(cursor.ReadU64(&count));
  if (count > cursor.remaining() / 8) return Truncated("count");
  out->resize(count);
  return OkStatus();
}
Status LoadFrameSanitized(Cursor& cursor, std::vector<double>* out) {
  uint64_t n = 0;
  CRH_RETURN_NOT_OK(cursor.ReadU64(&n));
  out->resize(CRH_SANITIZED(n, "frame replayed from a CRC-verified image"));
  return OkStatus();
}
}
""",
    # --- taint, interprocedural: a helper (decode_len.cc) returns a
    # decoded length unsanitized, so its caller's allocation in another TU
    # fires (positive); the checked twin sanitizes before returning,
    # killing the propagation (negative).
    "src/serve/decode_len.cc": """
namespace crh {
uint64_t DecodeLen(Cursor& cursor) {
  uint64_t len = 0;
  (void)cursor.ReadU64(&len);
  return len;
}
}
""",
    "src/serve/taint_pos2.cc": """
namespace crh {
void BuildReply(Cursor& cursor, std::string* out) {
  const uint64_t n = DecodeLen(cursor);
  out->reserve(n);
}
}
""",
    "src/serve/taint_neg2.cc": """
namespace crh {
uint64_t DecodeLenChecked(Cursor& cursor) {
  uint64_t len = 0;
  (void)cursor.ReadU64(&len);
  if (len > kMaxFrameBytes) return 0;
  return len;
}
void BuildReplyChecked(Cursor& cursor, std::string* out) {
  const uint64_t n = DecodeLenChecked(cursor);
  out->reserve(n);
}
}
""",
    # --- taint, protocol surface: a JSON field drives a loop bound and an
    # index unguarded (positive) vs a size comparison first (negative).
    "src/serve/taint_pos3.cc": """
namespace crh {
std::string DumpWeights(const JsonObject& request,
                        const std::vector<double>& weights) {
  auto count = request.GetUint("count");
  std::string out;
  for (size_t i = 0; i < *count; ++i) {
    out += std::to_string(weights[i]);
  }
  return out;
}
}
""",
    "src/serve/taint_neg3.cc": """
namespace crh {
std::string DumpWeightsChecked(const JsonObject& request,
                               const std::vector<double>& weights) {
  auto count = request.GetUint("count");
  if (*count > weights.size()) return std::string();
  std::string out;
  for (size_t i = 0; i < *count; ++i) {
    out += std::to_string(weights[i]);
  }
  return out;
}
}
""",
    # --- taint, escape-hatch misuse: CRH_SANITIZED on a value the
    # analyzer never tainted must itself be a finding.
    "src/serve/taint_pos4.cc": """
namespace crh {
size_t StampLimit(size_t configured_cap) {
  return CRH_SANITIZED(configured_cap, "cap comes from trusted config");
}
}
""",
    # --- snapshot-lifetime: a view return, a member-stored raw pointer,
    # and a by-reference lambda capture all outlive the owning shared_ptr
    # (positive) vs value copies, pinning, and by-value capture (negative).
    "src/serve/snapshot-lifetime_pos.cc": """
namespace crh {
class LeakyViews {
 public:
  const ValueTable& LeakTruths() {
    auto snapshot = publisher_.Current();
    return snapshot->truths;
  }
  void CacheRawPointer() {
    auto snapshot = publisher_.Current();
    cached_ = &snapshot->truths;
  }
  void DeferByReference() {
    auto snapshot = publisher_.Current();
    deferred_ = [&snapshot] { return snapshot->epoch; };
  }
  SnapshotPublisher publisher_;
  const ValueTable* cached_ = nullptr;
  std::function<uint64_t()> deferred_;
};
}
""",
    "src/serve/snapshot-lifetime_neg.cc": """
namespace crh {
class SafeViews {
 public:
  uint64_t Epoch() {
    const std::shared_ptr<const ServeSnapshot> snapshot =
        publisher_.Current();
    if (snapshot == nullptr) return 0;
    return snapshot->epoch;
  }
  std::shared_ptr<const ServeSnapshot> Pin() {
    auto snapshot = publisher_.Current();
    return snapshot;
  }
  void DeferByValue() {
    auto snapshot = publisher_.Current();
    deferred_ = [snapshot] { return snapshot->epoch; };
  }
  SnapshotPublisher publisher_;
  std::function<uint64_t()> deferred_;
};
}
""",
}
SELF_TEST_CASE_RE = re.compile(r"(.+)_(pos|neg)\d*$")


def run_self_test(checks=None) -> tuple[list[str], int]:
    """Returns (failure descriptions, number of cases checked)."""
    failures: list[str] = []
    # --check parsing is part of the gated surface: a typo must fail fast
    # with the full valid-check list, and a valid list survives whitespace.
    ok_checks, err = parse_check_arg(" hot , arch ")
    if err is not None or ok_checks != {"hot", "arch"}:
        failures.append(f"parse_check_arg mangled a valid list: {err!r}")
    bad, err = parse_check_arg("definitely-not-a-check")
    if bad is not None or not err or "\n" in err \
            or "definitely-not-a-check" not in err \
            or any(name not in err for name in RULES):
        failures.append(
            "parse_check_arg must reject an unknown check with a one-line "
            f"error naming every valid check, got: {err!r}")
    with tempfile.TemporaryDirectory(prefix="crh_analyzer_selftest_") as tmp:
        root = pathlib.Path(tmp).resolve()
        for rel, code in SELF_TEST_FILES.items():
            (root / rel).parent.mkdir(parents=True, exist_ok=True)
            (root / rel).write_text(code)
        findings = run_checks(build_model(load_sources(root, [])), checks)
    fired: dict[str, list[Finding]] = {}
    for f in findings:
        fired.setdefault(f.path, []).append(f)
    cases = 0
    for rel in SELF_TEST_FILES:
        m = SELF_TEST_CASE_RE.match(pathlib.PurePosixPath(rel).stem)
        if not m or (checks is not None and m.group(1) not in checks):
            continue
        cases += 1
        rule, positive = m.group(1), m.group(2) == "pos"
        hits = [f.render() for f in fired.get(rel, []) if f.rule == rule]
        if positive and not hits:
            failures.append(f"{rule}: expected a finding in {rel}, got "
                            f"{[f.render() for f in fired.get(rel, [])]}")
        elif not positive and hits:
            failures.append(f"{rule}: unexpected finding in negative case "
                            f"{rel}: {hits}")
    return failures, cases


# ---------------------------------------------------------------------------


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--self-test", action="store_true",
                        help="run the embedded corpus (every rule must fire "
                             "on its positive cases and stay quiet on its "
                             "negative ones) and exit")
    parser.add_argument("--check", default=None, metavar="LIST",
                        help="comma-separated subset of rules to run "
                             f"(default all: {','.join(RULES)})")
    parser.add_argument("--graph-svg", default=None, metavar="OUT",
                        help="write the layer diagram as a deterministic "
                             "SVG (docs/architecture.svg) and exit")
    parser.add_argument("--sarif", default=None, metavar="OUT",
                        help="also write findings as SARIF 2.1.0")
    parser.add_argument("--stats", action="store_true",
                        help="print model size and wall times (for the CI "
                             "job summary)")
    parser.add_argument("--budget", default=None, metavar="JSON",
                        help="per-rule wall-time budget file "
                             "(scripts/analyzer_budget.json); a rule "
                             "exceeding its budget by >50%% fails the run")
    parser.add_argument("--no-baseline", action="store_true",
                        help="report every finding, ignoring the baseline")
    parser.add_argument("--update-baseline", action="store_true",
                        help="rewrite the baseline to the current finding "
                             "set (entries get TODO justifications)")
    parser.add_argument("paths", nargs="*")
    opts = parser.parse_args(argv)

    checks = None
    if opts.check:
        checks, err = parse_check_arg(opts.check)
        if err is not None:
            print(err, file=sys.stderr)
            return 2

    if opts.self_test:
        failures, cases = run_self_test(checks)
        if failures:
            print("crh_analyzer: self-test failed:", file=sys.stderr)
            for f in failures:
                print(f"  {f}", file=sys.stderr)
            return 2
        print(f"crh_analyzer: self-test OK ({cases} cases over "
              f"{len(SELF_TEST_FILES)} files)")
        return 0

    t0 = time.monotonic()
    sources = load_sources(REPO_ROOT, opts.paths)
    if not sources:
        print("crh_analyzer: no sources to analyze", file=sys.stderr)
        return 2
    if opts.graph_svg:
        try:
            svg = render_module_svg(collect_module_edges(sources))
        except (OSError, json.JSONDecodeError, KeyError, TypeError) as exc:
            print(f"crh_analyzer: cannot load {ARCH_MANIFEST}: {exc}",
                  file=sys.stderr)
            return 2
        pathlib.Path(opts.graph_svg).write_text(svg)
        print(f"crh_analyzer: wrote {opts.graph_svg}", file=sys.stderr)
        return 0
    model = build_model(sources)
    timings: dict[str, float] = {}
    findings = run_checks(model, checks, timings)
    elapsed = time.monotonic() - t0

    if opts.sarif:
        write_sarif(opts.sarif, findings)
    if opts.update_baseline:
        write_baseline(findings)
        print(f"crh_analyzer: baseline rewritten with "
              f"{len({f.key() for f in findings})} entr(y/ies); fill in the "
              f"justifications in {BASELINE.name}")
        return 0

    baseline = set() if opts.no_baseline else load_baseline()
    new = [f for f in findings if f.key() not in baseline]
    stale = baseline - {f.key() for f in findings}
    if checks is not None:
        # A subset run cannot see findings of the unselected rules, so it
        # must not judge their baseline entries stale.
        stale = {e for e in stale if any(f"[{c}]" in e for c in checks)}

    for f in new:
        print(f.render())
    if opts.stats:
        modeled = sum(s.rel.startswith(MODEL_DIRS) for s in sources)
        print(f"crh_analyzer: {len(sources)} files ({modeled} modeled), "
              f"{len(model.functions)} functions, "
              f"{sum(len(fn.calls) for fn in model.functions)} call edges, "
              f"{elapsed:.2f}s")
        if timings:
            print("crh_analyzer: check wall-times: " + ", ".join(
                f"{name} {timings[name] * 1000:.0f}ms" for name in timings))
    budget_problems = check_budget_file(opts.budget, timings) \
        if opts.budget else []
    for msg in budget_problems:
        print(msg, file=sys.stderr)
    if new:
        print(f"\ncrh_analyzer: {len(new)} finding(s) not in "
              f"{BASELINE.name}.", file=sys.stderr)
        return 1
    if stale and not opts.paths:
        # Path-scoped runs cannot see every finding, so only tree runs
        # judge staleness.
        for entry in sorted(stale):
            print(f"crh_analyzer: baselined finding no longer present: "
                  f"{entry}", file=sys.stderr)
        print(f"crh_analyzer: delete fixed entries from {BASELINE.name} or "
              "run --update-baseline.", file=sys.stderr)
        return 1
    if budget_problems:
        return 1
    print(f"crh_analyzer: clean ({len(sources)} files, "
          f"{len(model.functions)} functions).")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
