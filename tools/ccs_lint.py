#!/usr/bin/env python3
"""ccs_lint: the determinism-contract linter for the CCSynth tree.

The determinism contract (docs/architecture.md) promises bitwise-equal
results at any thread count. That only holds while floating-point
accumulation stays in single compiled kernels, threads are spawned in
one place, and shared state is visibly lock-guarded. This linter makes
those conventions machine-checked; CI runs it in the `lint` job.

Rules
-----
  fp-accumulate    `+=`/`-=` accumulation on floating-point state inside
                   a `for` loop, outside a blessed kernel. Blessed:
                   function bodies marked CCS_NOINLINE, and
                   `namespace internal` blocks under src/linalg.
  kernel-noinline  a function in `namespace internal` of src/linalg
                   (the blessed FP-kernel namespace) missing
                   CCS_NOINLINE — both declarations and definitions.
  thread-spawn     `std::thread` outside src/common/parallel.{h,cc}.
                   Work belongs on the shared pool; a direct spawn that
                   must exist (e.g. a long-lived pipeline stage) needs
                   an explained allow.
  std-mutex        raw std::mutex / condition_variable / lock adapters
                   outside src/common/mutex.h. Clang's thread-safety
                   analysis only sees the annotated wrappers
                   (common::Mutex / MutexLock / CondVar).
  rng-parallel     an Rng mentioned in a file that also dispatches
                   parallel work (ParallelFor/ParallelForEach/
                   std::thread). Rng is thread-affine: sharing one
                   across lanes (or drawing from lane-local ones in a
                   nondeterministic order) breaks seed discipline —
                   byte-replayable streams in src/scenario depend on
                   it. Split the randomness out of the parallel file,
                   or explain the partitioning with an allow.
  guarded-by       a class holding a Mutex by value whose other data
                   members carry neither CCS_GUARDED_BY nor an exemption
                   (const, static, Mutex/CondVar, std::atomic).
  wall-clock       a wall-clock read (steady_clock / system_clock /
                   high_resolution_clock) in src/ outside src/obs/.
                   Clocks are observability-only: obs::NowNanos() is the
                   sanctioned entry point, and nothing a kernel computes
                   may depend on time (docs/observability.md).
  matrix-materialize
                   a NumericMatrixFor call under src/core/ or
                   src/stream/ — the hot synthesize→score layers. Those
                   paths walk zero-copy NumericViewFor views
                   (docs/architecture.md, "Columnar storage & views"); a
                   materialized per-call Matrix there reintroduces the
                   allocations the view layer exists to eliminate.
                   Explain and repair walk views too; a genuinely cold
                   caller must carry an explained allow.
  fault-point      a CCS_FAULT_POINT whose name is not an inline string
                   literal, duplicates another site's name (in the same
                   file or anywhere in the tree — hit ordinals identify
                   exactly one site; see common/fault.h), or lives
                   outside src/ (fault points belong in production
                   stage code, not tests or tools). Cross-file
                   duplicates cannot be allowed — rename the point.
  bad-allow        an allow comment with no reason, or naming an
                   unknown rule.
  unused-allow     an allow comment that suppressed nothing — stale
                   suppressions must not outlive the code they excused.

Escape hatch
------------
Every suppression must carry a reason:

    // ccs-lint: allow(<rule>): <reason>          this or the next line
    // ccs-lint: allow-file(<rule>): <reason>     the whole file

Usage
-----
    tools/ccs_lint.py                 lint src/** under the repo root
    tools/ccs_lint.py --self-test     prove each rule on its fixture
    tools/ccs_lint.py FILE...         lint specific files
    tools/ccs_lint.py --list-allows   also print active suppressions

Exit status: 0 clean, 1 findings, 2 usage/internal error.
"""

import argparse
import os
import re
import sys

RULES = (
    "fp-accumulate",
    "kernel-noinline",
    "thread-spawn",
    "std-mutex",
    "rng-parallel",
    "guarded-by",
    "wall-clock",
    "matrix-materialize",
    "fault-point",
    "bad-allow",
    "unused-allow",
)

# Files owning a concurrency primitive are exempt from the rule that
# bans using it elsewhere.
THREAD_SPAWN_FILES = ("src/common/parallel.h", "src/common/parallel.cc")
STD_MUTEX_FILES = ("src/common/mutex.h",)
GUARDED_BY_EXEMPT_FILES = ("src/common/mutex.h",)
# Rng's own definition, and the pool that Rng must stay away from.
RNG_PARALLEL_EXEMPT_FILES = ("src/common/random.h", "src/common/random.cc",
                             "src/common/parallel.h", "src/common/parallel.cc")
# The macro's own definition (its parameter is, of course, not a literal).
FAULT_POINT_EXEMPT_FILES = ("src/common/fault.h",)

ALLOW_RE = re.compile(
    r"//\s*ccs-lint:\s*(allow|allow-file)\(([\w-]+)\)(?::\s*(\S.*))?")
FIXTURE_PATH_RE = re.compile(r"//\s*ccs-lint-fixture-path:\s*(\S+)")
EXPECT_RE = re.compile(r"EXPECT-LINT:\s*([\w-]+)")

STD_MUTEX_RE = re.compile(
    r"\bstd::(?:mutex|timed_mutex|recursive_mutex|shared_mutex|"
    r"condition_variable(?:_any)?|lock_guard|unique_lock|scoped_lock)\b")
THREAD_RE = re.compile(r"\bstd::thread\b")
WALL_CLOCK_RE = re.compile(
    r"\b(?:steady_clock|system_clock|high_resolution_clock)\b")
RNG_RE = re.compile(r"\b(?:ccs::)?(?:common::)?Rng\b")
PARALLEL_DISPATCH_RE = re.compile(
    r"\bParallelFor(?:Each)?\b|\bstd::thread\b")
ACCUM_RE = re.compile(r"(?P<lhs>[^;{}=!<>+\-]{1,120}?)(?:\+|-)=(?P<rhs>[^;]*);")
DOUBLE_DECL_RE = re.compile(
    r"^\s*(?:const\s+)?(?:double|float)\s+(\w+)\s*(?:=|;|\{)")
CLASS_RE = re.compile(r"^\s*(?:class|struct)\s+\w")
MUTEX_MEMBER_RE = re.compile(
    r"^\s*(?:mutable\s+)?(?:ccs::)?(?:common::)?(?:Mutex|std::mutex)\s+\w+\s*;")
MEMBER_EXEMPT_RE = re.compile(
    r"^\s*(?:mutable\s+)?(?:static\s|const\s|constexpr\s|"
    r"(?:ccs::)?(?:common::)?Mutex\b|(?:ccs::)?(?:common::)?CondVar\b|"
    r"std::atomic\b|std::mutex\b|std::condition_variable)")
MEMBER_SKIP_RE = re.compile(
    r"^\s*(?:public:|private:|protected:|friend\s|using\s|typedef\s|"
    r"static_assert\b|template\s*<)")
SIGNATURE_RE = re.compile(r"^\s*[A-Za-z_][\w:<>,*&\s]*\b\w+\s*\(")
FAULT_POINT_CALL_RE = re.compile(r"\bCCS_FAULT_POINT\s*\(")
MATRIX_MATERIALIZE_RE = re.compile(r"\bNumericMatrixFor\s*\(")
FAULT_POINT_LITERAL_RE = re.compile(r'\bCCS_FAULT_POINT\s*\(\s*"([^"]+)"\s*\)')


class Allow:
    def __init__(self, rule, line, file_wide, reason):
        self.rule = rule
        self.line = line  # 1-based line of the comment.
        self.file_wide = file_wide
        self.reason = reason
        self.hits = 0


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments_and_strings(lines):
    """Returns lines with comments and string/char literals blanked.

    Newlines are preserved so line numbers survive; literal contents are
    replaced with spaces so column-ish heuristics stay roughly aligned.
    """
    out = []
    in_block = False
    for raw in lines:
        buf = []
        i, n = 0, len(raw)
        state = "block" if in_block else "code"
        while i < n:
            c = raw[i]
            nxt = raw[i + 1] if i + 1 < n else ""
            if state == "code":
                if c == "/" and nxt == "/":
                    buf.append(" " * (n - i))
                    i = n
                elif c == "/" and nxt == "*":
                    state = "block"
                    buf.append("  ")
                    i += 2
                elif c == '"':
                    state = "string"
                    buf.append(" ")
                    i += 1
                elif c == "'":
                    state = "char"
                    buf.append(" ")
                    i += 1
                else:
                    buf.append(c)
                    i += 1
            elif state == "block":
                if c == "*" and nxt == "/":
                    state = "code"
                    buf.append("  ")
                    i += 2
                else:
                    buf.append(" ")
                    i += 1
            else:  # string / char
                if c == "\\":
                    buf.append("  ")
                    i += 2
                elif (state == "string" and c == '"') or (
                        state == "char" and c == "'"):
                    state = "code"
                    buf.append(" ")
                    i += 1
                else:
                    buf.append(" ")
                    i += 1
        in_block = state == "block"
        out.append("".join(buf))
    return out


class FileLinter:
    """Single-pass, brace-tracking linter for one translation unit."""

    def __init__(self, path, logical_path, raw_lines):
        self.path = path
        # Path used for rule scoping; differs from `path` for fixtures.
        self.logical = logical_path.replace(os.sep, "/")
        self.raw = raw_lines
        self.code = strip_comments_and_strings(raw_lines)
        self.findings = []
        self.allows = []
        # (line, name) of every well-formed fault point, for the
        # cross-file uniqueness check in main().
        self.fault_points = []
        self.file_allows = {}  # rule -> Allow
        self.line_allows = {}  # (rule, target line) -> Allow
        self._collect_allows()

    # ---------------------------------------------------------- allows

    def _collect_allows(self):
        for idx, raw in enumerate(self.raw, start=1):
            m = ALLOW_RE.search(raw)
            if not m:
                if "ccs-lint:" in raw:
                    self._report(idx, "bad-allow",
                                 "malformed ccs-lint comment (expected "
                                 "'ccs-lint: allow(<rule>): <reason>')",
                                 allowable=False)
                continue
            kind, rule, reason = m.group(1), m.group(2), m.group(3)
            if rule not in RULES:
                self._report(idx, "bad-allow",
                             f"allow names unknown rule '{rule}'",
                             allowable=False)
                continue
            if not reason or not reason.strip():
                self._report(idx, "bad-allow",
                             f"allow({rule}) has no reason — every "
                             "suppression must explain itself",
                             allowable=False)
                continue
            allow = Allow(rule, idx, kind == "allow-file", reason.strip())
            self.allows.append(allow)
            if allow.file_wide:
                self.file_allows[rule] = allow
            else:
                # Trailing allow covers its own line; a standalone
                # comment covers the next code line (skipping the rest
                # of its own comment block).
                self.line_allows[(rule, idx)] = allow
                if not self.code[idx - 1].strip():
                    for j in range(idx + 1, min(idx + 12, len(self.raw) + 1)):
                        if self.code[j - 1].strip():
                            self.line_allows[(rule, j)] = allow
                            break

    def _report(self, line, rule, message, allowable=True):
        if allowable:
            allow = self.line_allows.get((rule, line))
            if allow is not None:
                allow.hits += 1
                return
            allow = self.file_allows.get(rule)
            if allow is not None:
                allow.hits += 1
                return
        self.findings.append(Finding(self.path, line, rule, message))

    def _flag_unused_allows(self):
        for allow in self.allows:
            if allow.hits == 0:
                self.findings.append(Finding(
                    self.path, allow.line, "unused-allow",
                    f"allow({allow.rule}) suppresses nothing — remove it"))

    # ------------------------------------------------------------ main

    def run(self):
        self._lint_tokens()
        self._lint_structure()
        self._lint_fault_points()
        self._flag_unused_allows()
        return self.findings

    def _lint_fault_points(self):
        if self.logical.endswith(FAULT_POINT_EXEMPT_FILES):
            return
        seen = {}  # name -> first line in this file.
        for idx, line in enumerate(self.code, start=1):
            if not FAULT_POINT_CALL_RE.search(line):
                continue
            m = FAULT_POINT_LITERAL_RE.search(self.raw[idx - 1])
            if not m:
                self._report(idx, "fault-point",
                             "CCS_FAULT_POINT name must be an inline string "
                             "literal — the fault-spec grammar and the "
                             "uniqueness check index sites by text")
                continue
            name = m.group(1)
            if not self.logical.startswith("src/"):
                self._report(idx, "fault-point",
                             f'CCS_FAULT_POINT("{name}") outside src/ — '
                             "fault points belong in production stage code, "
                             "not tests or tools")
                continue
            if name in seen:
                self._report(idx, "fault-point",
                             f'duplicate fault point "{name}" (first at '
                             f"line {seen[name]}) — hit ordinals must "
                             "identify exactly one site")
                continue
            seen[name] = idx
            self.fault_points.append((idx, name))

    def _lint_tokens(self):
        spawn_ok = self.logical.endswith(THREAD_SPAWN_FILES)
        mutex_ok = self.logical.endswith(STD_MUTEX_FILES)
        rng_ok = self.logical.endswith(RNG_PARALLEL_EXEMPT_FILES)
        # Clocks are confined to the observability layer; bench/ and
        # tools/ are outside the default scan and exempt by path.
        clock_banned = (self.logical.startswith("src/")
                        and not self.logical.startswith("src/obs/"))
        # Materialized numeric matrices are banned in the hot
        # synthesize→score layers; dataframe/ owns the method, and a
        # cold caller in core/ or stream/ must carry an allow.
        matrix_banned = self.logical.startswith(("src/core/", "src/stream/"))
        # Rng thread-affinity: the rule arms once the file dispatches
        # parallel work anywhere — Rng in such a file needs an explained
        # partitioning (one Rng per lane, deterministic stream split).
        has_parallel = any(
            PARALLEL_DISPATCH_RE.search(line) for line in self.code)
        for idx, line in enumerate(self.code, start=1):
            if not spawn_ok and THREAD_RE.search(line):
                self._report(idx, "thread-spawn",
                             "std::thread outside common/parallel — route "
                             "work through the shared pool")
            if not mutex_ok and STD_MUTEX_RE.search(line):
                self._report(idx, "std-mutex",
                             "raw std:: synchronization primitive — use "
                             "common::Mutex/MutexLock/CondVar so Clang's "
                             "thread-safety analysis can see the lock")
            if clock_banned and WALL_CLOCK_RE.search(line):
                self._report(idx, "wall-clock",
                             "wall-clock read outside src/obs — time is "
                             "observability-only; route out-of-band "
                             "measurement through obs::NowNanos()")
            if matrix_banned and MATRIX_MATERIALIZE_RE.search(line):
                self._report(idx, "matrix-materialize",
                             "NumericMatrixFor in a hot synthesize/score "
                             "layer — walk NumericViewFor views instead, "
                             "or explain why this caller is cold")
            if not rng_ok and has_parallel and RNG_RE.search(line):
                self._report(idx, "rng-parallel",
                             "Rng in a file that dispatches parallel work — "
                             "Rng is thread-affine; keep randomness out of "
                             "parallel files or explain the per-lane "
                             "partitioning")

    def _lint_structure(self):
        in_linalg = "/linalg/" in "/" + self.logical
        depth = 0
        # Stacks of depths-at-entry for contexts closed by '}'.
        for_stack = []
        blessed_stack = []  # CCS_NOINLINE bodies + linalg internal ns.
        class_stack = []  # [depth, has_mutex, [(line, stripped, raw)]]
        doubles = set()
        pending_noinline = False
        pending_for = False  # `for (...)` header seen, body not entered.
        in_ns_decl_pending = False
        prev_end = ";"  # Last code char of the previous non-blank line.

        for idx, line in enumerate(self.code, start=1):
            raw = self.raw[idx - 1]
            stripped = line.strip()
            body_was_pending = pending_for

            m = DOUBLE_DECL_RE.match(line)
            if m:
                doubles.add(m.group(1))

            if "CCS_NOINLINE" in line:
                pending_noinline = True
            if in_linalg and re.search(r"\bnamespace\s+internal\b", line):
                in_ns_decl_pending = True
                if "{" in line:
                    blessed_stack.append(("ns", depth))
                    in_ns_decl_pending = False

            # Parse a `for (...)` header: find the matching close paren,
            # then decide whether the body is a brace block (the char
            # loop below pushes it), a single statement on this line, or
            # the next statement line.
            has_for = False
            for_close = -1
            fm = re.search(r"\bfor\s*\(", line)
            if fm:
                has_for = True
                paren = 0
                for j in range(fm.end() - 1, len(line)):
                    if line[j] == "(":
                        paren += 1
                    elif line[j] == ")":
                        paren -= 1
                        if paren == 0:
                            for_close = j
                            break
                rest = line[for_close + 1:] if for_close >= 0 else ""
                if for_close < 0 or not rest.strip() or "{" in rest:
                    pending_for = True  # Body opens on this/later line.

            # kernel-noinline: function signatures inside the blessed
            # namespace must carry the macro (on this or the 2 lines
            # above, for multi-line signatures following one).
            in_internal_ns = any(kind == "ns" for kind, _ in blessed_stack)
            ns_depth = next(
                (d for kind, d in blessed_stack if kind == "ns"), None)
            if (in_internal_ns and depth == ns_depth + 1
                    and SIGNATURE_RE.match(line)
                    and not re.match(r"\s*(?:namespace|using|typedef)\b",
                                     line)):
                window = "".join(self.code[max(0, idx - 3):idx])
                if "CCS_NOINLINE" not in window:
                    self._report(
                        idx, "kernel-noinline",
                        "linalg::internal kernel missing CCS_NOINLINE — "
                        "the contract requires one compiled copy of every "
                        "FP inner loop")

            # fp-accumulate.
            blessed = any(kind == "fn" for kind, _ in blessed_stack) or \
                in_internal_ns
            in_block_for = bool(for_stack) or body_was_pending
            if (in_block_for or has_for) and not blessed:
                for acc in ACCUM_RE.finditer(line):
                    lhs = acc.group("lhs").strip()
                    rhs = acc.group("rhs")
                    if not in_block_for and acc.start("rhs") <= for_close:
                        continue  # `x += 1` inside the for header itself.
                    # The captured lhs may drag in tail text of the for
                    # header; the accumulator is its final bare
                    # identifier (none if lhs ends in ']', ')', '.').
                    tail = re.search(r"(?:^|[\s);(])(\w+)\s*$", lhs)
                    if "*" in rhs:
                        self._report(
                            idx, "fp-accumulate",
                            "multiply-accumulate in a for loop outside a "
                            "blessed kernel — move it into a CCS_NOINLINE "
                            "kernel or explain why it cannot diverge")
                    elif tail and tail.group(1) in doubles:
                        self._report(
                            idx, "fp-accumulate",
                            f"floating-point reduction into "
                            f"'{tail.group(1)}' in a for loop outside a "
                            "blessed kernel")

            # guarded-by member collection. Declarations may span lines;
            # join until the terminating `;`. Anything opening or
            # closing a scope (inline method bodies, nested types) drops
            # the partial statement.
            if class_stack and depth == class_stack[-1][0] + 1:
                entry = class_stack[-1]
                if MUTEX_MEMBER_RE.match(line):
                    entry[1] = True
                if "{" in line or "}" in line:
                    entry[3] = entry[4] = ""
                elif stripped:
                    if entry[3] or not MEMBER_SKIP_RE.match(line):
                        entry[3] = (entry[3] + " " + stripped).strip()
                        entry[4] = (entry[4] + " " + raw.strip()).strip()
                        if stripped.endswith(";"):
                            entry[2].append((idx, entry[3], entry[4]))
                            entry[3] = entry[4] = ""

            if CLASS_RE.match(line) and line.rstrip().endswith("{") \
                    and ";" not in line:
                class_stack.append([depth, False, [], "", ""])
                in_ns_decl_pending = False

            # Brace bookkeeping (and for/noinline body entry), per char.
            for ch in line:
                if ch == ";" and pending_noinline:
                    pending_noinline = False  # Declaration only.
                if ch == "{":
                    if pending_noinline:
                        blessed_stack.append(("fn", depth))
                        pending_noinline = False
                    elif in_ns_decl_pending:
                        blessed_stack.append(("ns", depth))
                        in_ns_decl_pending = False
                    elif pending_for:
                        for_stack.append(depth)
                        pending_for = False
                    depth += 1
                elif ch == "}":
                    depth -= 1
                    if for_stack and for_stack[-1] == depth:
                        for_stack.pop()
                    if blessed_stack and blessed_stack[-1][1] == depth:
                        blessed_stack.pop()
                    if class_stack and class_stack[-1][0] == depth:
                        self._check_class(class_stack.pop())

            # A single-statement body consumed the pending for header.
            if body_was_pending and pending_for and stripped \
                    and "{" not in line:
                pending_for = False
            if stripped:
                prev_end = stripped[-1]

    def _check_class(self, entry):
        _, has_mutex, members = entry[0], entry[1], entry[2]
        if not has_mutex:
            return
        if self.logical.endswith(GUARDED_BY_EXEMPT_FILES):
            return
        for line_no, code_line, raw_line in members:
            if MUTEX_MEMBER_RE.match(code_line):
                continue
            # A leading const only makes the member immutable when it is
            # not a pointer declarator (const T* p is a mutable pointer).
            if MEMBER_EXEMPT_RE.match(code_line) and not (
                    code_line.lstrip().startswith(("const ", "mutable const "))
                    and "*" in code_line):
                continue
            # Drop annotation macros and template argument lists, then
            # anything still holding parens is a function declaration.
            flat = re.sub(r"CCS_\w+\s*\([^()]*\)", "", code_line)
            prev = None
            while prev != flat:
                prev = flat
                flat = re.sub(r"<[^<>]*>", "", flat)
            if "(" in flat:
                continue
            if "=" in flat.split(";")[0] and not re.search(
                    r"\w\s+\w", flat.split("=")[0].strip()):
                continue  # Not a declaration (assignment expression).
            if "CCS_GUARDED_BY" in raw_line or "CCS_PT_GUARDED_BY" in raw_line:
                continue
            self._report(
                line_no, "guarded-by",
                "member of a mutex-holding class lacks CCS_GUARDED_BY — "
                "annotate it, make it const/atomic, or explain why it "
                "needs no lock")


def lint_file(path, logical_path=None):
    with open(path, encoding="utf-8") as f:
        raw = f.read().splitlines()
    logical = logical_path
    if logical is None:
        logical = path
        for line in raw[:5]:
            m = FIXTURE_PATH_RE.search(line)
            if m:
                logical = m.group(1)
                break
    linter = FileLinter(path, logical, raw)
    findings = linter.run()
    return findings, linter.allows, linter.fault_points


def default_targets(root):
    targets = []
    for dirpath, _, filenames in os.walk(os.path.join(root, "src")):
        for name in sorted(filenames):
            if name.endswith((".h", ".cc")):
                targets.append(os.path.join(dirpath, name))
    return sorted(targets)


def run_self_test(root):
    """Each fixture declares its expected findings with EXPECT-LINT
    markers; the linter must produce exactly those, no more, no less."""
    fixture_dir = os.path.join(root, "tools", "lint_fixtures")
    fixtures = sorted(
        os.path.join(fixture_dir, f)
        for f in os.listdir(fixture_dir) if f.endswith(".cc"))
    if not fixtures:
        print("self-test: no fixtures found", file=sys.stderr)
        return 2
    failures = 0
    rules_proven = set()
    for path in fixtures:
        with open(path, encoding="utf-8") as f:
            raw = f.read().splitlines()
        expected = set()
        for idx, line in enumerate(raw, start=1):
            for m in EXPECT_RE.finditer(line):
                expected.add((idx, m.group(1)))
        findings, _, _ = lint_file(path)
        got = {(f.line, f.rule) for f in findings}
        if got != expected:
            failures += 1
            print(f"self-test FAIL: {os.path.relpath(path, root)}")
            for line_no, rule in sorted(expected - got):
                print(f"  missing: line {line_no} [{rule}]")
            for line_no, rule in sorted(got - expected):
                finding = next(f for f in findings
                               if (f.line, f.rule) == (line_no, rule))
                print(f"  unexpected: {finding}")
        rules_proven.update(rule for _, rule in expected)
    unproven = set(RULES) - rules_proven
    if unproven:
        failures += 1
        print("self-test FAIL: no fixture proves rule(s): "
              + ", ".join(sorted(unproven)))
    if failures:
        return 1
    print(f"self-test OK: {len(fixtures)} fixtures, "
          f"all {len(RULES)} rules proven")
    return 0


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*",
                        help="files to lint (default: src/** under --root)")
    parser.add_argument("--root", default=None,
                        help="repo root (default: parent of this script)")
    parser.add_argument("--self-test", action="store_true",
                        help="lint the seeded fixtures and verify every "
                             "rule fires exactly where expected")
    parser.add_argument("--list-allows", action="store_true",
                        help="print every active suppression and its reason")
    args = parser.parse_args(argv)

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    if args.self_test:
        return run_self_test(root)

    targets = args.paths or default_targets(root)
    if not targets:
        print("ccs_lint: nothing to lint", file=sys.stderr)
        return 2

    all_findings = []
    all_allows = []
    site_index = {}  # fault-point name -> (path, line) of first sighting.
    for path in targets:
        findings, allows, fault_points = lint_file(
            path, logical_path=os.path.relpath(os.path.abspath(path), root))
        all_findings.extend(findings)
        all_allows.extend((path, a) for a in allows)
        for line, name in fault_points:
            if name in site_index:
                first_path, first_line = site_index[name]
                all_findings.append(Finding(
                    path, line, "fault-point",
                    f'duplicate fault point "{name}" — already defined at '
                    f"{first_path}:{first_line}; names are global, pick a "
                    "new one"))
            else:
                site_index[name] = (path, line)

    for finding in all_findings:
        print(finding)
    if args.list_allows:
        for path, allow in all_allows:
            scope = "file" if allow.file_wide else "line"
            print(f"allow: {path}:{allow.line} [{allow.rule}] ({scope}) "
                  f"{allow.reason}")
    suppressed = sum(a.hits for _, a in all_allows)
    print(f"ccs_lint: {len(targets)} files, {len(all_findings)} finding(s), "
          f"{suppressed} suppressed by {len(all_allows)} allow(s)")
    return 1 if all_findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
