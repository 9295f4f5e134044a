"""Determinism lint: an AST pass over the source tree.

Every claim the simulator makes -- reproducible experiments, the
piece-wise-determinism assumption behind recovery replay, the stability
of the property-test corpus -- rests on runs being a pure function of
the configured seed.  This lint flags the source patterns that break
that property:

* **wall-clock** -- calls that read the host clock (``time.time``,
  ``time.perf_counter``, ``datetime.now``, ...).  Simulated time comes
  from the kernel; host time must not leak into behavior.  The
  ``repro.verify`` package itself is exempt (the inline verifier
  measures its own real-time overhead, which feeds reports, never
  control flow).
* **unseeded-random** -- calls to module-level :mod:`random` functions
  (``random.random()``, ``random.choice()``, ...).  All randomness must
  flow through named, seeded streams (:mod:`repro.sim.rng`, which is
  exempt because it owns the seeding).  Constructing seeded
  ``random.Random`` instances is allowed everywhere -- only the shared
  module-level generator is forbidden.
* **unordered-iteration** -- ``for`` loops and comprehensions iterating
  directly over a set expression (set literals, ``set(...)`` /
  ``frozenset(...)`` calls, set operators, or attributes known to be
  sets in this codebase).  Set iteration order depends on hashing and
  insertion history; when such an iteration feeds scheduling or message
  emission the run becomes order-sensitive.  Wrap in ``sorted(...)``.

A finding can be suppressed for a genuinely order-insensitive or
reporting-only line with a trailing ``# det: allow`` comment.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Suppression marker checked on the offending source line.
ALLOW_MARKER = "# det: allow"

#: (module alias, attribute) pairs that read the host clock.
WALL_CLOCK_CALLS = {
    ("time", "time"),
    ("time", "time_ns"),
    ("time", "monotonic"),
    ("time", "monotonic_ns"),
    ("time", "perf_counter"),
    ("time", "perf_counter_ns"),
    ("time", "process_time"),
    ("datetime", "now"),
    ("datetime", "utcnow"),
    ("datetime", "today"),
    ("date", "today"),
}

#: Names on the ``random`` module that are fine to call: constructing an
#: explicitly seeded generator is the *correct* pattern.
RANDOM_ALLOWED = {"Random", "SystemRandom", "seed"}

#: Attributes known (by convention in this codebase) to be sets.
KNOWN_SET_ATTRS = {"copy_set", "local_readers"}

#: Per-rule path-suffix exemptions, with the rationale in the docstring.
#: The ``repro.perf`` harness is exempt from the wall-clock rule for the
#: same reason as the inline verifier: it *measures* host time around
#: completed simulations (that is its whole job) and never feeds it back
#: into simulated behavior.
#: ``repro.parallel.service`` reads the host clock for orchestration
#: only (per-task deadlines, worker join deadlines); simulated behavior
#: inside the workers remains a pure function of the task's seed.  The scenario server's HTTP layer
#: (``server/app.py``, ``server/handlers.py``, ``server/metrics.py``,
#: ``server/client.py``) measures request latencies and uptime --
#: host-side observability that never reaches a simulation, whose
#: response bodies stay content-addressed and wall-clock-free.
#: ``repro.fuzz.engine`` reads the clock only for the ``--budget-seconds``
#: wall cap, checked *between* trial batches: it decides when the loop
#: stops, never what any trial does, and a capped run is a strict prefix
#: of the uncapped one.  Trial randomness itself is seeded
#: (``random.Random(derive_seed(...))`` per trial), which the
#: unseeded-random rule already permits everywhere.
RULE_EXEMPT_SUFFIXES: Dict[str, Tuple[str, ...]] = {
    "wall-clock": ("verify/inline.py", "perf/counters.py", "perf/bench.py",
                   "perf/report.py", "parallel/service.py",
                   "server/app.py", "server/handlers.py",
                   "server/metrics.py", "server/client.py",
                   "fuzz/engine.py"),
    "unseeded-random": ("sim/rng.py",),
}


@dataclass(frozen=True)
class LintFinding:
    """One determinism-lint finding."""

    path: str
    line: int
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


class _Visitor(ast.NodeVisitor):
    def __init__(self, path: str, source: str,
                 findings: List[LintFinding]) -> None:
        self.path = path
        self.lines = source.splitlines()
        self.findings = findings
        #: Names imported via ``from time/random import ...``.
        self._imported_wall_clock: Dict[str, str] = {}
        self._imported_random: Dict[str, str] = {}

    # -- helpers -------------------------------------------------------
    def _allowed(self, node: ast.AST) -> bool:
        lineno = getattr(node, "lineno", 0)
        if 1 <= lineno <= len(self.lines):
            return ALLOW_MARKER in self.lines[lineno - 1]
        return False

    def _exempt(self, rule: str) -> bool:
        suffixes = RULE_EXEMPT_SUFFIXES.get(rule, ())
        normalized = self.path.replace("\\", "/")
        return any(normalized.endswith(suffix) for suffix in suffixes)

    def _emit(self, node: ast.AST, rule: str, message: str) -> None:
        if self._exempt(rule) or self._allowed(node):
            return
        self.findings.append(LintFinding(
            path=self.path,
            line=getattr(node, "lineno", 0),
            rule=rule,
            message=message,
        ))

    # -- imports -------------------------------------------------------
    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "time":
            for alias in node.names:
                if ("time", alias.name) in WALL_CLOCK_CALLS:
                    self._imported_wall_clock[alias.asname or alias.name] = \
                        f"time.{alias.name}"
        elif node.module == "random":
            for alias in node.names:
                if alias.name not in RANDOM_ALLOWED:
                    self._imported_random[alias.asname or alias.name] = \
                        f"random.{alias.name}"
        self.generic_visit(node)

    # -- calls ---------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            pair = (func.value.id, func.attr)
            if pair in WALL_CLOCK_CALLS:
                self._emit(node, "wall-clock",
                           f"call to {pair[0]}.{pair[1]}() reads the host "
                           f"clock; use the simulation kernel's time")
            elif func.value.id == "random" and func.attr not in RANDOM_ALLOWED:
                self._emit(node, "unseeded-random",
                           f"call to random.{func.attr}() uses the shared "
                           f"unseeded generator; use a named stream from "
                           f"repro.sim.rng")
        elif isinstance(func, ast.Name):
            if func.id in self._imported_wall_clock:
                self._emit(node, "wall-clock",
                           f"call to {self._imported_wall_clock[func.id]}() "
                           f"reads the host clock; use the simulation "
                           f"kernel's time")
            elif func.id in self._imported_random:
                self._emit(node, "unseeded-random",
                           f"call to {self._imported_random[func.id]}() uses "
                           f"the shared unseeded generator; use a named "
                           f"stream from repro.sim.rng")
        self.generic_visit(node)

    # -- iteration order -----------------------------------------------
    def _is_set_expr(self, node: ast.expr) -> bool:
        if isinstance(node, ast.Set):
            return True
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("set", "frozenset")):
            return True
        if isinstance(node, ast.Attribute) and node.attr in KNOWN_SET_ATTRS:
            return True
        if (isinstance(node, ast.BinOp)
                and isinstance(node.op, (ast.BitOr, ast.BitAnd, ast.BitXor,
                                         ast.Sub))):
            return self._is_set_expr(node.left) or self._is_set_expr(node.right)
        return False

    def _check_iter(self, iter_node: ast.expr, anchor: ast.AST) -> None:
        if self._is_set_expr(iter_node):
            self._emit(anchor, "unordered-iteration",
                       "iterating a set in hash order; wrap the iterable "
                       "in sorted(...) for a deterministic order")

    def visit_For(self, node: ast.For) -> None:
        self._check_iter(node.iter, node)
        self.generic_visit(node)

    def _visit_comprehension(self, node: ast.AST,
                             generators: Sequence[ast.comprehension]) -> None:
        for generator in generators:
            self._check_iter(generator.iter, node)
        self.generic_visit(node)

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._visit_comprehension(node, node.generators)

    def visit_SetComp(self, node: ast.SetComp) -> None:
        self._visit_comprehension(node, node.generators)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self._visit_comprehension(node, node.generators)

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        self._visit_comprehension(node, node.generators)


def lint_source(path: str, source: str) -> List[LintFinding]:
    """Lint one module's source text."""
    findings: List[LintFinding] = []
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        findings.append(LintFinding(
            path=path, line=exc.lineno or 0, rule="syntax",
            message=f"cannot parse: {exc.msg}",
        ))
        return findings
    _Visitor(path, source, findings).visit(tree)
    return findings


def lint_paths(paths: Iterable[str]) -> List[LintFinding]:
    """Lint a collection of Python files."""
    findings: List[LintFinding] = []
    for path in paths:
        text = Path(path).read_text(encoding="utf-8")
        findings.extend(lint_source(str(path), text))
    return findings


def default_root() -> Path:
    """The installed ``repro`` package directory."""
    return Path(__file__).resolve().parent.parent


def lint_tree(root: Optional[Path] = None) -> List[LintFinding]:
    """Lint every Python module under ``root`` (default: the package)."""
    base = root if root is not None else default_root()
    paths = sorted(str(p) for p in base.rglob("*.py"))
    return lint_paths(paths)
