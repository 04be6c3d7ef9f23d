"""Span recorder for traced benchmark runs.

The recorder wraps superalg's layer entry points from outside the package.
Modules such as ``core``, ``verify``, ``derivations`` and ``cli`` bind these
functions by name (``from .exactmath import nilpotent_jordan_type``), so
``install`` rebinds the name in every loaded ``superalg`` module that holds
the original function, not only in the defining module.  Late local imports
(``from .exactmath import sparse_kernel`` inside a function body) resolve
from the defining module at call time and are covered by the same rebinding.

A span is ``(name, start, end, parent, op, note)``: ``parent`` is the index of
the enclosing span (-1 at top level), ``op`` is the id shared by every span
of one benchmark operation, and ``note`` is a small per-function record used
by the derived counters.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time

# Layer entry points, as (module, function) inside the superalg package.
LAYER_FUNCTIONS = (
    ("exactmath", "nilpotent_jordan_type"),
    ("exactmath", "rref"),
    ("exactmath", "sparse_kernel"),
    ("exactmath", "parse_coefficient"),
    ("core", "check_leibniz"),
    ("core", "check_lie"),
    ("core", "subspace_product"),
    ("core", "lower_central_series"),
    ("core", "derived_series"),
    ("core", "right_annihilator"),
    ("core", "char_sequence"),
    ("core", "fingerprint"),
    ("core", "sdf_loads"),
    ("derivations", "derivation_space"),
    ("derivations", "is_derivation"),
    ("derivations", "space_all_nilpotent"),
    ("derivations", "same_span"),
    ("families", "build"),
    ("families", "errata_for"),
    ("verify", "verify_nilpotent_family"),
    ("verify", "verify_solvable_family"),
    ("verify", "verify_derivation_proposition"),
    ("verify", "verify_corollary"),
    ("verify", "pairwise_distinguish"),
    ("verify", "audit_errata"),
)

CLI_COMMANDS = ("family", "check", "series", "annihilator", "derivations",
                "charseq", "invariants")

JORDAN = "exactmath.nilpotent_jordan_type"
CHARSEQ = "core.char_sequence"


def _note_rref(args, result):
    return args[0].rows * args[0].cols


def _note_jordan(args, result):
    return None if result is None else list(result)


def _note_charseq(args, result):
    return [list(result[0]), list(result[1])]


NOTES = {"exactmath.rref": _note_rref, JORDAN: _note_jordan,
         CHARSEQ: _note_charseq}


class Tracer:
    """Collects spans from wrapped superalg functions while installed."""

    def __init__(self, op: int = 0):
        self.spans: list[tuple] = []
        self.op = op
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self, skip=()) -> None:
        """Rebind every layer entry point, in every superalg module, to a wrapper.

        Functions named in skip are left alone; a caller that already wraps
        them can trace them with ``wrap``.
        """
        modules = [m for name, m in list(sys.modules.items())
                   if name == "superalg" or name.startswith("superalg.")]
        for module_name, function in LAYER_FUNCTIONS:
            if function in skip:
                continue
            home = sys.modules[f"superalg.{module_name}"]
            original = getattr(home, function)
            label = f"{module_name}.{function}"
            wrapper = self.wrap(label, original)
            for module in modules:
                if module.__dict__.get(function) is original:
                    self._patched.append((module, function, original))
                    setattr(module, function, wrapper)

    def uninstall(self) -> None:
        for module, function, original in reversed(self._patched):
            setattr(module, function, original)
        self._patched.clear()

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span named name."""
        return self.wrap(name, fn)(*args, **kwargs)

    def wrap(self, name: str, fn):
        """fn, recording a span named name around each call."""
        spans, stack = self.spans, self._stack
        note = NOTES.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op,
                                note(args, result) if note and result is not None
                                else None)
        return traced


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def aggregate(spans) -> dict[str, float]:
    """Per-layer metrics of one traced pass, keyed by per-layer metric name.

    Self time is a span's duration minus the durations of its direct
    children (children run inside their parent, one at a time).  Total time
    counts only the outermost span of a name, so recursion is not counted
    twice.
    """
    child_time = [0.0] * len(spans)
    children: dict[int, list[int]] = {}
    for i, (_, start, end, parent, _, _) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += end - start
            children.setdefault(parent, []).append(i)

    stats: dict[str, list[float]] = {}
    for i, (name, start, end, parent, _, _) in enumerate(spans):
        entry = stats.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[2] += (end - start) - child_time[i]
        outer = parent
        while outer >= 0 and spans[outer][0] != name:
            outer = spans[outer][3]
        if outer < 0:
            entry[1] += end - start

    metrics: dict[str, float] = {}
    for module_name, function in LAYER_FUNCTIONS:
        label = f"{module_name}.{function}"
        calls, total, self_time = stats.get(label, (0, 0.0, 0.0))
        metrics[f"{label}.calls"] = calls
        metrics[f"{label}.total_s"] = total
        metrics[f"{label}.self_s"] = self_time
    metrics["cli.import_s"] = stats.get("cli.import", (0, 0.0, 0.0))[1]
    for command in CLI_COMMANDS:
        metrics[f"cli.{command}.s"] = stats.get(f"cli.{command}", (0, 0.0, 0.0))[1]

    jordan = [s for s in spans if s[0] == JORDAN]
    metrics[f"{JORDAN}.nonnilpotent_ratio"] = _ratio(
        sum(1 for s in jordan if s[5] is None), len(jordan))
    metrics["exactmath.rref.cells"] = sum(
        s[5] or 0 for s in spans if s[0] == "exactmath.rref")

    sampled = useful = calls = 0
    for i, span in enumerate(spans):
        if span[0] != CHARSEQ:
            continue
        calls += 1
        # char_sequence computes the even-block type, then the odd-block
        # type, for each sampled x; compare each with the returned maximum.
        kids = [spans[k] for k in children.get(i, ()) if spans[k][0] == JORDAN]
        sampled += len(kids)
        if span[5] is not None:
            useful += sum(1 for n, kid in enumerate(kids) if kid[5] == span[5][n % 2])
    metrics[f"{CHARSEQ}.jordan_calls_per_call"] = _ratio(sampled, calls)
    metrics[f"{CHARSEQ}.useful_ratio"] = _ratio(useful, sampled)

    space_time = stats.get("derivations.derivation_space", (0, 0.0, 0.0))[1]
    recheck = sum(s[2] - s[1] for s in spans
                  if s[0] == "derivations.is_derivation" and s[3] >= 0
                  and spans[s[3]][0] == "derivations.derivation_space")
    metrics["derivations.derivation_space.recheck_share"] = _ratio(recheck, space_time)
    return metrics


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    """Median of each metric over the traced passes of one run.

    A count that every pass agrees on is kept as it is (an exact integer).
    """
    out = {}
    for name in passes[0]:
        values = [p[name] for p in passes]
        out[name] = values[0] if len(set(values)) == 1 else statistics.median(values)
    return out
