"""Benchmark for superalg: end-to-end and per-layer metrics of four workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see README.md in this directory for why each was chosen):

    nilpotent-charseq  the NILP-* claims of ``superalg verify`` (43 reports)
    derivation-sweep   the P-* and COR-* claims (24 reports)
    solvable-audit     the SOLV-*, DIST-* and AUDIT-* claims (339 reports)
    cli-cold           fresh ``superalg`` processes on seeded SDF files

The three verify workloads together are exactly the default 406-report
``superalg verify`` run.  Every run first times several fresh interpreters
that only import superalg (``setup_s``), then measures whole passes of the
workload in fresh processes for about ``--seconds`` seconds.  With
``--trace 0`` the last line of standard output is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
separate traced run.  Earlier lines repeat each metric with its unit and
base.  The run exits 1 when a correctness gate fails and 2 when the superalg
sources are not in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

sys.path.insert(0, str(HERE))
from calibrate import SPAWN_REFERENCE_S, Timeline, pin_to_one_cpu, spawn_time  # noqa: E402
from tracer import aggregate, median_metrics  # noqa: E402

SETUP_SPAWNS = 9
CHILD_TIMEOUT_S = 150
CLI_MAIN = "import sys; from superalg.cli import main; sys.exit(main())"

# min_passes keeps enough op samples in every run for a fixed tail percentile,
# and gives nilpotent-charseq (one pass is about 17 s) a second pass to average
# out the host's speed swings.
VERIFY_WORKLOADS = {
    "nilpotent-charseq": {"prefixes": ["NILP-"], "min_passes": 2},
    "derivation-sweep": {"prefixes": ["P-", "COR-"], "min_passes": 4},
    "solvable-audit": {"prefixes": ["SOLV-", "DIST-", "AUDIT-"], "min_passes": 1},
}
CLI_WORKLOAD = "cli-cold"
WORKLOADS = (*VERIFY_WORKLOADS, CLI_WORKLOAD)

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "op_p50_s": "s",
                    "op_tail_s": "s", "peak_rss_mb": "MB"}


class SetupError(Exception):
    """The checkout cannot run the benchmark (no superalg sources)."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("SUPERALG_SEED", None)
    return env


# ---------------------------------------------------------------------------
# Set-up time
# ---------------------------------------------------------------------------

def measure_setup(module: str) -> Timeline:
    """Time from launching a fresh interpreter until `module` is imported."""
    code = (f"import {module}, superalg; "
            "print(superalg.__file__, flush=True)")
    expected = (SRC / "superalg" / "__init__.py").resolve()
    timeline = Timeline(spawn_time, SPAWN_REFERENCE_S)
    for _ in range(SETUP_SPAWNS):
        timeline.sample()
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", code], cwd=ROOT,
                                env=child_env(), stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        timeline.op(start, time.perf_counter())
        _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0 or Path(line.strip()).resolve() != expected:
            raise SetupError(f"cannot import superalg from {SRC}: {err.strip()}")
    timeline.sample()
    return timeline


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def tail_quantile(ops_per_run: int) -> float:
    """Highest whole percentile with at least ten of ops_per_run samples above it."""
    return max(0.5, math.floor(100 * (1 - 10 / ops_per_run)) / 100)


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1)
    d = 1 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 1000):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1 + num * d
            d = 1 / (d if abs(d) > tiny else tiny)
            c = 1 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1) < 1e-14:
            break
    return h


def _beta_cdf(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0:
        return 0.0
    if x >= 1:
        return 1.0
    log_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                 + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1) / (a + b + 2):
        return math.exp(log_front) * _beta_cf(a, b, x) / a
    return 1 - math.exp(log_front) * _beta_cf(b, a, 1 - x) / b


def quantile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile.

    It is a Beta-weighted mean of all order statistics.  Ops of one workload
    cluster by claim kind and size, so the plain sample quantile jumps
    between clusters when two neighbouring ops swap places; this estimate
    moves smoothly instead.
    """
    ordered = sorted(values)
    n = len(ordered)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    cdf = [_beta_cdf(i / n, a, b) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * v for i, v in enumerate(ordered))


def end_to_end(setup: Timeline, pass_times: list[float], latencies: list[float],
               q: float) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setup.scaled()),
        "run_s": statistics.median(pass_times),
        "op_p50_s": quantile(latencies, 0.5),
        "op_tail_s": quantile(latencies, q),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
    }


def raw_line(setup: Timeline, pass_times: list[float]) -> str:
    return (f"raw wall time: setup median {statistics.median(setup.raw())} s, "
            f"pass median {statistics.median(pass_times)} s")


# ---------------------------------------------------------------------------
# Verify workloads
# ---------------------------------------------------------------------------

def load_expected() -> dict:
    with open(HERE / "expected.json", encoding="utf-8") as handle:
        return json.load(handle)


def gate_verify(passes: list[dict], expected: dict | None) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems): every report passes with the expected verdict."""
    attempted = failed = 0
    problems: list[str] = []
    for number, run in enumerate(passes, 1):
        statuses, digests = run["statuses"], run["digests"]
        bad = {i for i, s in enumerate(statuses) if s != "pass"}
        if len(run["latencies"]) != len(statuses):
            problems.append(f"pass {number}: {len(statuses)} reports but "
                            f"{len(run['latencies'])} claim-function calls")
            bad.update(range(min(len(run["latencies"]), len(statuses)), len(statuses)))
        missing = 0
        if expected is not None:
            want = expected["ops"]
            missing = max(0, len(want) - len(digests))
            bad.update(i for i, d in enumerate(digests)
                       if i >= len(want) or d != want[i])
            if len(digests) != len(want):
                problems.append(f"pass {number}: {len(digests)} reports, "
                                f"expected {len(want)}")
        if bad:
            problems.append(f"pass {number}: {len(bad)} report(s) failed or "
                            f"changed verdict, first at index {min(bad)}")
        attempted += len(statuses) + missing
        failed += len(bad) + missing
    return attempted, failed, problems


def run_verify(name: str, seed: int, seconds: int, trace: bool, work: Path,
               n_range=None, expected: dict | None = None) -> dict:
    spec = VERIFY_WORKLOADS[name]
    setup = measure_setup("superalg.verify")
    out = work / "worker.json"
    trace_out = OUT / f"trace-{name}-seed{seed}.json"
    config = {"workload": name, "prefixes": spec["prefixes"], "seed": seed,
              "seconds": seconds, "trace": trace, "n_range": n_range,
              "min_passes": 1 if trace else spec["min_passes"],
              "out": str(out), "trace_out": str(trace_out)}
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), json.dumps(config)],
                          cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed:\n{proc.stderr}")
    with open(out, encoding="utf-8") as handle:
        result = json.load(handle)

    passes = result["passes"] + result["traced_passes"]
    attempted, failed, problems = gate_verify(passes, expected)
    digests = sorted({p["digest"] for p in passes})
    info = [f"verdict digest {', '.join(digests)}",
            f"reports per pass {len(passes[0]['statuses'])}"]
    latencies = [x for p in result["passes"] for x in p["scaled"]]
    q = tail_quantile(len(passes[0]["statuses"]) * spec["min_passes"])
    metrics = end_to_end(setup, [sum(p["scaled"]) for p in result["passes"]],
                         latencies, q)
    raw_passes = [p["wall_s"] for p in result["passes"]]
    if trace:
        traced_run = statistics.median(sum(p["scaled"]) for p in result["traced_passes"])
        untraced_run = metrics["run_s"]
        metrics = median_metrics(result["layers"])
        metrics.update(overhead(untraced_run, traced_run))
        info.append(f"spans written to {trace_out.relative_to(ROOT)}")
    else:
        info.append(raw_line(setup, raw_passes))
        info.append(f"op_tail_s is p{round(q * 100)} of n={len(latencies)} ops "
                    f"in {len(result['passes'])} pass(es); op_p50_s n={len(latencies)}")
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "problems": problems, "info": info,
            "digests": passes[0]["digests"], "digest": passes[0]["digest"]}


def overhead(untraced_run_s: float, traced_run_s: float) -> dict[str, float]:
    """Tracing overhead: scaled run_s of traced against untraced passes."""
    return {"trace.overhead_s": traced_run_s - untraced_run_s,
            "trace.overhead_ratio": traced_run_s / untraced_run_s - 1}


# ---------------------------------------------------------------------------
# cli-cold
# ---------------------------------------------------------------------------

CLI_DIMS = {"N2M": lambda s: (2, s), "L": lambda s: (s, s - 1),
            "G": lambda s: (s, s - 1), "M": lambda s: (s, s), "H": lambda s: (s, s)}
PARAM_VALUES = ("0", "1", "-1", "2", "1/2", "-3/2", "3")


def cli_draw(rng: random.Random, reduced: bool) -> list[tuple[str, int]]:
    """One pass's (family, size) draw: N2M and L, G, M, H in a seeded order.

    Two of L, G, M, H get the larger size, so every pass costs about the same.
    """
    small, large = (3, 4) if reduced else (5, 6)
    sizes = [small, small, large, large]
    rng.shuffle(sizes)
    algebras = [("N2M", small)] + list(zip(("L", "G", "M", "H"), sizes))
    rng.shuffle(algebras)
    return algebras


def known_charseq(fid: str, n0: int, n1: int):
    return ((1, 1), (n1,)) if fid == "N2M" else ((n0 - 1, 1), (n1,))


def parse_charseq(text: str):
    body = text.strip().rsplit(": ", 1)[-1].strip("()")
    even, odd = body.split("|")
    return (tuple(int(x) for x in even.split(",")),
            tuple(int(x) for x in odd.split(",")))


def sdf_table(sdf: dict) -> dict[tuple[str, str], dict[str, Fraction]]:
    return {(p["left"], p["right"]): {lab: Fraction(c) for lab, c in p["value"]}
            for p in sdf["products"]}


def parse_annihilator(text: str) -> tuple[tuple[int, int], list[dict[str, Fraction]]]:
    lines = text.strip().splitlines()
    dims = lines[0].rsplit(" ", 1)[-1].split("|")
    vectors = []
    for line in lines[1:]:
        terms = line.split(":", 1)[1].strip().split(" + ")
        vectors.append({t.rpartition("*")[2]: Fraction(t.rpartition("*")[0])
                        for t in terms})
    return (int(dims[0]), int(dims[1])), vectors


def annihilates(sdf: dict, vector: dict[str, Fraction]) -> bool:
    """[b, z] = 0 for every basis vector b, computed from the SDF products."""
    table = sdf_table(sdf)
    for b in sdf["even_basis"] + sdf["odd_basis"]:
        acc: dict[str, Fraction] = {}
        for label, coeff in vector.items():
            for k, c in table.get((b, label), {}).items():
                acc[k] = acc.get(k, Fraction(0)) + coeff * c
        if any(acc.values()):
            return False
    return True


class CliPass:
    """One pass of cli-cold: every command on every drawn algebra."""

    def __init__(self, rng, seed: int, reduced: bool, work: Path, tracer_dir: Path | None):
        self.rng, self.seed, self.reduced, self.work = rng, seed, reduced, work
        self.tracer_dir = tracer_dir
        self.timeline = Timeline(spawn_time, SPAWN_REFERENCE_S)
        self.errors: list[str] = []
        self.failed = 0
        self.spans: list = []

    def call(self, *args: str):
        """Run one `superalg` invocation, sampling the launch probe around it."""
        index = len(self.timeline.raw())
        if self.tracer_dir is None:
            argv = [sys.executable, "-c", CLI_MAIN, *args]
        else:
            spans_file = self.tracer_dir / f"op{index}.json"
            argv = [sys.executable, str(HERE / "cli_trace.py"), str(spans_file),
                    str(index), *args]
        self.timeline.sample()
        start = time.perf_counter()
        proc = subprocess.run(argv, cwd=self.work, env=child_env(),
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        self.timeline.op(start, time.perf_counter())
        self.timeline.sample()
        if self.tracer_dir is not None:
            with open(spans_file, encoding="utf-8") as handle:
                offset = len(self.spans)
                self.spans.extend([s[0], s[1], s[2], s[3] + offset if s[3] >= 0 else -1,
                                   s[4], s[5]] for s in json.load(handle))
        return proc

    def expect(self, proc, what: str, condition) -> None:
        """Count the op as failed unless it exited 0 and condition() holds."""
        try:
            ok = proc.returncode == 0 and condition()
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            ok, what = False, f"{what} ({exc!r})"
        if not ok:
            self.failed += 1
            self.errors.append(f"{' '.join(proc.args[-6:])}: {what} "
                               f"(exit {proc.returncode}) {proc.stderr.strip()[:200]}")

    def run(self) -> None:
        for fid, size in cli_draw(self.rng, self.reduced):
            self.algebra(fid, size)

    def algebra(self, fid: str, size: int) -> None:
        flag = "--m" if fid == "N2M" else "--n"
        n0, n1 = CLI_DIMS[fid](size)
        stem = f"{fid}{size}"
        symbolic, instance = f"{stem}-symbolic.json", f"{stem}.json"

        def dims_ok(path: str, symbolic_params: bool) -> bool:
            sdf = json.loads((self.work / path).read_text(encoding="utf-8"))
            return ((len(sdf["even_basis"]), len(sdf["odd_basis"])) == (n0, n1)
                    and bool(sdf["parameters"]) == symbolic_params)

        values = []
        if fid != "N2M":
            proc = self.call("family", fid, flag, str(size), "-o", symbolic)
            self.expect(proc, "symbolic family SDF", lambda: dims_ok(symbolic, True))
            names = json.loads((self.work / symbolic).read_text())["parameters"] \
                if proc.returncode == 0 else []
            proc = self.call("check", symbolic)
            self.expect(proc, "identity holds in all parameters",
                        lambda: proc.stdout.startswith("leibniz: ok"))
            for name in names:
                values += ["--param", f"{name}={self.rng.choice(PARAM_VALUES)}"]
        proc = self.call("family", fid, flag, str(size), *values, "-o", instance)
        self.expect(proc, "instantiated family SDF", lambda: dims_ok(instance, False))
        sdf = json.loads((self.work / instance).read_text()) if proc.returncode == 0 else {}

        proc = self.call("check", instance)
        self.expect(proc, "identity holds on the corrected table",
                    lambda: proc.stdout.startswith("leibniz: ok"))
        proc = self.call("series", instance)
        self.expect(proc, "nilindex equals dim",
                    lambda: proc.stdout.count("term ") == n0 + n1
                    and proc.stdout.rstrip().endswith("stabilizes at zero"))
        proc = self.call("annihilator", instance)
        annihilator = {}

        def annihilator_ok() -> bool:
            dims, vectors = parse_annihilator(proc.stdout)
            annihilator["dims"] = list(dims)
            return len(vectors) == sum(dims) and all(annihilates(sdf, v) for v in vectors)
        self.expect(proc, "right annihilator vectors annihilate", annihilator_ok)
        proc = self.call("derivations", "--degree", "odd", instance)
        odd = {}

        def derivations_ok() -> bool:
            payload = json.loads(proc.stdout)
            odd["dim"] = payload["dim"]
            return payload["dim"] == len(payload["basis"]) and all(
                len(m) == n0 + n1 and all(len(r) == n0 + n1 for r in m)
                for m in payload["basis"])
        self.expect(proc, "odd derivation basis well formed", derivations_ok)
        charseq = known_charseq(fid, n0, n1)
        proc = self.call("charseq", instance, "--seed", str(self.seed))
        self.expect(proc, f"characteristic sequence {charseq}",
                    lambda: parse_charseq(proc.stdout) == charseq)
        proc = self.call("invariants", instance, "--seed", str(self.seed))

        def invariants_ok() -> bool:
            inv = json.loads(proc.stdout)
            return (inv["dims"] == [n0, n1] and inv["nilindex"] == n0 + n1
                    and (tuple(inv["charseq"][0]), tuple(inv["charseq"][1])) == charseq
                    and inv["annihilator"] == annihilator.get("dims")
                    and inv["derivation_dims"][1] == odd.get("dim"))
        self.expect(proc, "invariants agree with the known answers and the "
                    "other commands", invariants_ok)


def run_cli(seed: int, seconds: int, trace: bool, work: Path, reduced: bool) -> dict:
    setup = measure_setup("superalg.cli")
    rng = random.Random(seed)
    passes: list[CliPass] = []
    traced: list[CliPass] = []
    start = time.perf_counter()
    cycle = 0
    while True:
        turns = ((False, True) if cycle % 2 == 0 else (True, False)) if trace else (False,)
        # Both passes of a traced cycle get the same draw.
        draw_seed = rng.random()
        for traced_turn in turns:
            tracer_dir = None
            if traced_turn:
                tracer_dir = work / f"spans{cycle}"
                tracer_dir.mkdir()
            one = CliPass(random.Random(draw_seed), seed, reduced, work, tracer_dir)
            one.run()
            (traced if traced_turn else passes).append(one)
        cycle += 1
        elapsed = time.perf_counter() - start
        if elapsed * (cycle + 1) / cycle > seconds:
            break

    everything = passes + traced
    attempted = sum(len(p.timeline.raw()) for p in everything)
    failed = sum(p.failed for p in everything)
    problems = [e for p in everything for e in p.errors]
    scaled = [p.timeline.scaled() for p in passes]
    latencies = [x for pass_ops in scaled for x in pass_ops]
    ops_per_pass = len(scaled[0])
    q = tail_quantile(ops_per_pass)
    metrics = end_to_end(setup, [sum(ops) for ops in scaled], latencies, q)
    raw_passes = [sum(p.timeline.raw()) for p in passes]
    info = [f"ops per pass {ops_per_pass}"]
    if trace:
        trace_out = OUT / f"trace-{CLI_WORKLOAD}-seed{seed}.json"
        with open(trace_out, "w", encoding="utf-8") as handle:
            json.dump({"workload": CLI_WORKLOAD, "seed": seed,
                       "passes": [p.spans for p in traced]}, handle)
        untraced_run = metrics["run_s"]
        metrics = median_metrics([aggregate(p.spans) for p in traced])
        metrics.update(overhead(untraced_run, statistics.median(
            sum(p.timeline.scaled()) for p in traced)))
        info.append(f"spans written to {trace_out.relative_to(ROOT)}")
    else:
        info.append(raw_line(setup, raw_passes))
        info.append(f"op_tail_s is p{round(q * 100)} of n={len(latencies)} ops "
                    f"in {len(passes)} pass(es); op_p50_s n={len(latencies)}")
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "problems": problems, "info": info}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: int, trace: bool,
                 reduced: bool = False, expected: dict | None = None) -> dict:
    """Run one workload and return its result (metrics, gate counts, notes).

    reduced=True shrinks every size range, for the smoke test; the verdict
    digests recorded in expected.json hold only for the full sizes.
    """
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        work = Path(tmp)
        if name == CLI_WORKLOAD:
            return run_cli(seed, seconds, trace, work, reduced)
        n_range = (3, 4) if reduced else None
        if expected is None and not reduced:
            expected = load_expected()[name]
        return run_verify(name, seed, seconds, trace, work, n_range, expected)


def result_object(result: dict, trace: bool) -> dict:
    """The benchmark's last output line: gate counts and metrics with units."""
    units = {} if trace else END_TO_END_UNITS
    return {
        "correct": result["failed"] == 0, "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units.get(name, layer_unit(name))}
                    for name, value in result["metrics"].items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "superalg" / "__init__.py").is_file():
        print(f"error: superalg sources not found under {SRC}", file=sys.stderr)
        return 2
    pin_to_one_cpu()
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    final = result_object(result, bool(args.trace))
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for line in result["info"]:
        print(f"  {line}")
    print(f"  ops_failed_ratio = {result['failed'] / result['attempted']} "
          f"({result['failed']} of {result['attempted']} ops)")
    for problem in result["problems"]:
        print(f"  FAILED: {problem}")
    for name, metric in final["metrics"].items():
        print(f"  {name} = {metric['value']} {metric['unit']}")
    print(json.dumps(final))
    return 0 if final["correct"] else 1


def layer_unit(name: str) -> str:
    if name.endswith((".calls", ".cells")):
        return "count"
    if name.endswith(("_ratio", "_share", "per_call")):
        return "ratio"
    return "s"


if __name__ == "__main__":
    sys.exit(main())
