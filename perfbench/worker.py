"""One measured run of a verify workload, in a fresh interpreter.

Usage: python3 perfbench/worker.py CONFIG_JSON

run.py starts this script once per run.  It imports superalg, then calls
``verify.run_claims`` on the workload's claims in whole passes until the
time budget is spent.  Each claim report is one op, timed around the call
into its ``verify_*`` / ``audit_errata`` / ``pairwise_distinguish``
function.  With tracing on, every cycle runs one untraced and one traced
pass, so the difference between them is the tracing overhead.  The result
goes to the JSON file named in the config; spans go to the trace file.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time

from calibrate import Timeline
from tracer import LAYER_FUNCTIONS, Tracer, aggregate

CLAIM_FUNCTIONS = tuple(fn for module, fn in LAYER_FUNCTIONS if module == "verify")


def verdict_record(report: dict) -> str:
    """Canonical verdict of one claim report: everything but timings and details."""
    return json.dumps([report["id"], report["subject"],
                       [[c["name"], c["status"]] for c in report["checks"]]])


class OpTimer:
    """Times each top-level call into a claim function of ``verify``.

    The timer stays the outermost wrapper, so its probe samples fall between
    ops and never inside a traced claim span.  During a traced pass it calls
    the claim functions through the tracer.
    """

    def __init__(self, verify, tracer: Tracer):
        self.timeline = Timeline()
        self.tracer = tracer
        self.functions = {name: getattr(verify, name) for name in CLAIM_FUNCTIONS}
        self.calls = dict(self.functions)
        self._depth = 0
        for name in CLAIM_FUNCTIONS:
            setattr(verify, name, self._wrap(name))

    def trace(self, on: bool) -> None:
        if on:
            self.tracer.install(skip=CLAIM_FUNCTIONS)
            self.calls = {name: self.tracer.wrap(f"verify.{name}", fn)
                          for name, fn in self.functions.items()}
        else:
            self.tracer.uninstall()
            self.calls = dict(self.functions)

    def _wrap(self, name: str):
        def op(*args, **kwargs):
            self._depth += 1
            top = self._depth == 1
            if top:
                self.tracer.op += 1
                self.timeline.sample()
            start = time.perf_counter()
            try:
                return self.calls[name](*args, **kwargs)
            finally:
                if top:
                    self.timeline.op(start, time.perf_counter())
                    self.timeline.sample()
                self._depth -= 1
        return op


def run_pass(verify, timer: OpTimer, selected, n_range, seed) -> dict:
    timer.timeline = Timeline()
    start = time.perf_counter()
    report = verify.run_claims(selected, n_range, seed)
    wall = time.perf_counter() - start
    records = [verdict_record(c.as_dict()) for c in report.claims]
    return {
        "wall_s": wall,
        "latencies": timer.timeline.raw(),
        "scaled": timer.timeline.scaled(),
        "statuses": [c.status for c in report.claims],
        "digests": [hashlib.sha256(r.encode()).hexdigest()[:16] for r in records],
        "digest": hashlib.sha256("\n".join(records).encode()).hexdigest(),
    }


def main() -> None:
    config = json.loads(sys.argv[1])
    from superalg import verify

    selected = [cid for cid in verify.claim_ids()
                if cid.startswith(tuple(config["prefixes"]))]
    n_range = tuple(config["n_range"]) if config["n_range"] else None
    seed, budget = config["seed"], config["seconds"]
    tracer = Tracer()
    timer = OpTimer(verify, tracer)

    passes, traced, layer_passes, pass_spans = [], [], [], []
    start = time.perf_counter()
    cycle = 0
    while True:
        if config["trace"]:
            # Alternate which pass of the cycle runs first.
            for traced_turn in ((False, True) if cycle % 2 == 0 else (True, False)):
                if traced_turn:
                    tracer.spans.clear()
                    timer.trace(True)
                    try:
                        traced.append(run_pass(verify, timer, selected, n_range, seed))
                    finally:
                        timer.trace(False)
                    layer_passes.append(aggregate(tracer.spans))
                    pass_spans.append(list(tracer.spans))
                else:
                    passes.append(run_pass(verify, timer, selected, n_range, seed))
        else:
            passes.append(run_pass(verify, timer, selected, n_range, seed))
        cycle += 1
        elapsed = time.perf_counter() - start
        if cycle >= config["min_passes"] and elapsed * (cycle + 1) / cycle > budget:
            break

    result = {"passes": passes, "traced_passes": traced, "layers": layer_passes}
    with open(config["out"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    if config["trace"]:
        with open(config["trace_out"], "w", encoding="utf-8") as handle:
            json.dump({"workload": config["workload"], "seed": seed,
                       "passes": pass_spans}, handle)


if __name__ == "__main__":
    main()
