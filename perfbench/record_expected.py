"""Record the expected verdict digests of the verify workloads.

Usage, from the root of a checkout: python3 perfbench/record_expected.py

Writes perfbench/expected.json: for each verify workload, the sha256 verdict
digest of one default pass and a short digest per claim report, in run
order.  A verdict is (claim id, subject, check names and statuses); timings
and details are left out, so the digest does not depend on the seed.
Re-record only for a change that alters verdicts on purpose, and say why.
"""

import json
import sys
import tempfile
from pathlib import Path

from run import HERE, OUT, VERIFY_WORKLOADS, run_verify


def main() -> int:
    expected = {}
    OUT.mkdir(exist_ok=True)
    for name in VERIFY_WORKLOADS:
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            result = run_verify(name, 0, 1, False, Path(tmp))
        if result["failed"]:
            print(f"{name}: {result['failed']} report(s) did not pass; "
                  f"nothing recorded", file=sys.stderr)
            return 1
        expected[name] = {"reports": len(result["digests"]),
                          "digest": result["digest"], "ops": result["digests"]}
        print(f"{name}: {len(result['digests'])} reports, digest {result['digest']}")
    with open(HERE / "expected.json", "w", encoding="utf-8") as handle:
        json.dump(expected, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
