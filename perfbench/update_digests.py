"""Rewrite digests.json: SHA-256 of each generated report at the default seed.

    python3 perfbench/update_digests.py

Runs one pass per workload, from the root of a randlab checkout.  The
reports must pass their own exact checks first.  Rerun it only after a
change that is meant to alter generated report bytes, and say so where
the change is described.
"""

import hashlib
import json
import sys

import run
import workloads


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    digests = {}
    for name in sorted(workloads.WORKLOADS):
        bench = run.Bench(name, run.DEFAULT_SEED, run.OUT / name)
        gen = bench.scenarios[-1]
        gen.reference, gen.expected = "first_pass", {}
        p = bench.run_pass()
        if bench.check(p):
            sys.stderr.write("\n".join(bench.failures) + "\n")
            return 1
        digests[name] = {f: hashlib.sha256(b).hexdigest() for f, b in sorted(p.files[-1].items())}
    run.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
