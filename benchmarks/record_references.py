"""Record the reference outputs that ``run.py`` checks at the default seed.

Run from the root of a checkout, on the commit whose outputs should become
the reference (they were recorded from the seed code)::

    python3 benchmarks/record_references.py

Each workload runs at its default size and seed 42 until every operation
has run once (one pass, or one per seed block); the outputs must first pass
the oracle checks. The result replaces ``references.json``.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from run import BENCH_DIR, REFERENCES, SRC


def main() -> int:
    sys.path.insert(0, str(SRC))
    import workloads

    references = {}
    with tempfile.TemporaryDirectory(dir=BENCH_DIR, prefix="tmp-") as tmp:
        for name, cls in workloads.WORKLOADS.items():
            work = Path(tmp) / name
            work.mkdir()
            workload = cls(workloads.DEFAULT_SEED, work)
            outputs = {}
            for _ in range(getattr(workload, "blocks", 1)):
                outputs.update(workload.run_pass())
            problems = workload.check(outputs, None, {})
            if any(problems.values()):
                print(f"{name}: outputs fail the oracle checks: {problems}", file=sys.stderr)
                return 1
            references[name] = {
                "seed": workload.seed,
                "params": workload.params,
                "values": workload.reference(outputs),
            }
            workload.discard(outputs)
    REFERENCES.write_text(json.dumps(references) + "\n")
    print(f"wrote {REFERENCES}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
