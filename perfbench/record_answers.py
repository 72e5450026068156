"""Record the answer key the workloads check their outputs against.

    python3 perfbench/record_answers.py 7 1 2 ...

For each seed this runs one cold scan and stores its digests and gate
verdict under ``seeds``; the counts and ground-truth join, which do not
depend on the seed, go under ``any_seed`` and must agree across the
seeds given.  Run it only when a change to the program is meant to
change the findings, and say so in the change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ANSWERS = HERE / "answers.json"


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    if not ANSWERS.exists():
        ANSWERS.write_text(json.dumps({"any_seed": {}, "seeds": {}}))
    import workloads

    answers = {"any_seed": None, "seeds": dict(workloads.ANSWERS["seeds"])}
    for seed in map(int, argv):
        scan = workloads.ColdScan(seed)
        scan.setup()
        scan.before_op()
        report, diff, verdict = scan.op()
        rows = [finding.to_row() for finding in report.reported()]
        any_seed = {
            "counts": report.counts(),
            "ground_truth": workloads.ledger_join(rows, scan.app.ledger),
        }
        if answers["any_seed"] is None:
            answers["any_seed"] = any_seed
        elif answers["any_seed"] != any_seed:
            print(f"seed {seed}: {any_seed} differs from {answers['any_seed']}", file=sys.stderr)
            return 1
        answers["seeds"][str(seed)] = {
            "fingerprint_digest": workloads.fingerprint_digest(diff),
            "rows_digest": workloads.rows_digest(rows),
            "gate": {"verdict": verdict.counts(), "diff": diff.counts()},
        }
        print(f"seed {seed}: {answers['seeds'][str(seed)]}", flush=True)
    answers["seeds"] = dict(sorted(answers["seeds"].items(), key=lambda item: int(item[0])))
    ANSWERS.write_text(json.dumps(answers, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
