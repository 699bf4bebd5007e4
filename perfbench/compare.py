#!/usr/bin/env python3
"""Compares two sets of benchmark runs, or writes the reference digests.

    python3 perfbench/compare.py sets A B
    python3 perfbench/compare.py reference DIR > perfbench/reference.json

A set is a directory of run records as run.py saves them under
.bench_build/results/<workload>/ (untraced runs only are compared). Sets
whose host stamps differ are refused: their timings are not comparable.
For each workload and end-to-end metric the report gives both medians,
both spreads (interquartile distance over median) and whether B is worse
than A by more than the metric's bound in BENCHMARK.json.

`reference` collects the host stamp and the simulated-statistics digests
of every (workload, seed) in DIR, plus the accuracy seeds', in the shape
run.py checks against.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import stats  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def load(directory):
    records = []
    for path in sorted(Path(directory).rglob("*.json")):
        record = json.loads(path.read_text())
        if record.get("trace") == 0:
            records.append(record)
    if not records:
        sys.exit(f"compare: no untraced run records under {directory}")
    return records


def stamp_of(records, label):
    stamps = {json.dumps(r["host"], sort_keys=True) for r in records}
    if len(stamps) != 1:
        sys.exit(f"compare: set {label} mixes host stamps: {sorted(stamps)}")
    return stamps.pop()


def compare_sets(a_dir, b_dir):
    a, b = load(a_dir), load(b_dir)
    stamp_a, stamp_b = stamp_of(a, "A"), stamp_of(b, "B")
    if stamp_a != stamp_b:
        print(f"refused: host stamps differ\n  A {stamp_a}\n  B {stamp_b}")
        return 3
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    worse = 0
    for workload in sorted({r["workload"] for r in a} | {r["workload"] for r in b}):
        for m in spec["end_to_end"]:
            va = [r["metrics"][m["name"]]["value"] for r in a if r["workload"] == workload]
            vb = [r["metrics"][m["name"]]["value"] for r in b if r["workload"] == workload]
            if len(va) < 2 or len(vb) < 2:
                continue
            ma, mb = stats.median(va), stats.median(vb)
            change = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            verdict = "WORSE" if change > m["bound"] else "ok"
            worse += verdict == "WORSE"
            print(f"{workload:22s} {m['name']:32s} A {ma:.6g} (spread "
                  f"{stats.relative_spread(va):.3f}, n={len(va)})  B {mb:.6g} (spread "
                  f"{stats.relative_spread(vb):.3f}, n={len(vb)})  worse by {change:+.3f}"
                  f" / bound {m['bound']}  {verdict}")
    return 1 if worse else 0


def reference(directory):
    records = load(directory)
    digests = {}
    for r in records:
        digests.setdefault(r["workload"], {})[str(r["seed"])] = r["digest"]
        for s in r["accuracy"]["seeds"]:
            digests.setdefault("accuracy", {})[str(s["seed"])] = s["digest"]
    print(json.dumps({"host": json.loads(stamp_of(records, "DIR")), "digests": digests},
                     indent=1, sort_keys=True))
    return 0


def main(argv):
    if len(argv) == 4 and argv[1] == "sets":
        return compare_sets(argv[2], argv[3])
    if len(argv) == 3 and argv[1] == "reference":
        return reference(argv[2])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
