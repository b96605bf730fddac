"""Compare result files of ``run.py``: ``compare.py A.json B.json [...]``.

One row per workload x end-to-end metric: each side's median and
quartiles over its runs, the change of the median, the bound
``BENCHMARK.json`` fixes for the metric, and a verdict:

``worse``       B's median is worse than A's by more than the bound;
``unresolved``  the run-to-run spread is wider than the bound and the
                two sides' runs overlap, so the medians decide nothing;
``better``      B wins at least nine tenths of the paired runs and the
                medians differ by more than A's own quartile distance;
``same``        none of the above.

With one file, each row shows that file's spread (quartile distance as
a share of the median) against the bound.  Every file after the first
is compared with the first.  Exits 1 when any row reads ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent


def load(path) -> dict:
    """(workload, metric) -> values of the file's untraced runs."""
    out = {}
    for run in json.loads(Path(path).read_text())["runs"]:
        if not run["trace"]:
            for name, m in run["metrics"].items():
                out.setdefault((run["workload"], name), []).append(m["value"])
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2)


def verdict(a, b, better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    med_a, med_b = statistics.median(a), statistics.median(b)
    worse_by = sign * (med_b - med_a) / abs(med_a)
    noisy = max(spread(a), spread(b)) > bound
    if worse_by > bound:
        overlap = min(b) <= max(a) and min(a) <= max(b)
        return "unresolved" if noisy and overlap else "worse"
    pairs = [(x, y) for x, y in zip(a, b) if x != y]
    wins = sum(sign * (y - x) < 0 for x, y in pairs)
    q1, _, q3 = quartiles(a)
    if pairs and wins >= 0.9 * len(pairs) and sign * (med_b - med_a) < -(q3 - q1):
        return "better"
    if noisy and not all(sign * (y - x) < 0 for x in a for y in b):
        return "unresolved"
    return "same"


def cell(values) -> str:
    q1, q2, q3 = quartiles(values)
    return f"{q2:.5g} [{q1:.5g}, {q3:.5g}] n={len(values)}"


def table(rows) -> str:
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = ["| " + " | ".join(c.ljust(w) for c, w in zip(row, widths)) + " |" for row in rows]
    lines.insert(1, "|" + "|".join("-" * (w + 2) for w in widths) + "|")
    return "\n".join(lines)


def main(argv=None) -> int:
    paths = list(sys.argv[1:] if argv is None else argv)
    if not paths:
        print(__doc__)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    base = load(paths[0])
    worse = False
    for other in paths[1:] or [None]:
        head = ["workload", "metric", "unit", f"A: median [q1, q3] ({paths[0]})"]
        head += [f"B: median [q1, q3] ({other})", "change", "bound", "verdict"] if other \
            else ["spread", "bound"]
        rows = [head]
        side = load(other) if other else None
        for (workload, name), a in base.items():
            m = metrics[name]
            row = [workload, name, m["unit"], cell(a)]
            if side is None:
                row += [f"{spread(a):.2%}", f"{m['bound']:.0%}"]
            else:
                b = side[workload, name]
                change = (statistics.median(b) - statistics.median(a)) / abs(statistics.median(a))
                v = verdict(a, b, m["better"], m["bound"])
                worse |= v == "worse"
                row += [cell(b), f"{change:+.2%}", f"{m['bound']:.0%}", v]
            rows.append(row)
        print(table(rows))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
