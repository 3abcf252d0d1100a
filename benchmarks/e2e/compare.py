"""Compare two sets of benchmark results.

Usage::

    python3 benchmarks/e2e/compare.py A B

``A`` and ``B`` are ``results.jsonl`` files written by ``run.py`` (or the
``--out`` directories holding them), ideally five or more runs each.  For
every workload and end-to-end metric this prints both sides' median and
quartiles, the change of B against A, the metric's bound from
``BENCHMARK.json``, and a verdict:

- ``agree``: B is within the bound of A;
- ``regress``: B is worse than A by more than the bound;
- ``better``: B is better than A by more than the bound;
- ``unresolved``: one side's quartile spread is wider than the bound, and
  not every run of B reads better than every run of A.

``cost_usd`` and ``budget_use`` are read on the reference seed and are
deterministic, so every run of B is compared with every run of A against
the workload's ``quality_rtol`` (see ``workloads.py``), which is at most
the bound; ``ops_failed_frac`` may not increase at all.  Only timed-pass
rows are compared.  Results from unlike hosts (CPU count, machine, Python
or numpy version), or with unlike repeat counts for a workload, are
refused.  The exit code is 1 if anything regressed and 2 if the results
cannot be compared.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

HOST_KEYS = ("cpus", "machine", "python", "numpy")
QUALITY = ("cost_usd", "budget_use")


def load(path: str) -> list[dict]:
    p = pathlib.Path(path)
    if p.is_dir():
        p = p / "results.jsonl"
    rows = [json.loads(line) for line in p.read_text().splitlines() if line.strip()]
    return [r for r in rows if not r["trace"]]


def bounds() -> dict[str, tuple[str, float]]:
    spec = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    out = {m["name"]: (m["better"], float(m["bound"])) for m in spec["end_to_end"]}
    out["ops_failed_frac"] = ("lower", 0.0)
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def column(rows: list[dict], name: str) -> list[float]:
    key = "metrics" if name in rows[0]["metrics"] else "diagnostics"
    return [float(r[key][name]) for r in rows]


def verdict(name: str, better: str, bound: float, a: list[dict], b: list[dict],
            rtol: float) -> tuple[float, str]:
    """(relative change of B's median, worse positive; verdict)."""
    sign = 1.0 if better == "lower" else -1.0
    va, vb = column(a, name), column(b, name)
    (qa1, ma, qa3), (qb1, mb, qb3) = quartiles(va), quartiles(vb)
    worse = sign * (mb - ma) / abs(ma) if ma else sign * (mb - ma)
    if name in QUALITY:
        shifts = [sign * (y - x) / abs(x) for x in va for y in vb]
        if max(shifts) > rtol:
            return worse, "regress"
        return worse, "better" if min(shifts) < -rtol else "agree"
    spread = max((qa3 - qa1) / abs(ma) if ma else 0.0, (qb3 - qb1) / abs(mb) if mb else 0.0)
    if spread > bound:
        all_better = all(sign * (y - x) < 0 for x in va for y in vb)
        return worse, "better" if all_better else "unresolved"
    if worse > bound:
        return worse, "regress"
    return worse, "better" if -worse > bound else "agree"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", help="baseline results (file or --out directory)")
    parser.add_argument("b", help="candidate results (file or --out directory)")
    args = parser.parse_args(argv)
    a_rows, b_rows = load(args.a), load(args.b)

    hosts = {tuple(r["host"][k] for k in HOST_KEYS) for r in a_rows + b_rows}
    if len(hosts) != 1:
        print("refusing to compare results from unlike hosts:", file=sys.stderr)
        for host in sorted(hosts):
            print("  " + ", ".join(f"{k}={v}" for k, v in zip(HOST_KEYS, host)), file=sys.stderr)
        return 2
    counts: dict[tuple, set] = {}
    for r in a_rows + b_rows:
        counts.setdefault((r["workload"], r["smoke"]), set()).add(r["repeats"])
    for (workload, smoke), seen in counts.items():
        if len(seen) > 1:
            print(f"refusing to compare {workload}{' (smoke)' if smoke else ''}: "
                  f"repeat counts {sorted(seen)} differ", file=sys.stderr)
            return 2

    limits = bounds()
    regressed = False
    print(f"{'workload':20s} {'metric':16s} {'A median [q1, q3]':>34s} "
          f"{'B median [q1, q3]':>34s} {'worse':>8s} {'bound':>6s}  verdict")
    for workload in WORKLOADS:
        for smoke in (False, True):
            a = [r for r in a_rows if r["workload"] == workload and r["smoke"] == smoke]
            b = [r for r in b_rows if r["workload"] == workload and r["smoke"] == smoke]
            if not a or not b:
                continue
            label = workload + (" (smoke)" if smoke else "")
            rtol = WORKLOADS[workload].quality_rtol
            for name, (better, bound) in limits.items():
                worse, word = verdict(name, better, bound, a, b, rtol)
                regressed |= word == "regress"
                limit = rtol if name in QUALITY else bound
                cells = [
                    "{1:.6g} [{0:.6g}, {2:.6g}]".format(*quartiles(column(rows, name)))
                    for rows in (a, b)
                ]
                print(f"{label:20s} {name:16s} {cells[0]:>34s} {cells[1]:>34s} "
                      f"{100 * worse:+7.2f}% {limit:6.3g}  {word}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
