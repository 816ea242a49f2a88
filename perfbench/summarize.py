"""Summarize benchmark records: medians, quartile spreads and stdout digests.

    python3 perfbench/summarize.py perfbench/out/*.json [--out FILE]

Groups the records written by run.py by workload. For each end-to-end
metric it gives the median over the records, the quartiles from
``statistics.quantiles(values, n=4)`` and their distance as a share of
the median, next to the metric's bound in BENCHMARK.json (``steady``
when the spread is below a third of it). Per-layer metrics are medians
of the traced records. Digests map each argv to the sha256 of its stdout,
so that two commits can be compared for byte-identical output.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def summarize(paths) -> dict:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    records = [json.loads(Path(p).read_text()) for p in paths]
    out = {"machine": records[0]["machine"] if records else None, "workloads": {}}
    digests: dict[str, str] = {}
    conflicts = []
    for rec in records:
        for op in rec["ops"]:
            key = " ".join(op["argv"])
            if op["sha256"] is None:
                continue
            if digests.setdefault(key, op["sha256"]) != op["sha256"]:
                conflicts.append(key)
    for name in sorted({r["workload"] for r in records}):
        plain = [r for r in records if r["workload"] == name and not r["trace"]]
        traced = [r for r in records if r["workload"] == name and r["trace"]]
        row: dict = {
            "seeds": sorted(r["seed"] for r in plain),
            "failed": sum(r["failed"] for r in plain + traced),
            "attempted": sum(r["attempted"] for r in plain + traced),
            "loadavg_1min": [float(r["loadavg"][k][0]) for r in plain for k in ("start", "end")],
            "end_to_end": {},
        }
        for metric, bound in bounds.items():
            values = [r["metrics"][metric] for r in plain]
            if not values:
                continue
            med = statistics.median(values)
            entry = {"median": med, "values": values}
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / med
                entry.update(q1=q1, q3=q3, spread=spread, bound=bound, steady=spread < bound / 3)
            row["end_to_end"][metric] = entry
        if plain:
            row["op_tail"] = plain[0]["tail"]
        if traced:
            keys = traced[0]["metrics"]
            row["per_layer"] = {
                k: statistics.median(r["metrics"][k] for r in traced) for k in keys
            }
        out["workloads"][name] = row
    out["digests"] = dict(sorted(digests.items()))
    out["digest_conflicts"] = sorted(set(conflicts))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("records", nargs="+")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    summary = summarize(args.records)
    for name, row in summary["workloads"].items():
        print(f"{name}: seeds {row['seeds']}, {row['failed']} of {row['attempted']} ops failed")
        for metric, e in row["end_to_end"].items():
            spread = e.get("spread")
            tag = "" if spread is None else f"spread {spread:7.4f} bound {e['bound']} " + (
                "steady" if e["steady"] else "NOT steady"
            )
            print(f"  {metric:12s} median {e['median']:12.6g}  {tag}")
    if summary["digest_conflicts"]:
        print(f"digest conflicts: {summary['digest_conflicts']}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
