"""Summarize benchmark run records (``perfbench/runs/*.json``).

    python3 perfbench/summarize.py RECORD...
    python3 perfbench/summarize.py --parent RECORD... --change RECORD...

The first form prints, per workload and end-to-end metric, the median,
the quartiles, and the spread (quartile distance over median) of the
untraced records, then the share of traced time per layer.  The second
compares two commits measured with alternating runs: each side's median
and quartiles, how many pairs the change won, and whether the change's
median is worse than the parent's by more than the metric's bound.
``--json`` prints the summary as JSON instead.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

DECLARED = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json")
    .read_text())
END_TO_END = {m["name"]: m for m in DECLARED["end_to_end"]}


def load(paths):
    records = [json.loads(Path(p).read_text()) for p in paths]
    return sorted(records, key=lambda r: r["time"])


def stats(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"n": len(values), "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values}


def by_workload(records):
    """workload -> metric -> values, over untraced records."""
    table = {}
    for record in records:
        if record["trace"]:
            continue
        metrics = table.setdefault(record["workload"], {})
        for name, metric in record["metrics"].items():
            metrics.setdefault(name, []).append(metric["value"])
    return table


def layer_shares(records):
    """workload -> layer -> share of traced pass time (mean over
    traced records)."""
    shares = {}
    for record in records:
        layers = record.get("layers") or {}
        total = sum(layers.values())
        if not record["trace"] or not total:
            continue
        rows = shares.setdefault(record["workload"], [])
        rows.append({k: v / total for k, v in layers.items()})
    return {workload: {layer: statistics.fmean(r.get(layer, 0.0)
                                               for r in rows)
                       for layer in sorted({k for r in rows for k in r})}
            for workload, rows in shares.items()}


def summary(records):
    return {
        "runs": len(records),
        "git_sha": sorted({r["git_sha"] or "-" for r in records}),
        "machine": records[0]["machine"] if records else {},
        "metrics": {w: {m: stats(v) for m, v in metrics.items()
                        if len(v) >= 2}
                    for w, metrics in by_workload(records).items()},
        "layers": layer_shares(records),
    }


def compare(parent, change):
    rows = []
    a, b = by_workload(parent), by_workload(change)
    for workload in sorted(set(a) & set(b)):
        for name, meta in END_TO_END.items():
            pa, pb = a[workload].get(name), b[workload].get(name)
            if not pa or not pb or len(pa) < 2 or len(pb) < 2:
                continue
            sa, sb = stats(pa), stats(pb)
            sign = 1 if meta["better"] == "lower" else -1
            wins = sum(sign * (y - x) < 0 for x, y in zip(pa, pb))
            worse = sign * (sb["median"] - sa["median"]) / sa["median"]
            rows.append({
                "workload": workload, "metric": name,
                "parent": sa, "change": sb,
                "change_wins": wins, "pairs": min(len(pa), len(pb)),
                "worse_by": worse, "bound": meta["bound"],
                "regressed": worse > meta["bound"]})
    return rows


def _fmt(s):
    return f"{s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0])
    parser.add_argument("records", nargs="*")
    parser.add_argument("--parent", nargs="+", default=[])
    parser.add_argument("--change", nargs="+", default=[])
    parser.add_argument("--json", action="store_true")
    args = parser.parse_args(argv)

    if args.parent or args.change:
        rows = compare(load(args.parent), load(args.change))
        if args.json:
            print(json.dumps(rows, indent=1))
            return 0
        for r in rows:
            verdict = "REGRESSED" if r["regressed"] else "ok"
            print(f"{r['workload']:<14} {r['metric']:<12} parent "
                  f"{_fmt(r['parent'])}  change {_fmt(r['change'])}  "
                  f"wins {r['change_wins']}/{r['pairs']}  worse by "
                  f"{100 * r['worse_by']:+.1f}% (bound "
                  f"{100 * r['bound']:.0f}%)  {verdict}")
        return 1 if any(r["regressed"] for r in rows) else 0

    result = summary(load(args.records))
    if args.json:
        print(json.dumps(result, indent=1))
        return 0
    for workload, metrics in result["metrics"].items():
        for name, s in metrics.items():
            print(f"{workload:<14} {name:<12} n={s['n']:<3} "
                  f"{_fmt(s)}  spread {100 * s['spread']:.1f}%")
    for workload, layers in result["layers"].items():
        top = sorted(layers.items(), key=lambda kv: -kv[1])
        print(f"{workload}: " + ", ".join(
            f"{layer} {100 * share:.1f}%" for layer, share in top
            if share >= 0.005))
    return 0


if __name__ == "__main__":
    sys.exit(main())
