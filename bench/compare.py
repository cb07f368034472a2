"""Compare two sets of benchmark runs, metric by metric.

    python3 bench/compare.py BASE.jsonl NEW.jsonl

Each file holds records that `run.py --out FILE` appended.  For every
workload and metric this prints each side's median and quartiles, the pairs
the new side won (the i-th base run against the i-th new run; ties count
for neither side) and a verdict:

  gain        the new side won at least 9 of 10 pairs and the medians differ
              by more than the base runs' own quartile spread;
  regression  the new median is worse than the base median by more than the
              metric's bound in BENCHMARK.json (end-to-end metrics only);
  unresolved  the base runs spread wider than the bound, and not every new
              run beats every base run;
  same        none of the above.

Run the two sides alternately, at least ten pairs, with the same --seconds.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path):
    """{(workload, trace): {metric: [values in file order]}} and units."""
    groups = defaultdict(lambda: defaultdict(list))
    units = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        key = (record["env"]["workload"], record["env"]["trace"])
        for name, metric in record["metrics"].items():
            groups[key][name].append(metric["value"])
            units[name] = metric["unit"]
    return groups, units


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base, new, higher_better, bound):
    """Verdict string and the count of pairs the new side won."""
    better = (lambda a, b: a > b) if higher_better else (lambda a, b: a < b)
    pairs = list(zip(base, new))
    wins = sum(better(n, b) for b, n in pairs)
    b1, bmed, b3 = quartiles(base)
    _, nmed, _ = quartiles(new)
    if pairs and wins >= 0.9 * len(pairs) and better(nmed, bmed) and abs(nmed - bmed) > b3 - b1:
        return "gain", wins, len(pairs)
    if bound is not None:
        worse_by = (bmed - nmed) if higher_better else (nmed - bmed)
        if worse_by > bound * abs(bmed):
            return "regression", wins, len(pairs)
        all_better = all(better(n, b) for n in new for b in base)
        if bmed and (b3 - b1) / abs(bmed) > bound and not all_better:
            return "unresolved", wins, len(pairs)
    return "same", wins, len(pairs)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"))
    args = parser.parse_args(argv)
    spec = json.loads(Path(args.benchmark).read_text(encoding="utf-8"))
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base, units = load(args.base)
    new, _ = load(args.new)
    regressions = 0
    for key in sorted(set(base) & set(new)):
        workload, trace = key
        print(f"\n{workload} ({'traced, per layer' if trace else 'untraced, end to end'})")
        print(f"  {'metric':42s} {'base median [q1, q3]':>33s} {'new median [q1, q3]':>32s}"
              f" {'change':>8s} {'won':>6s}  verdict")
        for name in base[key]:
            if name not in new[key] or name not in declared:
                continue
            b, n = base[key][name], new[key][name]
            higher = declared[name]["better"] == "higher"
            result, wins, pairs = verdict(b, n, higher, declared[name].get("bound"))
            regressions += result == "regression"
            b1, bmed, b3 = quartiles(b)
            n1, nmed, n3 = quartiles(n)
            change = f"{100.0 * (nmed - bmed) / abs(bmed):+.1f}%" if bmed else "n/a"
            label = f"{name} [{units[name]}]"
            base_cell = f"{bmed:.5g} [{b1:.5g}, {b3:.5g}]"
            new_cell = f"{nmed:.5g} [{n1:.5g}, {n3:.5g}]"
            print(f"  {label:42s} {base_cell:>33s} {new_cell:>32s} {change:>8s}"
                  f" {wins:>3d}/{pairs:<2d}  {result}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
