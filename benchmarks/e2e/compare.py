"""Compare two benchmark result sets with the bounds of BENCHMARK.json.

    python benchmarks/e2e/compare.py PARENT.json CHANGE.json

Both files come from ``run.py --out`` with identical settings, one on
the parent commit and one on the change.  For each (workload, end-to-end
metric) pair it prints each side's median and quartiles and a verdict:

* ``unresolved`` - the parent's own spread (IQR over median) exceeds the
  bound, and not every change run beats every parent run;
* ``worse`` - the change's median is worse than the parent's by more
  than the bound;
* ``better`` - there are at least ten run pairs (run i against run
  i), the change wins at least nine tenths of them (ties count for
  neither), and the medians differ, in the better direction, by more
  than the parent's IQR;
* ``unchanged`` - otherwise.

It then compares the share of failed runs on each side, and reports
any result hash that differs between the sides for the same workload
and seed as a correctness failure.  The exit status is 1 on a
``worse`` verdict, a higher failure share, or a hash mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from run import ROOT, describe

WIN_SHARE = 0.9
#: Fewer pairs than this cannot show a gain: machine drift alone makes
#: five runs of identical code win five pairs out of five.
MIN_PAIRS = 10


def verdict(parent: list[float], change: list[float], better: str,
            bound: float) -> str:
    """The choosing-metrics verdict for one metric on one workload."""
    sign = 1 if better == "higher" else -1

    def beats(a: float, b: float) -> bool:
        return sign * (a - b) > 0

    p, c = describe(parent), describe(change)
    spread = (p["q3"] - p["q1"]) / p["median"]
    if spread > bound and not all(beats(x, y)
                                  for x in change for y in parent):
        return "unresolved"
    if -sign * (c["median"] - p["median"]) > bound * p["median"]:
        return "worse"
    pairs = list(zip(parent, change))
    wins = sum(beats(y, x) for x, y in pairs)
    gain = sign * (c["median"] - p["median"])
    if (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
            and gain > p["q3"] - p["q1"]):
        return "better"
    return "unchanged"


def _hashes(document: dict) -> dict[tuple[str, int], set]:
    found: dict[tuple[str, int], set] = {}
    for record in document["records"]:
        if "result_hash" in record:
            found.setdefault((record["workload"], record["seed"]),
                             set()).add(record["result_hash"])
    return found


def _fail_share(document: dict, workload: str) -> float:
    records = [r for r in document["records"] if r["workload"] == workload]
    return sum(bool(r.get("failures")) for r in records) / len(records)


def compare(parent: dict, change: dict, metrics: list[dict]) -> int:
    problems = 0
    print(f"{'workload':<10} {'metric':<16} {'parent median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34}  verdict")
    common = set(parent["workloads"]) & set(change["workloads"])
    for workload in sorted(common):
        rows_p = parent["workloads"][workload]["metrics"]
        rows_c = change["workloads"][workload]["metrics"]
        for metric in metrics:
            name = metric["name"]
            if name not in rows_p or name not in rows_c:
                continue
            p, c = rows_p[name], rows_c[name]
            result = verdict(p["samples"], c["samples"], metric["better"],
                             metric["bound"])
            problems += result == "worse"
            print(f"{workload:<10} {name:<16} "
                  f"{p['median']:>12.5g} [{p['q1']:.5g}, {p['q3']:.5g}]"
                  f"{'':>4}{c['median']:>12.5g} [{c['q1']:.5g}, "
                  f"{c['q3']:.5g}]  {result}")
        shares = (_fail_share(parent, workload), _fail_share(change, workload))
        print(f"{workload:<10} {'failed runs':<16} {shares[0]:>34.3f} "
              f"{shares[1]:>34.3f}  "
              f"{'MORE FAILURES' if shares[1] > shares[0] else 'ok'}")
        problems += shares[1] > shares[0]
    hashes_p, hashes_c = _hashes(parent), _hashes(change)
    for key in sorted(set(hashes_p) & set(hashes_c)):
        if hashes_p[key] != hashes_c[key]:
            problems += 1
            print(f"CORRECTNESS: {key[0]} seed {key[1]} result hash "
                  f"{sorted(hashes_p[key])} -> {sorted(hashes_c[key])}")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    return compare(json.loads(args.parent.read_text()),
                   json.loads(args.change.read_text()),
                   benchmark["end_to_end"])


if __name__ == "__main__":
    sys.exit(main())
