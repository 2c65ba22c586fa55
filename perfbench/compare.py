"""Compare two sets of saved benchmark results.

    python3 perfbench/compare.py --base OLD_RUN... --new NEW_RUN...

Each file is the standard output of one `run.py` run. Runs are grouped by
workload and trace mode. For every metric it prints each side's median and
quartiles and, for end-to-end metrics, the change against the metric's
bound in BENCHMARK.json. Runs taken in different environments (Python,
numpy, CPU model or count, platform) are refused: their numbers do not
compare.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

MANIFEST = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path):
    lines = Path(path).read_text().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args()
    runs = {side: [load(p) for p in getattr(args, side)] for side in ("base", "new")}

    envs = {json.dumps(rep["environment"], sort_keys=True) for side in runs.values() for rep, _ in side}
    if len(envs) > 1:
        sys.exit("compare: refusing to compare runs from different environments:\n" + "\n".join(sorted(envs)))

    with open(MANIFEST) as fh:
        manifest = json.load(fh)
    bounds = {m["name"]: m for m in manifest["end_to_end"]}
    groups = {}
    for side, side_runs in runs.items():
        for rep, res in side_runs:
            if not res["correct"]:
                print(f"warning: {side} run {rep['workload']} seed {rep['seed']} reported incorrect output")
            groups.setdefault((rep["workload"], rep["trace"]), {}).setdefault(side, []).append(res)

    for (workload, trace), sides in sorted(groups.items()):
        if set(sides) != {"base", "new"}:
            print(f"{workload} trace={trace}: runs on one side only, skipped")
            continue
        print(f"{workload} trace={trace}: {len(sides['base'])} base runs, {len(sides['new'])} new runs")
        for name in sides["base"][0]["metrics"]:
            b = quartiles([r["metrics"][name]["value"] for r in sides["base"]])
            n = quartiles([r["metrics"][name]["value"] for r in sides["new"]])
            line = (f"  {name:48s} base {b[1]:<12.6g} [{b[0]:.6g}, {b[2]:.6g}]"
                    f"  new {n[1]:<12.6g} [{n[0]:.6g}, {n[2]:.6g}]")
            if name in bounds and b[1]:
                m = bounds[name]
                worse = (n[1] - b[1]) / b[1] * (1 if m["better"] == "lower" else -1)
                verdict = "WORSE beyond bound" if worse > m["bound"] else "within bound"
                line += f"  worse by {worse:+.4f} (bound {m['bound']}) {verdict}"
            print(line)


if __name__ == "__main__":
    main()
