"""Summarize saved runs into baseline.json.

    python3 perfbench/baseline.py RUN_OUTPUT...

Each file is the standard output of one `run.py --trace 0` run. For every
workload and end-to-end metric it records the median, the quartiles and the
spread (interquartile distance over the median, as the bounds in
BENCHMARK.json are judged), the largest spread each bound must cover, and the
environment, commit and seeds the runs came from. Runs from more than one
environment or program are refused.
"""

import json
import statistics
import sys
from pathlib import Path

from compare import load

OUT = Path(__file__).with_name("baseline.json")


def main(paths):
    runs = [load(p) for p in paths]
    for key in ("environment", "program"):
        seen = {json.dumps(rep[key], sort_keys=True) for rep, _ in runs}
        if len(seen) > 1:
            sys.exit(f"baseline: runs differ in {key}:\n" + "\n".join(sorted(seen)))
    if not all(res["correct"] for _, res in runs):
        sys.exit("baseline: a run reported incorrect output")
    first = runs[0][0]
    workloads = {}
    for rep, res in runs:
        w = workloads.setdefault(rep["workload"], {
            "why": rep["why"], "seconds": rep["seconds"], "items_per_pass": rep["items_per_pass"],
            "tail_percentile": rep["tail_percentile"], "tail_items_beyond": rep["tail_items_beyond"],
            "seeds": [], "fail_ratio": [], "values": {}})
        w["seeds"].append(rep["seed"])
        w["fail_ratio"].append(rep["fail_ratio"])
        for name, m in res["metrics"].items():
            w["values"].setdefault(name, {"unit": m["unit"], "runs": []})["runs"].append(m["value"])
    for w in workloads.values():
        w["fail_ratio"] = statistics.median(w["fail_ratio"])
        for m in w["values"].values():
            q1, _, q3 = statistics.quantiles(m["runs"], n=4)
            med = statistics.median(m["runs"])
            m.update(median=med, q1=q1, q3=q3, spread=(q3 - q1) / med if med else 0.0)
        w["metrics"] = w.pop("values")
    with open(Path(__file__).resolve().parent.parent / "BENCHMARK.json") as fh:
        manifest = json.load(fh)
    bounds = {}
    for m in manifest["end_to_end"]:
        spreads = {name: w["metrics"][m["name"]]["spread"] for name, w in workloads.items()}
        worst = max(spreads, key=spreads.get)
        bounds[m["name"]] = {"bound": m["bound"], "largest_spread": spreads[worst], "on": worst}
    doc = {"environment": first["environment"], "program": first["program"], "bounds": bounds,
           "workloads": workloads}
    with open(OUT, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
