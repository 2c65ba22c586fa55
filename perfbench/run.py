"""soldens benchmark: one seeded workload, measured for a fixed time.

    python3 perfbench/run.py --workload lp-sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from the repository root; the program is imported from ./src. Set-up
(median of fresh-process probes) is measured first, then one warm-up pass,
then passes over the workload's items until --seconds have elapsed. Every
output of every pass is checked. With --trace 0 the end-to-end metrics of
BENCHMARK.json are reported; with --trace 1 untraced and traced passes
alternate and the per-layer metrics are reported, including the tracing
overhead. Times are medians over passes, each pass divided by the machine
slowdown its calibration slices show (see calibrate.py). The last line of
stdout is the JSON result; the line before it is a JSON report with the
environment, the tail percentile, raw pass times and any failures.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

import checks as ck
from calibrate import NOMINAL_SLICE_S, calibration_slice
from spans import LAYERS, Tracer
from workloads import WORKLOADS, make_items

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MANIFEST = ROOT / "BENCHMARK.json"
SETUP_SAMPLES = 11
MIN_PASSES = 3
TAIL_BEYOND = 10  # items beyond the tail percentile, per pass
CAL_EVERY_S = 0.02


def load_program():
    """The soldens modules from ./src, by layer name. Workloads look functions
    up on them at every call, so installed spans are seen."""
    if not (SRC / "soldens" / "__init__.py").is_file():
        sys.exit(f"perfbench: no soldens sources under {SRC}; run from the repository root")
    sys.path.insert(0, str(SRC))
    import soldens

    if Path(soldens.__file__).resolve().parent != SRC / "soldens":
        sys.exit(f"perfbench: soldens was imported from {soldens.__file__}, not from {SRC}")
    return types.SimpleNamespace(**{name: importlib.import_module(f"soldens.{name}") for name in LAYERS})


def setup_seconds(workload):
    """Median of fresh-process set-up times, each divided by the slowdown
    the probe measured right after it, after one discarded probe that fills
    the bytecode cache (kept under .bench_build, whatever the caller's
    bytecode settings). Returns (median, raw samples)."""
    argv = [sys.executable, str(HERE / "setup_probe.py"), str(SRC), workload.module, *workload.specs]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPYCACHEPREFIX"] = str(ROOT / ".bench_build" / "pycache")
    raw, scaled = [], []
    for _ in range(SETUP_SAMPLES + 1):
        done = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
                              check=True)
        seconds, cal = map(float, done.stdout.split())
        raw.append(seconds)
        scaled.append(seconds * NOMINAL_SLICE_S / cal)
    return statistics.median(scaled[1:]), raw[1:]


def run_pass(items, tracer=None):
    """(seconds in items, item latencies, outputs, machine slowdown). The
    slowdown is the mean calibration slice, taken after every CAL_EVERY_S
    of item time, over its nominal duration."""
    latencies, outputs, slices = [], [], []
    since = 0.0
    gc.collect()
    for pool, i in items:
        inp = pool.inputs[i]
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = pool.call(inp)
            else:
                tracer.context = pool.kind
                out = tracer.span(pool.span, None, pool.call, inp) if pool.span else pool.call(inp)
            err = None
        except Exception as e:  # an item that raises is a failed item, not a benchmark crash
            out, err = None, e
        dt = time.perf_counter() - t0
        latencies.append(dt)
        outputs.append((out, err))
        since += dt
        if since >= CAL_EVERY_S:
            slices.append(calibration_slice())
            since = 0.0
    slices.append(calibration_slice())
    slowdown = statistics.fmean(slices) / NOMINAL_SLICE_S
    return sum(latencies), latencies, outputs, slowdown


def verify(items, outputs, reference):
    """(failures, unexpected): every failed item, and those that are not a
    known defect."""
    failures, unexpected = [], []
    for (pool, i), (out, err) in zip(items, outputs):
        if err is not None:
            reason = f"raised {type(err).__name__}: {err}"
        else:
            try:
                payload = pool.check(pool.inputs[i], out)
                if payload is not None:
                    ck.compare(reference, pool.name, i, payload)
                continue
            except ck.CheckFailed as e:
                reason = str(e)
        failures.append(f"{pool.name}[{i}]: {reason}")
        if err is not None or pool.known_defect is None:
            unexpected.append(failures[-1])
    return failures, unexpected


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "soldens").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment():
    """Everything a comparison between two results must hold fixed."""
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    return {"python": platform.python_version(), "implementation": platform.python_implementation(),
            "numpy": numpy, "cpu_model": cpu_model(), "cpu_count": os.cpu_count(),
            "platform": platform.platform()}


def run_all(names, args):
    """Every workload, each in a fresh process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        lines = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600,
                               check=True).stdout.splitlines()
        print(f"== {name}")
        print("\n".join(lines[:-2]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))


def median_of(rows, key):
    return statistics.median(row[key] for row in rows)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with open(MANIFEST) as fh:
        manifest = json.load(fh)
    wanted = manifest["per_layer" if args.trace else "end_to_end"]
    M = load_program()
    if args.workload == "all":
        return run_all(sorted(WORKLOADS), args)
    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or all")
    workload = WORKLOADS[args.workload]
    setup_s, setup_samples = setup_seconds(workload)

    groups = {spec: M.groups.build_group(spec) for spec in workload.specs}
    mix = workload.build(M, groups)
    items = make_items(mix, args.seed)
    reference = ck.load_reference()
    tracer = Tracer(vars(M)) if args.trace else None

    failures, unexpected = [], []

    def measured(traced):
        if traced:
            tracer.reset()
            tracer.install()
        try:
            raw, latencies, outputs, slowdown = run_pass(items, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        f, u = verify(items, outputs, reference)
        failures.extend(f)
        unexpected.extend(u)
        lat = sorted(x / slowdown for x in latencies)
        row = {"raw_s": raw, "slowdown": slowdown, "wall_s": raw / slowdown,
               "p50": statistics.median(lat), "tail": lat[len(lat) - TAIL_BEYOND - 1]}
        if traced:
            row["layers"] = {k: v / slowdown if k.endswith("_s") else v for k, v in tracer.metrics().items()}
            row["layers"]["trace.spans"] = tracer.spans
        return row

    measured(False)  # warm-up: lazy imports and first-touch costs
    failures.clear()
    unexpected.clear()
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        plain.append(measured(False))
        if args.trace:
            traced.append(measured(True))
        if time.perf_counter() - start >= args.seconds and len(plain) >= MIN_PASSES:
            break

    n_items = len(items)
    attempted = n_items * (len(plain) + len(traced))
    failed = len(failures)
    counts_repeat = None
    if args.trace:
        first = traced[0]["layers"]
        values = {k: statistics.median(p["layers"][k] for p in traced) if k.endswith("_s") else v
                  for k, v in first.items()}
        values["trace.wall_s"] = median_of(traced, "wall_s")
        values["trace.overhead_s"] = values["trace.wall_s"] - median_of(plain, "wall_s")
        counts_repeat = all(p["layers"][k] == v for p in traced for k, v in first.items()
                            if not k.endswith("_s"))
    else:
        values = {
            "wall_s": median_of(plain, "wall_s"),
            "item_p50_ms": 1e3 * median_of(plain, "p50"),
            "item_tail_ms": 1e3 * median_of(plain, "tail"),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_ratio": 1 - failed / attempted,
        }

    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            sys.exit(f"perfbench: metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    for name, m in metrics.items():
        print(f"{name:56s} {m['value']:>16.6g} {m['unit']}")
    if not args.trace:
        print(f"{'fail_ratio':56s} {failed / attempted:>16.6g} ratio")

    report = {
        "environment": environment(),
        "program": {"commit": git_commit(), "src_sha256": source_digest()},
        "workload": workload.name, "why": workload.why, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "items_per_pass": n_items, "passes": len(plain), "traced_passes": len(traced),
        "tail_percentile": 100 * (n_items - TAIL_BEYOND) / n_items, "tail_items_beyond": TAIL_BEYOND,
        "pass_raw_s": [p["raw_s"] for p in plain],
        "pass_slowdown": [p["slowdown"] for p in plain], "setup_samples_s": setup_samples,
        "attempted": attempted, "failed": failed, "fail_ratio": failed / attempted,
        "unexpected_failures": len(unexpected), "failures": sorted(set(failures))[:20],
        "counts_repeat": counts_repeat,
    }
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({"correct": not unexpected, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
