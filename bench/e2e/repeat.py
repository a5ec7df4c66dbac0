#!/usr/bin/env python3
"""Runs the end-to-end benchmark N times per workload and summarises it.

Usage: bench/e2e/repeat.py N [--json OUT] [--baseline OLD.json] [--same-seed]
                           [run.sh args]

Run i uses seed S+i, where S is the --seed among the run.sh arguments
(default 1). The lakes do not depend on the seed, only the query order and
arrival schedule do, so the spread is the host's and the query stream's.
With --same-seed every run uses seed S, so only the host varies.
--workload restricts the run to one workload, otherwise every workload in
BENCHMARK.json runs. For each workload and metric it prints the median,
the quartiles (statistics.quantiles, n=4) and the spread, which is
(q3 - q1) / median, next to the metric's bound from BENCHMARK.json. A metric
whose spread exceeds its bound does not repeat within its bound and is
flagged. Metrics a run prints that BENCHMARK.json does not list (p99_ms,
for one) are summarised below the others, without a bound. With
--baseline, each median is also compared with the median
recorded in that file (a result file this script wrote); a median worse by
more than the bound is flagged. --json writes every run and the summary.
Exits 1 if any run fails or any metric is flagged.
"""
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))
OPTIONS = ("--json", "--baseline", "--seed", "--workload", "--trace")


def parse_args(argv):
    if not argv or not argv[0].isdigit() or int(argv[0]) < 1:
        sys.exit(__doc__)
    opts = {"n": int(argv[0]), "json": None, "baseline": None, "seed": "1",
            "workload": None, "trace": "0", "same_seed": False, "pass": []}
    rest = argv[1:]
    while rest:
        arg = rest.pop(0)
        if arg == "--same-seed":
            opts["same_seed"] = True
        elif arg in OPTIONS:
            if not rest:
                sys.exit(f"{arg} needs a value")
            opts[arg[2:]] = rest.pop(0)
        else:
            opts["pass"].append(arg)
    opts["pass"] += ["--trace", opts["trace"]]
    return opts


def run_once(workload, seed, passthrough):
    cmd = ["bash", os.path.join(ROOT, "bench", "e2e", "run.sh"),
           "--workload", workload, "--seed", str(seed)] + passthrough
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    if proc.returncode != 0 or result is None or not result["correct"]:
        print(f"{workload} seed {seed}: run failed (exit {proc.returncode})",
              file=sys.stderr)
        return None
    result["seed"] = seed
    # Every "workload metric value unit" line, listed in BENCHMARK.json or not.
    result["printed"] = {
        f[1]: {"value": float(f[2]), "unit": f[3]}
        for f in (line.split() for line in lines[:-1])
        if len(f) == 4 and f[0] == workload}
    return result


def summarise(values, spec, old):
    median = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (values[0], None, values[0]))
    s = {"median": median, "q1": q1, "q3": q3, "unit": spec["unit"],
         "spread": (q3 - q1) / abs(median) if median else 0.0,
         "bound": spec.get("bound")}
    flags = []
    if s["bound"] is not None and s["spread"] > s["bound"]:
        flags.append("does not repeat within its bound")
    if s["bound"] is not None and old and old["median"]:
        worse = old["median"] - median if spec["better"] == "higher" else \
            median - old["median"]
        s["vs_baseline"] = worse / abs(old["median"])
        if s["vs_baseline"] > s["bound"]:
            flags.append(f"worse than baseline by {100 * s['vs_baseline']:.1f}%")
    return s, flags


def main():
    opts = parse_args(sys.argv[1:])
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    specs = bench["per_layer" if opts["trace"] == "1" else "end_to_end"]
    workloads = ([opts["workload"]] if opts["workload"]
                 else [w["name"] for w in bench["workloads"]])
    baseline = {}
    if opts["baseline"]:
        with open(opts["baseline"]) as f:
            baseline = json.load(f)["summary"]

    runs, summary, flagged = {}, {}, 0
    for workload in workloads:
        step = 0 if opts["same_seed"] else 1
        results = [run_once(workload, int(opts["seed"]) + step * i,
                            opts["pass"])
                   for i in range(opts["n"])]
        flagged += results.count(None)
        runs[workload] = [r for r in results if r is not None]
        if not runs[workload]:
            continue
        summary[workload] = {}
        print(f"\n{workload} ({len(runs[workload])} runs)")
        print(f"  {'metric':<28}{'median':>12}{'q1':>12}{'q3':>12}"
              f"{'spread':>8}{'bound':>7}  flag")
        listed = {s["name"] for s in bench["end_to_end"] + bench["per_layer"]}
        extras = [{"name": name, "unit": m["unit"]}
                  for name, m in runs[workload][0]["printed"].items()
                  if name not in listed]
        for spec in specs + extras:
            name = spec["name"]
            source = "metrics" if name in listed else "printed"
            values = [r[source][name]["value"] for r in runs[workload]
                      if name in r[source]]
            if not values:
                continue
            s, flags = summarise(values, spec,
                                 baseline.get(workload, {}).get(name))
            flagged += bool(flags)
            summary[workload][name] = s
            bound = "" if s["bound"] is None else f"{100 * s['bound']:.0f}%"
            print(f"  {name:<28}{s['median']:>12.5g}{s['q1']:>12.5g}"
                  f"{s['q3']:>12.5g}{100 * s['spread']:>7.1f}%{bound:>7}  "
                  f"{'; '.join(flags) or 'ok'}")
    if opts["json"]:
        with open(opts["json"], "w") as f:
            json.dump({"args": sys.argv[1:], "runs": runs, "summary": summary},
                      f, indent=1, sort_keys=True)
            f.write("\n")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
