#!/usr/bin/env python3
"""Steadiness and determinism checks for the benchmark.

Run from the repository root:

  python3 perfbench/check.py spread [--workloads W,...] [--seeds 1-10] [--save FILE]
      One untraced run per seed and workload, each with BENCHMARK.json's
      run_seconds. For every end-to-end metric, prints the median and the
      interquartile range as a share of the median (the quartiles of
      statistics.quantiles(values, n=4)) next to the metric's bound, and
      the machine-drift probe's range; then the same for the unbounded
      good_flows_per_s info line. --save writes every value to FILE
      as JSON, for compare. Exits 1 if a spread exceeds its bound.

  python3 perfbench/check.py compare FIRST.json SECOND.json
      Two sets saved by spread, of the same code: for every workload and
      end-to-end metric in both, prints each set's median and by what
      share of the first median the second is worse, next to the bound,
      and each set's median drift probe. Exits 1 if a metric is worse by
      more than its bound.

  python3 perfbench/check.py determinism [--workloads W,...] [--seed N]
      Two runs of one seed, untraced and traced: every deterministic value
      (simulated time, allocation, counts and ratios of counts, attempted
      and failed) must repeat bit for bit. Then seed N+1 must give a
      different arrival schedule. Exits 1 on any difference.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Units of values that depend on the seed alone.
DETERMINISTIC_UNITS = {"count", "count/flow", "ratio", "words", "MB"}
DETERMINISTIC_NAMES = {"sim_setup_ms_p50", "sim_setup_ms_p99"}


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout
    lines = out.strip().splitlines()
    info = {}
    for line in lines[:-1]:
        key, _, rest = line.partition(" ")
        info[key] = rest
    return json.loads(lines[-1]), info


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(args, bench):
    wide = False
    saved = {}
    for workload in args.workloads:
        values = {m["name"]: [] for m in bench["end_to_end"]}
        probes = []
        infos = []
        saved[workload] = {"values": values, "drift_probe_s": probes, "info": infos}
        for seed in seeds_of(args.seeds):
            result, info = run(workload, seed, bench["run_seconds"], 0)
            probes.append(float(info["drift_probe_s"].split()[0]))
            infos.append(info)
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print(f"  {workload} seed {seed}: " + " ".join(
                f"{n}={v[-1]:.6g}" for n, v in values.items()), flush=True)
        print(f"{workload}: drift probe {min(probes):.4f}..{max(probes):.4f} s")
        for m in bench["end_to_end"]:
            v = values[m["name"]]
            q1, _, q3 = statistics.quantiles(v, n=4)
            share = (q3 - q1) / statistics.median(v)
            verdict = "ok" if share <= m["bound"] / 3 else (
                "within bound" if share <= m["bound"] else "TOO WIDE")
            wide |= share > m["bound"]
            print(f"  {m['name']:22} median {statistics.median(v):12.6g}  "
                  f"iqr/median {share:.4f}  bound {m['bound']}  {verdict}")
        # Printed by every run, bounded by none (DESIGN.md, Measured steadiness).
        gfps = [float(i["good_flows_per_s"].split()[0]) for i in infos]
        q1, _, q3 = statistics.quantiles(gfps, n=4)
        print(f"  {'good_flows_per_s':22} median {statistics.median(gfps):12.6g}  "
              f"iqr/median {(q3 - q1) / statistics.median(gfps):.4f}  no bound")
    if args.save:
        with open(args.save, "w") as f:
            json.dump(saved, f, indent=1)
    return 1 if wide else 0


def compare(args, bench):
    if len(args.sets) != 2:
        sys.exit("compare takes two files saved by spread --save")
    first, second = ([json.load(open(path)) for path in args.sets])
    bad = False
    for workload in first:
        if workload not in second:
            continue
        a, b = first[workload], second[workload]
        print(f"{workload}: drift probe median {statistics.median(a['drift_probe_s']):.4f} s "
              f"then {statistics.median(b['drift_probe_s']):.4f} s")
        for m in bench["end_to_end"]:
            ma = statistics.median(a["values"][m["name"]])
            mb = statistics.median(b["values"][m["name"]])
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            over = worse > m["bound"]
            bad |= over
            print(f"  {m['name']:22} {ma:12.6g} then {mb:12.6g}  worse by {worse:+.4f}  "
                  f"bound {m['bound']}  {'TOO FAR' if over else 'ok'}")
    return 1 if bad else 0


def deterministic(result, bench):
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    vals = {k: v["value"] for k, v in result["metrics"].items()
            if k in DETERMINISTIC_NAMES or units.get(k) in DETERMINISTIC_UNITS}
    vals["attempted"] = result["attempted"]
    vals["failed"] = result["failed"]
    return vals


def determinism(args, bench):
    bad = False
    for workload in args.workloads:
        schedule = None
        for trace in (0, 1):
            (a, info), (b, _) = (run(workload, args.seed, 1, trace),
                                 run(workload, args.seed, 1, trace))
            schedule = info["schedule"]
            da, db = deterministic(a, bench), deterministic(b, bench)
            diff = [k for k in da if da[k] != db.get(k)]
            status = "identical" if not diff else "DIFFER: " + ", ".join(diff)
            print(f"{workload} seed {args.seed} trace {trace}: "
                  f"{len(da)} deterministic values {status}")
            bad |= bool(diff)
        _, other = run(workload, args.seed + 1, 1, 0)
        changed = other["schedule"] != schedule
        print(f"{workload} seed {args.seed + 1}: schedule "
              f"{'changes' if changed else 'DOES NOT CHANGE'}")
        bad |= not changed
    return 1 if bad else 0


def main():
    bench = spec()
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("check", choices=["spread", "determinism", "compare"])
    parser.add_argument("sets", nargs="*", help="compare: two files saved by spread")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--save", help="spread: write every value to this JSON file")
    args = parser.parse_args()
    args.workloads = args.workloads.split(",")
    return {"spread": spread, "determinism": determinism, "compare": compare}[args.check](
        args, bench)


if __name__ == "__main__":
    sys.exit(main())
