#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload NAME [--seeds 1-10] [--seconds S]

Runs perfbench/run.py once per seed, each as its own process, the way
BENCHMARK.json's command is run, and prints for every end-to-end metric
the median, the interquartile distance as a share of the median, and
that spread against a third of the metric's bound in BENCHMARK.json. The
values go to .bench_build/perfbench/spread-<workload>.json; with
--against a file saved by an earlier set, each median must also be no
worse than that set's by more than the bound. Exits non-zero if any run
fails, any spread (setup_s excepted) exceeds its bound, or a median
moved by more than its bound.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import stats  # noqa: E402


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--build-dir", default=None)
    ap.add_argument("--against", default=None,
                    help="values saved by an earlier set of runs")
    args = ap.parse_args()

    values = {m["name"]: [] for m in bench["end_to_end"]}
    ok = True
    for seed in args.seeds:
        cmd = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", "0"]
        if args.build_dir:
            cmd += ["--build-dir", args.build_dir]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if out.returncode != 0:
            print(f"seed {seed}: exit {out.returncode}\n{out.stderr}")
            return 1
        result = json.loads(out.stdout.strip().splitlines()[-1])
        ok = ok and result["correct"]
        print(f"seed {seed}: correct={result['correct']} " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
            flush=True)
        for k, v in result["metrics"].items():
            values[k].append(v["value"])

    earlier = None
    if args.against:
        with open(args.against) as f:
            earlier = json.load(f)
    for m in bench["end_to_end"]:
        vals = values[m["name"]]
        spread = stats.relative_spread(vals)
        limit = m["bound"] / 3
        gated = m["name"] != "setup_s"
        verdict = ("ok" if spread <= limit else
                   "over bound/3" if spread <= m["bound"] else "OVER BOUND")
        ok = ok and (spread <= m["bound"] or not gated)
        line = (f"{m['name']:<18} median {stats.median(vals):<12.6g} "
                f"spread {spread:.4f}  bound/3 {limit:.4f}  "
                f"{verdict if gated else '(not gated)'}")
        if earlier:
            old = earlier[m["name"]]
            held = stats.within_bound(old, vals, m["better"], m["bound"])
            ok = ok and held
            line += (f"  vs earlier median {stats.median(old):.6g}: "
                     f"{'within' if held else 'OUTSIDE'} bound")
        print(line)
    out = os.path.join(ROOT, ".bench_build", "perfbench",
                       f"spread-{args.workload}.json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w") as f:
        json.dump(values, f, indent=1)
    print(f"values -> {os.path.relpath(out, ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
