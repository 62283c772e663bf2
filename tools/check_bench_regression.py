#!/usr/bin/env python3
"""Compare a fresh bench JSON report against a committed baseline.

Part of the CI perf-regression harness: benches emit machine-readable
reports via `--json` (see bench/bench_util.hh), the repo commits
baseline reports (BENCH_fig2.json, BENCH_network.json), and CI fails
when a metric regresses by more than the threshold (default 25%).

Usage:
    check_bench_regression.py BASELINE CURRENT [--threshold 0.25]
    check_bench_regression.py --self-test

Exit status: 0 when every shared metric is within the threshold,
1 on regression or malformed input.

Metrics carry a `higher_is_better` flag, so the same checker handles
throughputs (fail when current < baseline * (1 - t)) and latencies
(fail when current > baseline * (1 + t)). Metrics present only in the
baseline fail the check (a silently vanished measurement is how a
perf trajectory goes dark); metrics present only in the current
report are reported as informational and become part of the baseline
when it is next regenerated. A metric whose *baseline value* is zero
carries no regression information in either direction (any ratio is
infinite), so it is skipped with a loud warning instead of
hard-failing lower-is-better metrics -- regenerate the baseline to
clear the warning. A metric marked `"gated": false` in either report
is trajectory only: it is printed, but it never fails the check (not
even when it vanishes). Benches mark ratios whose two sides are gated
on their own this way. Baselines are regenerated by re-running the
bench with the same WILIS_BENCH_SCALE / backend meta recorded in the
report and committing the output (see README "Refreshing the
baselines").
"""

import argparse
import json
import sys


def load_doc(path):
    """Load a report; exits 1 with a clean message when the file is
    missing or unparseable.

    The current-report file is produced by the bench run earlier in
    the same CI job: if that step silently wrote nothing (crashed
    bench, wrong --json path), the gate must fail loudly instead of
    green-lighting a run it never compared (or dumping a traceback
    that upload steps may misclassify).
    """
    try:
        with open(path) as f:
            return json.load(f)
    except OSError as e:
        print(f"error: cannot read bench report '{path}': {e}",
              file=sys.stderr)
        sys.exit(1)
    except json.JSONDecodeError as e:
        print(f"error: bench report '{path}' is not valid JSON: {e}",
              file=sys.stderr)
        sys.exit(1)


def doc_metrics(doc):
    metrics = {}
    for m in doc.get("metrics", []):
        metrics[m["name"]] = (
            float(m["value"]),
            m.get("unit", ""),
            bool(m.get("higher_is_better", True)),
            bool(m.get("gated", True)),
        )
    return metrics


def compare(base_doc, cur_doc, threshold, out=sys.stdout):
    """Compare two report documents.

    Returns (failures, skipped): the metric names that regressed /
    vanished, and the names skipped for lack of a usable baseline.
    """
    base = doc_metrics(base_doc)
    cur = doc_metrics(cur_doc)
    failures = []
    skipped = []

    if base_doc.get("bench") != cur_doc.get("bench"):
        print(f"error: bench mismatch: baseline is "
              f"'{base_doc.get('bench')}', current is "
              f"'{cur_doc.get('bench')}'", file=out)
        return ["<bench mismatch>"], skipped

    base_meta = base_doc.get("meta", {})
    cur_meta = cur_doc.get("meta", {})
    # Absolute numbers only compare like-for-like when the workload
    # scale, kernel backend and host capabilities match; warn loudly
    # when they don't (CI runners vs dev machines -- the 25% default
    # threshold absorbs moderate hardware spread, the warning
    # explains a surprising verdict).
    for key in ("bench_scale", "backend", "cpu"):
        if key in base_meta and base_meta.get(key) != cur_meta.get(key):
            print(f"warning: meta '{key}' differs "
                  f"(baseline {base_meta.get(key)}, "
                  f"current {cur_meta.get(key)}); "
                  f"comparison may not be like-for-like", file=out)

    print(f"{'metric':38s} {'baseline':>12s} {'current':>12s} "
          f"{'ratio':>8s}  status", file=out)
    for name, (bval, unit, higher, gated) in sorted(base.items()):
        if not gated or (name in cur and not cur[name][3]):
            # Trajectory only: shown for the record, never a verdict.
            cval = (f"{cur[name][0]:12.4g}" if name in cur
                    else f"{'MISSING':>12s}")
            print(f"{name:38s} {bval:12.4g} {cval} "
                  f"{'-':>8s}  trajectory (not gated) [{unit}]",
                  file=out)
            continue
        if name not in cur:
            failures.append(name)
            print(f"{name:38s} {bval:12.4g} {'MISSING':>12s} "
                  f"{'-':>8s}  FAIL (metric vanished)", file=out)
            continue
        cval = cur[name][0]
        if bval == 0:
            # A zero baseline admits no meaningful ratio: every
            # nonzero current value is an infinite "regression" for
            # lower-is-better metrics and an infinite "improvement"
            # for higher-is-better ones. Neither is evidence; skip,
            # but shout so the baseline gets regenerated.
            skipped.append(name)
            print(f"{name:38s} {bval:12.4g} {cval:12.4g} "
                  f"{'-':>8s}  SKIP [{unit}]", file=out)
            print(f"warning: metric '{name}' has a zero baseline "
                  f"value; skipping comparison -- regenerate the "
                  f"baseline to restore coverage of this metric",
                  file=out)
            continue
        ratio = cval / bval
        if higher:
            ok = cval >= bval * (1.0 - threshold)
        else:
            ok = cval <= bval * (1.0 + threshold)
        status = "ok" if ok else "FAIL"
        if not ok:
            failures.append(name)
        print(f"{name:38s} {bval:12.4g} {cval:12.4g} "
              f"{ratio:7.2f}x  {status} [{unit}]", file=out)

    for name in sorted(set(cur) - set(base)):
        # A metric the bench now emits but the baseline predates:
        # nothing to compare against, so skip it with a warning
        # rather than crash or fail -- the gate starts covering it
        # once the baseline is regenerated with the new metric in
        # place.
        print(f"{name:38s} {'-':>12s} {cur[name][0]:12.4g} "
              f"{'-':>8s}  new (not in baseline)", file=out)
        print(f"warning: metric '{name}' is not in the baseline; "
              f"skipping comparison -- regenerate the baseline to "
              f"gate it", file=out)

    return failures, skipped


def self_test():
    """In-process checks of the comparison logic (run in CI)."""
    import io

    def doc(metrics, bench="b", meta=None, ungated=()):
        return {
            "bench": bench,
            "meta": meta or {},
            "metrics": [
                dict({"name": n, "value": v, "unit": "u",
                      "higher_is_better": h},
                     **({"gated": False} if n in ungated else {}))
                for n, v, h in metrics
            ],
        }

    cases = []

    def check(name, cond):
        cases.append((name, cond))
        print(f"  {'ok' if cond else 'FAIL'}: {name}")

    out = io.StringIO()

    # Within threshold: passes.
    f, s = compare(doc([("thru", 100.0, True)]),
                   doc([("thru", 90.0, True)]), 0.25, out)
    check("within-threshold throughput passes", (f, s) == ([], []))

    # Throughput regression beyond threshold: fails.
    f, s = compare(doc([("thru", 100.0, True)]),
                   doc([("thru", 50.0, True)]), 0.25, out)
    check("throughput regression fails", f == ["thru"])

    # Lower-is-better metric growing beyond threshold: fails.
    f, s = compare(doc([("lat", 10.0, False)]),
                   doc([("lat", 20.0, False)]), 0.25, out)
    check("latency regression fails", f == ["lat"])

    # Lower-is-better improvement: passes.
    f, s = compare(doc([("lat", 10.0, False)]),
                   doc([("lat", 5.0, False)]), 0.25, out)
    check("latency improvement passes", (f, s) == ([], []))

    # Mixed-direction report like abl_multicell's: a throughput
    # (higher-is-better) and the trace-derived latency percentiles
    # (lower-is-better) gate independently -- a latency blow-up must
    # fail even while every throughput is fine, and vice versa.
    mixed_base = doc([("uslots_dense10k_soa", 1.0e7, True),
                      ("p50_e2e_latency_dense10k", 8.0, False),
                      ("p99_e2e_latency_dense10k", 40.0, False)])
    f, s = compare(mixed_base,
                   doc([("uslots_dense10k_soa", 1.1e7, True),
                        ("p50_e2e_latency_dense10k", 8.0, False),
                        ("p99_e2e_latency_dense10k", 80.0, False)]),
                   0.25, out)
    check("latency p99 blow-up fails despite healthy throughput",
          f == ["p99_e2e_latency_dense10k"])
    f, s = compare(mixed_base,
                   doc([("uslots_dense10k_soa", 5.0e6, True),
                        ("p50_e2e_latency_dense10k", 6.0, False),
                        ("p99_e2e_latency_dense10k", 30.0, False)]),
                   0.25, out)
    check("throughput drop fails despite improved latency",
          f == ["uslots_dense10k_soa"])

    # An ungated ratio (the analytic/full speedups, whose two sides
    # are gated on their own) is printed but never fails: not when
    # it drops, not when it vanishes, and not when only the current
    # report -- the bench that now emits the flag -- marks it.
    ratio_base = doc([("uslots_full", 3.5e4, True),
                      ("speedup_analytic", 100.0, True)],
                     ungated=("speedup_analytic",))
    buf = io.StringIO()
    f, s = compare(ratio_base,
                   doc([("uslots_full", 3.6e4, True),
                        ("speedup_analytic", 20.0, True)],
                       ungated=("speedup_analytic",)),
                   0.25, buf)
    check("ungated ratio drop does not fail", (f, s) == ([], []))
    check("ungated ratio is printed as trajectory",
          "trajectory (not gated)" in buf.getvalue())
    f, s = compare(ratio_base, doc([("uslots_full", 3.6e4, True)]),
                   0.25, out)
    check("vanished ungated metric does not fail", (f, s) == ([], []))
    f, s = compare(doc([("speedup_analytic", 100.0, True)]),
                   doc([("speedup_analytic", 20.0, True)],
                       ungated=("speedup_analytic",)),
                   0.25, out)
    check("current report's gated:false is honoured",
          (f, s) == ([], []))
    # The flag is per metric: a gated throughput next to an ungated
    # ratio still fails on its own regression.
    f, s = compare(ratio_base,
                   doc([("uslots_full", 1.0e4, True),
                        ("speedup_analytic", 100.0, True)],
                       ungated=("speedup_analytic",)),
                   0.25, out)
    check("gated metric beside an ungated one still fails",
          f == ["uslots_full"])

    # Vanished metric: fails.
    f, s = compare(doc([("gone", 1.0, True)]), doc([]), 0.25, out)
    check("vanished metric fails", f == ["gone"])

    # New metric only in current: informational, passes.
    f, s = compare(doc([]), doc([("new", 1.0, True)]), 0.25, out)
    check("new metric is informational", (f, s) == ([], []))

    # A metric in the report but absent from the baseline (the state
    # every PR that adds a bench metric goes through before its
    # baseline refresh lands): warn-and-skip, never crash or fail --
    # even when other metrics are being compared normally.
    buf = io.StringIO()
    f, s = compare(doc([("thru", 100.0, True)]),
                   doc([("thru", 100.0, True),
                        ("uslots_new_engine", 5.0e6, True)]),
                   0.25, buf)
    check("metric absent from baseline does not fail",
          (f, s) == ([], []))
    check("metric absent from baseline warns loudly",
          "not in the baseline" in buf.getvalue())
    check("metric absent from baseline names the metric",
          "uslots_new_engine" in buf.getvalue())

    # THE regression this mode pins: a zero baseline must be skipped
    # with a warning -- not hard-fail lower-is-better metrics with an
    # infinite ratio.
    buf = io.StringIO()
    f, s = compare(doc([("lat", 0.0, False)]),
                   doc([("lat", 3.0, False)]), 0.25, buf)
    check("zero baseline is skipped, not failed",
          f == [] and s == ["lat"])
    check("zero baseline warns loudly",
          "zero baseline" in buf.getvalue())

    # Zero baseline on higher-is-better metrics skips too.
    f, s = compare(doc([("thru", 0.0, True)]),
                   doc([("thru", 3.0, True)]), 0.25, out)
    check("zero baseline skips higher-is-better too",
          f == [] and s == ["thru"])

    # Bench-name mismatch is an error.
    f, s = compare(doc([], bench="a"), doc([], bench="b"), 0.25, out)
    check("bench mismatch fails", f == ["<bench mismatch>"])

    # THE regression the load_doc mode pins: a missing or
    # unparseable report file must exit nonzero with a clean error,
    # not green-light the gate (or die in a traceback).
    import os
    import subprocess
    import tempfile

    def run_checker(baseline, current):
        return subprocess.run(
            [sys.executable, os.path.abspath(__file__),
             baseline, current],
            capture_output=True, text=True)

    with tempfile.TemporaryDirectory() as tmp:
        good = os.path.join(tmp, "good.json")
        with open(good, "w") as fh:
            json.dump(doc([("thru", 1.0, True)]), fh)

        r = run_checker(good, os.path.join(tmp, "missing.json"))
        check("missing current report exits nonzero",
              r.returncode != 0)
        check("missing current report names the file",
              "missing.json" in r.stderr)

        garbled = os.path.join(tmp, "garbled.json")
        with open(garbled, "w") as fh:
            fh.write("{not json")
        r = run_checker(good, garbled)
        check("unparseable current report exits nonzero",
              r.returncode != 0)
        check("unparseable current report says invalid JSON",
              "not valid JSON" in r.stderr)

        r = run_checker(os.path.join(tmp, "missing.json"), good)
        check("missing baseline exits nonzero", r.returncode != 0)

    bad = [n for n, c in cases if not c]
    if bad:
        print(f"self-test: {len(bad)} of {len(cases)} checks failed")
        return 1
    print(f"self-test: all {len(cases)} checks passed")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description="fail on bench regressions vs a baseline JSON")
    parser.add_argument("baseline", nargs="?")
    parser.add_argument("current", nargs="?")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="allowed fractional regression "
                             "(default 0.25)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the built-in logic checks and exit")
    args = parser.parse_args()

    if args.self_test:
        return self_test()
    if not args.baseline or not args.current:
        parser.error("BASELINE and CURRENT are required "
                     "(or use --self-test)")

    base_doc = load_doc(args.baseline)
    cur_doc = load_doc(args.current)
    failures, skipped = compare(base_doc, cur_doc, args.threshold)

    if skipped:
        print(f"\n{len(skipped)} metric(s) skipped on zero "
              f"baselines: {', '.join(skipped)}")
    if failures:
        print(f"\n{len(failures)} metric(s) regressed beyond "
              f"{args.threshold:.0%} vs {args.baseline}")
        return 1
    gated = [v for v in doc_metrics(base_doc).values() if v[3]]
    n = len(gated) - len(skipped)
    print(f"\nall {n} comparable baseline metric(s) within "
          f"{args.threshold:.0%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
