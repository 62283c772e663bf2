#!/usr/bin/env python3
"""The WiLIS repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all            # every workload
    python3 perfbench/run.py --workload all --pin      # re-pin digests

Run from the repository root. The first run configures and builds
the library, wilis_cli and the benchmark's probe under
.bench_build/cmake (RelWithDebInfo); later runs only check the build.

--trace 0 measures the end-to-end metrics: the workload's batch command
runs as fresh processes in a closed loop for --seconds, after a set of
one-slot runs that time set-up. --trace 1 is the separate traced run:
a few untraced batches for the baseline, then the probe's in-process
spans around each module's public calls, which give the per-layer
metrics. Either way every batch's output digest is checked. The last
stdout line is one JSON object {correct, attempted, failed, metrics};
everything else (provenance, digests, percentiles, spans) is printed
above it and saved under .bench_build/perfbench/.
"""

import argparse
import json
import os
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import harness  # noqa: E402
import layers  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402

ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build", "perfbench")
REFERENCE = os.path.join(HERE, "reference.json")

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("user_slots_per_s", "user-slots/s"),
    ("peak_rss_mb", "MB"),
)
# A run must end within this many seconds of its measurement start.
RUN_BUDGET_S = 165.0
# One-slot set-up runs before every batch. Interleaving them with the
# batches makes the set-up median sample the whole run, not one
# instant of it: a 5 ms set-up is easily doubled by a brief burst of
# host contention.
SETUP_PER_BATCH = 3
# A batch during which the host took more than this share of the VM's
# CPU time (steal, from /proc/stat) was timed under host contention; a
# 4-thread lockstep engine loses several times that share in wall
# time. wall_s is the median of the other batches when at least
# MIN_CLEAN remain, else of all of them. Set-up runs are too short for
# the 10 ms steal counter and are never filtered.
STEAL_MAX = 0.02
MIN_CLEAN = 3


class Context:
    def __init__(self, build_dir, seed, wl, pin):
        self.check_reference = seed == workloads.DEFAULT_SEED and not pin
        self.bins = harness.binaries(build_dir)
        self.seed = seed
        self.wl = wl
        self.cores = harness.nproc()
        self.calibration = os.path.join(ROOT, "data",
                                        "network_calibration.txt")
        self.run_dir = os.path.join(OUT, "run", wl.name)
        self.deadline = time.monotonic() + RUN_BUDGET_S
        shutil.rmtree(self.run_dir, ignore_errors=True)
        os.makedirs(self.run_dir)


class Batch:
    """One closed-loop batch: all its processes, stage after stage."""

    def __init__(self, ctx, slots, tag, argvs=None):
        self.procs = []
        self.stages = []
        self.failure = None
        self.stderr = ""
        self.digest = None
        self.report = None
        for name in os.listdir(ctx.run_dir):
            os.remove(os.path.join(ctx.run_dir, name))
        if argvs is None:
            argvs = ctx.wl.argvs(ctx.bins, ctx.seed, ctx.calibration,
                                 ctx.cores, ctx.run_dir, slots)
        steal0 = _steal_ticks()
        for i, stage in enumerate(argvs):
            res = harness.run_group(stage, ctx.deadline, ctx.run_dir,
                                    f"{tag}.{i}")
            self.stages.append(res)
            self.procs += res
            bad = next((r for r in res if r.failure()), None)
            if bad is not None:
                self.failure = (f"{os.path.basename(bad.argv[0])}: "
                                f"{bad.failure()}")
                self.stderr = bad.stderr_tail
                return
        self.wall = (max(r.end for r in self.procs)
                     - min(r.start for r in self.procs))
        self.steal_share = _steal_seconds(steal0) / (self.wall
                                                     * os.cpu_count())
        self.rss_kb = max(r.maxrss_kb for r in self.procs)
        self.digest, problems, self.report = workloads.output_digest(
            ctx.wl, ctx.run_dir, slots)
        # One-slot set-up runs may deliver nothing; only full-horizon
        # batches must pass the report checks.
        if problems and slots == ctx.wl.slots:
            self.failure = "report check: " + "; ".join(problems)


class Outcome:
    """Attempts, failures and digests of one benchmark run."""

    def __init__(self, ctx):
        self.attempted = 0
        self.failures = []
        self.digests = []
        self.pinned = _reference() if ctx.check_reference else {}
        self.reference = self.pinned.get(ctx.wl.name)
        self.extra = {}

    def add(self, batch, check_digest=True):
        """Count a batch; returns it when it succeeded, else None."""
        self.attempted += 1
        if batch.failure is None and check_digest:
            first = self.digests[0] if self.digests else None
            if self.reference and batch.digest != self.reference:
                batch.failure = (f"digest {batch.digest[:16]} != pinned "
                                 f"reference {self.reference[:16]}")
            elif first and batch.digest != first:
                batch.failure = (f"digest {batch.digest[:16]} != this "
                                 f"run's first {first[:16]}")
            else:
                self.digests.append(batch.digest)
        if batch.failure is not None:
            self.failures.append({"failure": batch.failure,
                                  "stderr": batch.stderr})
            return None
        return batch

    def check_extra(self, key, digest):
        """A digest besides the batch report's (the traced run's packet
        trace); it fails against its pinned reference if there is one."""
        self.extra[key] = digest
        pinned = self.pinned.get(key)
        if pinned and digest != pinned:
            self.failures.append({
                "failure": f"{key} digest {digest[:16]} != pinned "
                           f"reference {pinned[:16]}", "stderr": ""})

    @property
    def failed(self):
        return len(self.failures)

    def digest(self):
        return self.digests[0] if self.digests else None

    def lines(self):
        out = [f"  fail_ratio        {self.failed}/{self.attempted} = "
               f"{self.failed / max(1, self.attempted):.4g} failed/attempted"]
        if self.digest():
            ref = ("matches the pinned reference" if self.reference
                   else "no pinned reference for this seed; every batch "
                        "of this run agrees")
            out.append(f"  digest            {self.digest()} ({ref})")
        for key, digest in self.extra.items():
            ref = ("matches the pinned reference"
                   if self.pinned.get(key) == digest
                   else "differs from the pinned reference"
                   if key in self.pinned else "not pinned for this seed")
            out.append(f"  {key} digest {digest} ({ref})")
        for f in self.failures[:5]:
            out.append(f"  FAILED: {f['failure']}")
            if f["stderr"]:
                out += ["    | " + s for s in f["stderr"].splitlines()]
        return out


def _reference():
    with open(REFERENCE) as f:
        return json.load(f)["digests"]


def _closed_loop(ctx, outcome, seconds, min_batches, setup=None):
    """Batches one after another for ~seconds; the successful ones.
    With a setup list, SETUP_PER_BATCH one-slot runs precede every
    batch and their walls are appended to it."""
    good = []
    start = time.monotonic()
    last = 0.0
    i = 0
    while (i < min_batches
           or time.monotonic() - start + last <= seconds) \
            and time.monotonic() + last < ctx.deadline:
        t0 = time.monotonic()
        for k in range(SETUP_PER_BATCH if setup is not None else 0):
            b = outcome.add(Batch(ctx, 1, f"setup{i}.{k}"),
                            check_digest=False)
            if b is not None:
                setup.append(b.wall)
        batch = outcome.add(Batch(ctx, ctx.wl.slots, f"b{i}"))
        last = time.monotonic() - t0
        i += 1
        if batch is not None:
            good.append(batch)
        elif i >= min_batches and not good:
            break
    return good


def _steal_ticks():
    """Host CPU time stolen from this VM so far (USER_HZ ticks)."""
    try:
        with open("/proc/stat") as f:
            return int(f.readline().split()[8])
    except (OSError, IndexError, ValueError):
        return 0


def _steal_seconds(since_ticks):
    return (_steal_ticks() - since_ticks) / os.sysconf("SC_CLK_TCK")


def measure(ctx, seconds):
    """--trace 0: the end-to-end metrics."""
    wl = ctx.wl
    outcome = Outcome(ctx)
    setup = []
    t0, steal0 = time.monotonic(), _steal_ticks()
    good = _closed_loop(ctx, outcome, seconds, MIN_CLEAN, setup)
    if not good or not setup:
        return outcome, None, {}
    clean = [b for b in good if b.steal_share <= STEAL_MAX]
    kept = clean if len(clean) >= MIN_CLEAN else good
    walls = [b.wall for b in kept]
    wall = stats.median(walls)
    setup_s = stats.median(setup)
    user_slots = wl.user_slots(good[0].report)
    metrics = {
        "wall_s": wall,
        "setup_s": setup_s,
        "user_slots_per_s": user_slots / (wall - setup_s),
        "peak_rss_mb": max(b.rss_kb for b in good) / 1024.0,
    }
    detail = {"wall_s": stats.describe(walls),
              "setup_s": stats.describe(setup),
              "user_slots": user_slots,
              "walls": [b.wall for b in good],
              "batch_steal_shares": [b.steal_share for b in good],
              "batches_kept": len(kept),
              "setup_walls": setup,
              "host_steal_share": _steal_seconds(steal0) / (
                  (time.monotonic() - t0) * os.cpu_count())}
    return outcome, metrics, detail


def _spans_of_batch(batch, run_id):
    """run.py's own spans of one traced campaign batch."""
    spans = []
    t0 = min(r.start for r in batch.procs)
    t1 = max(r.end for r in batch.procs)
    spans.append({"run_id": run_id, "span_id": 1, "parent_id": 0,
                  "name": "campaign.batch", "start_ns": int(t0 * 1e9),
                  "end_ns": int(t1 * 1e9)})
    for stage, name in zip(batch.stages, ("campaign.shard",
                                           "campaign.merge_proc")):
        for r in stage:
            spans.append({"run_id": run_id, "span_id": len(spans) + 1,
                          "parent_id": 1, "name": name,
                          "start_ns": int(r.start * 1e9),
                          "end_ns": int(r.end * 1e9)})
    return spans


def _read_spans(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def traced(ctx, seconds):
    """--trace 1: the per-layer metrics from the traced run."""
    wl = ctx.wl
    outcome = Outcome(ctx)
    good = _closed_loop(ctx, outcome, seconds / 2, 2)
    if not good:
        return outcome, None, {}
    untraced_wall = stats.median([b.wall for b in good])
    report = good[0].report
    spans = []
    campaign = None
    if wl.campaign:
        # The same batch with the merge's in-process spans recorded.
        merge_spans = os.path.join(OUT, "merge_spans.jsonl")
        argvs = wl.argvs(ctx.bins, ctx.seed, ctx.calibration, ctx.cores,
                         ctx.run_dir, merge_spans=merge_spans)
        batch = outcome.add(Batch(ctx, wl.slots, "traced", argvs))
        if batch is None:
            return outcome, None, {}
        spans += _spans_of_batch(batch, "run")
        spans += _read_spans(merge_spans)
        merge_total = [s for s in spans if s["name"] == "campaign.merge_total"]
        campaign = {
            "shard_walls": [r.wall for r in batch.stages[0]],
            "wall": batch.wall,
            "merge_s": sum(s["end_ns"] - s["start_ns"]
                           for s in merge_total) / 1e9,
        }

    probe_spans = os.path.join(OUT, "probe_spans.jsonl")
    probe_trace = os.path.join(ctx.run_dir, "probe.trace")
    argv = [ctx.bins["perfbench_probe"], "layers",
            "--spec", wl.spec_arg(ctx.seed, ctx.calibration),
            "--slots", str(wl.slots),
            "--threads", str(wl.process_threads(ctx.cores)),
            "--par-slots", str(wl.par_slots),
            "--par-threads", str(ctx.cores),
            "--spans", probe_spans]
    if wl.trace_slots:
        argv += ["--trace-slots", str(wl.trace_slots),
                 "--trace-file", probe_trace]
    [probe] = harness.run_group([argv], ctx.deadline, ctx.run_dir, "probe")
    outcome.attempted += 1
    if probe.failure():
        outcome.failures.append({"failure": "probe: " + probe.failure(),
                                 "stderr": probe.stderr_tail})
        return outcome, None, {}
    with open(os.path.join(ctx.run_dir, "probe.0.out")) as f:
        counts = json.loads(f.read().strip().splitlines()[-1])
    spans += _read_spans(probe_spans)
    mismatch = _probe_mismatch(counts, report)
    if mismatch:
        outcome.failures.append({"failure": "probe: " + mismatch,
                                 "stderr": ""})
    if wl.trace_slots:
        counts["trace_bytes"] = os.path.getsize(probe_trace)
        outcome.check_extra(f"{wl.name}.trace",
                            workloads.file_digest(probe_trace))
    probe_only = [s for s in spans if s["run_id"] == "probe"]
    counts["spans"] = len(spans)
    metrics = layers.derive(counts, probe_only, report, campaign,
                            untraced_wall)
    span_file = os.path.join(
        OUT, "spans", f"{wl.name}-seed{ctx.seed}.jsonl")
    os.makedirs(os.path.dirname(span_file), exist_ok=True)
    with open(span_file, "w") as f:
        for s in spans:
            f.write(json.dumps(s, separators=(",", ":")) + "\n")
    return outcome, metrics, {"span_file": span_file, "counts": counts,
                              "self_time": _self_time_table(spans),
                              "untraced_wall_s": untraced_wall}


def _probe_mismatch(counts, report):
    """The probe replays unit 0 in-process; it must match the CLI."""
    st = report["units"][0]["stats"]
    for key in ("frames_sent", "delivered"):
        if counts.get(key) != st[key]:
            return (f"in-process {key} {counts.get(key)} != "
                    f"wilis_cli's {st[key]}")
    return None


def _self_time_table(spans):
    self_ns = stats.self_times(spans)
    table = {}
    for s in spans:
        total, own, n = table.get(s["name"], (0, 0, 0))
        table[s["name"]] = (total + s["end_ns"] - s["start_ns"],
                            own + self_ns[(s["run_id"], s["span_id"])],
                            n + 1)
    return {k: {"total_s": v[0] / 1e9, "self_s": v[1] / 1e9, "n": v[2]}
            for k, v in table.items()}


def _print_result(wl, seed, trace, outcome, metrics, detail, meta):
    print(f"perfbench {wl.name} seed={seed} trace={trace}")
    if metrics:
        units = (dict(END_TO_END) if not trace else layers.UNITS)
        for name, value in metrics.items():
            line = f"  {name:<34} {value:<14.6g} {units[name]}"
            d = detail.get(name) if not trace else None
            if d:
                tail = ("no percentile has >=10 samples beyond it"
                        if d["percentile"] is None else
                        f"p{d['percentile']:g} {d['percentile_value']:.6g}")
                line += f"   (median of n={d['n']}; {tail})"
            print(line)
        if not trace:
            print(f"  host steal        {detail['host_steal_share']:.2%} of "
                  f"CPU time; wall_s from {detail['batches_kept']} of "
                  f"{len(detail['walls'])} batches (those with <= "
                  f"{STEAL_MAX:.0%} steal when at least {MIN_CLEAN})")
    for line in outcome.lines():
        print(line)
    if trace and detail.get("self_time"):
        print("  span self time (s), largest first:")
        rows = sorted(detail["self_time"].items(),
                      key=lambda kv: -kv[1]["self_s"])
        for name, v in rows[:12]:
            print(f"    {name:<26} self {v['self_s']:<10.4f} total "
                  f"{v['total_s']:<10.4f} n={v['n']}")
        print(f"  spans -> {os.path.relpath(detail['span_file'], ROOT)}")
    print("meta: " + json.dumps(meta, sort_keys=True))


def run_one(wl, seed, seconds, trace, build_meta, pin):
    ctx = Context(build_meta["build_dir"], seed, wl, pin)
    if trace:
        outcome, metrics, detail = traced(ctx, seconds)
    else:
        outcome, metrics, detail = measure(ctx, seconds)
    meta = dict(build_meta)
    meta.update({"workload": wl.name, "seed": seed, "seconds": seconds,
                 "slots": wl.slots, "units": wl.reps,
                 "digest": outcome.digest(),
                 "failures": outcome.failures})
    meta.update({k: v for k, v in detail.items()
                 if k not in ("self_time",)})
    _print_result(wl, seed, trace, outcome, metrics, detail, meta)
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    with open(os.path.join(OUT, "results",
                           f"{wl.name}-seed{seed}-trace{trace}.json"),
              "w") as f:
        json.dump({"meta": meta, "metrics": metrics, "detail": detail}, f,
                  indent=1, sort_keys=True)
    return outcome, metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    ap.add_argument("--workload", required=True,
                    choices=[w.name for w in workloads.WORKLOADS] + ["all"])
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--build-dir",
                    default=os.path.join(ROOT, ".bench_build", "cmake"))
    ap.add_argument("--pin", action="store_true",
                    help="record the default seed's digests as the "
                         "reference (requires --seed default)")
    args = ap.parse_args(argv)

    build_dir = os.path.abspath(args.build_dir)
    err = harness.build(ROOT, build_dir, os.path.join(OUT, "build.log"))
    if err is not None:
        sys.stderr.write("perfbench: build failed:\n" + err)
        return 2
    meta = harness.provenance(build_dir)
    refusal = harness.provenance_refusal(meta)
    if refusal:
        sys.stderr.write(f"perfbench: refusing to report numbers: "
                         f"{refusal}\n")
        return 3
    meta["build_dir"] = build_dir

    chosen = (workloads.WORKLOADS if args.workload == "all"
              else (workloads.BY_NAME[args.workload],))
    attempted = failed = 0
    metrics = {}
    digests = {}
    for wl in chosen:
        outcome, m = run_one(wl, args.seed, args.seconds, args.trace, meta,
                             args.pin)
        attempted += outcome.attempted
        failed += outcome.failed
        digests[wl.name] = outcome.digest()
        digests.update(outcome.extra)
        if m is None:
            continue
        for k, v in m.items():
            key = k if len(chosen) == 1 else f"{wl.name}/{k}"
            metrics[key] = {"value": v,
                            "unit": (layers.UNITS if args.trace
                                     else dict(END_TO_END))[k]}
    if not metrics:
        sys.stderr.write("perfbench: no successful run to report\n")
        return 1
    if args.pin:
        if args.seed != workloads.DEFAULT_SEED or failed:
            sys.stderr.write("perfbench: --pin needs the default seed and "
                             "a clean run\n")
            return 1
        ref = {"seed": workloads.DEFAULT_SEED,
               "digests": dict(_reference(), **digests)}
        with open(REFERENCE, "w") as f:
            json.dump(ref, f, indent=2, sort_keys=True)
            f.write("\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
