"""The benchmark's four workloads and their output checks.

Each workload is one batch command run as fresh processes through the
repository's own wilis_cli worker binary. `argvs()` returns the batch
as stages: each stage is a list of commands started together, and a
stage starts when the previous one has ended.
"""

import hashlib
import json
import os
from dataclasses import dataclass

# NetworkSpec's own default master seed (0xCE11): the seed a run gets
# when none is given, and the one reference.json pins digests for.
DEFAULT_SEED = 0xCE11


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    slots: int
    # Campaign replications (units); > 1 runs sharded processes.
    reps: int
    # Horizon of the traced run's 1-thread vs N-thread comparison.
    par_slots: int
    # Worker threads per process; 0 = one per core.
    threads: int = 0
    # Horizon of the traced run's packet-trace measurement (0 = none).
    trace_slots: int = 0

    @property
    def campaign(self):
        return self.reps > 1

    def spec_arg(self, seed, calibration):
        arg = f"{self.preset},net_seed={seed},calibration_file={calibration}"
        return arg + (f",reps={self.reps}" if self.campaign else "")

    def process_threads(self, cores):
        return self.threads or cores

    def argvs(self, bins, seed, calibration, cores, run_dir, slots=None,
              merge_spans=None):
        """The batch's stages, writing outputs under run_dir; with
        merge_spans, the merge also records its spans there."""
        slots = self.slots if slots is None else slots
        spec = self.spec_arg(seed, calibration)
        cli = [bins["wilis_cli"], "--network", spec, "--slots", str(slots),
               "--threads", str(self.process_threads(cores))]
        if not self.campaign:
            return [[cli + ["--report", report_path(run_dir)]]]
        n = min(cores, self.reps)
        shard_files = [os.path.join(run_dir, f"shard_{i}.json")
                       for i in range(n)]
        workers = [cli + ["--shard", f"{i}/{n}", "--report", shard_files[i]]
                   for i in range(n)]
        merge = [bins["perfbench_probe"], "merge"]
        if merge_spans:
            merge += ["--spans", merge_spans]
        merge += [report_path(run_dir), *shard_files]
        return [workers, [merge]]

    def user_slots(self, report):
        """users x slots x units of a finished run's report."""
        units = report["units"]
        return sum(u["users"] for u in units) * report["slots"]


WORKLOADS = (
    Workload(
        name="fullphy-campaign",
        preset="cell-16", slots=100, reps=16, par_slots=100, threads=1),
    Workload(
        name="dense10k-cold",
        preset="dense-urban-10k", slots=1600, reps=1, par_slots=400),
    Workload(
        name="mobile-grid",
        preset="urban-mobile", slots=200000, reps=1, par_slots=50000,
        trace_slots=40000),
)
BY_NAME = {w.name: w for w in WORKLOADS}


def report_path(run_dir):
    return os.path.join(run_dir, "report.json")


def report_digest(report):
    """sha256 over the report's exact unit and aggregate statistics
    (the config string, which holds checkout paths, is left out)."""
    body = {"units": report["units"], "aggregate": report.get("aggregate")}
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def file_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def check_report(wl, report, slots):
    """Structural checks of a finished run's report; returns a list of
    problems (empty when the report is sane)."""
    problems = []
    if report.get("kind") != "network":
        problems.append(f"kind {report.get('kind')!r}, want 'network'")
    if report.get("slots") != slots:
        problems.append(f"slots {report.get('slots')}, want {slots}")
    units = report.get("units", [])
    if report.get("units_total") != wl.reps or len(units) != wl.reps:
        problems.append(f"{len(units)} units, want {wl.reps}")
    for u in units:
        st = u["stats"]
        if not 0 < st["delivered"] <= st["frames_sent"]:
            problems.append(f"unit {u['unit']}: delivered "
                            f"{st['delivered']} of {st['frames_sent']}")
        engine = "full_phy_frames" if wl.campaign else "analytic_frames"
        if st[engine] != st["frames_sent"]:
            problems.append(f"unit {u['unit']}: {engine} {st[engine]} "
                            f"!= frames_sent {st['frames_sent']}")
    return problems


def output_digest(wl, run_dir, slots):
    """(digest, problems, report) of a finished batch's report."""
    with open(report_path(run_dir)) as f:
        report = json.load(f)
    return report_digest(report), check_report(wl, report, slots), report
