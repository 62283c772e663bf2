"""Build, provenance and process execution for the benchmark.

Every process the benchmark starts goes through run_group(): it is
spawned directly (no shell), timed from spawn to reap by a waiter
thread blocked in wait4(), and killed and reaped if the run's deadline
passes, so nothing outlives the benchmark.
"""

import glob
import os
import re
import signal
import subprocess
import threading
import time
from dataclasses import dataclass

# Build types that measure the program users run.
OPTIMIZED_BUILD_TYPES = ("Release", "RelWithDebInfo")
# Target -> path in the build tree (the repository's targets build in
# the "wilis" subdirectory perfbench/CMakeLists.txt adds).
BINARIES = {"wilis_cli": "wilis/wilis_cli",
            "perfbench_probe": "perfbench_probe"}


def nproc():
    return len(os.sched_getaffinity(0))


def build(root, build_dir, log_path):
    """Configure (once) and build the benchmark's targets. Returns None
    on success, else the tail of the build log."""
    os.makedirs(os.path.dirname(log_path), exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"),
                      "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j", str(nproc()),
                  "--target", *BINARIES])
    with open(log_path, "w") as log:
        for cmd in steps:
            rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                cwd=root).returncode
            if rc != 0:
                break
    if rc == 0:
        return None
    with open(log_path) as f:
        return "".join(f.readlines()[-20:])


def binaries(build_dir):
    return {t: os.path.join(build_dir, p) for t, p in BINARIES.items()}


def read_cmake_cache(path):
    cache = {}
    with open(path) as f:
        for line in f:
            m = re.match(r"^([A-Za-z_0-9]+):[A-Z]+=(.*)$", line.rstrip("\n"))
            if m:
                cache[m.group(1)] = m.group(2)
    return cache


def _compiler(build_dir):
    """'<id> <version>' from CMake's compiler probe, if present."""
    for path in glob.glob(os.path.join(build_dir, "CMakeFiles", "*",
                                       "CMakeCXXCompiler.cmake")):
        with open(path) as f:
            text = f.read()
        cid = re.search(r'CMAKE_CXX_COMPILER_ID "([^"]*)"', text)
        ver = re.search(r'CMAKE_CXX_COMPILER_VERSION "([^"]*)"', text)
        if cid and ver:
            return f"{cid.group(1)} {ver.group(1)}"
    return "unknown"


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def provenance(build_dir):
    cache = read_cmake_cache(os.path.join(build_dir, "CMakeCache.txt"))
    return {
        "cpu": _cpu_model(),
        "nproc": nproc(),
        "compiler": _compiler(build_dir),
        "cxx": cache.get("CMAKE_CXX_COMPILER", ""),
        "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
        "wilis_asan": cache.get("WILIS_ASAN", "OFF"),
        "wilis_tsan": cache.get("WILIS_TSAN", "OFF"),
    }


def _on(flag):
    return flag.upper() in ("ON", "1", "TRUE", "YES", "Y")


def provenance_refusal(meta):
    """Why numbers from this build must not be reported, or None."""
    if meta["build_type"] not in OPTIMIZED_BUILD_TYPES:
        return (f"CMAKE_BUILD_TYPE is '{meta['build_type']}', not one of "
                f"{', '.join(OPTIMIZED_BUILD_TYPES)}")
    for key in ("wilis_asan", "wilis_tsan"):
        if _on(meta[key]):
            return f"{key.upper()} is {meta[key]}: a sanitizer build"
    return None


@dataclass
class ProcResult:
    argv: list
    start: float = 0.0
    end: float = 0.0
    status: int = 0
    maxrss_kb: int = 0
    timed_out: bool = False
    spawn_error: str = ""
    stderr_tail: str = ""

    @property
    def wall(self):
        return self.end - self.start

    def failure(self):
        """None on success, else why the process failed."""
        if self.spawn_error:
            return f"could not start: {self.spawn_error}"
        if self.timed_out:
            return "timed out"
        if os.WIFSIGNALED(self.status):
            return f"killed by signal {os.WTERMSIG(self.status)}"
        if os.WIFEXITED(self.status) and os.WEXITSTATUS(self.status):
            return f"exit status {os.WEXITSTATUS(self.status)}"
        return None


def _tail(path, lines=8):
    try:
        with open(path, errors="replace") as f:
            return "".join(f.readlines()[-lines:]).strip()
    except OSError:
        return ""


def run_group(argvs, deadline, log_dir, tag):
    """Run argvs concurrently; return their ProcResults when all have
    ended, killing any still running at the deadline (a monotonic
    time). stdout/stderr go to files under log_dir."""
    results = [ProcResult(argv=list(a)) for a in argvs]
    pids = []
    threads = []

    def reap(i, pid):
        _, status, ru = os.wait4(pid, 0)
        results[i].end = time.perf_counter()
        results[i].status = status
        results[i].maxrss_kb = ru.ru_maxrss

    try:
        for i, argv in enumerate(argvs):
            out = os.path.join(log_dir, f"{tag}.{i}.out")
            err = os.path.join(log_dir, f"{tag}.{i}.err")
            actions = [
                (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
                (os.POSIX_SPAWN_OPEN, 1, out,
                 os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
                (os.POSIX_SPAWN_OPEN, 2, err,
                 os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
            ]
            results[i].start = time.perf_counter()
            try:
                pid = os.posix_spawn(argv[0], argv, os.environ,
                                     file_actions=actions)
            except OSError as e:
                results[i].spawn_error = str(e)
                continue
            pids.append(pid)
            t = threading.Thread(target=reap, args=(i, pid), daemon=True)
            t.start()
            threads.append((i, t))
    finally:
        for (i, t), pid in zip(threads, pids):
            t.join(max(0.0, deadline - time.monotonic()))
            if t.is_alive():
                results[i].timed_out = True
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                t.join()
    for i, r in enumerate(results):
        if r.failure():
            r.stderr_tail = _tail(os.path.join(log_dir, f"{tag}.{i}.err"))
    return results
