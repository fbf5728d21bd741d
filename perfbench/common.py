"""Helpers shared by the batch and serve workloads of the benchmark."""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
EXPECTED_PATH = os.path.join(HERE, "expected.json")

#: Fresh-interpreter launches per set-up measurement, after one discarded
#: launch that warms the page cache and the bytecode cache.
SETUP_LAUNCHES = 8


#: The host's two vCPUs change speed independently of each other, so the
#: measured work -- a batch op, a set-up launch, the server -- and the
#: calibration sampler share WORK_CPU; the serve workload's client runs on
#: CLIENT_CPU.
_CPUS = sorted(os.sched_getaffinity(0))
WORK_CPU = _CPUS[0]
CLIENT_CPU = _CPUS[-1]


def pin(cpu: int) -> None:
    """Run this process on ``cpu`` only."""
    os.sched_setaffinity(0, {cpu})


def spawn(argv: list[str], **kwargs) -> subprocess.Popen:
    """Start a child on WORK_CPU, from the repository root, with the
    benchmark's (already pinned) environment and ``src`` importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return subprocess.Popen(
        argv, env=env, cwd=ROOT, text=True,
        preexec_fn=lambda: pin(WORK_CPU), **kwargs,
    )


def digest(*parts: str | bytes) -> str:
    """SHA-256 over length-prefixed parts (text hashed as UTF-8)."""
    h = hashlib.sha256()
    for part in parts:
        data = part.encode("utf-8") if isinstance(part, str) else part
        h.update(len(data).to_bytes(8, "little"))
        h.update(data)
    return h.hexdigest()


def load_expected() -> dict[str, dict[str, str]]:
    """Recorded output digests: ``{workload: {op key: sha256}}``."""
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in 0..100)."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: list[float]) -> float:
    return statistics.median(values)


def mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def measure_setup(
    cluster: str, seed: int, scale: float, calibration: Calibration
) -> dict[str, float]:
    """Fresh-interpreter set-up: ``import repro.api`` + ``load_preset``.

    Each launch is timed from spawning the interpreter until it reports
    the preset built; see :func:`setup_metrics`.  ``import_ms`` /
    ``preset_ms`` are the medians of the child's own split of that time.
    """
    probe = os.path.join(HERE, "setup_probe.py")
    argv = [sys.executable, probe, cluster, str(seed), repr(scale)]
    windows, imports, presets = [], [], []
    for launch in range(SETUP_LAUNCHES + 1):
        t0 = time.perf_counter()
        proc = spawn(argv, stdout=subprocess.PIPE)
        try:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
        finally:
            proc.stdout.close()
            proc.wait(timeout=60)
        if proc.returncode != 0 or not line:
            raise RuntimeError(f"set-up probe failed (rc={proc.returncode})")
        if launch == 0:
            continue
        report = json.loads(line)
        windows.append((t0, t1))
        imports.append(report["import_ms"])
        presets.append(report["preset_ms"])
    return {
        **setup_metrics(windows, calibration),
        "setup.import_ms": median(imports),
        "setup.preset_ms": median(presets),
    }


def setup_metrics(
    windows: list[tuple[float, float]], calibration: Calibration
) -> dict[str, float]:
    """``setup_s`` from the ``(start, end)`` instants of fresh launches.

    The median launch at reference speed: the scaling is coarse for one
    launch (the host's slow spells slow file reading and unmarshalling a
    little less than the kernel), the median over launches is not.  The
    raw median and fastest launch go on the info line.
    """
    raw = [t1 - t0 for t0, t1 in windows]
    return {
        "setup_s": median([calibration.scaled(*w) for w in windows]),
        "setup_raw_median_s": median(raw),
        "setup_raw_min_s": min(raw),
    }


class Calibration:
    """Converts wall time on WORK_CPU to the reference host speed.

    The host is shared: each vCPU, independently, spends spells of a fraction
    of a second to seconds running 40-70% slow, worst for memory-bound code
    (CPU time inflates exactly as wall time does, so no process-local clock
    avoids it).  A sampler process (``kernel.py``) pinned to WORK_CPU times a
    fixed kernel every few tens of milliseconds for the whole run, and
    :meth:`scaled` rescales any past interval by the host speed the samples
    inside it saw.  Use as a context manager: leaving it stops the sampler.
    """

    #: Kernel time on the reference box (2-vCPU x86-64 VM) outside slow
    #: spells; a scaled time is what the interval would take at that speed.
    REFERENCE_S = 0.00047

    def __init__(self) -> None:
        self._proc = spawn(
            [sys.executable, os.path.join(HERE, "kernel.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )

    def __enter__(self) -> Calibration:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """End the sampler and wait for it."""
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()

    def scaled(self, t0: float, t1: float) -> float:
        """Seconds from ``t0`` to ``t1`` (``perf_counter``), at reference speed.

        The interval is weighted by the mean of ``1 / kernel time`` over the
        samples in it: the work a stretch of wall time holds is inversely
        proportional to how slow the host ran during it.
        """
        self._proc.stdin.write(f"{t0!r} {t1!r}\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("calibration sampler ended")
        return (t1 - t0) * float(line.split()[0]) * self.REFERENCE_S


def peak_rss_mb_self() -> float:
    """Peak resident set size of this process, in MB."""
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_mb_of(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of a live process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")
