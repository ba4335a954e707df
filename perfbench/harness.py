"""Shared plumbing: paths, environment fingerprint, statistics, oracles.

Nothing here imports the system under test at module load; ``repro``
is imported lazily so ``run.py`` can fail cleanly (non-zero exit, no
result line) in a directory that holds only the benchmark.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import subprocess
import sys
from typing import Dict, List, Optional, Sequence

import numpy as np

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
#: Every artefact a run writes (result files, traces, server inputs)
#: lives here; the directory is git-ignored.
OUT_DIR = os.path.join(BENCH_DIR, "_out")

#: HINT domain bits of every workload: the paper's m for TAXIS.
M = 17
DOMAIN = 1 << M


def ensure_source() -> None:
    """Put ``src`` on ``sys.path``; exit 2 when the program is missing."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def out_path(*parts: str) -> str:
    path = os.path.join(OUT_DIR, *parts)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    return path


# --------------------------------------------------------------------- #
# environment
# --------------------------------------------------------------------- #


def _git(*args: str) -> Optional[str]:
    try:
        proc = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True,
            timeout=20,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout if proc.returncode == 0 else None


def git_status() -> Optional[str]:
    """``git status --porcelain`` of the checkout, or None outside git."""
    return _git("status", "--porcelain")


def fingerprint(seed: int) -> Dict[str, object]:
    """What a comparison must hold fixed between two sets of runs."""
    import importlib.util

    from repro.kernels import ops as kernel_ops

    sha = _git("rev-parse", "HEAD")
    status = git_status()
    return {
        "git_sha": sha.strip() if sha else None,
        "git_dirty": None if status is None else bool(status.strip()),
        "nproc": os.cpu_count(),
        "kernel_backend": kernel_ops.kernel_backend(),
        "numba": importlib.util.find_spec("numba") is not None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": int(seed),
    }


#: Fingerprint keys that must match for two runs to be compared (the
#: sha, dirty flag and seed legitimately differ between the two sides).
COMPARABLE_KEYS = ("nproc", "kernel_backend", "numba", "python", "numpy")


def peak_rss_mb() -> float:
    """Peak resident set of this process, MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def stop_resource_tracker() -> None:
    """Stop this process's multiprocessing resource tracker and wait for it.

    The engine's shared-memory arena starts the tracker as a child
    process; left alone it outlives the benchmark until it notices its
    pipe closing.  Closing the pipe here (after every segment has been
    released) makes it exit now, and the call reaps it.
    """
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        stop()


def arena_segments() -> List[str]:
    from repro.engine import list_arena_segments

    return list_arena_segments()


# --------------------------------------------------------------------- #
# statistics
# --------------------------------------------------------------------- #


def median(values: Sequence[float]) -> float:
    return float(np.median(np.asarray(values, dtype=np.float64)))


def percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


# --------------------------------------------------------------------- #
# correctness oracles
# --------------------------------------------------------------------- #


class RankOracle:
    """Exact G-OVERLAPS counts from endpoint ranks.

    ``[s, e]`` overlaps ``[a, b]`` iff ``s <= b`` and ``e >= a``; the
    intervals with ``e < a`` are a subset of those with ``s <= b``, so
    ``count = #(s <= b) - #(e < a)`` — two ``searchsorted`` calls per
    query on the sorted endpoints of the live set.
    """

    def __init__(self, st: np.ndarray, end: np.ndarray, ids: np.ndarray):
        self.st = np.asarray(st, dtype=np.int64)
        self.end = np.asarray(end, dtype=np.int64)
        self.ids = np.asarray(ids, dtype=np.int64)
        self._sorted_st = np.sort(self.st)
        self._sorted_end = np.sort(self.end)

    def counts(self, q_st: np.ndarray, q_end: np.ndarray) -> np.ndarray:
        hi = np.searchsorted(self._sorted_st, q_end, side="right")
        lo = np.searchsorted(self._sorted_end, q_st, side="left")
        return (hi - lo).astype(np.int64)

    def ids_of(self, a: int, b: int) -> np.ndarray:
        """Brute-force scan: sorted ids overlapping ``[a, b]``."""
        mask = (self.st <= b) & (self.end >= a)
        return np.sort(self.ids[mask])


def ids_match(answer, expected: np.ndarray) -> bool:
    got = np.sort(np.asarray(answer, dtype=np.int64))
    return got.shape == expected.shape and bool(np.array_equal(got, expected))


# --------------------------------------------------------------------- #
# result
# --------------------------------------------------------------------- #


class Outcome:
    """Operation accounting behind ``ok_frac``, ``attempted``, ``failed``."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)

    def fail(self, count: int, what: str) -> None:
        self.attempted += count
        self.failed += count
        if len(self.notes) < 20:
            self.notes.append(what)

    @property
    def ok_frac(self) -> float:
        if not self.attempted:
            return 0.0
        return (self.attempted - self.failed) / self.attempted


def write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
