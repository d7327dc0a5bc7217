"""Measurement plumbing shared by every workload: spans, order statistics,
the drift loop and its in-call probe (also inside worker processes), CPU
time, peak RSS and the environment fingerprint.

Nothing here imports :mod:`repro` at module level, so the orchestrator can
refuse a bad environment before the program is loaded.
"""

from __future__ import annotations

import functools
import hashlib
import json
import multiprocessing
import os
import platform
import resource
import signal
import statistics
import subprocess
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from importlib import metadata
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: Knobs that change what the program does (fault injection, supervision,
#: dispatch policy, ambient store).  The benchmark refuses to run under them.
FORBIDDEN_KNOBS = (
    "REPRO_FAULTS",
    "REPRO_TIMEOUT",
    "REPRO_RETRIES",
    "REPRO_ENGINE",
    "REPRO_STORE",
    "REPRO_STORE_DIR",
)

#: Iterations of the fixed pure-Python drift loop; timed between instances,
#: outside the timed region.
REF_LOOP_ITERATIONS = 5000
#: Drift-corrected times are seconds at this drift-loop time.  On the 2-vCPU
#: Xeon guest the benchmark was tuned on, the loop took 0.28-0.5 ms.
REF_NOMINAL_S = 5e-4
#: Seconds between drift-loop samples the probe takes inside a timed call.
PROBE_INTERVAL_S = 0.02
#: Room for drift-loop samples taken in worker processes between two reads
#: (one cold sweep's two workers take about 150).
WORKER_SAMPLE_CAP = 1 << 15


def forbidden_knobs() -> List[str]:
    return [name for name in FORBIDDEN_KNOBS if name in os.environ]


def ref_loop() -> float:
    """Seconds taken by a fixed pure-Python loop: a machine-speed probe."""

    start = time.perf_counter()
    acc = 0
    for i in range(REF_LOOP_ITERATIONS):
        acc += i * i % 7
    return time.perf_counter() - start


class DriftProbe:
    """Samples the drift loop from a timer signal while armed, so machine
    speed is also sampled during long calls.  :meth:`clock` is
    ``perf_counter`` minus the time the probe itself took, so a call timed
    on it is not billed for the probe."""

    def __init__(self, samples: List[float]) -> None:
        self.samples = samples
        self.taken = 0.0

    def clock(self) -> float:
        return time.perf_counter() - self.taken

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(ref_loop())
        self.taken += time.perf_counter() - start

    @contextmanager
    def armed(self) -> Iterator[None]:
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


# --------------------------------------------------------------------------- #
# Spans
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class Span:
    trace_id: str
    span_id: int
    parent_id: Optional[int]
    name: str
    start: float
    end: float


class Tracer:
    """In-memory span recorder; spans are written out once, at the end.

    Spans are recorded only while ``enabled``, so untraced rounds read no
    extra clock.  ``clock`` times them (a :class:`DriftProbe`'s clock, so
    spans are not billed for the probe).
    """

    def __init__(self) -> None:
        self.enabled = False
        self.clock: Callable[[], float] = time.perf_counter
        self.spans: List[Span] = []
        self.trace_id = ""
        self._stack: List[int] = []
        self._next_id = 0

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = self.clock()
        try:
            yield
        finally:
            end = self.clock()
            self._stack.pop()
            self.spans.append(Span(self.trace_id, span_id, parent, name, start, end))

    def wrap(self, name: str, fn: Callable, sink: Optional[list] = None) -> Callable:
        """*fn* inside a span called *name* (while enabled); every call is
        also captured into *sink*."""

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if sink is not None:
                sink.append((name, args, kwargs, result))
            return result

        return wrapped

    def self_times(self, trace_id: str) -> Dict[str, float]:
        """Per span name: total duration minus the time its child spans cover."""

        spans = [s for s in self.spans if s.trace_id == trace_id]
        child_time: Dict[int, float] = {}
        for s in spans:
            if s.parent_id is not None:
                child_time[s.parent_id] = child_time.get(s.parent_id, 0.0) + s.end - s.start
        out: Dict[str, float] = {}
        for s in spans:
            out[s.name] = out.get(s.name, 0.0) + (s.end - s.start) - child_time.get(s.span_id, 0.0)
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")


@contextmanager
def patched(owner: object, replacements: Dict[str, Callable]) -> Iterator[None]:
    """Temporarily replace attributes of a module or class."""

    saved = {attr: getattr(owner, attr) for attr in replacements}
    for attr, value in replacements.items():
        setattr(owner, attr, value)
    try:
        yield
    finally:
        for attr, value in saved.items():
            setattr(owner, attr, value)


# --------------------------------------------------------------------------- #
# Order statistics
# --------------------------------------------------------------------------- #
def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def tail(samples: Sequence[float], min_samples: int) -> Optional[Tuple[float, float]]:
    """``(value, percentile)`` at the highest percentile that has ten samples
    beyond it in every run, i.e. already with *min_samples* samples.

    The percentile depends on *min_samples* alone, so a run that fits more
    rounds reads the same percentile.  ``None`` when *min_samples* is ten
    or fewer.
    """

    if min_samples <= 10:
        return None
    rank = min_samples - 10
    ordered = sorted(samples)
    index = -(-rank * len(ordered) // min_samples) - 1  # nearest rank, in integers
    return ordered[index], 100.0 * rank / min_samples


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


# --------------------------------------------------------------------------- #
# Resources and environment
# --------------------------------------------------------------------------- #
def rss_mb() -> float:
    """This process's resident set now."""

    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2.0 ** 20


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def user_seconds() -> float:
    """User-mode CPU time of this process and of the children it has waited
    for: neither the kernel's share of file writes, nor time blocked on
    I/O, nor (with paravirtual steal accounting) time the host takes."""

    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + children.ru_utime


class WorkerProbe:
    """What forked worker processes report back through shared memory: the
    largest growth of one worker's peak RSS beyond its resident set when it
    first ran a wrapped call, and the drift-loop samples a
    :class:`DriftProbe` takes inside every wrapped call.  Create it before
    the workers fork.

    Beside busy workers a probe in the dispatching process would time
    contention; inside them it times the processors doing the work.
    """

    def __init__(self) -> None:
        self.parent = os.getpid()
        self.growth = multiprocessing.Value("d", 0.0)
        self.samples = multiprocessing.Array("d", WORKER_SAMPLE_CAP, lock=False)
        self.count = multiprocessing.Value("l", 0)
        self._start: Dict[int, float] = {}

    def wrap(self, fn: Callable) -> Callable:
        """*fn*, probed when it runs in a worker; calls in this process are
        passed through."""

        @functools.wraps(fn)
        def probed(*args, **kwargs):
            pid = os.getpid()
            if pid == self.parent:
                return fn(*args, **kwargs)
            if pid not in self._start:
                self._start[pid] = rss_mb()
            drift: List[float] = []
            try:
                with DriftProbe(drift).armed():
                    return fn(*args, **kwargs)
            finally:
                self._report(own_peak_rss_mb() - self._start[pid], drift)

        return probed

    def _report(self, growth: float, drift: List[float]) -> None:
        with self.growth.get_lock():
            self.growth.value = max(self.growth.value, growth)
        with self.count.get_lock():
            n = self.count.value
            kept = drift[: WORKER_SAMPLE_CAP - n]
            self.samples[n: n + len(kept)] = kept
            self.count.value = n + len(kept)

    def take(self) -> List[float]:
        """The samples reported since the last call (none is in flight)."""

        with self.count.get_lock():
            taken = self.samples[: self.count.value]
            self.count.value = 0
        return taken


def _filesystem_of(path: Path) -> str:
    try:
        with open("/proc/mounts") as fh:
            mounts = [line.split()[1:3] for line in fh if len(line.split()) > 2]
    except OSError:
        return "unknown"
    target = str(path.resolve())
    best, fstype = "", "unknown"
    for point, kind in mounts:
        inside = target == point or target.startswith(point.rstrip("/") + "/")
        if inside and len(point) > len(best):
            best, fstype = point, kind
    return fstype


def _version(dist: str) -> Optional[str]:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def _commit(root: Path) -> Optional[str]:
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def source_digest(src: Path) -> str:
    """SHA-256 over the program's sources: identifies the code without git."""

    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def fingerprint(root: Path, store_dir: Path, vector_backend: str) -> Dict[str, object]:
    return {
        "commit": _commit(root),
        "source_sha256": source_digest(root / "src"),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "vector_backend": vector_backend,
        "repro_env": {k: v for k, v in sorted(os.environ.items()) if k.startswith("REPRO_")},
        "store_fs": _filesystem_of(store_dir),
    }
