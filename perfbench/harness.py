"""Timing of single calls, failure accounting and percentile summaries.

A workload drives a Runner: every user-facing call goes through
Runner.op, which times the call alone, then checks its answer against an
oracle outside the timed region. A call that raises when it should
answer, answers wrongly, answers when it should refuse, or refuses with
the wrong error is a failure. Failures count in `failed` and rank slower
than every success in the percentiles of their class.

A call's time is the CPU time of the process while it runs
(time.process_time), not wall time: the benchmark is one thread doing
pure computation, so the two agree on an idle core, and CPU time leaves
out the time the process waited for a core on a shared host.
"""
from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from time import process_time

CLASSES = ("solve", "eval", "refuse")

#: marks the value of a call that raised or depended on one that did
FAILED = object()


@dataclass
class Sample:
    cls: str
    name: str
    seconds: float
    reason: str | None = None   # None for a pass
    pinned: str | None = None   # id of a known defect the input carries


@dataclass
class Runner:
    samples: list = field(default_factory=list)
    worst_residual: dict = field(default_factory=lambda: {"pcf": 0.0, "matfun": 0.0})
    oracle_s: float = 0.0
    probes: dict | None = None  # per-layer kernel probes, only when tracing

    @property
    def probing(self) -> bool:
        return self.probes is not None

    def probe(self, key, fn):
        """Time one direct call into a layer for its per-layer metric."""
        t0 = process_time()
        fn()
        self.probes[key] = self.probes.get(key, 0.0) + process_time() - t0

    def op(self, cls, name, fn, check=None, expect=None, pinned=None):
        """Time fn(); check its value (or its refusal) untimed.

        check(value) returns None or a failure reason. expect names the
        PcanonError subclass a refusal must raise. Returns the value, or
        FAILED when the call raised.
        """
        t0 = process_time()
        try:
            value, err = fn(), None
        except Exception as exc:  # any error is a result to check, not a crash
            value, err = FAILED, exc
        seconds = process_time() - t0
        t1 = process_time()
        if expect is not None:
            if err is None:
                reason = f"answered instead of raising {expect.__name__}"
            elif not isinstance(err, expect):
                reason = f"raised {type(err).__name__} instead of {expect.__name__}"
            else:
                reason = None
        elif err is not None:
            reason = f"raised {type(err).__name__}: {err}"
        elif check is not None:
            try:
                reason = check(value)
            except Exception as exc:  # a malformed answer is a failed call
                reason = f"answer could not be checked: {type(exc).__name__}: {exc}"
        else:
            reason = None
        self.oracle_s += process_time() - t1
        self.samples.append(Sample(cls, name, seconds, reason, pinned))
        return value

    def dependent(self, cls, name, upstream, fn, check=None, pinned=None):
        """Run fn unless the call it needs failed; then record a failure."""
        if upstream is FAILED:
            self.samples.append(Sample(cls, name, 0.0, "input call failed", pinned))
            return FAILED
        return self.op(cls, name, fn, check=check, pinned=pinned)

    def residual(self, layer, rel, tol, what):
        """Failure reason for a relative residual above tol, else None;
        passing residuals feed <layer>.worst_rel_residual."""
        if not rel <= tol:
            return f"{what}: relative residual {rel:.3g} above {tol:g}"
        self.worst_residual[layer] = max(self.worst_residual[layer], rel)
        return None


def fastest_of(rounds):
    """One sample per call from rounds that made the same calls on the same
    inputs: its fastest time, or its failure if any round failed. Bursts of
    load from other tenants of the machine (cache and memory contention,
    which CPU time still sees) only ever slow a call down."""
    out = []
    for group in zip(*(r.samples for r in rounds), strict=True):
        if any(s.name != group[0].name for s in group):
            raise RuntimeError("rounds made different calls")
        failed = next((s for s in group if s.reason), None)
        out.append(failed or min(group, key=lambda s: s.seconds))
    return out


def tail(sorted_values, beyond):
    """The highest nearest-rank percentile with `beyond` samples beyond it:
    its value and the percentile."""
    n = len(sorted_values)
    rank = max(1, n - beyond)
    return sorted_values[rank - 1], 100 * rank / n


def summarize(samples, window_s, beyond):
    """Per class: median, tail with `beyond` samples beyond it, counts.

    A failed sample takes the whole measurement window as its latency,
    so it ranks slower than every success.
    """
    out = {}
    for cls in CLASSES:
        mine = [s for s in samples if s.cls == cls]
        lat = sorted(window_s if s.reason else s.seconds for s in mine)
        entry = {"samples": len(lat), "failed": sum(1 for s in mine if s.reason)}
        if lat:
            entry["p50_s"] = statistics.median(lat)
            entry["tail_s"], entry["tail_pct"] = tail(lat, beyond)
        out[cls] = entry
    return out


def per_call_medians(samples):
    names = sorted({(s.cls, s.name) for s in samples})
    out = {}
    for cls, name in names:
        ok = [s.seconds for s in samples if s.name == name and s.cls == cls and not s.reason]
        n = sum(1 for s in samples if s.name == name and s.cls == cls)
        out[f"{cls}:{name}"] = {"attempted": n, "passed": len(ok),
                                "median_s": statistics.median(ok) if ok else None}
    return out
