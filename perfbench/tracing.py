"""Spans around the benchmark's calls into gwsearch, and what they add up to.

A span records one public call made from the benchmark's own files: its name
(``<module>.<function>``), start, end, parent span, the pass it belongs to
(the run id), and ``ru_maxrss`` right after the call returns.  Spans stay in
memory and are written out once, when the run ends.  A disabled tracer reads
no clock and keeps nothing: it hands out a throwaway record, so the untraced
run pays one empty dict per call.

A span's self time is its duration minus the time its child spans cover.
Library internals are not spanned, so a call's self time is its whole
duration; the benchmark's own work (output checks, file handling, the loop)
is the self time of its ``bench.*`` spans.  Self times therefore partition
the traced body time exactly.
"""

from __future__ import annotations

import json
import resource
import statistics
import time
from contextlib import contextmanager

# numeric span fields that are results of the call, summed per call name
COUNT_FIELDS = ("attempts", "nodes", "calls", "restarts", "evaluations",
                "jobs", "bytes", "samples")


def maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """Collects spans when enabled; ``run_id`` tags every span opened."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.run_id = None
        self.spans: list[dict] = []
        self._open: list[dict] = []
        self.start_maxrss_kb = maxrss_kb()

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield {}
            return
        rec = {"id": len(self.spans), "name": name, "run": self.run_id,
               "parent": self._open[-1]["id"] if self._open else None}
        self.spans.append(rec)
        self._open.append(rec)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()
            rec["maxrss_kb"] = maxrss_kb()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def self_times(spans: list[dict]) -> list[float]:
    covered = [0.0] * len(spans)
    for rec in spans:
        if rec["parent"] is not None:
            covered[rec["parent"]] += rec["end"] - rec["start"]
    return [rec["end"] - rec["start"] - c for rec, c in zip(spans, covered)]


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def summarize(spans: list[dict]) -> dict:
    """Per call name: count, total and self seconds, summed result counts.

    ``idle_frac`` (simulate_parallel) is averaged over the calls instead of
    summed; ``mu_method`` (theorem1_check) lists the methods seen.
    """
    table: dict[str, dict] = {}
    for rec, own in zip(spans, self_times(spans)):
        row = table.setdefault(rec["name"], {"count": 0, "s": 0.0, "self_s": 0.0})
        row["count"] += 1
        row["s"] += rec["end"] - rec["start"]
        row["self_s"] += own
        for key in COUNT_FIELDS:
            if key in rec:
                row[key] = row.get(key, 0) + rec[key]
        if "idle_frac" in rec:
            row.setdefault("idle_fracs", []).append(rec["idle_frac"])
        if "mu_method" in rec:
            methods = row.setdefault("mu_method", [])
            if rec["mu_method"] not in methods:
                methods.append(rec["mu_method"])
    for row in table.values():
        if "idle_fracs" in row:
            row["idle_frac"] = statistics.fmean(row.pop("idle_fracs"))
    return table


def layer_self_times(spans: list[dict]) -> dict[str, float]:
    out: dict[str, float] = {}
    for rec, own in zip(spans, self_times(spans)):
        layer = layer_of(rec["name"])
        out[layer] = out.get(layer, 0.0) + own
    return out


def rss_raised_mb(spans: list[dict], start_kb: int) -> dict[str, float]:
    """MB by which each layer's calls raised the process high-water mark.

    Spans are taken in the order they ended; the rise since the previous
    reading belongs to the span just ended (a parent's rise is what happened
    after its last child returned).  The layers' shares plus ``start_kb``
    give the final ``ru_maxrss``.
    """
    out: dict[str, float] = {}
    prev = start_kb
    for rec in sorted(spans, key=lambda r: r["end"]):
        rise = rec["maxrss_kb"] - prev
        if rise > 0:
            layer = layer_of(rec["name"])
            out[layer] = out.get(layer, 0.0) + rise / 1024.0
            prev = rec["maxrss_kb"]
    return out


def span_cost_s(reps: int = 20_000) -> float:
    """Seconds one enabled span costs, measured on empty spans."""
    tracer = Tracer(True)
    t0 = time.perf_counter()
    for _ in range(reps):
        with tracer.span("calibrate"):
            pass
    return (time.perf_counter() - t0) / reps
