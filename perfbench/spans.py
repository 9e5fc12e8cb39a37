"""Aggregate the spans written by `traced_stage.py`."""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path


def load(trace_dir: Path) -> list[dict]:
    """All spans of one traced stage sequence; ids made unique per file."""
    spans = []
    for path in sorted(trace_dir.glob("*.json")):
        with open(path, encoding="utf-8") as fp:
            records = json.load(fp)
        for span in records:
            span["id"] = (path.name, span["id"])
            if span["parent"] is not None:
                span["parent"] = (path.name, span["parent"])
            span["stage"] = path.stem.split("_", 1)[1]
        spans.extend(records)
    return spans


def _covered_ns(start: int, end: int, intervals: list[tuple[int, int]]) -> int:
    """Length of the part of [start, end] covered by the union of intervals."""
    covered, cursor = 0, start
    for s, e in sorted(intervals):
        s, e = max(s, cursor), min(e, end)
        if e > s:
            covered += e - s
            cursor = e
    return covered


def summarize(spans: list[dict]) -> dict[str, dict]:
    """Per span name: calls, total seconds, self seconds and summed attributes.

    Self time is a span's duration minus the part of its interval that its
    child spans cover.
    """
    children = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append((span["start_ns"], span["end_ns"]))
    out: dict[str, dict] = defaultdict(
        lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "attrs": defaultdict(float)})
    for span in spans:
        entry = out[span["name"]]
        dur = span["end_ns"] - span["start_ns"]
        covered = _covered_ns(span["start_ns"], span["end_ns"], children[span["id"]])
        entry["calls"] += 1
        entry["s"] += dur / 1e9
        entry["self_s"] += (dur - covered) / 1e9
        for key, value in span["attrs"].items():
            entry["attrs"][key] += value
    return out


def read_bytes_by_stage(spans: list[dict]) -> dict[str, float]:
    """Cube payload bytes read per stage (from `envi_io.read_cube` spans)."""
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        if span["name"] == "envi_io.read_cube":
            totals[span["stage"]] += span["attrs"]["bytes"]
    return totals
