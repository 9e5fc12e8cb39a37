"""Output gate: artifact hashes and science checks on a finished run."""

from __future__ import annotations

import csv
import hashlib
from pathlib import Path

import numpy as np

from workloads import Workload

# Integer and categorical artifacts that must be byte-identical on every
# rerun of the same inputs and seed.
CATEGORICAL = ("ppi_counts.img", "pure_pixels.csv", "sam_class_map.img",
               "match_summary.csv", "report.csv")


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fp:
        for block in iter(lambda: fp.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def artifact_hashes(out: Path) -> dict[str, str]:
    names = list(CATEGORICAL)
    names += sorted(p.name for p in out.glob("match_class_*.csv"))
    return {name: sha256(out / name) for name in names if (out / name).exists()}


def _rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fp:
        return list(csv.DictReader(fp))


def _int32_image(out: Path, stem: str) -> np.ndarray:
    header = (out / f"{stem}.hdr").read_text(encoding="utf-8")
    keys = {}
    for line in header.splitlines():
        if "=" in line:
            key, value = line.split("=", 1)
            keys[key.strip().lower()] = value.strip()
    if keys.get("data type") != "3" or keys.get("byte order", "0") != "0":
        raise ValueError(f"{stem}.hdr: expected little-endian int32")
    data = np.fromfile(out / f"{stem}.img", dtype="<i4")
    return data.reshape(int(keys["lines"]), int(keys["samples"]))


def science(workload: Workload, scene: Path) -> tuple[list[str], dict[str, float]]:
    """Check the final artifacts; returns (problems, facts).

    Facts: `recovered_fraction` (planted minerals that are rank 1 for some
    class over those planted), `pure_hit_ratio` (selected pure candidates
    that are planted pure pixels over those selected), `match_margin`
    (smallest rank-1 minus rank-2 weighted score over classes) and
    `classified_fraction` (pixels given a class by SAM).
    """
    out = scene / "out"
    k = int(workload.config["endmember_k"])
    iterations = int(workload.config["ppi_iterations"])
    problems = []

    truth = _rows(out / "truth_pure_pixels.csv")
    planted = {r["endmember_name"] for r in truth}
    planted_at = {(int(r["line"]), int(r["sample"])) for r in truth}
    if len(planted) != workload.endmembers:
        problems.append(f"{len(planted)} minerals planted, expected {workload.endmembers}")

    with open(scene / "library.csv", encoding="utf-8") as fp:
        library_names = set(fp.readline().strip().split(",")[1:])
    report = _rows(out / "report.csv")
    if [int(r["class_id"]) for r in report] != list(range(1, k + 1)):
        problems.append(f"report.csv does not list classes 1..{k}")
    if any(r["top_mineral"] not in library_names for r in report):
        problems.append("report.csv names a mineral missing from the library")
    top = {r["top_mineral"] for r in _rows(out / "match_summary.csv")}

    counts = _int32_image(out, "ppi_counts")
    if counts.min() < 0 or counts.max() > 2 * iterations:
        problems.append("ppi_counts outside [0, 2 * iterations]")
    if int(counts.sum()) < 2 * iterations:
        problems.append("ppi_counts total below one max and one min per skewer")

    selected = [(int(r["line"]), int(r["sample"])) for r in _rows(out / "pure_pixels.csv")]
    if len(selected) < k:
        problems.append(f"only {len(selected)} pure candidates for {k} classes")

    class_map = _int32_image(out, "sam_class_map")
    if class_map.min() < 0 or class_map.max() > k:
        problems.append(f"sam_class_map values outside 0..{k}")

    margins = []
    for cid in range(1, k + 1):
        ranks = _rows(out / f"match_class_{cid}.csv")
        margins.append(float(ranks[0]["weighted"]) - float(ranks[1]["weighted"]))
        if ranks[0]["mineral"] != report[cid - 1]["top_mineral"]:
            problems.append(f"class {cid}: report and ranking disagree on rank 1")

    recovered = len(planted & top) / len(planted)
    # A weak floor: which planted minerals are recovered varies by seed,
    # but matching that recovers none of them is broken.
    if recovered == 0:
        problems.append("no planted mineral is rank 1 for any class")
    facts = {
        "recovered_fraction": recovered,
        "pure_hit_ratio": sum(p in planted_at for p in selected) / max(len(selected), 1),
        "match_margin": min(margins),
        "classified_fraction": float(np.count_nonzero(class_map)) / class_map.size,
    }
    return problems, facts
