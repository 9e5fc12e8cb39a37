"""Staged-pipeline benchmark: one fresh CLI process per stage.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Set-up writes a seeded library, scene
endmembers and config (`hypermap init` plus overrides), generates the
scene with `hypermap synth` and, for workloads that resume mid-pipeline,
runs the upstream stages. The timed stage sequence is then repeated
until `--seconds` have passed, each stage in a fresh
`python -m hypermap.cli` process whose wall time, CPU time and peak RSS
come from `os.wait4`. Without tracing, set-up is repeated and its median
reported as `setup_s`; the timed repeats reuse the last set-up's scene.

Every run checks the science (see `checks.science`) and the determinism
contract: categorical artifacts must hash the same on every repeat,
across set-ups, and as recorded in `reference_hashes.json` for this
workload and seed (`--record` writes that entry).

With `--trace 1` the set-up and the second half of the repeats run
through `traced_stage.py`, which records spans around the library calls.
Per-layer metrics come from those spans, stage-level ones from the
untraced repeats, and the tracing overhead is the difference between the
traced and untraced medians of `pipeline_s`.

Metric names, units and order come from BENCHMARK.json at the repository
root. Human-readable lines come first; the last line of stdout is one
JSON object with keys `correct`, `attempted`, `failed` and `metrics`.
The exit code is 0 only when every stage succeeded and every check
passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import spans as spanlib
from workloads import COMMON_CONFIG, FULL_SEQUENCE, WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"
REFERENCE_PATH = HERE / "reference_hashes.json"
WORK_ROOT = ROOT / ".perfbench_work"

SETUP_REPEATS = 3
MIN_TIMED_REPEATS = 3
# One BLAS thread per stage process: timings then do not depend on how
# the machine's cores are shared, and BLAS reductions keep one order.
BLAS_THREADS = 1
# A stage process still running after this long is killed and counted as
# failed, so a hung stage cannot hold the run past its time limit.
STAGE_TIMEOUT_S = 120.0
# Work counts derived from sizes (flops from matrix shapes, bytes from
# file sizes) rather than measured; printed with a "(computed)" label.
COMPUTED_SUFFIXES = ("gflop", "calls_expected", "_bytes")
# Spans whose self time (duration minus time in child spans) is reported.
SELF_TIME_SPANS = ("ppi.run_ppi", "mnf.fit_mnf", "endmember.derive_endmembers",
                   "spectral_match.rank_matches", "mapping.mtmf")


@dataclass
class StageRecord:
    stage: str
    wall_s: float
    cpu_s: float
    rss_mb: float
    returncode: int
    write_bytes: int


class Bench:
    """One benchmark invocation: the workload, a count of the processes
    attempted and failed, and the environment every process gets."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(SRC)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(BLAS_THREADS)

    def spawn(self, argv: list[str], log: Path) -> tuple[float, float, float, int]:
        """Run argv to completion; returns (wall_s, cpu_s, maxrss_mb, code)."""
        self.attempted += 1
        with open(log, "ab") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=out,
                                    stderr=subprocess.STDOUT)
            watchdog = threading.Timer(STAGE_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        if code != 0:
            self.failed += 1
            print(f"{' '.join(argv[1:4])} ... exited {code}; log tail:\n{_tail(log)}",
                  file=sys.stderr)
        return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, code

    def stage(self, scene: Path, stage: str, spans: Path | None = None) -> StageRecord:
        cfg = str(scene / "default.cfg")
        if spans is None:
            argv = [sys.executable, "-m", "hypermap.cli", stage, "--config", cfg]
        else:
            spans.parent.mkdir(parents=True, exist_ok=True)
            argv = [sys.executable, str(HERE / "traced_stage.py"), str(spans),
                    spans.parent.name, str(time.time_ns()), stage, "--config", cfg]
        before = _snapshot(scene)
        wall, cpu, rss, code = self.spawn(argv, scene / "stages.log")
        written = sum(size for path, (mtime, size) in _snapshot(scene).items()
                      if before.get(path, (None, None))[0] != mtime)
        return StageRecord(stage, wall, cpu, rss, code, written)

    def stages(self, scene: Path, names, trace_dir: Path | None) -> list[StageRecord]:
        """Run stages in order, stopping at the first failure."""
        records = []
        for i, name in enumerate(names):
            spans = None if trace_dir is None else trace_dir / f"{i}_{name}.json"
            records.append(self.stage(scene, name, spans))
            if records[-1].returncode != 0:
                break
        return records

    def setup(self, scene: Path, traced: bool) -> tuple[float, list[StageRecord], bool]:
        """Generate inputs and scene into `scene`; returns (seconds, records, ok)."""
        w = self.workload
        if scene.exists():
            shutil.rmtree(scene)
        scene.mkdir(parents=True)
        log = scene / "stages.log"
        start = time.perf_counter()
        if self.spawn([sys.executable, "-m", "hypermap.cli", "init", "--out",
                       str(scene)], log)[3] != 0:
            return time.perf_counter() - start, [], False
        if self.spawn([sys.executable, str(HERE / "scene_inputs.py"), w.name,
                       str(self.seed), str(scene)], log)[3] != 0:
            return time.perf_counter() - start, [], False
        with open(scene / "default.cfg", "a", encoding="utf-8") as fp:
            fp.write(self.config_overrides())
        records = self.stages(scene, ("synth",) + w.setup_stages,
                              scene / "trace_setup" if traced else None)
        ok = len(records) == 1 + len(w.setup_stages) and records[-1].returncode == 0
        return time.perf_counter() - start, records, ok

    def config_overrides(self) -> str:
        w = self.workload
        keys = {"seed": self.seed, "synth_lines": w.lines, "synth_samples": w.samples}
        if not w.hyperion_tables:
            keys.update(band_mask_csv="", gains_csv="")
        keys.update(COMMON_CONFIG)
        keys.update(w.config)
        lines = ["", f"; --- benchmark workload {w.name} ---"]
        lines += [f"{k} = {v}" for k, v in keys.items()]
        return "\n".join(lines) + "\n"


def _snapshot(scene: Path) -> dict[str, tuple[int, int]]:
    out = {}
    for base in (scene, scene / "out", scene / "out" / "mnf_model"):
        if base.is_dir():
            for entry in os.scandir(base):
                if entry.is_file():
                    st = entry.stat()
                    out[entry.path] = (st.st_mtime_ns, st.st_size)
    return out


def _tail(path: Path, lines: int = 15) -> str:
    try:
        return "\n".join(path.read_text(errors="replace").splitlines()[-lines:])
    except OSError:
        return ""


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def environment(bench: Bench, scene: Path) -> dict:
    mem_bytes = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    image = scene / "scene.img"
    return {
        "workload": bench.workload.name, "seed": bench.seed,
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "machine": platform.machine(), "mem_total_mb": round(mem_bytes / 2**20),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "input_cube_bytes": image.stat().st_size if image.exists() else 0,
    }


def stage_table(reps: list[list[StageRecord]]) -> dict[str, dict[str, float]]:
    """Per stage: median wall, CPU, RSS and written bytes over the repeats."""
    out = {}
    for stage in {r.stage for rep in reps for r in rep}:
        recs = [r for rep in reps for r in rep if r.stage == stage]
        out[stage] = {"wall_s": _median(r.wall_s for r in recs),
                      "cpu_s": _median(r.cpu_s for r in recs),
                      "rss_mb": _median(r.rss_mb for r in recs),
                      "write_bytes": _median(r.write_bytes for r in recs)}
    return out


def layer_metrics(summary: dict[str, dict], read_by_stage) -> dict[str, float]:
    """Per-layer metrics of one traced stage sequence."""
    def s(name):
        return summary[name]["s"] if name in summary else 0.0

    def calls(name):
        return summary[name]["calls"] if name in summary else 0

    def attr(name, key):
        return summary[name]["attrs"].get(key, 0.0) if name in summary else 0.0

    m = {}
    stage_spans = [n for n in summary if n.startswith("cli.") and n != "cli.startup"]
    m["cli.startup_s"] = s("cli.startup") / max(calls("cli.startup"), 1)
    m["cli.self_s"] = sum(summary[n]["self_s"] for n in stage_spans)
    for stage in FULL_SEQUENCE:
        m[f"cli.{stage}.read_bytes"] = read_by_stage.get(stage, 0.0)

    m["envi_io.read_cube.s"] = s("envi_io.read_cube")
    m["envi_io.read_cube.calls"] = calls("envi_io.read_cube")
    m["envi_io.read_bytes"] = attr("envi_io.read_cube", "bytes")
    m["envi_io.write_cube_file.s"] = s("envi_io.write_cube_file")
    m["envi_io.write_bytes"] = attr("envi_io.write_cube_file", "bytes")
    for name in ("scale_radiance", "remove_bad_bands", "reflectance_iarr"):
        m[f"preprocess.{name}.s"] = s(f"preprocess.{name}")

    for name in ("estimate_noise_covariance", "fit_mnf", "forward_mnf", "save_mnf_model"):
        m[f"mnf.{name}.s"] = s(f"mnf.{name}")
    # Computed: matrix products only (noise and data covariances, forward
    # projection: 2 n b^2 each; whitening triple product and forward
    # matrix: 6 b^3). Eigensolves are counted under numerics.
    n = attr("mnf.estimate_noise_covariance", "pixels")
    b = attr("mnf.estimate_noise_covariance", "bands")
    m["mnf.gflop"] = (6.0 * n * b * b + 6.0 * b ** 3) / 1e9

    ppi_s = s("ppi.run_ppi")
    iterations = attr("ppi.run_ppi", "iterations")
    # Computed: one (pixels x k) by (k x skewers) product.
    m["ppi.projection_gflop"] = (2.0 * attr("ppi.run_ppi", "pixels")
                                 * attr("ppi.run_ppi", "k") * iterations / 1e9)
    m["ppi.run_ppi.s"] = ppi_s
    m["ppi.skewers_per_s"] = iterations / ppi_s if ppi_s else 0.0
    m["ppi.achieved_gflops"] = m["ppi.projection_gflop"] / ppi_s if ppi_s else 0.0

    m["numerics.spawned_gaussians.s"] = s("numerics.spawned_gaussians")
    m["numerics.spawned_gaussians.calls"] = calls("numerics.spawned_gaussians")
    m["numerics.symmetric_eig.s"] = s("numerics.symmetric_eig")
    m["numerics.symmetric_eig.calls"] = calls("numerics.symmetric_eig")

    m["endmember.derive_endmembers.s"] = s("endmember.derive_endmembers")
    m["endmember.kmeans.s"] = s("endmember.kmeans")
    m["endmember.kmeans_sse"] = attr("endmember.kmeans", "sse")

    rank_s = s("spectral_match.rank_matches")
    pairs = attr("spectral_match.rank_matches", "pairs")
    m["spectral_match.resample_library.s"] = s("spectral_match.resample_library")
    m["spectral_match.rank_matches.s"] = rank_s
    m["spectral_match.pairs_per_s"] = pairs / rank_s if rank_s else 0.0
    m["spectral_match.continuum_remove.s"] = s("spectral_match.continuum_remove")
    m["spectral_match.continuum_remove.calls"] = calls("spectral_match.continuum_remove")
    # Computed: the unknown and the reference are hull-fitted for every pair.
    m["spectral_match.continuum_remove.calls_expected"] = (
        2 * calls("spectral_match.rank_matches")
        * attr("spectral_match.resample_library", "entries"))

    m["mapping.sam_classify.s"] = s("mapping.sam_classify")
    m["mapping.mtmf.s"] = s("mapping.mtmf")
    m["mapping.mtmf.calls"] = calls("mapping.mtmf")
    for name in SELF_TIME_SPANS:
        m[f"{name}.self_s"] = summary[name]["self_s"] if name in summary else 0.0
    return m


def run(args, bench: Bench, work: Path) -> tuple[bool, dict, dict]:
    """Set up, repeat the timed sequence, check; returns (ok, metrics, printed)."""
    w = bench.workload
    traced = bool(args.trace)
    problems: list[str] = []
    metrics: dict[str, float] = {}
    scenes = [work / f"setup{i}" for i in range(1 if traced else SETUP_REPEATS)]

    setup_times, setup_records, scene_hashes = [], [], []
    for scene in scenes:
        seconds, records, ok = bench.setup(scene, traced)
        if not ok:
            problems.append("set-up failed")
            return False, metrics, {"problems": problems}
        setup_times.append(seconds)
        setup_records = records
        scene_hashes.append((checks.sha256(scene / "scene.img"),
                             checks.artifact_hashes(scene / "out")))
        if scene is not scenes[-1]:
            shutil.rmtree(scene)
    scene = scenes[-1]
    mismatches = sum(h != scene_hashes[0] for h in scene_hashes[1:])
    if mismatches:
        problems.append("set-ups of the same seed produced different scenes")
    env = environment(bench, scene)
    print("env " + json.dumps(env, sort_keys=True))

    untraced, traced_reps = [], []
    reference = None
    recorded = _load_reference().get(w.name, {}).get(str(args.seed))
    repeat_s: list[float] = []
    start = time.perf_counter()
    while True:
        # When the next repeat would end, so that a run stays within --seconds.
        ahead = time.perf_counter() - start + _median(repeat_s)
        if traced:
            use_trace = bool(untraced) and ahead > args.seconds / 2
            if traced_reps and ahead > args.seconds:
                break
        else:
            use_trace = False
            if len(untraced) >= MIN_TIMED_REPEATS and ahead > args.seconds:
                break
        trace_dir = work / "trace" / f"rep{len(traced_reps)}" if use_trace else None
        rep_start = time.perf_counter()
        records = bench.stages(scene, w.timed_stages, trace_dir)
        repeat_s.append(time.perf_counter() - rep_start)
        if records[-1].returncode != 0:
            problems.append(f"stage {records[-1].stage} failed")
            break
        (traced_reps if use_trace else untraced).append((records, trace_dir))
        hashes = checks.artifact_hashes(scene / "out")
        if reference is None:
            reference = recorded or hashes
            if recorded is None:
                print(f"no recorded hashes for {w.name} seed {args.seed}: "
                      "checking repeats against the first")
        mismatches += sum(hashes.get(k) != v for k, v in reference.items())
        mismatches += len(set(hashes) - set(reference))

    if not problems:
        found, facts = checks.science(w, scene)
        problems += found
    else:
        facts = {}
    if mismatches:
        problems.append(f"{mismatches} artifact hash mismatches")
    if args.record and not problems:
        _record_reference(w.name, args.seed, checks.artifact_hashes(scene / "out"))

    untraced_records = [r for r, _ in untraced]
    pipeline = [sum(r.wall_s for r in rep) for rep in untraced_records]
    metrics["pipeline_s"] = _median(pipeline)
    metrics["peak_rss_mb"] = _median(max(r.rss_mb for r in rep) for rep in untraced_records)
    metrics["setup_s"] = _median(setup_times)
    printed = {
        "problems": problems, "repeats": len(untraced_records),
        "traced_repeats": len(traced_reps),
        "failed_fraction": bench.failed / max(bench.attempted, 1),
        "artifact_mismatches": mismatches,
        "recovered_fraction": facts.get("recovered_fraction", 0.0),
        "stages": stage_table([setup_records] + untraced_records),
        "pipeline_per_repeat": pipeline, "setup_per_repeat": setup_times,
    }
    if not traced or not traced_reps:
        return not problems, metrics, printed

    summaries = []
    per_rep = []
    for records, trace_dir in traced_reps:
        spans = spanlib.load(trace_dir)
        summary = spanlib.summarize(spans)
        summaries.append(summary)
        per_rep.append(layer_metrics(summary, spanlib.read_bytes_by_stage(spans)))
    layer = {key: _median(rep[key] for rep in per_rep) for key in per_rep[0]}
    for stage, row in printed["stages"].items():
        for key, value in row.items():
            layer[f"cli.{stage}.{key}"] = value
    # Set-up stages (synth, and the upstream stages of a resumed workload)
    # were traced once during set-up.
    setup_spans = spanlib.load(scene / "trace_setup")
    setup_summary = spanlib.summarize(setup_spans)
    for name in ("generate", "random_abundance_field"):
        entry = setup_summary.get(f"synthcube.{name}")
        layer[f"synthcube.{name}.s"] = entry["s"] if entry else 0.0
    for stage, nbytes in spanlib.read_bytes_by_stage(setup_spans).items():
        layer[f"cli.{stage}.read_bytes"] = nbytes
    traced_pipeline = _median(sum(r.wall_s for r in records) for records, _ in traced_reps)
    layer["trace.overhead_s"] = traced_pipeline - metrics["pipeline_s"]
    layer["ppi.pure_hit_ratio"] = facts.get("pure_hit_ratio", 0.0)
    layer["spectral_match.match_margin"] = facts.get("match_margin", 0.0)
    layer["mapping.classified_fraction"] = facts.get("classified_fraction", 0.0)
    layer["science.recovered_fraction"] = facts.get("recovered_fraction", 0.0)
    printed["span_table"] = _span_table(summaries)
    printed["traced_pipeline_s"] = traced_pipeline
    metrics.update(layer)
    return not problems, metrics, printed


def _span_table(summaries: list[dict]) -> list[tuple[str, float, float, float]]:
    names = sorted({n for s in summaries for n in s})
    rows = []
    for name in names:
        present = [s[name] for s in summaries if name in s]
        rows.append((name, _median(e["calls"] for e in present),
                     _median(e["s"] for e in present), _median(e["self_s"] for e in present)))
    return sorted(rows, key=lambda r: -r[3])


def _load_reference() -> dict:
    if REFERENCE_PATH.exists():
        with open(REFERENCE_PATH, encoding="utf-8") as fp:
            return json.load(fp)
    return {}


def _record_reference(workload: str, seed: int, hashes: dict) -> None:
    data = _load_reference()
    data.setdefault(workload, {})[str(seed)] = hashes
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fp:
        json.dump(data, fp, indent=1, sort_keys=True)
        fp.write("\n")


def report(spec: dict, args, ok: bool, metrics: dict, printed: dict, bench: Bench) -> dict:
    """Print the human-readable lines; return the result object."""
    w = bench.workload
    print(f"workload {w.name} seed {args.seed}: {printed.get('repeats', 0)} untraced and "
          f"{printed.get('traced_repeats', 0)} traced repeats of "
          f"{' > '.join(w.timed_stages)}")
    for key in ("pipeline_per_repeat", "setup_per_repeat"):
        if printed.get(key):
            print(f"{key} = {' '.join(f'{v:.3f}' for v in printed[key])} s")
    if printed.get("stages"):
        print(f"  {'stage':<11}{'wall_s':>9}{'cpu_s':>9}{'rss_mb':>9}{'write_MB':>10}")
        for stage in ("synth",) + FULL_SEQUENCE:
            row = printed["stages"].get(stage)
            if row:
                print(f"  {stage:<11}{row['wall_s']:>9.3f}{row['cpu_s']:>9.3f}"
                      f"{row['rss_mb']:>9.1f}{row['write_bytes'] / 1e6:>10.2f}")
    for name in ("failed_fraction", "artifact_mismatches", "recovered_fraction"):
        if name in printed:
            unit = "count" if name == "artifact_mismatches" else "fraction"
            print(f"{name} = {printed[name]:.4g} {unit}")
    if printed.get("span_table"):
        print(f"  {'span (median per traced repeat)':<48}{'calls':>8}{'total_s':>10}"
              f"{'self_s':>10}")
        for name, calls, total, self_s in printed["span_table"]:
            print(f"  {name:<48}{calls:>8.0f}{total:>10.4f}{self_s:>10.4f}")
        print(f"tracing overhead = {printed['traced_pipeline_s']:.4f} s traced - "
              f"{metrics['pipeline_s']:.4f} s untraced")
    for problem in printed.get("problems", []):
        print(f"CHECK FAILED: {problem}")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    out = {}
    for entry in wanted:
        name = entry["name"]
        if name in metrics:
            out[name] = {"value": metrics[name], "unit": entry["unit"]}
            label = " (computed)" if name.endswith(COMPUTED_SUFFIXES) else ""
            print(f"{name} = {metrics[name]:.6g} {entry['unit']}{label}")
        elif ok:
            ok = False
            print(f"CHECK FAILED: metric {name} was not measured")
    return {"correct": ok, "attempted": bench.attempted, "failed": bench.failed,
            "metrics": out}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                        help="a workload, or 'all' to run each in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this run's artifact hashes as the reference")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "hypermap" / "cli.py").is_file():
        print(f"cannot find the program under {SRC}", file=sys.stderr)
        return 2
    with open(SPEC_PATH, encoding="utf-8") as fp:
        spec = json.load(fp)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    all_correct = True
    for name in names:
        bench = Bench(WORKLOADS[name], args.seed)
        work = WORK_ROOT / f"{name}-{args.seed}-{os.getpid()}"
        try:
            ok, metrics, printed = run(args, bench, work)
            result = report(spec, args, ok, metrics, printed, bench)
        finally:
            shutil.rmtree(work, ignore_errors=True)
            try:
                WORK_ROOT.rmdir()
            except OSError:
                pass
        print(json.dumps(result))
        all_correct = all_correct and result["correct"]
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
