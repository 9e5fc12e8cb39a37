"""Run one CLI stage with spans recorded around the library calls it makes.

    python perfbench/traced_stage.py <spans.json> <run_id> <spawn_ns> \
        <stage> --config <cfg>

The program is not edited: before `hypermap.cli.main` runs, module
attributes that the stage looks up at call time are replaced by timing
wrappers. Spans (name, start, end, parent, run id, attributes) are kept
in memory and written to <spans.json> when the stage returns. `spawn_ns`
is the parent's wall clock just before it started this process, so the
`cli.startup` span covers interpreter start plus `import hypermap.cli`.
Needs `src` on PYTHONPATH.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time

import hypermap.cli as cli
from hypermap import endmember, mapping, mnf, ppi, spectral_match

# Interpreter start plus `import hypermap.cli` (which imports every module
# above) is the startup each stage process pays; wrappers come after it.
_IMPORTED_NS = time.time_ns()


class Tracer:
    """In-memory span recorder; parents come from a per-thread stack."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def record(self, name: str, start_ns: int, end_ns: int, parent=None) -> int:
        self.spans.append({"id": len(self.spans), "name": name, "start_ns": start_ns,
                           "end_ns": end_ns, "parent": parent,
                           "run_id": self.run_id, "attrs": {}})
        return len(self.spans) - 1

    def call(self, name: str, fn, args, kwargs, describe=None):
        stack = self._stack()
        span_id = self.record(name, time.time_ns(), 0, stack[-1] if stack else None)
        stack.append(span_id)
        try:
            result = fn(*args, **kwargs)
        finally:
            stack.pop()
            self.spans[span_id]["end_ns"] = time.time_ns()
        if describe is not None:
            self.spans[span_id]["attrs"].update(describe(args, kwargs, result))
        return result

    def wrap(self, module, attr: str, name: str, describe=None) -> None:
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, describe)

        setattr(module, attr, wrapper)


def _cube_dims(cube) -> dict:
    return {"pixels": cube.lines * cube.samples, "bands": cube.bands}


def _run_ppi_attrs(args, kwargs, result) -> dict:
    cube, params = args[0], args[1]
    k = kwargs.get("use_k_components") or cube.bands
    return {"pixels": cube.lines * cube.samples, "k": int(k),
            "iterations": params.n_iterations}


def _written_bytes(args, kwargs, result) -> dict:
    header_path = str(args[1])
    image_path = args[2] if len(args) > 2 else kwargs.get("image_path")
    image_path = str(image_path) if image_path else header_path[:-4] + ".img"
    return {"bytes": os.path.getsize(image_path) + os.path.getsize(header_path)}


# (module, attribute, span name, attribute extractor). Attributes are
# looked up at call time by the caller's module, so each entry names the
# module whose global the stage code actually calls.
def _targets():
    return (
        (cli, "read_cube", "envi_io.read_cube",
         lambda a, k, r: {"bytes": len(a[1])}),
        (cli, "write_cube_file", "envi_io.write_cube_file", _written_bytes),
        (cli, "scale_radiance", "preprocess.scale_radiance", None),
        (cli, "remove_bad_bands", "preprocess.remove_bad_bands", None),
        (cli, "reflectance_iarr", "preprocess.reflectance_iarr", None),
        (cli, "estimate_noise_covariance", "mnf.estimate_noise_covariance",
         lambda a, k, r: _cube_dims(a[0])),
        (cli, "fit_mnf", "mnf.fit_mnf", lambda a, k, r: _cube_dims(a[0])),
        (cli, "forward_mnf", "mnf.forward_mnf", lambda a, k, r: _cube_dims(a[1])),
        (cli, "save_mnf_model", "mnf.save_mnf_model", None),
        (cli, "run_ppi", "ppi.run_ppi", _run_ppi_attrs),
        (ppi, "spawned_gaussians", "numerics.spawned_gaussians", None),
        (mnf, "symmetric_eig", "numerics.symmetric_eig", None),
        (mapping, "symmetric_eig", "numerics.symmetric_eig", None),
        (cli, "derive_endmembers", "endmember.derive_endmembers", None),
        (endmember, "kmeans", "endmember.kmeans", lambda a, k, r: {"sse": float(r[2])}),
        (cli, "resample_library", "spectral_match.resample_library",
         lambda a, k, r: {"entries": len(r.entries)}),
        (cli, "rank_matches", "spectral_match.rank_matches",
         lambda a, k, r: {"pairs": len(r)}),
        (spectral_match, "continuum_remove", "spectral_match.continuum_remove", None),
        (cli, "sam_classify", "mapping.sam_classify", None),
        (cli, "mtmf", "mapping.mtmf", None),
        (cli, "generate", "synthcube.generate", None),
        (cli, "random_abundance_field", "synthcube.random_abundance_field", None),
    )


def main(argv: list[str]) -> int:
    spans_path, run_id, spawn_ns, stage_argv = argv[0], argv[1], int(argv[2]), argv[3:]
    tracer = Tracer(run_id)
    tracer.record("cli.startup", spawn_ns, _IMPORTED_NS)
    for module, attr, name, describe in _targets():
        tracer.wrap(module, attr, name, describe)
    try:
        return tracer.call(f"cli.{stage_argv[0]}", cli.main, (stage_argv,), {})
    finally:
        with open(spans_path, "w", encoding="utf-8") as fp:
            json.dump(tracer.spans, fp)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
