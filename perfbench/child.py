"""One benchmark child process: generate input pairs, or run experiments.

    python3 child.py gen SPEC.json
    python3 child.py run SPEC.json

``SPEC.json`` is written by ``run.py``. ``gen`` writes one synthetic
``nodes.tsv``/``edges.tsv`` pair per job. ``run`` times ``import hybridcc``
plus ``prepare_dataset`` on the first config's pair (one set-up sample),
then calls ``run_experiment`` once per config in order, optionally with the
layer tracer installed, and writes what it measured to the spec's
``result`` path as JSON.

Only standard-library modules are imported before the set-up clock starts,
so the set-up sample covers the whole import of hybridcc and NumPy/SciPy.
"""

import gc
import json
import os
import resource
import sys
import time


def _blas_threads():
    """OpenBLAS thread count per loaded OpenBLAS library, read via ctypes."""
    import ctypes

    libs = set()
    with open("/proc/self/maps", encoding="utf-8") as handle:
        for line in handle:
            path = line.split()[-1]
            if "openblas" in os.path.basename(path).lower():
                libs.add(path)
    found = {}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                found[os.path.basename(path)] = getter()
                break
    return found


def _environment():
    import numpy as np
    import scipy

    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError):
        vendor = "unknown"
    try:
        threads = _blas_threads()
    except OSError:
        threads = {}
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_vendor": vendor,
        "blas_threads": threads,
    }


def generate(spec):
    from hybridcc.synthetic import generate_dataset, write_dataset

    for job in spec["jobs"]:
        write_dataset(job["out_dir"], generate_dataset(seed=job["seed"], **spec["data"]))


def _config(hybridcc, raw):
    cfg = {k: tuple(v) if isinstance(v, list) else v for k, v in raw.items()}
    return hybridcc.ExperimentConfig(**cfg)


def run(spec):
    start = time.perf_counter()
    import hybridcc
    from hybridcc.data import prepare_dataset

    first = _config(hybridcc, spec["configs"][0])
    dataset = prepare_dataset(
        first.nodes_path, first.edges_path,
        pca_components=first.pca_components,
        normalization=first.normalization,
    )
    setup_s = time.perf_counter() - start
    del dataset
    gc.collect()

    run_experiment = hybridcc.harness.run_experiment
    tracer = None
    if spec["trace"]:
        import tracing

        tracer = tracing.Tracer()
        run_experiment = tracer.install()

    calls = []
    for raw in spec["configs"]:
        config = _config(hybridcc, raw)
        stamps = []
        begin = time.perf_counter()
        results = run_experiment(config, progress=lambda _msg: stamps.append(time.perf_counter()))
        wall_s = time.perf_counter() - begin
        calls.append({
            "wall_s": wall_s,
            "stamps": [t - begin for t in stamps],
            "cells": [
                {"density": r.density, "trial": r.trial, "variant": r.variant,
                 "classifier": r.classifier, "accuracy": r.accuracy,
                 "degenerate": r.degenerate, "status": r.status}
                for r in results
            ],
        })

    out = {
        "setup_s": setup_s,
        "calls": calls,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": _environment(),
    }
    if tracer is not None:
        out["layers"] = tracer.layer_metrics()
        out["layer_self_s"] = tracer.layer_self_times()
        tracer.write(spec["trace_path"])
    return out


def main():
    mode, spec_path = sys.argv[1], sys.argv[2]
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    if mode == "gen":
        generate(spec)
        return
    out = run(spec)
    with open(spec["result"], "w", encoding="utf-8") as handle:
        json.dump(out, handle)


if __name__ == "__main__":
    main()
