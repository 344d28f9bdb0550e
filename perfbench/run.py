"""Benchmark of ``hybridcc.harness.run_experiment``, the function behind
``hybridcc run``, on seeded synthetic workloads.

    python3 perfbench/run.py --workload em_reg --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout; the program is imported from
``src/``. The seed fixes the generated ``nodes.tsv``/``edges.tsv`` pair and
the experiment master seeds of its inputs: input ``j`` of a run is the
graph generated with seed ``INPUT_STRIDE * seed + j`` and an experiment
with the same master seed. Generation is not timed, and each pair is
cached under ``perfbench/.cache`` by workload, size and seed.

Load shape: a closed loop with one client. Child processes run one after
another, each fresh, with BLAS pinned to one thread; each makes
``calls_per_child`` ``run_experiment`` calls in a row, one per input, and
the next call starts when the previous one ends, until the children have
run for ``--seconds``. Every call gets a new input, so one run averages
over many graphs and known-node samples, except that the second child
starts by repeating input 0: every run compares the reports of two
processes given the same input.

With ``--trace 0`` the last line of output holds the end-to-end metrics
(``BENCHMARK.json`` lists them; the rest are printed above it). With
``--trace 1`` children alternate untraced and traced (see ``tracing.py``),
all on the first ``calls_per_child`` inputs, and the last line holds the
per-layer metrics of the traced children plus the tracing overhead. Both
modes check the outputs: calls on the same input write byte-identical
``trials.csv`` and ``summary.csv`` and repeat accuracy and the degenerate
share exactly, the cell count is the grid size, and the reports agree with
the returned results. Any failed check or failed cell makes the exit code
non-zero. ``--smoke`` runs the small size of each workload, which the
benchmark's own test uses.

Everything a run writes stays under ``perfbench/``: the cached inputs, and
per run the child reports, traces and a ``result.json`` with the
environment, workload parameters, every metric and the checks.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CACHE = BENCH_DIR / ".cache"
OUT = BENCH_DIR / ".out"
CHILD = BENCH_DIR / "child.py"

# One run must end within 180 s: no child starts once DEADLINE_S would pass
# during it (judged by the previous child), and a child still running at
# KILL_S into the run is killed.
DEADLINE_S = 160.0
KILL_S = 175.0
# Input j of the run with seed s has seed INPUT_STRIDE * s + j; no run
# reaches this many inputs, so inputs of different runs never coincide.
INPUT_STRIDE = 1_000_000
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

END_TO_END_UNITS = {
    "setup_s": "s", "cells_per_s": "1/s", "cell_s.p50": "s", "cell_s.p90": "s",
    "accuracy.mean": "fraction", "degenerate_ratio": "fraction",
    "error_ratio": "fraction", "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    """The benchmark could not run or a child failed."""


def layer_unit(name: str) -> str:
    leaf = name.rsplit(".", 1)[-1]
    if leaf in ("s", "self_s", "trace_overhead_s"):
        return "s"
    if leaf in ("calls", "rounds"):
        return "count"
    if leaf == "edges_per_s":
        return "1/s"
    if leaf == "n_iter_mean":
        return "iterations"
    if leaf == "objective_mean":
        return "nats"
    return "fraction"


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def call_child(mode: str, spec: dict, workdir: Path, timeout: float):
    """Run ``child.py`` with ``spec``; raise BenchError on any failure."""
    workdir.mkdir(parents=True, exist_ok=True)
    spec_path = workdir / f"{mode}-spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    log_path = workdir / f"{mode}.log"
    with open(log_path, "w", encoding="utf-8") as log:
        try:
            proc = subprocess.run(
                [sys.executable, str(CHILD), mode, str(spec_path)],
                stdout=log, stderr=subprocess.STDOUT, env=child_env(),
                timeout=max(timeout, 1.0), check=False,
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} child timed out; log in {log_path}") from None
    if proc.returncode != 0:
        tail = log_path.read_text(encoding="utf-8").strip().splitlines()[-5:]
        raise BenchError(f"{mode} child exited {proc.returncode}: " + " | ".join(tail))


def ensure_inputs(workload, seeds: list[int], smoke: bool, timeout: float) -> dict:
    """Generate the workload's TSV pair for each seed unless cached (one
    child makes every missing pair); return each seed's directory."""
    targets = {seed: CACHE / workload.input_key(seed, smoke) for seed in seeds}
    missing = {seed: target for seed, target in targets.items()
               if not ((target / "edges.tsv").is_file() and (target / "nodes.tsv").is_file())}
    if not missing:
        return targets
    tmp = {seed: CACHE / f"{target.name}.tmp{os.getpid()}" for seed, target in missing.items()}
    work = CACHE / f"gen.tmp{os.getpid()}"
    for path in (*tmp.values(), work):
        shutil.rmtree(path, ignore_errors=True)
    call_child("gen", {"data": workload.data_params(smoke),
                       "jobs": [{"seed": seed, "out_dir": str(path)} for seed, path in tmp.items()]},
               work, timeout=timeout)
    shutil.rmtree(work)
    for seed, target in missing.items():
        shutil.rmtree(target, ignore_errors=True)
        os.replace(tmp[seed], target)
    return targets


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def percentile(values, q: int) -> float:
    """The q-th percentile, interpolated between closest ranks."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def check_reports(out_dir: Path, cells: list, densities) -> list[str]:
    """Compare trials.csv and summary.csv with the results the call returned."""
    problems = []
    with open(out_dir / "trials.csv", encoding="utf-8", newline="") as handle:
        rows = list(csv.DictReader(handle))
    if len(rows) != len(cells):
        return [f"trials.csv has {len(rows)} rows for {len(cells)} cells"]
    by_cell = defaultdict(list)
    for row, cell in zip(rows, cells):
        shown = "" if cell["accuracy"] is None else f"{cell['accuracy']:.4f}"
        if (row["variant"], row["classifier"], row["accuracy"], row["status"],
                row["degenerate"]) != (cell["variant"], cell["classifier"], shown,
                                       cell["status"], str(int(cell["degenerate"]))):
            problems.append(f"trials.csv row disagrees with result {cell}")
        if cell["status"] == "ok":
            by_cell[(cell["variant"], cell["classifier"], cell["density"])].append(
                cell["accuracy"])
    with open(out_dir / "summary.csv", encoding="utf-8", newline="") as handle:
        lines = [line for line in handle if not line.startswith("#")]
    for row in csv.DictReader(lines):
        for density in densities:
            accs = by_cell.get((row["variant"], row["classifier"], density), [])
            shown = row[f"mean_{density:g}"]
            # The mean is printed to four places. A mean on a rounding tie
            # may round either way, depending on the order of summation.
            if accs:
                expected = f"{statistics.fmean(accs):.4f}"
                ok = shown != "" and abs(float(shown) - statistics.fmean(accs)) <= 0.5e-4 + 1e-12
            else:
                expected = ""
                ok = shown == ""
            if not ok:
                problems.append(
                    f"summary.csv mean for {row['variant']}/{row['classifier']} "
                    f"at {density:g} is {shown!r}, expected {expected!r}")
    return problems


def input_order(per_child: int, trace: bool):
    """Input numbers per child, in the order the children run them."""
    if trace:
        while True:
            yield list(range(per_child))
    yield list(range(per_child))
    yield [0] + list(range(per_child, 2 * per_child - 1))
    following = 2 * per_child - 1
    while True:
        yield list(range(following, following + per_child))
        following += per_child


def run_children(workload, run_dir: Path, seed: int, seconds: float, trace: bool,
                 smoke: bool, started: float) -> tuple[list[dict], list[dict]]:
    """The closed loop; returns the children and their calls in run order.

    Untraced, children run until they have taken ``seconds`` together, at
    least two of them on at least two inputs. Traced, they alternate
    untraced and traced and stop after a traced one, at least one pair.
    """
    grid = workload.grid_params(smoke)
    children, calls = [], []
    measured = 0.0
    for k, inputs in enumerate(input_order(workload.calls_per_child, trace)):
        traced = trace and k % 2 == 1
        child_dir = run_dir / f"child{k}"
        seeds = [INPUT_STRIDE * seed + j for j in inputs]
        gen_begin = time.perf_counter()
        pairs = ensure_inputs(workload, seeds, smoke, KILL_S - (gen_begin - started))
        configs = [{**grid, "master_seed": s,
                    "nodes_path": str(pairs[s] / "nodes.tsv"),
                    "edges_path": str(pairs[s] / "edges.tsv"),
                    "output_dir": str(child_dir / f"input{j}")}
                   for j, s in zip(inputs, seeds)]
        spec = {"configs": configs, "trace": traced,
                "result": str(child_dir / "result.json"),
                "trace_path": str(child_dir / "trace.json")}
        begin = time.perf_counter()
        call_child("run", spec, child_dir, timeout=KILL_S - (begin - started))
        now = time.perf_counter()
        measured += now - begin
        result = json.loads((child_dir / "result.json").read_text(encoding="utf-8"))
        for j, call in zip(inputs, result.pop("calls")):
            call.update(traced=traced, dir=child_dir / f"input{j}", input=j)
            calls.append(call)
        result.update(traced=traced, dir=child_dir,
                      wall_s=sum(c["wall_s"] for c in calls[-len(inputs):]))
        children.append(result)
        if trace:
            enough = traced
        else:
            enough = len(children) >= 2 and len({c["input"] for c in calls}) >= 2
        next_child = (now - gen_begin) * (2 if trace else 1)
        if enough and (measured >= seconds or now - started + next_child > DEADLINE_S):
            return children, calls


def first_of_each_input(calls: list[dict]) -> list[dict]:
    seen = {}
    for call in calls:
        seen.setdefault(call["input"], call)
    return list(seen.values())


def check_calls(workload, children: list[dict], calls: list[dict], smoke: bool) -> list[str]:
    grid = workload.grid_params(smoke)
    expected = workload.expected_cells(smoke)
    problems = []
    reference = {c["input"]: c for c in first_of_each_input(calls)}
    digests = {j: {name: sha256(c["dir"] / name) for name in ("trials.csv", "summary.csv")}
               for j, c in reference.items()}
    for i, call in enumerate(calls):
        where = f"call {i} (input {call['input']})"
        if len(call["cells"]) != expected:
            problems.append(f"{where}: {len(call['cells'])} cells, grid has {expected}")
        if len(call["stamps"]) != len(call["cells"]):
            problems.append(f"{where}: {len(call['stamps'])} progress calls "
                            f"for {len(call['cells'])} cells")
        first = reference[call["input"]]
        for name, digest in digests[call["input"]].items():
            if sha256(call["dir"] / name) != digest:
                problems.append(f"{where}: {name} differs from the first call on that input")
        if quality(call["cells"]) != quality(first["cells"]):
            problems.append(f"{where}: accuracy.mean or degenerate_ratio differs "
                            "from the first call on that input")
        problems += [f"{where}: {p}" for p in
                     check_reports(call["dir"], call["cells"], grid["densities"])]
    traced = [c for c in children if c["traced"]]
    for child in traced[1:]:
        if counts(child["layers"]) != counts(traced[0]["layers"]):
            problems.append("per-layer counts differ between traced children")
    return problems


def quality(cells: list[dict]) -> tuple:
    """(accuracy.mean, degenerate_ratio) over the successful cells."""
    ok = [c for c in cells if c["status"] == "ok"]
    if not ok:
        return 0.0, 0.0
    return (statistics.fmean(c["accuracy"] for c in ok),
            sum(c["degenerate"] for c in ok) / len(ok))


def counts(layers: dict) -> dict:
    """Metrics that must repeat exactly: everything except times and rates."""
    return {k: v for k, v in layers.items() if layer_unit(k) not in ("s", "1/s")
            and not k.endswith("cv_share")}


def end_to_end(children: list[dict], calls: list[dict]) -> tuple[dict, dict]:
    """End-to-end metrics of the given (untraced) children and their calls,
    and their sample counts.

    Set-up time is the median over the children. Cells per second pools
    every call's cells and wall time. Cell latency pools every gap between
    consecutive ``progress`` calls; a call's first cell also holds its
    ``prepare_dataset`` and is left out.
    """
    gaps = [b - a for call in calls for a, b in zip(call["stamps"], call["stamps"][1:])]
    cells = sum(len(c["cells"]) for c in calls)
    acc, degenerate = quality([cell for c in first_of_each_input(calls) for cell in c["cells"]])
    errors = sum(c["status"] == "error" for call in calls for c in call["cells"])
    metrics = {
        "setup_s": statistics.median(c["setup_s"] for c in children),
        "cells_per_s": cells / sum(c["wall_s"] for c in calls),
        "cell_s.p50": statistics.median(gaps) if gaps else 0.0,
        "cell_s.p90": percentile(gaps, 90) if gaps else 0.0,
        "accuracy.mean": acc,
        "degenerate_ratio": degenerate,
        "error_ratio": errors / cells,
        "peak_rss_mb": max(c["peak_rss_mb"] for c in children),
    }
    samples = {"setup_s": len(children), "cells_per_s": len(calls),
               "cell_s": len(gaps), "peak_rss_mb": len(children)}
    return metrics, samples


def per_layer(children: list[dict], calls: list[dict]) -> dict:
    """Per-layer metrics: exact counts, median times over the traced children."""
    traced = [c for c in children if c["traced"]]
    plain = [c for c in children if not c["traced"]]
    metrics = dict(traced[0]["layers"])
    for key in metrics:
        if key not in counts(metrics):
            metrics[key] = statistics.median(c["layers"][key] for c in traced)
    e2e, _ = end_to_end(plain, [c for c in calls if not c["traced"]])
    for key in ("accuracy.mean", "degenerate_ratio", "error_ratio"):
        metrics[key] = e2e[key]
    metrics["bench.trace_overhead_s"] = (statistics.median(c["wall_s"] for c in traced)
                                         - statistics.median(c["wall_s"] for c in plain))
    return metrics


def unit_of(name: str) -> str:
    return END_TO_END_UNITS.get(name) or layer_unit(name)


def selected_metrics(all_metrics: dict, trace: bool) -> dict:
    """The metrics BENCHMARK.json names for this mode, with their units."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    out = {}
    for entry in spec["per_layer" if trace else "end_to_end"]:
        name = entry["name"]
        if name not in all_metrics or entry["unit"] != unit_of(name):
            raise BenchError(f"BENCHMARK.json names {name!r} in {entry['unit']!r}, "
                             "which the benchmark does not measure")
        out[name] = {"value": all_metrics[name], "unit": entry["unit"]}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="run the workload's small size (for the benchmark's test)")
    args = parser.parse_args(argv)
    started = time.perf_counter()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "hybridcc" / "__init__.py").is_file():
        print(f"benchmark: no hybridcc sources under {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    trace = bool(args.trace)
    run_id = f"{workload.name}{'-smoke' if args.smoke else ''}-seed{args.seed}-trace{args.trace}"
    run_dir = OUT / run_id
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        children, calls = run_children(workload, run_dir, args.seed, args.seconds,
                                       trace, args.smoke, started)
        problems = check_calls(workload, children, calls, args.smoke)
        e2e, samples = end_to_end([c for c in children if not c["traced"]],
                                  [c for c in calls if not c["traced"]])
        all_metrics = {**e2e, **per_layer(children, calls)} if trace else e2e
        shown = selected_metrics(all_metrics, trace)
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1

    attempted = sum(len(c["cells"]) for c in calls)
    failed = sum(c["status"] == "error" for call in calls for c in call["cells"])
    env = {"nproc": os.cpu_count(), "cpu_model": cpu_model(),
           "platform": platform.platform(), **children[0]["env"],
           "pinned_env": PINNED_ENV}
    record = {
        "workload": workload.describe(args.smoke), "seed": args.seed,
        "seconds": args.seconds, "trace": trace, "env": env,
        "children": len(children), "calls": len(calls),
        "inputs": len(first_of_each_input(calls)), "samples": samples,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in all_metrics.items()},
        "problems": problems,
        "traces": [str(c["dir"] / "trace.json") for c in children if c["traced"]],
    }
    if trace:
        record["layer_self_s"] = traced_self_times(children)
    (run_dir / "result.json").write_text(json.dumps(record, indent=1), encoding="utf-8")

    print(f"{run_id}: {len(children)} child processes, {len(calls)} calls of "
          f"run_experiment on {record['inputs']} inputs, {attempted} cells, "
          f"{failed} failed; nproc {env['nproc']}, {env['cpu_model']}, "
          f"python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"BLAS {env['blas_vendor']} threads {env['blas_threads']}")
    for name, value in e2e.items():
        print(f"  {name:<18} {value:.6g} {END_TO_END_UNITS[name]}")
    print(f"  samples: {samples}")
    if trace:
        for name, value in record["layer_self_s"].items():
            print(f"  self time {name:<14} {value:.4g} s")
        for name, entry in shown.items():
            print(f"  {name:<46} {entry['value']:.6g} {entry['unit']}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(f"  record: {run_dir / 'result.json'}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": shown}))
    return 0 if not problems and not failed else 1


def traced_self_times(children: list[dict]) -> dict:
    """Median self time per layer over the traced children, largest first."""
    traced = [c["layer_self_s"] for c in children if c["traced"]]
    layers = {k for t in traced for k in t}
    medians = {k: statistics.median(t.get(k, 0.0) for t in traced) for k in layers}
    return dict(sorted(medians.items(), key=lambda kv: -kv[1]))


if __name__ == "__main__":
    sys.exit(main())
