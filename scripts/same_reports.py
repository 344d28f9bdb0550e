#!/usr/bin/env python3
"""Check that two source trees write byte-identical reports.

    python3 scripts/same_reports.py OLD_SRC NEW_SRC [--em-reg 12] [--ica-large 3]

``OLD_SRC`` and ``NEW_SRC`` are the ``src`` directories of two checkouts.
The inputs are generated once, by ``OLD_SRC``'s generator:

* ``--em-reg`` graphs of the benchmark's ``em_reg`` shape, each run with
  that workload's grid;
* ``--ica-large`` graphs of the ``ica_large`` shape, with its grid;
* one graph of the ``em_reg`` shape but with 10 classes, run with that
  workload's grid, so that the check reaches rows of 8 or more class
  columns, which no other input has;
* the paper-shaped graph ``generate_dataset(2708, 7, 0.81, 0.3, 11,
  avg_degree=3.9, attr_dim=100)``, run for one trial at density 0.03 with
  all 7 variants x 5 classifier kinds, default CV grids, master seed 3.

Each graph's seed is also its experiment's master seed. Then each tree runs
every grid in one fresh process, writing ``trials.csv`` and
``summary.csv`` per input under ``WORK/old`` and ``WORK/new``. The exit
status is 0 when every pair of reports is byte-identical, 1 when one
differs (the first such file is named), and 2 when a run fails. ``--tiny``
shrinks every graph to the benchmark's smoke size (and the paper-shaped
one to 150 nodes at density 0.2), for a check that takes seconds.
"""

import argparse
import filecmp
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.append(str(ROOT / "perfbench"))

from workloads import WORKLOADS  # noqa: E402

EM_REG_SEED = 31_010_000
ICA_LARGE_SEED = 31_020_000
TEN_CLASS_SEED = 31_030_000
PAPER = {
    "data": {"n_nodes": 2708, "n_classes": 7, "homophily": 0.81, "attr_noise": 0.3,
             "seed": 11, "avg_degree": 3.9, "attr_dim": 100},
    "grid": {"densities": [0.03], "trials": 1, "master_seed": 3,
             "variants": ["all-em", "all-onepass", "known-em", "known-onepass",
                          "no-ssl", "attr-only", "relat-only"],
             "classifiers": ["lr", "lr+lr", "lr+lr+reg", "lr+nb", "lr+nb+reg"]},
}
PAPER_TINY = {"data": {"n_nodes": 150, "attr_dim": 5}, "grid": {"densities": [0.2]}}


def inputs(em_reg: int, ica_large: int, tiny: bool) -> list[dict]:
    """One entry per input: its name, generator arguments and grid."""
    found = []
    for name, count, base in (("em_reg", em_reg, EM_REG_SEED),
                              ("ica_large", ica_large, ICA_LARGE_SEED)):
        workload = WORKLOADS[name]
        for i in range(count):
            seed = base + i
            found.append({
                "name": f"{name}-{seed}",
                "data": {**workload.data_params(tiny), "seed": seed},
                "grid": {**workload.grid_params(tiny), "master_seed": seed},
            })
    em_reg = WORKLOADS["em_reg"]
    found.append({
        "name": f"em_reg-10-classes-{TEN_CLASS_SEED}",
        "data": {**em_reg.data_params(tiny), "n_classes": 10, "seed": TEN_CLASS_SEED},
        "grid": {**em_reg.grid_params(tiny), "master_seed": TEN_CLASS_SEED},
    })
    shrink = PAPER_TINY if tiny else {"data": {}, "grid": {}}
    found.append({
        "name": "paper",
        "data": {**PAPER["data"], **shrink["data"]},
        "grid": {**PAPER["grid"], **shrink["grid"]},
    })
    return found


def child(mode: str, spec_path: str) -> None:
    """Generate the inputs (``gen``) or run their grids (``run``) with the
    ``hybridcc`` found on ``PYTHONPATH``."""
    spec = json.loads(Path(spec_path).read_text())
    import hybridcc
    from hybridcc.synthetic import generate_dataset, write_dataset

    if not Path(hybridcc.__file__).resolve().is_relative_to(Path(spec["src"]).resolve()):
        sys.exit(f"imported {hybridcc.__file__}, not from {spec['src']}")
    for entry in spec["inputs"]:
        data_dir = Path(spec["work"]) / "inputs" / entry["name"]
        if mode == "gen":
            write_dataset(str(data_dir), generate_dataset(**entry["data"]))
            continue
        grid = {k: tuple(v) if isinstance(v, list) else v for k, v in entry["grid"].items()}
        config = hybridcc.ExperimentConfig(
            str(data_dir / "nodes.tsv"), str(data_dir / "edges.tsv"),
            output_dir=str(Path(spec["work"]) / spec["side"] / entry["name"]), **grid,
        )
        hybridcc.run_experiment(config)


def call_child(mode: str, src: Path, side: str, work: Path, entries: list[dict]) -> None:
    spec_path = work / f"{mode}-{side}.json"
    spec_path.write_text(json.dumps(
        {"src": str(src), "side": side, "work": str(work), "inputs": entries}
    ))
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, __file__, "--child", mode, str(spec_path)], env=env,
    )
    if done.returncode != 0:
        print(f"{mode} under {src} failed (exit {done.returncode})", file=sys.stderr)
        sys.exit(2)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_src", type=Path)
    parser.add_argument("new_src", type=Path)
    parser.add_argument("--em-reg", type=int, default=12, help="em_reg-shaped graphs")
    parser.add_argument("--ica-large", type=int, default=3, help="ica_large-shaped graphs")
    parser.add_argument("--tiny", action="store_true", help="smoke-sized graphs")
    parser.add_argument("--work", type=Path, default=Path("runs/same_reports"),
                        help="directory for inputs and reports")
    args = parser.parse_args(argv)

    work = args.work.resolve()
    work.mkdir(parents=True, exist_ok=True)
    entries = inputs(args.em_reg, args.ica_large, args.tiny)
    old_src, new_src = args.old_src.resolve(), args.new_src.resolve()
    call_child("gen", old_src, "old", work, entries)
    call_child("run", old_src, "old", work, entries)
    call_child("run", new_src, "new", work, entries)

    for entry in entries:
        for report in ("trials.csv", "summary.csv"):
            old, new = (work / side / entry["name"] / report for side in ("old", "new"))
            if not filecmp.cmp(old, new, shallow=False):
                print(f"differs: {old} {new}")
                return 1
    print(f"{2 * len(entries)} reports byte-identical over {len(entries)} inputs")
    return 0


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "--child":
        child(sys.argv[2], sys.argv[3])
    else:
        sys.exit(main())
