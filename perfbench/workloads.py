"""Benchmark workloads: seeded synthetic inputs plus one experiment grid each.

A workload fixes the arguments of ``hybridcc.synthetic.generate_dataset``
(the benchmark writes each graph as a ``nodes.tsv``/``edges.tsv`` pair, the
only thing the program receives), the ``ExperimentConfig`` fields that
``hybridcc.harness.run_experiment`` runs on it, and how many calls one
child process makes. Each input's seed picks both its graph and the
config's ``master_seed``, and the run seed picks the input seeds, so one
seed fixes every input.

Every workload has a smoke size with the same grid shape, used by the
benchmark's own test so that the full pipeline runs in seconds.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

# The grids pass singleton sigma/alpha grids wherever a workload is not
# about tuning, so cross-validation takes its single-value path and the
# time goes to the layer the workload exists for.
SINGLETON_GRIDS = {"sigma_grid": [1.0], "alpha_grid": [1.0]}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    data: dict
    grid: dict
    calls_per_child: int
    smoke_data: dict = field(default_factory=dict)
    smoke_grid: dict = field(default_factory=dict)

    def data_params(self, smoke: bool) -> dict:
        return {**self.data, **(self.smoke_data if smoke else {})}

    def grid_params(self, smoke: bool) -> dict:
        return {**self.grid, **(self.smoke_grid if smoke else {})}

    def expected_cells(self, smoke: bool) -> int:
        """Grid size: every (density, trial) crosses every variant with every
        classifier, except ``relat-only``, which runs once (no classifier)."""
        grid = self.grid_params(smoke)
        per_trial = sum(
            1 if v == "relat-only" else len(grid["classifiers"])
            for v in grid["variants"]
        )
        return len(grid["densities"]) * grid["trials"] * per_trial

    def input_key(self, seed: int, smoke: bool) -> str:
        """Cache key of the generated TSV pair: workload, size and seed."""
        digest = hashlib.sha1(
            json.dumps(self.data_params(smoke), sort_keys=True).encode()
        ).hexdigest()[:10]
        return f"{self.name}{'-smoke' if smoke else ''}-{digest}-seed{seed}"

    def describe(self, smoke: bool) -> dict:
        return {"name": self.name, "why": self.why, "smoke": smoke,
                "data": self.data_params(smoke), "grid": self.grid_params(smoke)}


WORKLOADS = {w.name: w for w in (
    Workload(
        name="em_reg",
        why=("label-regularized all-em at 20 known nodes: the regime where "
             "the KL penalty prevents collapse; time goes to lr_train and "
             "lr_train_label_reg"),
        # 300 nodes at density 0.0667 keep the 20 known nodes of a
        # 2000-node/0.01 graph at a fraction of the cost per fit.
        # Optimizer steps per fit vary a lot between known-node samples,
        # and the median cell time between graphs (0.22 to 0.35 s over six
        # 600-node graphs), so a run spreads its cells over many small
        # calls, each on its own graph: 2 EM iterations x 4 trials per
        # call, 6 calls per child process. With one 600-node graph and two
        # known-node samples per run, cell_s.p50 spread up to 0.35 (IQR
        # over median) across ten seeds; at this size, 0.07 to 0.21.
        data={"n_nodes": 300, "n_classes": 3, "homophily": 0.8,
              "attr_noise": 1.0, "attr_dim": 20, "avg_degree": 4.0},
        grid={"densities": [0.0667], "trials": 4, "variants": ["all-em"],
              "classifiers": ["lr+nb+reg", "lr+lr+reg"], "em_iterations": 2,
              **SINGLETON_GRIDS},
        calls_per_child=6,
        smoke_data={"n_nodes": 200, "attr_dim": 5},
        smoke_grid={"densities": [0.1], "trials": 1},
    ),
    Workload(
        name="ica_large",
        why=("collective inference on a 20k-node, degree-20 graph: ICA and "
             "graph features dominate, training on 200 rows is cheap, and "
             "set-up (TSV parse) and memory are largest"),
        data={"n_nodes": 20000, "n_classes": 2, "homophily": 0.75,
              "attr_noise": 1.5, "attr_dim": 2, "avg_degree": 20.0},
        # Two trials per call, so each call yields five cell latencies after
        # the first (which carries prepare_dataset), and a run of three
        # calls on two graphs (one repeated) stays near a minute even when
        # the host is slow.
        grid={"densities": [0.01], "trials": 2,
              "variants": ["known-em", "relat-only"],
              "classifiers": ["lr+nb", "lr+lr"], **SINGLETON_GRIDS},
        calls_per_child=1,
        smoke_data={"n_nodes": 400, "avg_degree": 6.0},
        smoke_grid={"densities": [0.05], "trials": 1},
    ),
    # Not listed in BENCHMARK.json: cross-validation picks a different prior
    # variance per trial, and trials that pick 100 run their fits to the
    # iteration cap, so per-seed work is heavy-tailed. cells_per_s spread
    # 0.53 (IQR over median) across five seeds, beyond the 0.25 a bound may
    # allow. Kept for manual runs of the tuning path.
    Workload(
        name="grid_cv",
        why=("full hybridcc run path with the default 5x3 CV grid on a "
             "Cora-shaped graph: CV tuning dominates, as many small 7-class "
             "fits on at most 240 rows"),
        data={"n_nodes": 2700, "n_classes": 7, "homophily": 0.8,
              "attr_noise": 0.7, "attr_dim": 100, "avg_degree": 4.0},
        grid={"densities": [0.03, 0.09], "trials": 1,
              "variants": ["known-onepass", "no-ssl", "attr-only", "relat-only"],
              "classifiers": ["lr+nb+reg", "lr"], "cv_folds": 5},
        calls_per_child=1,
        smoke_data={"n_nodes": 300, "attr_dim": 10},
        smoke_grid={"densities": [0.1, 0.2], "sigma_grid": [0.1, 1.0],
                    "alpha_grid": [0.1, 1.0], "cv_folds": 3},
    ),
)}

