"""The three benchmark workloads: one synthetic scene and one `hsikit run`
config each.

Each workload's scene is fixed, seed included. The workload seed
(``--seed``) is the run's ``seed``: it draws the train/test split, the CV
folds and the randomized-PCA sketch. A different scene seed changes the
class geometry and with it the SMO work by up to a fifth (svm-grid: 175k to
215k grid iterations over scene seeds 1 to 4), against about 7 % over run
seeds (185k to 199k), so varying the scene would drown a change in seed noise.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    scene: dict  # keyword arguments of hsikit.gaussian_scene
    config: dict  # `hsikit run` config minus cube, ground_truth, output, seed
    accuracy_floor: float  # report.json overall_accuracy must reach this
    nominal_s: float  # one `hsikit run` on the reference machine
    why: str
    moves: str  # per-layer metrics the workload is meant to move

    def repetitions(self, seconds: float) -> int:
        """Timed `hsikit run` repetitions in a run of ``seconds``.

        Fixed by the workload and the run length, never by how fast the
        program is, so two commits time the same amount of work and
        report the same ``attempted``. At least two, so the byte-identity
        check has something to compare.
        """
        return max(2, round(seconds / self.nominal_s))


_PAVIA_SCENE = {
    "height": 610,
    "width": 340,
    "bands": 103,
    "num_classes": 9,
    "seed": 3,
    "separation": 6.0,
    "unlabeled_fraction": 0.79,
}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="svm-grid",
            scene={
                "height": 60,
                "width": 90,
                "bands": 103,
                "num_classes": 9,
                "seed": 1,
                "separation": 6.0,
            },
            config={
                "train_fraction": 0.7,
                "reduction": {"method": "pca", "components": 10},
                "classifier": {
                    "kind": "svm",
                    "grid": {"c": [10, 100, 1000], "gamma": [0.1, 0.5, 2.0], "folds": 3},
                },
            },
            accuracy_floor=0.97,
            nominal_s=11.5,
            why="grid-searched RBF SVM: 27 CV fits on full-Gram SMO pairs; exact PCA, no GBDT",
            moves=(
                "svm.grid_s, svm.grid_fits, svm.grid_smo_iterations (about 93 % of the run); "
                "the bypass case for randomized-PCA, QR and GBDT work, whose metrics "
                "should not move here"
            ),
        ),
        Workload(
            name="pavia-svm",
            scene=_PAVIA_SCENE,
            config={
                "train_fraction": 0.5,
                "reduction": {"method": "rpca", "components": 20},
                "classifier": {"kind": "svm"},
            },
            accuracy_floor=0.96,
            nominal_s=13.5,
            why="Pavia-sized SVM: pairs over 4096 rows take the column-recompute SMO path",
            moves=(
                "svm.train_s, svm.smo_iterations, svm.us_per_iteration, svm.support_vectors, "
                "svm.max_pair_rows (about 87 % of the run); svm.predict_s and "
                "svm.predict_kernel_evals; hsi_data.* and cli.self_s / cli.artifact_bytes "
                "(largest artifacts); dimred/linalg at about 5 %"
            ),
        ),
        Workload(
            name="pavia-gbdt",
            scene=_PAVIA_SCENE,
            config={
                "train_fraction": 0.7,
                "reduction": {"method": "rpca", "components": 20},
                "classifier": {"kind": "gbdt", "params": {"num_trees": 10}},
            },
            accuracy_floor=0.96,
            nominal_s=4.0,
            why="Pavia-sized GBDT on a 30.6k x 103 rpca fit: QR and GBDT weigh most; no SVM",
            moves=(
                "dimred.fit_s, linalg.qr_s, linalg.qr_calls, linalg.svd_s (about 25 % of "
                "the run); gbdt.train_s, gbdt.leaves, gbdt.us_per_leaf, gbdt.goss_rows "
                "(about 60 %); gbdt.predict_s; hsi_data.*; the bypass case for all SMO "
                "work, whose metrics should not move here"
            ),
        ),
    )
}
