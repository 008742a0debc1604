"""Set-up step of one benchmark run, timed as a whole process by run.py.

    python hsibench/scene.py WORKLOAD OUT_DIR

Imports hsikit, generates the workload's scene and writes it as
OUT_DIR/scene.hsih and OUT_DIR/scene_gt.hsih.
"""

import sys
from pathlib import Path

from hsikit import gaussian_scene, save_cube, save_ground_truth

from workloads import WORKLOADS


def main(argv):
    name, out_dir = argv
    cube, gt = gaussian_scene(**WORKLOADS[name].scene)
    out = Path(out_dir)
    save_cube(cube, out / "scene")
    save_ground_truth(gt, out / "scene_gt")


if __name__ == "__main__":
    main(sys.argv[1:])
