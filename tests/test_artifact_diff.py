"""``tools/artifact_diff.py`` tells a source tree that makes the same
artifacts from one that does not, on a tiny scene and without git."""

import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from hsikit import gaussian_scene, save_cube, save_ground_truth

ROOT = Path(__file__).resolve().parents[1]
CONFIG = {"reduction": {"method": "pca", "components": 3}, "classifier": {"kind": "svm"}}


@pytest.fixture
def artifact_diff(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    import artifact_diff

    return artifact_diff


@pytest.fixture
def scenes(tmp_path):
    cube, gt = gaussian_scene(12, 12, 8, 3, seed=5)
    scene_dir = tmp_path / "scene"
    scene_dir.mkdir()
    save_cube(cube, scene_dir / "scene")
    save_ground_truth(gt, scene_dir / "scene_gt")
    return {"tiny": (scene_dir, CONFIG)}


def test_a_tree_against_itself_makes_the_same_artifacts(artifact_diff, scenes, tmp_path, capsys):
    rows = artifact_diff.compare(ROOT, ROOT, scenes, tmp_path / "runs", seeds=(1,))
    names = [*artifact_diff.ARTIFACTS, "compare --json"]
    assert rows[1:] == [("tiny", 1, name, True, []) for name in names]
    # Both runs' peak RSS is printed beside the artifacts, and not judged.
    assert rows[0][:4] == ("tiny", 1, "peak RSS", None)
    artifact_diff.print_rows(rows)
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["tiny", "seed", "1", "peak", "RSS", "report"]
    peak = r"(\d+\.\d MiB|≤ \d+\.\d MiB \(the tool's own peak\))"
    assert re.fullmatch(rf"    base {peak}, head {peak}", lines[1])
    assert lines[2].split() == ["tiny", "seed", "1", "config.json", "same"]


def test_a_peak_below_the_tools_own_is_marked(artifact_diff, tmp_path):
    # A child's ru_maxrss starts at its parent's high-water mark, so a
    # small run after the tool touched 200 MB must not print a number.
    ballast = np.ones(200 * 2**20 // 8)
    code, out, _, peak = artifact_diff._hsikit(ROOT, ["--help"], tmp_path)
    del ballast
    assert code == 0 and "usage" in out
    assert re.fullmatch(r"≤ \d+\.\d MiB \(the tool's own peak\)", peak)
    assert float(peak.split()[1]) >= 200


def test_a_changed_constant_shows_in_the_model(artifact_diff, scenes, tmp_path):
    changed = tmp_path / "changed"
    shutil.copytree(ROOT / "src", changed / "src", ignore=shutil.ignore_patterns("__pycache__"))
    svm_py = changed / "src" / "hsikit" / "classify" / "svm.py"
    source = svm_py.read_text(encoding="utf-8")
    assert source.count("    c: float = 600.0\n") == 1
    svm_py.write_text(source.replace("    c: float = 600.0\n", "    c: float = 0.5\n"))
    rows = artifact_diff.compare(ROOT, changed, scenes, tmp_path / "runs", seeds=(1,))
    assert [name for name, *_ in rows] == ["tiny"] * (len(artifact_diff.ARTIFACTS) + 2)
    reports = {artifact: report for _, _, artifact, same, report in rows if same is False}
    assert "model.json" in reports
    # Both trees' compare reads the two runs alike.
    assert "compare --json" not in reports
    assert "classifier.params.c: leaves differing 1, largest |delta| 599.5" in reports["config.json"]
    assert any(line.startswith("classifier.model.machines[*].") for line in reports["model.json"])


def test_a_changed_compare_shows_in_its_output(artifact_diff, scenes, tmp_path):
    changed = tmp_path / "changed"
    shutil.copytree(ROOT / "src", changed / "src", ignore=shutil.ignore_patterns("__pycache__"))
    cli_py = changed / "src" / "hsikit" / "cli.py"
    source = cli_py.read_text(encoding="utf-8")
    old = '"mcnemar": result.to_dict(),'
    assert source.count(old) == 1
    cli_py.write_text(source.replace(old, old + ' "extra": 1,'))
    rows = artifact_diff.compare(ROOT, changed, scenes, tmp_path / "runs", seeds=(1,))
    assert [(artifact, same) for _, _, artifact, same, _ in rows] == [
        ("peak RSS", None),
        *((name, True) for name in artifact_diff.ARTIFACTS),
        ("compare --json", False),
    ]
    assert rows[-1][4] == ["extra: leaves differing 1"]


def _changed_records(tmp_path, old, new):
    changed = tmp_path / "changed"
    shutil.copytree(ROOT / "src", changed / "src", ignore=shutil.ignore_patterns("__pycache__"))
    records_py = changed / "src" / "hsikit" / "records.py"
    source = records_py.read_text(encoding="utf-8")
    assert source.count(old) == 1
    records_py.write_text(source.replace(old, new))
    return changed


def test_a_changed_usage_message_shows_in_its_case(artifact_diff, scenes, tmp_path):
    changed = _changed_records(tmp_path, 'f"unknown {name} fields', 'f"unknown {name} keys')
    rows = artifact_diff.messages(ROOT, changed, scenes["tiny"][0], tmp_path / "messages")
    assert [(name, same) for name, same, _ in rows] == [
        (name, name != "unknown key") for name in artifact_diff.CASES
    ]
    (report,) = [report for name, _, report in rows if name == "unknown key"]
    assert report == [
        f"{side}: exit 1: usage error: unknown classifier.params {word} ['cc']; "
        "allowed: ['c', 'gamma', 'max_iter', 'tolerance']"
        for side, word in (("base", "fields"), ("here", "keys"))
    ]


def test_a_changed_data_message_shows_in_its_case(artifact_diff, scenes, tmp_path):
    changed = _changed_records(tmp_path, 'is missing fields {missing}"', 'lacks fields {missing}"')
    assert {"convert non-finite", "staged path a directory"} <= artifact_diff.CASES.keys()
    rows = artifact_diff.messages(ROOT, changed, scenes["tiny"][0], tmp_path / "messages")
    assert [(name, same) for name, same, _ in rows] == [
        (name, name != "report without n_test") for name in artifact_diff.CASES
    ]
    (report,) = [report for name, _, report in rows if name == "report without n_test"]
    assert report == [
        f"{side}: exit 2: data error: {Path('b', 'report.json')}: evaluation {words} ['n_test']"
        for side, words in (("base", "is missing fields"), ("here", "lacks fields"))
    ]
