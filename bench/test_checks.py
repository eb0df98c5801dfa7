"""The benchmark's checks fail a run whose outputs are wrong.

Each test runs one workload at the tiny profile in this process, with
one operation's output corrupted on its way to the checks: a predicted
label flipped, or a feature dropped from an extracted record. The run
must come back not correct. The same runs without the corruption pass.

    python3 -m pytest bench/test_checks.py
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gen  # noqa: E402
import workload  # noqa: E402

import malsieve.experiment  # noqa: E402


@pytest.fixture(autouse=True)
def restore_experiment_bindings(monkeypatch):
    # ExperimentWorkload wraps these two names; undo that after each test
    for name in ("run_ga", "precompute_predictions"):
        monkeypatch.setattr(malsieve.experiment, name, getattr(malsieve.experiment, name))


def run_with(name: str, tmp_path: Path, corrupt=None) -> dict:
    inputs = gen.generate(name, 0, "tiny")
    w = workload.make_workload(name, inputs, 0, "tiny", tmp_path)
    if corrupt is not None:
        op = w.op
        w.op = lambda j: corrupt(op(j))
    return workload.run(w, 0, None)


def edit_output(name: str, edit):
    """Corrupts one output file of a CLI operation."""
    def corrupt(outputs):
        path = outputs[name]
        path.write_text(edit(path.read_text(encoding="utf-8")), encoding="utf-8")
        return outputs
    return corrupt


def flip_first_label(pred_text: str) -> str:
    first, rest = pred_text.split("\n", 1)
    app_id, label = first.split("\t")
    return f"{app_id}\t{'-1' if label == '+1' else '+1'}\n{rest}"


def drop_last_feature(records_text: str) -> str:
    first, rest = records_text.split("\n", 1)
    return first.rsplit("\t", 1)[0] + "\n" + rest


def flip_one_selective_label(result):
    index, outcome = result
    m = outcome.metrics["selective"]
    flipped = dataclasses.replace(m, tp=m.tp - 1, fn=m.fn + 1)
    return index, dataclasses.replace(outcome, metrics={**outcome.metrics, "selective": flipped})


@pytest.mark.parametrize("name", ["experiment-records", "apk-scan", "predict-records"])
def test_unchanged_outputs_pass(name, tmp_path):
    result = run_with(name, tmp_path)
    assert result["correct"], result["error"]
    assert result["failed"] == 0


def test_flipped_scan_label_fails(tmp_path):
    result = run_with("apk-scan", tmp_path, edit_output("predictions", flip_first_label))
    assert not result["correct"]
    assert "independent vote" in result["error"]


def test_dropped_extracted_feature_fails(tmp_path):
    result = run_with("apk-scan", tmp_path, edit_output("records", drop_last_feature))
    assert not result["correct"]
    assert "features differ" in result["error"]


def test_flipped_batch_label_fails(tmp_path):
    result = run_with("predict-records", tmp_path,
                      edit_output("predictions", flip_first_label))
    assert not result["correct"]
    assert "independent vote" in result["error"]


def test_flipped_experiment_label_fails(tmp_path):
    result = run_with("experiment-records", tmp_path, flip_one_selective_label)
    assert not result["correct"]
    assert "selective confusion" in result["error"]
