"""The cross-kernel reproducibility contract (README, "Reproducibility").

A tiny CLI chain and a 2-repeat experiment run in subprocesses twice:
once on the BLAS kernel OpenBLAS picks for this CPU, and once with
OPENBLAS_CORETYPE=Prescott, the baseline x86-64 kernel. Reports,
selections, predictions and evaluate lines must be byte-identical, and
model files must agree to MODEL_TOLERANCE. Only a DYNAMIC_ARCH OpenBLAS
honours OPENBLAS_CORETYPE, so the test skips on any other BLAS.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from malsieve.experiment import synthetic_dataset
from malsieve.vectorize import save_dataset

SRC = Path(__file__).resolve().parent.parent / "src"

# largest absolute difference allowed between two kernels' model
# parameters; the differences seen are float rounding, near 1e-15
MODEL_TOLERANCE = 1e-9

EXPERIMENT_CONFIG = """\
repeats=2
master_seed=4
synthetic_samples=300
synthetic_features=20
pool_size=5
learner=mlp
epochs=10
hidden_units=6
pop_size=10
max_iter=8
"""


def dynamic_arch_openblas() -> bool:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return "openblas" in blas.get("name", "") and "DYNAMIC_ARCH" in blas.get(
        "openblas configuration", "")


pytestmark = pytest.mark.skipif(
    not dynamic_arch_openblas(),
    reason="numpy's BLAS is not a DYNAMIC_ARCH OpenBLAS, so OPENBLAS_CORETYPE "
           "cannot choose the kernel",
)


def run_chain(inputs: Path, out: Path, coretype: str | None) -> None:
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    env.update(PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")])),
               OPENBLAS_NUM_THREADS="1", PYTHONHASHSEED="0")
    if coretype is not None:
        env["OPENBLAS_CORETYPE"] = coretype
    out.mkdir()

    def cli(*argv: str) -> str:
        result = subprocess.run([sys.executable, "-m", "malsieve.cli", *map(str, argv)],
                                env=env, capture_output=True, text=True, timeout=300)
        assert result.returncode == 0, result.stderr
        return result.stdout

    train, test = inputs / "train.svm", inputs / "test.svm"
    cli("train-pool", train, "--out", out / "pool", "--pool-size", 6, "--learner", "mlp",
        "--epochs", 8, "--hidden-units", 6, "--seed", 3)
    cli("select", out / "pool", train, "--out", out / "selection.txt",
        "--report", out / "ga.txt", "--seed", 3)
    (out / "evaluate.txt").write_text(
        cli("evaluate", out / "pool", test, "--selection", out / "selection.txt"))
    cli("predict", out / "pool", test, "--selection", out / "selection.txt",
        "--out", out / "predictions.txt")
    cli("experiment", inputs / "experiment.cfg", "--out", out / "report.txt")


def params(path: Path) -> tuple[list[str], dict[str, np.ndarray]]:
    """A model file's non-parameter lines, and its parameters by name."""
    other, values = [], {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("param "):
            _, name, shape, tokens = line.split(" ", 3)
            other.append(f"param {name} {shape}")
            values[name] = np.array([float.fromhex(t) for t in tokens.split()])
        else:
            other.append(line)
    return other, values


def test_artifacts_agree_across_blas_kernels(tmp_path):
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    data = synthetic_dataset(360, 16, 0.1, seed=1)
    save_dataset(data.subset(range(240)), inputs / "train.svm")
    save_dataset(data.subset(range(240, 360)), inputs / "test.svm")
    (inputs / "experiment.cfg").write_text(EXPERIMENT_CONFIG)
    native, baseline = tmp_path / "native", tmp_path / "prescott"
    run_chain(inputs, native, None)
    run_chain(inputs, baseline, "Prescott")

    files = sorted(p.relative_to(native) for p in native.rglob("*") if p.is_file())
    assert files == sorted(p.relative_to(baseline) for p in baseline.rglob("*") if p.is_file())
    models = [f for f in files if f.suffix == ".model"]
    assert len(models) == 6
    for name in files:
        if name.suffix != ".model":
            assert (native / name).read_bytes() == (baseline / name).read_bytes(), name
            continue
        (lines_a, params_a), (lines_b, params_b) = params(native / name), params(baseline / name)
        assert lines_a == lines_b, name
        for key, value in params_a.items():
            assert np.max(np.abs(value - params_b[key])) <= MODEL_TOLERANCE, (name, key)
