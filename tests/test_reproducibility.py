"""The reproducibility contract (README, "Reproducibility"), across
commits and across BLAS kernels.

A tiny CLI chain and a 2-repeat experiment run in subprocesses on the
BLAS kernel OpenBLAS picks for this CPU. Their artifacts must match the
ones committed under tests/expected: reports, selections, predictions,
the evaluate line and the pool manifest byte for byte, model files to
MODEL_TOLERANCE. A change that moves an output on purpose rewrites those
files (`PYTHONPATH=src python tests/test_reproducibility.py`) and says
why.

The chain then runs again with OPENBLAS_CORETYPE=Prescott, the baseline
x86-64 kernel, and must agree with the native run the same way. Only a
DYNAMIC_ARCH OpenBLAS honours OPENBLAS_CORETYPE, so that second test
skips on any other BLAS; the first never does.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from malsieve.experiment import synthetic_dataset
from malsieve.vectorize import Dataset, save_dataset

SRC = Path(__file__).resolve().parent.parent / "src"
EXPECTED = Path(__file__).resolve().parent / "expected"

# largest absolute difference allowed between two runs' model parameters
# (two kernels, or a run and the expected files); the differences seen
# across kernels are float rounding, near 1e-15
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


def write_inputs(inputs: Path) -> None:
    inputs.mkdir()
    data = synthetic_dataset(360, 16, 0.1, seed=1)
    save_dataset(Dataset(data.vectors[:240], data.dimension), inputs / "train.svm")
    save_dataset(Dataset(data.vectors[240:], data.dimension), inputs / "test.svm")
    (inputs / "experiment.cfg").write_text(EXPERIMENT_CONFIG)


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


def assert_same_artifacts(expected: Path, actual: Path) -> None:
    """The same files; model files agree to MODEL_TOLERANCE, the rest
    byte for byte."""
    files = sorted(p.relative_to(expected) for p in expected.rglob("*") if p.is_file())
    assert files == sorted(p.relative_to(actual) for p in actual.rglob("*") if p.is_file())
    models = [f for f in files if f.suffix == ".model"]
    assert len(models) == 6
    for name in files:
        if name.suffix != ".model":
            assert (expected / name).read_bytes() == (actual / name).read_bytes(), name
            continue
        (lines_a, params_a), (lines_b, params_b) = params(expected / name), params(actual / name)
        assert lines_a == lines_b, name
        for key, value in params_a.items():
            assert np.max(np.abs(value - params_b[key])) <= MODEL_TOLERANCE, (name, key)


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    """The inputs, and the artifacts of the chain on the native kernel."""
    root = tmp_path_factory.mktemp("chain")
    write_inputs(root / "inputs")
    run_chain(root / "inputs", root / "native", None)
    return root / "inputs", root / "native"


def test_native_artifacts_match_the_expected_files(chain):
    assert_same_artifacts(EXPECTED, chain[1])


@pytest.mark.skipif(
    not dynamic_arch_openblas(),
    reason="numpy's BLAS is not a DYNAMIC_ARCH OpenBLAS, so OPENBLAS_CORETYPE "
           "cannot choose the kernel",
)
def test_artifacts_agree_across_blas_kernels(chain, tmp_path):
    inputs, native = chain
    run_chain(inputs, tmp_path / "prescott", "Prescott")
    assert_same_artifacts(native, tmp_path / "prescott")


if __name__ == "__main__":
    # rewrite tests/expected from the native run of this tree
    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(Path(tmp) / "inputs")
        run_chain(Path(tmp) / "inputs", Path(tmp) / "native", None)
        shutil.rmtree(EXPECTED, ignore_errors=True)
        shutil.copytree(Path(tmp) / "native", EXPECTED)
