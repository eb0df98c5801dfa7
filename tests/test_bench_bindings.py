"""The benchmark's tracer wraps malsieve names by attribute (`bench/spans.py`
BINDINGS); a refactor that drops or moves one of them breaks the
benchmark, so every binding must still resolve and unwrap cleanly."""

import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_installs_and_uninstalls_every_binding(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans

    originals = [getattr(owner, attr) for owner, attr, _, _ in spans.BINDINGS]
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert all(getattr(owner, attr) is not original for (owner, attr, _, _), original
                   in zip(spans.BINDINGS, originals))
    finally:
        tracer.uninstall()
    assert all(getattr(owner, attr) is original for (owner, attr, _, _), original
               in zip(spans.BINDINGS, originals))


def test_benchmark_self_check_passes():
    """Every workload at tiny sizes, untraced and traced, with all of the
    benchmark's output checks. The spans' count functions and the
    workload's captures read call arguments by position, so a changed
    signature fails here although every binding still resolves. Writes
    only the git-ignored bench/.inputs and bench/.results."""
    result = subprocess.run([sys.executable, str(BENCH / "run.py"), "--self-check"],
                            cwd=BENCH.parent, capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stdout[-3000:] + result.stderr[-3000:]
