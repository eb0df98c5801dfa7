"""The benchmark's tracer wraps malsieve names by attribute (`bench/spans.py`
BINDINGS); a refactor that drops or moves one of them breaks the
benchmark, so every binding must still resolve and unwrap cleanly."""

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
