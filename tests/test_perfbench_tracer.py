"""The benchmark's tracer wraps package attributes by name; each must exist."""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_and_restores_every_wrapped_attribute(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    t = tracer.Tracer()
    targets = [(mod, attr) for mod, attr, _ in t._targets()]
    before = [getattr(mod, attr) for mod, attr in targets]
    with t.installed():
        assert all(getattr(mod, attr) is not fn
                   for (mod, attr), fn in zip(targets, before))
    assert [getattr(mod, attr) for mod, attr in targets] == before
