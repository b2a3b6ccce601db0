"""The benchmark's tracer must still find every library name it wraps.

``perfbench/tracing.py`` patches library functions by name; this test
installs it against the ``trickle`` modules and removes it again, so a
renamed or deleted library function fails here rather than in a traced
benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path
from types import SimpleNamespace

import trickle

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
MODULES = ("graph", "dyadic", "pilings", "syllabic", "parabolic", "garside",
           "confluence", "families", "vjn", "thompson", "jsonio")


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings(lib):
    """Every attribute of every trickle module and of every class in them."""
    out = {}
    for mod in (trickle, *vars(lib).values()):
        for key, value in vars(mod).items():
            out[(mod.__name__, key)] = value
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for attr, member in vars(value).items():
                    out[(mod.__name__, key, attr)] = member
    return out


def test_tracer_installs_and_uninstalls_cleanly():
    tracing = _load_tracing()
    lib = SimpleNamespace(**{m: importlib.import_module(f"trickle.{m}") for m in MODULES})
    before = _bindings(lib)
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer, lib)
        patched = {key for key, value in _bindings(lib).items() if before[key] is not value}
        assert patched, "the tracer wrapped nothing"
        assert ("trickle.pilings", "nf_letters") in patched
        assert ("trickle.pilings", "GroupElement", "inverse") in patched
        for name in ("h_apply", "h_apply_inv", "level"):
            assert ("trickle.thompson", name) in patched
        for name in ("edge", "phi", "phi_pow", "sort_key"):
            assert ("trickle.graph", "TrickleGraph", name) in patched
    finally:
        tracer.uninstall()
    after = _bindings(lib)
    assert [key for key in before if after[key] is not before[key]] == []
