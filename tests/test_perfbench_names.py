"""The package names the benchmark's tracer resolves must exist.

``perfbench/tracing.py`` patches every span and kernel it lists by name, so
renaming or deleting one of them breaks ``perfbench/run.py --trace``.  This
installs a tracer, checks that every listed name was wrapped, and checks
that uninstalling restores every patched attribute.  The workloads also
read ``solve_stationary``'s ``direct_limit`` default by name.
"""

import importlib.util
import inspect
import types
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _binding(owner, attr):
    # A method is patched in its class's own dict, a function in a module's.
    return vars(owner)[attr]


def _qualname(owner, attr) -> str:
    """The tracer's name for ``attr`` of a package module or class."""
    if isinstance(owner, types.ModuleType):
        return f"{owner.__name__.rpartition('.')[2]}.{attr}"
    return f"{owner.__module__.rpartition('.')[2]}.{owner.__name__}.{attr}"


def test_tracer_patches_every_name_and_restores_it():
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    try:
        tracer.install()  # raises if a listed name no longer exists
        patched = list(tracer._patched)
        wrapped = [
            (owner, attr) for owner, attr, original in patched
            if _binding(owner, attr) is not original
        ]
    finally:
        tracer.uninstall()
    assert len(wrapped) == len(patched)
    names = set(tracing.SPANS) | set(tracing.KERNELS)
    assert names <= {_qualname(owner, attr) for owner, attr, _ in patched}
    for owner, attr, original in patched:
        assert _binding(owner, attr) is original


def test_solve_stationary_keeps_an_integer_direct_limit():
    # ``perfbench/workloads.py`` reads this default by name, and the
    # cluster_exact answer check passes ``direct_limit=0``.
    from passandswap.oracle import solve_stationary

    default = inspect.signature(solve_stationary).parameters[
        "direct_limit"
    ].default
    assert isinstance(default, int) and not isinstance(default, bool)
    assert default > 0
