"""Hot-path markers: declare that a function must run allocation-free.

The paper's throughput claims (and ``BENCH_kernels.json``) depend on the
streaming kernels doing *no* per-call array allocation: one hidden
``np.zeros`` inside :meth:`BitplaneKernel.step_into` and the 9–14×
bit-plane speedup quietly becomes a memory-bandwidth benchmark.  The
:func:`hot_path` decorator turns that convention into a machine-checked
contract — ``repro lint`` (rules ``RPR101``/``RPR102``) statically
verifies every marked function, and :data:`HOT_PATH_REGISTRY` names the
functions that are hot *by architecture* so the check cannot be dodged
by deleting a decorator.

The decorator is deliberately inert at runtime: it sets one attribute
and returns the **same** function object, so marking a kernel hot can
never change its behavior (``tests/analysis/test_hot_path_equivalence``
pins this with bit-identical trajectory checks).
"""

from __future__ import annotations

from typing import Callable, TypeVar

__all__ = ["HOT_PATH_ATTR", "HOT_PATH_REGISTRY", "hot_path", "is_hot_path"]

_F = TypeVar("_F", bound=Callable[..., object])

#: Attribute set on functions marked with :func:`hot_path`.
HOT_PATH_ATTR = "__repro_hot_path__"

#: Qualified ``Class.method`` (or bare function) names that are hot by
#: architecture, independent of decoration.  ``repro lint`` checks these
#: even in a tree where someone removed the decorators.
HOT_PATH_REGISTRY: frozenset[str] = frozenset(
    {
        "BitplaneKernel.step_into",
        "BitplaneKernel.collide_into",
        "BitplaneKernel.propagate_into",
        "BitplaneStepper.step",
        "BitplaneStepper.run",
        "ReferenceStepper._advance",
        "ReferenceStepper.step",
        "ReferenceStepper.run",
        "PipelineStage.process",
        "StreamingEngineCore._advance_stream",
    }
)


def hot_path(func: _F) -> _F:
    """Mark ``func`` as a streaming hot path (identity at runtime).

    Marked functions are checked by ``repro lint`` rules ``RPR101``
    (no allocation) and ``RPR102`` (no I/O or persistent-state growth).
    The decorator adds :data:`HOT_PATH_ATTR` and returns the *same*
    object, so it is provably behavior-preserving.
    """
    setattr(func, HOT_PATH_ATTR, True)
    return func


def is_hot_path(func: object) -> bool:
    """Whether ``func`` (or the function under a method) is marked hot."""
    return bool(getattr(func, HOT_PATH_ATTR, False))
