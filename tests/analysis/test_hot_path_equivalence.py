"""Hot-path markers must not change runtime behavior.

RPR101/RPR102 are *static* contracts: :func:`hot_path` sets one
attribute and returns the same function object, so decorating the
kernels (and rewriting them allocation-free to satisfy the rule) must
leave every trajectory bit-identical.  These tests pin that — first the
decorator mechanics, then registry integrity, then seeded bit-exact
equivalence across backends and through the streaming pipeline stage.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engines.pe import make_rule
from repro.engines.pipeline import PipelineStage, SerialPipelineEngine
from repro.lgca.automaton import LatticeGasAutomaton
from repro.lgca.backends import BitplaneStepper, ReferenceStepper
from repro.lgca.bitplane import BitplaneKernel
from repro.lgca.fhp import FHPModel
from repro.lgca.flows import uniform_random_state
from repro.lgca.hpp import HPPModel
from repro.util.hotpath import HOT_PATH_REGISTRY, hot_path, is_hot_path


class TestDecoratorMechanics:
    def test_identity(self):
        def f(x):
            return x + 1

        g = hot_path(f)
        assert g is f  # the SAME object — no wrapper, no indirection
        assert g(2) == 3

    def test_is_hot_path(self):
        @hot_path
        def hot():
            pass

        def cold():
            pass

        assert is_hot_path(hot)
        assert not is_hot_path(cold)

    def test_preserves_metadata(self):
        @hot_path
        def documented():
            """Docstring survives."""

        assert documented.__name__ == "documented"
        assert documented.__doc__ == "Docstring survives."


class TestRegistryIntegrity:
    CLASSES = {
        "BitplaneKernel": BitplaneKernel,
        "BitplaneStepper": BitplaneStepper,
        "ReferenceStepper": ReferenceStepper,
        "PipelineStage": PipelineStage,
    }

    def test_every_registry_method_exists_and_is_marked(self):
        from repro.engines import streaming_core

        classes = dict(self.CLASSES)
        classes["StreamingEngineCore"] = streaming_core.StreamingEngineCore
        for qualname in sorted(HOT_PATH_REGISTRY):
            cls_name, _, method = qualname.partition(".")
            assert cls_name in classes, f"unknown registry class {cls_name}"
            func = getattr(classes[cls_name], method, None)
            assert func is not None, f"{qualname} names a missing method"
            assert is_hot_path(func), f"{qualname} lost its @hot_path marker"


def _state(seed, rows, cols, channels, density=0.4):
    return uniform_random_state(
        rows, cols, channels, density, np.random.default_rng(seed)
    )


class TestTrajectoryEquivalence:
    """Seeded bit-identity across backends (the runtime ground truth)."""

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_hpp_backends_bit_identical(self, seed):
        model = HPPModel(6, 70, boundary="periodic")
        state = _state(seed, 6, 70, 4)
        ref = LatticeGasAutomaton(model, state)
        bit = LatticeGasAutomaton(model, state, backend="bitplane")
        for t in range(6):
            np.testing.assert_array_equal(
                ref.step(), bit.step(), err_msg=f"diverged at generation {t}"
            )

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_fhp_backends_bit_identical(self, seed):
        model = FHPModel(6, 65, boundary="null")
        state = _state(seed, 6, 65, 6)
        ref = LatticeGasAutomaton(model, state)
        bit = LatticeGasAutomaton(model, state, backend="bitplane")
        np.testing.assert_array_equal(ref.run(6), bit.run(6))


class TestPipelineStageBuffering:
    """The allocation-free stage must stay bit-exact call after call."""

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_stage_matches_model_step_over_generations(self, seed):
        model = FHPModel(8, 10, boundary="null", chirality="alternate")
        stage = PipelineStage(make_rule(model))
        frame = _state(seed, 8, 10, 6)
        stream = frame.ravel()
        expected = frame
        # Repeated calls exercise the internal double buffer: each
        # result is consumed (copied) before the buffer cycles back.
        for t in range(5):
            out = stage.process(stream, t).copy()
            expected = model.step(expected, t)
            np.testing.assert_array_equal(out.reshape(8, 10), expected)
            stream = out

    def test_consecutive_results_use_distinct_buffers(self):
        # The documented aliasing contract: a result stays valid until
        # the next-but-one call, because process ping-pongs two buffers.
        model = HPPModel(6, 6, boundary="null")
        stage = PipelineStage(make_rule(model))
        frame = _state(0, 6, 6, 4)
        first = stage.process(frame.ravel(), 0)
        second = stage.process(first.copy(), 1)
        assert not np.shares_memory(first, second)

    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_engine_run_matches_automaton(self, seed):
        # streamed engines implement null boundaries only
        model = HPPModel(8, 8, boundary="null")
        frame = _state(seed, 8, 8, 4)
        engine = SerialPipelineEngine(model)
        result, _ = engine.run(frame, 6)
        expected = LatticeGasAutomaton(model, frame).run(6)
        np.testing.assert_array_equal(result, expected)
