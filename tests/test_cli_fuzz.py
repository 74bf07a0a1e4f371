"""Property test: no combination of CLI arguments ends in a traceback.

Draws argument lists for ``simulate``, ``run`` (direct and
``--supervised``), ``viscosity`` and ``faults`` that argparse accepts.
Every flag takes a valid value, except that half the draws break one
flag with a zero, negative, odd or tiny size, an out-of-range density, a
negative seed or step count.  Boundaries include ``reflecting`` (which
``--supervised`` rejects), and a direct ``run`` may carry
supervision-only flags.  Whatever the draw, ``main`` must return 0
(done), 2 (usage error, one stderr line) or 3 (degraded), and never let
an exception escape.
"""

from __future__ import annotations

import contextlib
import io

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main

BAD_SIZES = ["-2", "0", "3"]
BAD_DENSITIES = ["-0.5", "1.5", "nan"]


def _lattice(steps_flag: str) -> dict[str, tuple[list[str], list[str]]]:
    """``flag -> (valid values, invalid values)`` shared by simulate and run."""
    return {
        "--model": (["fhp6", "fhp7", "fhp-sat", "hpp"], []),
        "--rows": (["4", "8", "16"], BAD_SIZES),
        "--cols": (["1", "5", "16"], BAD_SIZES),
        "--density": (["0", "0.3", "1"], BAD_DENSITIES),
        "--seed": (["0", "7"], ["-1"]),
        "--boundary": (["periodic", "null", "reflecting"], []),
        "--backend": (["reference", "bitplane"], []),
        steps_flag: (["1", "6"], ["-1"]),
    }


@st.composite
def _flags(draw, table: dict[str, tuple[list[str], list[str]]]) -> list[str]:
    """One value per flag in ``table``; half the draws break one flag."""
    values = {flag: draw(st.sampled_from(valid)) for flag, (valid, _) in table.items()}
    breakable = [flag for flag, (_, invalid) in table.items() if invalid]
    if draw(st.booleans()):
        flag = draw(st.sampled_from(breakable))
        values[flag] = draw(st.sampled_from(table[flag][1]))
    return [token for flag, value in values.items() for token in (flag, value)]


SUPERVISION_FLAGS = st.sampled_from(
    [
        ["--workers", "2"],
        ["--checkpoint-interval", "2"],
        ["--watchdog-timeout", "5"],
        ["--restart-delay", "0.02"],
        ["--max-worker-restarts", "2"],
        ["--deadline", "60"],
        ["--allow-degraded"],
        ["--induce", "kill:0@1"],
        ["--verify"],
        ["--json"],
    ]
)


@st.composite
def simulate(draw) -> list[str]:
    table = _lattice("--steps")
    table["--engine"] = (["none", "none", "serial", "wsa", "spa", "wsa-e"], [])
    table["--depth"] = (["1", "2"], ["0"])
    table["--lanes"] = (["1", "4"], ["0"])
    table["--slice-width"] = (["3", "8"], ["0"])
    return ["simulate", *draw(_flags(table))]


@st.composite
def direct_run(draw) -> list[str]:
    extra = draw(st.lists(SUPERVISION_FLAGS, max_size=2))
    return ["run", *draw(_flags(_lattice("--generations")))] + sum(extra, [])


@st.composite
def supervised_run(draw) -> list[str]:
    table = _lattice("--generations")
    table["--workers"] = (["1", "2"], ["-1", "0", "3"])
    table["--checkpoint-interval"] = (["1", "4"], ["0"])
    argv = ["run", "--supervised", *draw(_flags(table)), "--restart-delay", "0.02"]
    if draw(st.booleans()):
        # Worker or generation may be out of range: a fault that can never fire.
        kind = draw(st.sampled_from(["kill", "backend-error"]))
        argv += ["--induce", f"{kind}:{draw(st.integers(0, 2))}@{draw(st.integers(0, 6))}"]
    return argv + [f for f in ("--verify", "--json", "--allow-degraded") if draw(st.booleans())]


@st.composite
def viscosity(draw) -> list[str]:
    table = {
        "--model": (["fhp6", "fhp7", "fhp-sat"], []),
        "--size": (["8", "16"], BAD_SIZES),
        "--density": (["0.2", "0.5"], BAD_DENSITIES),
        "--amplitude": (["0.15", "-0.15"], ["0"]),
        "--steps": (["30"], ["-1", "0", "3"]),
        "--seed": (["0", "7"], ["-1"]),
    }
    return ["viscosity", *draw(_flags(table))]


@st.composite
def faults(draw) -> list[str]:
    table = {
        "--rows": (["6", "8", "16"], ["-2", "0", "4", "7"]),
        "--cols": (["5", "8", "16"], ["-1", "0", "4"]),
        "--generations": (["4", "6"], ["0", "3"]),
        "--checkpoint-interval": (["1", "4"], ["0"]),
        "--seed": (["0", "7"], ["-1"]),
    }
    argv = ["faults", *draw(_flags(table))]
    return argv + (["--no-monitors"] if draw(st.booleans()) else [])


@settings(max_examples=120, deadline=None)
@given(st.one_of(simulate(), direct_run(), supervised_run(), viscosity(), faults()))
def test_cli_exits_0_2_or_3_without_traceback(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    message = err.getvalue()
    assert code in (0, 2, 3), (argv, code, message)
    assert "Traceback" not in message
    if code == 2:
        assert len(message.strip().splitlines()) == 1, (argv, message)
