"""Property test of the CLI boundary: any flags, any ``$FREEARM_SEED``.

Every invocation must end with exit status 0, 1 or 2 and must not let an
exception escape ``main`` (which would print a traceback).  Sizes are
bounded so each example runs in milliseconds.
"""

import contextlib
import io

import pytest

from freearm import cli

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

JUNK = st.sampled_from(["", "x", "1.5", "-", "0x10", "1e3"])


def ints(low, high):
    """Integer flag values: mostly in [low, high], sometimes junk text."""
    return st.one_of(st.integers(low, high).map(str), JUNK)


FLAGS = {
    "analytic": {"--n": ints(-2, 40), "--m": ints(-2, 40)},
    "walk": {"--n": ints(-1, 5), "--trials": ints(-1, 20), "--target-links": ints(-1, 30),
             "--max-steps": ints(-1, 10_000), "--warmup-links": ints(-2, 30),
             "--threads": ints(-1, 4), "--per-trial": None},
    "weave": {"--m": ints(-2, 5), "--count": ints(-1, 1000),
              "--model": st.sampled_from(["full-cz-retry", "independent-sides", "other"])},
    "cluster": {"--n": ints(-1, 5), "--count": ints(-1, 1000)},
    "verify-weave": {},
    "verify-evolve": {"--qubits": ints(-1, 4), "--cphases": ints(-1, 1),
                      "--rotations": ints(-1, 4), "--links": ints(-1, 3)},
    "fock-cz": {"--n": ints(-1, 4)},
}
SEEDED = {"walk", "weave", "cluster", "verify-evolve"}
REQUIRED = {"walk": ("--n", "--trials", "--target-links"), "weave": ("--m",),
            "cluster": ("--n",), "fock-cz": ("--n",)}


@st.composite
def invocations(draw):
    command = draw(st.sampled_from(sorted(FLAGS)))
    argv = [command]
    for flag, values in FLAGS[command].items():
        if flag in REQUIRED.get(command, ()) or draw(st.booleans()):
            argv += [flag] if values is None else [flag, draw(values)]
    if command in SEEDED and draw(st.booleans()):
        argv += ["--seed", draw(ints(-1, 2 ** 64))]
    argv += ["--format", draw(st.sampled_from(["table", "json", "csv", "xml"]))]
    env_seed = draw(st.one_of(st.none(), ints(-1, 2 ** 64)))
    return argv, env_seed


@hypothesis.settings(derandomize=True, max_examples=150, deadline=None,
                     suppress_health_check=[hypothesis.HealthCheck.function_scoped_fixture])
@hypothesis.given(invocations())
def test_every_invocation_exits_cleanly(monkeypatch, case):
    argv, env_seed = case
    if env_seed is None:
        monkeypatch.delenv("FREEARM_SEED", raising=False)
    else:
        monkeypatch.setenv("FREEARM_SEED", env_seed)
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code in (0, 1, 2), (argv, env_seed, code)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert "error: " in err.getvalue().splitlines()[-1]
