"""Property test of the CLI front door: generated argv for every subcommand,
bad values included, ends in exit 0, 1 or 2; a failure prints nothing on
stdout and one ``error:`` line on stderr; a success prints no inf or nan."""

import io
import re
import warnings

import pytest
from hypothesis import example, given, settings, strategies as st

from pdmbubble.cli import run

CONFIGS = {
    "he4": "sigma = 0.12e-3\nP_v = 8.1445e4\nrho_L = 140\nT = 4\n",
    "v_sys_huge": "sigma = 1e100\nP_v = 1\nrho_L = 1\nT = 4\nP = 0\n",
    "light": "sigma = 1e100\nP_v = 1\nrho_L = 1e-300\nT = 4\nP = 0\n",
    "ev_huge": "sigma = 1e284\nP_v = 2e284\nrho_L = 1\nT = 4\nP = 0\n",
    "r_c_tiny": "sigma = 1e-100\nP_v = 1\nrho_L = 140\nT = 4\n",
    "garbled": "sigma = 0.12e-3\nP_v\n",
}

RATIONALS = st.sampled_from(
    ["-1/3", "0", "1/2", "-2/3", "1/6", "7/24", "1/0", str(10**200),
     f"-{10**200}", "1/" + str(10**200), "x", ""]
)
# A valid value half the time, so that the checks behind the first are reached.
FLOATS = st.sampled_from(["1e-8", "1e-6", "0.02", "0.05", "0.5", "1", "3", "1e5"]) | (
    st.sampled_from(["0", "-0", "inf", "-inf", "nan", "1e300", "-1e300",
                     "1e308", "-1e308", "1e-300", "-1e-300", "-1", "oops"])
)
RATIOS = st.sampled_from(["0", "0.5", "0.8", "0.95"]) | st.sampled_from(
    ["1", "1.2", "-1", "nan", "inf", "1e300", "x"]
)
SOURCES = st.sampled_from(["expanded", "paper", "bogus"])
# Deep nesting, a long run of minus signs and nested sum powers: each once
# overflowed the stack or ran without end.
HOSTILE = ["(" * 300 + "x" + ")" * 300, "-" * 3000 + "x", "(((x+1)^16)^16)^16"]
CONFIG_NAMES = st.sampled_from(sorted(CONFIGS))

OPTIONS = {
    "params": {"--pressure-ratio": RATIOS, "--config": CONFIG_NAMES},
    "weyl": {
        "--hamiltonian": st.sampled_from(
            ["p^2/(2*x^3)", "p^2/x^3", "x*p", "p^4", "p^2*x^2/M0", "((", "",
             "p^2/x^0", *HOSTILE]
        ),
        "--bind": st.sampled_from(["M0=2", "U0=1/0", "=3", "M0=abc", "M0"]),
    },
    "susy": {"--a": RATIONALS, "--source": SOURCES},
    "transform": {
        "--a": RATIONALS,
        "--pipeline": st.sampled_from(
            ["quantize-first", "transform-first", "sideways"]
        ),
    },
    "match": {"--source": SOURCES},
    "spectrum": {
        "--a": RATIONALS, "--source": SOURCES, "--zmin": FLOATS,
        "--zmax": FLOATS, "--points": st.integers(-3, 60).map(str),
        "--count": st.integers(-1, 70).map(str), "--pressure-ratio": RATIOS,
        "--config": CONFIG_NAMES,
    },
    "scan": {
        "--pressures": st.lists(RATIOS, min_size=1, max_size=3).map(",".join),
        "--a": RATIONALS, "--source": SOURCES, "--zmin": FLOATS,
        "--zmax": FLOATS, "--points": st.integers(-3, 60).map(str),
        "--config": CONFIG_NAMES,
    },
}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(OPTIONS)))
    argv = [command]
    for flag, values in OPTIONS[command].items():
        value = draw(st.none() | values)
        if value is not None:
            argv.append(f"{flag}={value}")
    return argv


@pytest.fixture(scope="module")
def config_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("configs")
    for name, text in CONFIGS.items():
        (path / name).write_text(text)
    return path


NOT_A_NUMBER = re.compile(r"\b(inf|infinity|nan)\b", re.IGNORECASE)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(argv=argvs())
# a span of inf or an i * span beyond the float range, which numpy would warn on
@example(argv=["scan", "--zmin=-1e308", "--zmax=1e308", "--points=3"])
@example(argv=["scan", "--zmax=1e308"])
@example(argv=["weyl", f"--hamiltonian={HOSTILE[0]}"])
@example(argv=["weyl", f"--hamiltonian={HOSTILE[1]}"])
@example(argv=["weyl", f"--hamiltonian={HOSTILE[2]}"])
def test_every_exit_is_clean(config_dir, argv):
    argv = [
        f"--config={config_dir / item.partition('=')[2]}"
        if item.startswith("--config=") else item
        for item in argv
    ]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(argv, stdout=out, stderr=err)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2)
    if code:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert err.endswith("\n")
    else:
        assert err == ""
        assert not NOT_A_NUMBER.search(out)
