"""Property tests: arbitrary JSON-like input either validates or raises a
ValidationError, never another exception."""

import dataclasses
import json
import math
import tempfile
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import configuration, given, settings, strategies as st  # noqa: E402

from ncusp.cli import load_config  # noqa: E402
from ncusp.errors import ValidationError, check_number  # noqa: E402
from ncusp.geometry import DomainParams, validate_params  # noqa: E402
from ncusp.steklov.options import SolverOptions  # noqa: E402

# hypothesis caches the constants of loaded modules and its character tables
# in the working directory unless told otherwise, and its pytest plugin does
# so while collecting; keep them out of the checkout
configuration.set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "ncusp-hypothesis")

# deterministic and without an example database, so runs repeat exactly
DETERMINISTIC = settings(derandomize=True, database=None, max_examples=60,
                         deadline=None)

# integers far beyond any float, and what json.load can return
BIG = st.integers(min_value=10**300, max_value=10**500)
SCALARS = (st.none() | st.booleans() | st.integers() | st.floats() | BIG
           | st.text(alphabet="ab1e.-", max_size=4))
JSON = st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=3)
                    | st.dictionaries(st.text(alphabet="ab", max_size=3), inner, max_size=3),
                    max_leaves=6)


def _or_number(low, high):
    """Mostly plausible numbers, so that some draws validate."""
    return st.floats(low, high) | st.integers(int(low), int(high)) | BIG | JSON


@DETERMINISTIC
@given(n=st.integers(2, 4) | JSON, gamma=_or_number(1.0, 8.0), p=_or_number(1.0, 4.0),
       q=st.none() | _or_number(1.0, 6.0), theta=st.none() | _or_number(-2.0, 4.0),
       simplex=st.booleans() | JSON,
       usage=st.sampled_from(["trace", "steklov", "discrete"]) | JSON)
def test_validate_params_returns_params_or_raises(n, gamma, p, q, theta, simplex, usage):
    try:
        params = validate_params(n, gamma, p, q, theta=theta, simplex=simplex, usage=usage)
    except ValidationError:
        return
    assert isinstance(params, DomainParams)
    assert all(math.isfinite(v) for v in (params.gamma, params.p, params.q, params.theta))


# the fields a config's solver block can set; the start vector is not one
SOLVER_KEYS = [f.name for f in dataclasses.fields(SolverOptions) if f.name != "initial"]


@DETERMINISTIC
@given(key=st.sampled_from(SOLVER_KEYS), value=_or_number(0.0, 10.0))
def test_solver_options_construct_or_raise(key, value):
    try:
        options = SolverOptions(**{key: value})
    except ValidationError:
        return
    assert getattr(options, key) is value and math.isfinite(float(value))


@DETERMINISTIC
@given(value=_or_number(-10.0, 10.0), low=st.sampled_from([-math.inf, 0.0, 1.0]),
       high=st.sampled_from([math.inf, 1.0, 10**6]), integer=st.booleans())
def test_check_number_returns_only_finite_floats(value, low, high, integer):
    try:
        out = check_number("key", value, low, high, integer=integer)
    except ValidationError:
        return
    assert out is value and math.isfinite(float(out))


# config documents: objects with any of the blocks, each an object over value
# names or any JSON value; any other JSON value; or text that may not parse
BLOCKS = ["params", "mesh", "solver", "scaling", "verify", "oracle", "map"]
VALUE_KEYS = ["n", "p", "gamma", "q", "levels", "seed", "samples", "a"]
BLOCK = st.dictionaries(st.sampled_from(VALUE_KEYS), JSON, max_size=3)
CONFIG = st.fixed_dictionaries({}, optional={key: BLOCK | JSON for key in BLOCKS})
CONFIG_TEXT = (CONFIG | JSON).map(json.dumps) | st.text(alphabet='{}[]":,.1aeNn ',
                                                        max_size=12)


@DETERMINISTIC
@given(text=CONFIG_TEXT)
def test_load_config_returns_config_or_raises(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(text, encoding="utf-8")
        try:
            raw = load_config(str(path))
        except ValidationError:
            return
    assert isinstance(raw, dict) and isinstance(raw["params"], dict)
