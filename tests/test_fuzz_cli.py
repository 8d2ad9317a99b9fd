"""``cli.main`` on generated config documents, in process.

Every command gets documents with extreme finite numbers (1e300, 1e-320,
-0.0) and at most 3 rows.  Under ``warnings.simplefilter("error")`` a run
must end with exit code 0, 1 or 2, raise nothing out of ``main``, and fail
no record with a numpy ``RuntimeWarning``: an overflow on such an input is
an outcome (``blowup``, an inf in an artifact), never a warning.

Only runs that are bounded today are generated: fixed-step RK4 of at most
2,000 steps, ``timescale`` included.  An adaptive DOP853 run has no step
budget yet, and some extreme inputs keep it going for minutes.

A config file of arbitrary bytes, with deep nesting, long digit strings and
invalid UTF-8 mixed in, is a configuration error: ``main`` returns 2 with a
``config error:`` line and writes no manifest, and ``parse_config`` of the
bytes, or of their text where they decode, raises ``ConfigError``.
"""

import contextlib
import io
import json
import os
import tempfile
import warnings

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from bhamsys.cli import COMMANDS, ConfigError, main, parse_config

EXTREME = [0.0, -0.0, 1e-320, -1e-320, 1e-8, 0.5, -1.0, 1.0, 3.0, 1e200, -1e300, 1e300]
numbers = st.one_of(st.sampled_from(EXTREME), st.floats(-5.0, 5.0))
positive = st.one_of(st.sampled_from([1e-320, 1e-8, 0.5, 1.0, 4.0, 1e300]),
                     st.floats(0.01, 10.0))
MAX_STEPS = 2000


def _point(n):
    return st.lists(numbers, min_size=n, max_size=n)


@st.composite
def fixed_integrator(draw):
    """A fixed-step section of at most MAX_STEPS steps over ``t_max``, which
    a ``timescale`` run ignores for its horizon."""
    t_max = draw(st.sampled_from([1e-300, 0.5, 2.0, 10.0, 1e300]))
    section = {"method": "rk4_fixed", "step": t_max / draw(st.integers(2, MAX_STEPS)),
               "t_max": t_max}
    for key in ("z_epsilon", "fp_epsilon", "blowup_bound"):
        if draw(st.booleans()):
            section[key] = draw(positive)
    return section, t_max


@st.composite
def structure(draw):
    n = draw(st.sampled_from([1, 1, 2]))
    section = {"kind": draw(st.sampled_from(["canonical", "twisted_b", "nontwisted_b"])),
               "dim": 2 * n}
    if draw(st.booleans()):
        section["modular_weight"] = draw(numbers)
    if draw(st.booleans()):
        section["angular_mask"] = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return section, n


FAMILIES = ("zero", "linear", "pure_quadratic", "general_quadratic", "periodic")


def potential(families=FAMILIES):
    return st.fixed_dictionaries({"family": st.sampled_from(families)},
                                 optional={"lambda": positive})


@st.composite
def orbit_document(draw, command):
    section, n = draw(structure())
    if command == "oracle-compare":
        section, n = {"kind": draw(st.sampled_from(["canonical", "twisted_b"])), "dim": 2}, 1
    integrator, _ = draw(fixed_integrator())
    families = ("linear", "pure_quadratic") if command == "oracle-compare" else FAMILIES
    doc = {"structure": section, "potential": draw(potential(families)),
           "initial": draw(st.lists(_point(2 * n), min_size=1, max_size=3)),
           "integrator": integrator}
    if command == "portrait":
        doc["backward"] = draw(st.booleans())
    return doc


@st.composite
def timescale_document(draw):
    n = draw(st.sampled_from([1, 2]))
    integrator, horizon = draw(fixed_integrator())
    doc = {"potential": draw(potential()), "friction": draw(positive),
           "clock": draw(st.sampled_from(["t", "s"])), "horizon": horizon,
           "initial": draw(_point(2 * n)), "n": n, "integrator": integrator}
    if draw(st.booleans()):
        doc["e0"] = draw(numbers)
    return doc


@st.composite
def liftcheck_document(draw):
    section, n = draw(structure())
    doc = {"structure": section,
           "base_points": draw(st.lists(_point(n), min_size=1, max_size=3)),
           "fiber_samples": draw(st.lists(_point(n), min_size=2, max_size=3))}
    if section["kind"] == "twisted_b" and draw(st.booleans()):
        doc["toric"] = {"c": draw(numbers)}
    else:
        doc["potential"] = draw(potential())
    if draw(st.booleans()):
        doc["tol"] = draw(positive)
    return doc


documents = st.one_of(
    *[st.tuples(st.just(command), orbit_document(command))
      for command in ("simulate", "portrait", "classify", "oracle-compare")],
    st.tuples(st.just("timescale"), timescale_document()),
    st.tuples(st.just("liftcheck"), liftcheck_document()))


@settings(max_examples=250, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(documents)
def test_main_ends_every_bounded_run_without_a_numpy_warning(case):
    command, doc = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        out = os.path.join(tmp, "out")
        with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("error")
            code = main([command, "--config", path, "--out", out])
        assert code in (0, 1, 2)
        if code != 2:
            with open(os.path.join(out, "manifest.json")) as fh:
                records = json.load(fh)["records"]
            assert not [r["status"] for r in records if "RuntimeWarning" in r["status"]]


#: a Latin-1 file, an array nested 200,000 deep and an integer of 5,000
#: digits, past ``sys.get_int_max_str_digits()``, with the error ``main``
#: reports for each
UNDECODABLE = {
    "latin1": (b'{"out_dir": "\xe9t\xe9"}', "cannot read "),
    "deep": (b"[" * 200_000 + b"]" * 200_000, "invalid JSON: maximum recursion depth"),
    "digits": (b"1" * 5000, "invalid JSON: Exceeds the limit (4300 digits)"),
}

raw_pieces = st.one_of(
    st.binary(max_size=40),
    st.sampled_from([b"{", b"}", b"[", b"]", b'"', b",", b":", b"\xff", b"\xc3", b"\xed\xa0\x80",
                     b"\xef\xbb\xbf", b"\xff\xfe", b'{"structure": ', b'"initial": ']),
    st.tuples(st.sampled_from([b"[", b'{"a": ']), st.sampled_from([10, 999, 5000, 200_000]))
    .map(lambda nest: nest[0] * nest[1]),
    st.tuples(st.sampled_from([b"", b"-"]), st.integers(4000, 6000))
    .map(lambda digits: digits[0] + b"7" * digits[1]))
raw_files = st.lists(raw_pieces, max_size=5).map(b"".join)


def assert_refused(command, data):
    """``main`` and ``parse_config`` refuse ``data`` as a config error;
    returns what ``main`` wrote to stderr."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.json")
        with open(path, "wb") as fh:
            fh.write(data)
        out = os.path.join(tmp, "out")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert main([command, "--config", path, "--out", out]) == 2
        assert err.getvalue().startswith("config error: ")
        assert "Traceback" not in err.getvalue()
        assert not os.path.exists(os.path.join(out, "manifest.json"))
    documents = [data]
    try:
        documents.append(data.decode("utf-8"))
    except UnicodeDecodeError:
        pass
    for document in documents:
        with pytest.raises(ConfigError):
            parse_config(document, command)
    return err.getvalue()


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(COMMANDS), raw_files)
def test_a_config_file_of_arbitrary_bytes_is_a_config_error(command, data):
    assert_refused(command, data)


@pytest.mark.parametrize("name", sorted(UNDECODABLE))
def test_an_undecodable_config_file_is_a_config_error(name):
    data, error = UNDECODABLE[name]
    assert assert_refused("simulate", data).startswith("config error: " + error)
    with pytest.raises(ConfigError, match="^invalid JSON: "):
        parse_config(data, "simulate")
    with pytest.raises(ConfigError):  # the Latin-1 text is a JSON object without a structure
        parse_config(data.decode("latin-1"), "simulate")
