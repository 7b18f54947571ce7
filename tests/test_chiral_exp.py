"""e^X through Gamma's chirality: generator_exp against scipy's expm on
both readings, its exact identity and exact Hermiticity, the Gamma
predicate read off the codes, the fallback to matrix_exp where the
predicate or the a posteriori check of tol fails, and overflow off the
axes of f."""

import contextlib
import hashlib
import importlib.util
import io
import json
import math
import random
import struct
import sys
from itertools import chain
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from octo_so8 import BetaSet, NonFiniteInput, beta_set
from octo_so8 import rotations
from octo_so8.cli import main
from octo_so8.matrices import Pauli
from octo_so8.rotations import (DEFAULT_TOL, chiral, generator_exp,
                                hermiticity_defect, matrix_exp, numeric_X)

_SPEC = importlib.util.spec_from_file_location(
    "perfbench_oracle",
    Path(__file__).resolve().parents[1] / "perfbench" / "oracle.py")
_ORACLE = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(_ORACLE)
SPINOR_RTOL = _ORACLE.SPINOR_RTOL    # the benchmark's spinor bound

READINGS = ("sigma", "tensor")
EDGE_F = {"zero": [0.0] * 8, "e1": [1.0] + [0.0] * 7,
          "ln2-e8": [0.0] * 7 + [math.log(2.0)], "1e-9": [1e-9] * 8,
          "large": [300.0, -2.0, 0.0, 0.0, 5.0, 0.0, 0.0, 1.0]}
# beta_8 of off-set readings (tests/golden/off-set-claims.json), beside
# sigma's beta_1..beta_7
_SIGMA = beta_set("sigma").mats
OFF_SET = {"minus-beta1": (-_SIGMA[0], True), "III": (Pauli(0, 0), False),
           "IXX": (Pauli(0b011, 0), False)}


def bits(m) -> list:
    """Every entry's two binary64 parts as bytes, so -0.0 != 0.0."""
    return [struct.pack("<dd", v.real, v.imag) for row in m for v in row]


def bound(x, tol=DEFAULT_TOL) -> float:
    """The relative max-entry error the route guarantees: each block
    within (tol + 2^-52) sigma_max / 2 of cosh sigma_max, and the largest
    entry at least cosh sigma_max / 4, so 2 (tol + 2^-52) sigma_max, with
    the assembly's rounding and the first-order terms inside a factor
    of 4 and a floor of 1 on sigma_max."""
    sigma = float(np.linalg.norm(np.array(x), 2))
    return 8 * (tol + 2.0 ** -52) * max(sigma, 1.0)


def relative_error(e, x) -> float:
    ref = scipy.linalg.expm(np.array(x))
    return float(np.max(np.abs(np.array(e) - ref)) / np.max(np.abs(ref)))


@pytest.mark.parametrize("reading", READINGS)
def test_the_bundled_readings_are_chiral(reading):
    assert chiral(beta_set(reading))


@pytest.mark.parametrize("name", OFF_SET)
def test_gamma_predicate_on_off_set_beta8(name):
    code, want = OFF_SET[name]
    assert chiral(BetaSet("sigma", _SIGMA[:7] + (code,))) is want


@pytest.mark.parametrize("f", EDGE_F.values(), ids=EDGE_F)
@pytest.mark.parametrize("reading", READINGS)
def test_edge_f_against_scipy(reading, f):
    bs = beta_set(reading)
    x = numeric_X(f, bs)
    e = generator_exp(x, bs)
    assert e == rotations._chiral_exp(x, DEFAULT_TOL)   # the route ran
    err = relative_error(e, x)
    assert err <= bound(x)
    assert err <= 1e-12


def test_zero_gives_the_exact_identity():
    zero = [[0j] * 8 for _ in range(8)]
    for reading in READINGS:
        e = generator_exp(zero, beta_set(reading))
        assert e == [[complex(i == j) for j in range(8)] for i in range(8)]
        assert all(type(v) is complex for row in e for v in row)


@pytest.mark.parametrize("reading", READINGS)
def test_benchmark_like_f_against_scipy(reading):
    rng = random.Random(f"chiral {reading}")
    bs = beta_set(reading)
    for _ in range(200):
        x = numeric_X([rng.gauss(0, 1) * rng.uniform(0.05, 4)
                       for _ in range(8)], bs)
        assert relative_error(generator_exp(x, bs), x) <= 5e-13


# sha256 of generator_exp's entries as float.hex, over 200 seeded
# benchmark-like X per reading: a rewrite of the route's arithmetic must
# keep every bit (the same under CPython 3.10 to 3.13)
ROUTE_DIGESTS = {
    "sigma": "ff6ca1e683a1b27b9361f2a09ac224b0"
             "9c32ec4664d4f3e8ffda7766e633b213",
    "tensor": "1365b6f2941eab4336d916db3c1377b0"
              "78ca46bc9767677560bfd39dd8d525cd"}


@pytest.mark.parametrize("reading", READINGS)
def test_route_bits_pinned_by_digest(reading):
    rng = random.Random(f"route bits {reading}")
    bs = beta_set(reading)
    digest = hashlib.sha256()
    for _ in range(200):
        x = numeric_X([rng.gauss(0, 1) * rng.uniform(0.05, 4)
                       for _ in range(8)], bs)
        for v in chain.from_iterable(generator_exp(x, bs)):
            digest.update(f"{v.real.hex()} {v.imag.hex()}\n".encode())
    assert digest.hexdigest() == ROUTE_DIGESTS[reading]


component = st.floats(-80, 80, allow_nan=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, 1e-9, -1e-9])


@settings(max_examples=120, deadline=None)
@given(f=st.lists(component, min_size=8, max_size=8),
       reading=st.sampled_from(READINGS))
def test_drawn_f_against_scipy_exactly_hermitian(f, reading):
    bs = beta_set(reading)
    x = numeric_X(f, bs)
    e = generator_exp(x, bs)
    assert relative_error(e, x) <= bound(x)
    assert hermiticity_defect(e) == 0.0
    assert all(e[i][i].imag == 0.0 for i in range(8))


@pytest.mark.parametrize("name", [n for n, (_, c) in OFF_SET.items()
                                  if not c])
def test_a_reading_without_gamma_takes_matrix_exp_bit_for_bit(name):
    bs = BetaSet("sigma", _SIGMA[:7] + (OFF_SET[name][0],))
    rng = random.Random(f"no gamma {name}")
    for _ in range(20):
        x = numeric_X([rng.gauss(0, 3) for _ in range(8)], bs)
        assert bits(generator_exp(x, bs)) == bits(matrix_exp(x))


def test_the_tol_check_takes_the_route_or_the_series(monkeypatch):
    # at 2^-53 the check, which asks the eigensystem's residual and the
    # unitarity defect of V to be under tol |P|, fails on a generic X, and
    # matrix_exp's series, with the 2^-53 theta table, gives the result
    # bit for bit; at the default it holds
    series = []
    real = rotations._series
    monkeypatch.setattr(rotations, "_series",
                        lambda *a: series.append(a[2]) or real(*a))
    rng = random.Random("tol branches")
    tiny = 2.0 ** -53
    tiny_table = dict(rotations._THETA)[tiny]
    for reading in READINGS:
        bs = beta_set(reading)
        for _ in range(10):
            x = numeric_X([rng.gauss(0, 2) for _ in range(8)], bs)
            assert rotations._chiral_exp(x, tiny) is None
            want = bits(matrix_exp(x, tiny))
            series.clear()
            assert bits(generator_exp(x, bs, tiny)) == want
            assert series == [tiny_table]
            series.clear()
            e = generator_exp(x, bs)
            assert series == []
            assert bits(e) == bits(rotations._chiral_exp(x, DEFAULT_TOL))
            assert relative_error(e, x) <= bound(x)


def test_the_series_branch_checks_x_once(monkeypatch):
    # where the route's check fails, or the reading has no Gamma, the
    # series takes the rows, norm and table that generator_exp's one
    # _checked call gave
    checked = []
    real = rotations._checked
    monkeypatch.setattr(rotations, "_checked",
                        lambda *a: checked.append(a[1]) or real(*a))
    rng = random.Random("one check")
    no_gamma = BetaSet("sigma", _SIGMA[:7] + (OFF_SET["IXX"][0],))
    for bs, tol in ((beta_set("sigma"), 2.0 ** -53),
                    (beta_set("tensor"), 2.0 ** -53), (no_gamma, DEFAULT_TOL)):
        x = numeric_X([rng.gauss(0, 2) for _ in range(8)], bs)
        checked.clear()
        generator_exp(x, bs, tol)
        assert checked == [tol]


# f along a non-axis direction, scaled so that scipy's largest entry of
# e^X is about scale * DBL_MAX
DIRECTION = [0.3, -0.2, 0.7, 0.1, 0.0, -0.5, 0.4, 0.9]


def scaled_f(reading, scale) -> list:
    x1 = np.array(numeric_X(DIRECTION, beta_set(reading)))
    top = float(np.max(np.linalg.eigvalsh(x1)))
    goal = math.log(scale) + math.log(sys.float_info.max)
    s = goal / top
    for _ in range(20):      # log max|e^(sX1)| = s top + log max|e^(s(X1 - top))|
        shifted = scipy.linalg.expm(s * (x1 - top * np.eye(8)))
        s += (goal - s * top - math.log(np.max(np.abs(shifted)))) / top
    return [float(s * v) for v in DIRECTION]


def spinor(reading, f):
    out, err = io.StringIO(), io.StringIO()
    argv = ["spinor", "--beta-variant", reading,
            "--f=" + ",".join(map(repr, f)), "--format", "json"]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("reading", READINGS)
def test_half_of_dbl_max_off_the_axes_succeeds(reading):
    f = scaled_f(reading, 0.5)
    rc, out, err = spinor(reading, f)
    assert (rc, err) == (0, "")
    want = scipy.linalg.expm(np.array(numeric_X(f, beta_set(reading))))
    got = np.zeros((8, 8), dtype=complex)
    for c in json.loads(out)["components"]:
        for t in c["terms"]:
            got[c["index"] - 1, int(t["unit"][1:])] = complex(t["re"], t["im"])
    assert np.max(np.abs(want)) == pytest.approx(0.5 * sys.float_info.max,
                                                 rel=1e-6)
    assert np.max(np.abs(got - want)) <= SPINOR_RTOL * np.max(np.abs(want))


@pytest.mark.parametrize("reading", READINGS)
def test_twice_dbl_max_off_the_axes_names_f(reading):
    f = scaled_f(reading, 2.0)
    rc, out, err = spinor(reading, f)
    assert (rc, out) == (2, "")
    assert err.startswith("error: --f=" + ",".join(map(repr, f)) + ": ")
    assert "overflows binary64" in err
    with pytest.raises(NonFiniteInput):
        generator_exp(numeric_X(f, beta_set(reading)), beta_set(reading))
