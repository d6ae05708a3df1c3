"""Branch-free sampling kernels: ``select`` and bit identity with ``np.where``.

The mechanisms and frequency oracles pick between candidate draws with
:func:`repro.mechanisms.base.select`, a bit-pattern ``np.where``, and
compute in place. ``reference_kernels`` keeps the ``np.where`` kernels
they replaced; for equal seeds both must give the same bits (compared as
int64 views), for every registered mechanism, every input layout and
sizes up to 70K entries.
"""

from __future__ import annotations

import ast
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_kernels
from repro.exceptions import ParameterError
from repro.freq_oracles.grr import GeneralizedRandomizedResponse
from repro.freq_oracles.olh import OptimizedLocalHashing
from repro.mechanisms import available_mechanisms, get_mechanism
from repro.mechanisms.base import select

ALL_MECHANISMS = tuple(sorted(available_mechanisms()))
EPSILONS = (0.0016, 0.2, 1.0, 8.0, 50.0)
LAYOUTS = ("float", "0-d", "empty", "1-D", "2-D", "strided", "transposed")


def _bits(x) -> np.ndarray:
    return np.asarray(x).view(np.int64)


def _from_bits(*patterns: int) -> np.ndarray:
    return np.array(patterns, dtype=np.uint64).view(np.float64)


#: ±0.0, ± smallest and largest subnormals, ±inf and NaNs with payloads.
SPECIAL = _from_bits(
    0x0000000000000000,
    0x8000000000000000,
    0x0000000000000001,
    0x800FFFFFFFFFFFFF,
    0x7FF0000000000000,
    0xFFF0000000000000,
    0x7FF8000000000123,
    0xFFF4000000000ABC,
)


# ------------------------------------------------------------------ select


def test_select_moves_special_floats_bit_for_bit():
    a = SPECIAL
    b = SPECIAL[::-1].copy()
    for mask in (np.ones(a.size, bool), np.zeros(a.size, bool),
                 np.arange(a.size) % 2 == 0, np.arange(a.size) % 3 == 1):
        got = select(mask, a, b)
        assert got.dtype == np.float64
        np.testing.assert_array_equal(_bits(got), _bits(np.where(mask, a, b)))


def test_select_scalar_operands_keep_sign_and_payload():
    mask = np.array([True, False, True])
    got = select(mask, -0.0, float(SPECIAL[6]))
    assert _bits(got).tolist() == [
        _bits(np.float64(-0.0)).item(),
        _bits(SPECIAL[6]).item(),
        _bits(np.float64(-0.0)).item(),
    ]


def test_select_int64_extremes():
    info = np.iinfo(np.int64)
    a = np.array([info.min, info.max, -1, 0], dtype=np.int64)
    b = np.array([info.max, info.min, 0, -1], dtype=np.int64)
    mask = np.array([True, False, False, True])
    got = select(mask, a, b)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, np.where(mask, a, b))


def test_select_zero_d_and_empty():
    got = select(np.asarray(True), np.asarray(-0.0), np.asarray(1.0))
    assert type(got) is np.ndarray and got.shape == ()
    assert _bits(got) == _bits(np.float64(-0.0))
    got = select(False, 2.0, SPECIAL[7])
    assert type(got) is np.ndarray and got.shape == ()
    assert _bits(got) == _bits(SPECIAL[7])
    empty = select(np.zeros(0, bool), np.zeros(0), np.zeros(0))
    assert empty.shape == (0,) and empty.dtype == np.float64


def test_select_strided_and_broadcast_operands():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((6, 8))
    b = rng.standard_normal((8, 6)).T
    mask = rng.random((6, 8)) < 0.5
    np.testing.assert_array_equal(_bits(select(mask[::2], a[::2], b[::2])),
                                  _bits(np.where(mask[::2], a[::2], b[::2])))
    np.testing.assert_array_equal(_bits(select(mask[:, ::3], a[:, ::3], b[:, ::3])),
                                  _bits(np.where(mask[:, ::3], a[:, ::3], b[:, ::3])))
    row = rng.standard_normal(8)
    np.testing.assert_array_equal(_bits(select(mask, row, 0.5)),
                                  _bits(np.where(mask, row, 0.5)))


def test_select_into_a_but_not_b():
    rng = np.random.default_rng(4)
    a, b = rng.random(100), rng.random(100)
    mask = rng.random(100) < 0.5
    expected = np.where(mask, a, b)
    got = select(mask, a, b, out=a)
    assert got is a
    np.testing.assert_array_equal(_bits(got), _bits(expected))
    with pytest.raises(ParameterError, match="overlap"):
        select(mask, a, b, out=b)


def test_select_refuses_other_dtypes():
    mask = np.array([True, False])
    with pytest.raises(ParameterError, match="float64 or int64"):
        select(mask, np.array([1.5, 2.5], dtype=np.float32), np.float32(7.0))
    with pytest.raises(ParameterError, match="float64 or int64"):
        select(mask, np.array([1, 2], dtype=np.int32), np.array([3, 4], dtype=np.int8))


def _where_calls(path: pathlib.Path) -> int:
    return sum(
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "where"
        for node in ast.walk(ast.parse(path.read_text()))
    )


def test_no_where_left_in_mechanisms_or_oracles():
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"
    for package in ("mechanisms", "freq_oracles"):
        for path in sorted((src / package).glob("*.py")):
            assert _where_calls(path) == 0, path.name


# ------------------------------------------------------- bit identity


def _inputs(layout: str, size: int, domain, seed: int):
    lo, hi = domain
    rng = np.random.default_rng(seed)
    values = rng.uniform(lo, hi, max(size, 2) * 2)
    # Domain edges, signed zero and in-tolerance overshoot (clipped).
    values[:4] = (lo, hi, -0.0 if lo < 0.0 else lo, hi + 5e-10)
    rng.shuffle(values)
    if layout == "float":
        return float(values[0])
    if layout == "0-d":
        return np.asarray(values[0])
    if layout == "empty":
        return np.zeros((0, 3) if size % 2 else 0)
    if layout == "1-D":
        return values[:size]
    if layout == "strided":
        return values[: 2 * size : 2]
    cols = 1 + size % 7
    grid = values[: (size // cols) * cols].reshape(-1, cols)
    return grid if layout == "2-D" else grid.T


@given(
    name=st.sampled_from(ALL_MECHANISMS),
    eps=st.sampled_from(EPSILONS),
    layout=st.sampled_from(LAYOUTS),
    size=st.integers(1, 70_000),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=120, deadline=None)
def test_mechanism_matches_frozen_where_kernel(name, eps, layout, size, seed):
    mech = get_mechanism(name)
    values = _inputs(layout, size, mech.input_domain, seed)
    before = np.array(values, copy=True)
    got = mech.perturb(values, eps, np.random.default_rng(seed))
    # The kernels compute in place, but only in buffers they own.
    np.testing.assert_array_equal(_bits(np.asarray(values)), _bits(before))
    want = reference_kernels.MECHANISMS[name](
        mech, values, eps, np.random.default_rng(seed)
    )
    assert np.shape(got) == np.shape(want)
    np.testing.assert_array_equal(_bits(got), _bits(want))


@pytest.mark.parametrize("name", ALL_MECHANISMS)
@pytest.mark.parametrize("eps", EPSILONS)
def test_mechanism_matches_frozen_kernel_on_every_layout(name, eps):
    mech = get_mechanism(name)
    for layout in LAYOUTS:
        for size in (1, 3, 4097):
            values = _inputs(layout, size, mech.input_domain, size)
            got = mech.perturb(values, eps, np.random.default_rng(size))
            want = reference_kernels.MECHANISMS[name](
                mech, values, eps, np.random.default_rng(size)
            )
            assert np.shape(got) == np.shape(want), layout
            np.testing.assert_array_equal(_bits(got), _bits(want), err_msg=layout)


def _labels(size: int, categories: int, strided: bool, seed: int) -> np.ndarray:
    labels = np.random.default_rng(seed).integers(0, categories, 2 * size)
    return labels[::2] if strided else labels[:size]


@given(
    eps=st.sampled_from(EPSILONS),
    categories=st.integers(2, 300),
    size=st.integers(1, 70_000),
    strided=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_grr_matches_frozen_where_kernel(eps, categories, size, strided, seed):
    oracle = GeneralizedRandomizedResponse(eps, categories)
    labels = _labels(size, categories, strided, seed)
    before = labels.copy()
    got = oracle.privatize(labels, np.random.default_rng(seed))
    np.testing.assert_array_equal(labels, before)
    want = reference_kernels.grr(oracle, labels, np.random.default_rng(seed))
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)


#: OLH hashes into ⌊e^ε⌋ + 1 buckets, which overflow int64 past ε ≈ 43, so
#: ε = 50 is outside its domain (privatize raises OverflowError there).
OLH_EPSILONS = EPSILONS[:-1] + (40.0,)


@given(
    eps=st.sampled_from(OLH_EPSILONS),
    categories=st.integers(2, 300),
    size=st.integers(1, 70_000),
    strided=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=25, deadline=None)
def test_olh_matches_frozen_where_kernel(eps, categories, size, strided, seed):
    oracle = OptimizedLocalHashing(eps, categories)
    labels = _labels(size, categories, strided, seed)
    got = oracle.privatize(labels, np.random.default_rng(seed))
    want = reference_kernels.olh(oracle, labels, np.random.default_rng(seed))
    np.testing.assert_array_equal(got.seeds, want.seeds)
    assert got.buckets.dtype == want.buckets.dtype
    np.testing.assert_array_equal(got.buckets, want.buckets)


# ------------------------------------------------------------- 0-d contract


@pytest.mark.parametrize("name", ALL_MECHANISMS)
def test_zero_d_input_gives_zero_d_array(name):
    mech = get_mechanism(name)
    lo, hi = mech.input_domain
    value = lo + 0.3 * (hi - lo)
    for given_value in (np.asarray(value), np.float64(value), value):
        out = mech.perturb(given_value, 1.0, np.random.default_rng(0))
        assert type(out) is np.ndarray, type(out)
        assert out.shape == () and out.dtype == np.float64
