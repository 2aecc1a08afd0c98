"""The scalar contract, one table: every public operation over every
scalar mode, alone and in pairs, held to the Fraction references of
``reference.py`` for its value and to README's rule for its type.

The rule: a call reads its mode once, at its entry.  Integers (integer
arrays, signed or unsigned, and object arrays of Python ints) give
integers: int64 while the bound of ``fit_integers`` allows, Python ints
past it, never Fractions.  Some Fraction among integers gives Fractions.
Anything else, a float or bool array, or an object array holding a float
or a bool, makes the whole call float64, Fractions and integers included.
Integer and exact results equal the reference exactly; float results
equal it to rounding, within 1e-12 of the same sum taken on absolute
values (1e-9 for the norms of a verify report).
"""

import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from reference import masked_bmp, slot_norms_each, total_each

from bmpnet import tensor
from bmpnet.network import Network, NetworkError, NodeSpec, \
    build_matmul_chain, observed_total, strassen_pipeline, strassen_stages, \
    total_bmp, total_direct
from bmpnet.scheme import BilinearScheme, NonFiniteEntries, residual_matrix
from bmpnet.tensor import bmp, contraction, exact_array, fit_integers, \
    frobenius_sq, matmul_tensor
from bmpnet.verify import known_strassen, verify_scheme


def objects(values):
    out = np.empty(len(values), dtype=object)
    out[:] = values
    return out


# each mode from an array of small signed ints
MODES = {
    "int8": lambda b: b.astype(np.int8),
    "uint8": lambda b: np.abs(b).astype(np.uint8),
    "int64": lambda b: b.astype(np.int64),
    "int64 near 2^40": lambda b: b.astype(np.int64) + (1 << 40),
    "bool": lambda b: b % 2 == 1,
    "float64": lambda b: b / 2,
    "float32": lambda b: (b / 4).astype(np.float32),
    "Fraction": lambda b: objects([Fraction(int(v), 3) for v in b.flat])
    .reshape(b.shape),
    "Python ints past 2^70": lambda b: objects(
        [(int(v) << 70) + 1 for v in b.flat]).reshape(b.shape),
    "object floats": lambda b: objects([int(v) / 2 for v in b.flat])
    .reshape(b.shape),
    "object bools": lambda b: objects([bool(v % 2) for v in b.flat])
    .reshape(b.shape),
}
FLOATS = {"bool", "float64", "float32", "object floats", "object bools"}
PAIRS = list(product(MODES, repeat=2))


def mode_of(*modes):
    """README's rule for a call on arrays of ``modes``."""
    if FLOATS & set(modes):
        return "float"
    return "exact" if "Fraction" in modes else "int"


def made(mode, shape, seed):
    return MODES[mode](np.random.default_rng(seed).integers(-3, 4, shape))


def fractions(a):
    """``a``'s values as an object array of Fractions, exactly."""
    a = np.asarray(a)
    return objects([Fraction(v) for v in a.ravel().tolist()]).reshape(
        a.shape)


def magnitudes(a):
    return np.vectorize(abs, otypes=[object])(fractions(a))


def assert_type(got, mode):
    """README's type for a result of ``mode``, array or scalar."""
    if np.ndim(got) == 0 and not isinstance(got, np.ndarray):
        assert type(got) is {"float": float, "exact": Fraction,
                             "int": int}[mode], (type(got), mode)
        return
    kinds = {type(v) for v in got.flat}
    if mode == "float":
        assert got.dtype == np.float64
    elif mode == "exact":
        assert got.dtype == object and kinds <= {Fraction}
    else:
        assert got.dtype == np.int64 or (got.dtype == object
                                         and kinds <= {int}), got.dtype


def assert_value(got, want, size, mode):
    """``got`` equal to the Fraction reference ``want``, exactly unless
    float, then within 1e-12 of ``size``, the reference on absolute
    values."""
    got, want, size = (np.asarray(x, dtype=object) for x in (got, want, size))
    assert got.shape == want.shape
    for g, w, s in zip(got.flat, want.flat, size.flat):
        if mode == "float":
            assert abs(Fraction(float(g)) - w) <= 1e-12 * s, (g, w)
        else:
            assert g == w, (g, w)


def check(got, want, size, mode):
    assert_type(got, mode)
    assert_value(got, want, size, mode)


def network(x, y, z):
    """x -> y -> z and x -> z, y hidden: a product over 3 states of y."""
    return Network(
        nodes=[NodeSpec("x", 2), NodeSpec("y", 3, hidden=True),
               NodeSpec("z", 2)],
        edges=[("x", "y"), ("y", "z"), ("x", "z")], order=["x", "y", "z"],
        activations={"x": x, "y": y, "z": z})


def scheme(h, k, f):
    return BilinearScheme(n=2, r=5, H=h, K=k, F=f)


def residual_reference(s, magnitude=False):
    """The residual matrix of ``s`` in Fractions, term by term, or the
    same sum of the terms' magnitudes."""
    conv = magnitudes if magnitude else fractions
    H, K, F = (conv(m) for m in (s.H, s.K, s.F))
    t = fractions(matmul_tensor(2, 2, 2)).reshape(16, 4)
    d = np.empty((16, 4), dtype=object)
    for i, j, c in product(range(4), range(4), range(4)):
        a, b = divmod(c, 2)
        total = sum((H[i, q] * K[j, q] * F[q, 2 * b + a] for q in range(5)),
                    Fraction(0))
        d[4 * i + j, c] = total + t[4 * i + j, c] if magnitude \
            else total - t[4 * i + j, c]
    return d


@pytest.mark.parametrize("m1, m2", PAIRS, ids=["%s|%s" % p for p in PAIRS])
def test_every_operation_on_a_pair_of_modes(m1, m2):
    mode = mode_of(m1, m2)
    # bmp: factor 0 in one mode, factors 1 and 2 in the other
    factors = [made(m1, (3, 2, 2), 1), made(m2, (2, 3, 2), 2),
               made(m2, (2, 2, 3), 3)]
    check(bmp(factors), masked_bmp([fractions(f) for f in factors]),
          masked_bmp([magnitudes(f) for f in factors]), mode)

    # the network totals: x and z in one mode, the hidden y in the other
    net = network(made(m1, (2,), 4), made(m2, (2, 3), 5),
                  made(m1, (2, 3, 2), 6))
    as_fractions = {k: fractions(a) for k, a in net.activations.items()}
    as_sizes = {k: magnitudes(a) for k, a in net.activations.items()}
    want = total_each(network(**as_fractions))
    size = total_each(network(**as_sizes))
    check(total_direct(net), want, size, mode)
    check(total_bmp(net), want, size, mode)
    check(observed_total(net), np.add.reduce(want, axis=1),
          np.add.reduce(size, axis=1), mode)

    # the staged pipeline: the scheme in one mode, the operands in the
    # other
    s = scheme(made(m1, (4, 5), 7), made(m1, (4, 5), 8),
               made(m1, (5, 4), 9))
    a, b = made(m2, (2, 2), 10), made(m2, (2, 2), 11)
    stages = strassen_stages(a, b, s)
    parts = {}
    for key, conv in (("want", fractions), ("size", magnitudes)):
        h, k, f = (conv(m) for m in (s.H, s.K, s.F))
        s1, s2 = h.T.dot(conv(a).reshape(4)), k.T.dot(conv(b).reshape(4))
        parts[key] = {"s1": s1, "s2": s2, "products": s1 * s2,
                      "output": np.concatenate(
                          [f.T.dot(s1 * s2), objects([Fraction(0)])])}
    for key in ("s1", "s2", "products", "output"):
        check(stages[key], parts["want"][key], parts["size"][key], mode)
    check(strassen_pipeline(a, b, s), parts["want"]["output"],
          parts["size"]["output"], mode)

    # certification: H and F in one mode, K in the other
    s = scheme(made(m1, (4, 5), 12), made(m2, (4, 5), 13),
               made(m1, (5, 4), 14))
    want = residual_reference(s)
    size = residual_reference(s, magnitude=True)
    mode, xs, denoms = tensor.entry([s.H, s.K, s.F])
    assert mode == mode_of(m1, m2)
    if mode == "float":
        d = residual_matrix(*xs)
        check(d, want, size, mode)
    else:
        denom = math.prod(denoms)
        d = residual_matrix(*fit_integers(xs, 5, denom), denom)
        assert_type(d, "int")
        assert_value(d, want * denom, size, mode)
    report = verify_scheme(s)
    sq = sum((v * v for v in want.flat), Fraction(0))
    assert report.slot_norms == slot_norms_each(s)
    assert all(type(v) is float for v in report.slot_norms)
    if mode == "float":
        assert report.exact_zero is None
        bound = math.sqrt(sum(float(v) ** 2 for v in size.flat))
        assert abs(report.residual - math.sqrt(sq)) <= 1e-9 * bound
    else:
        assert report.exact_zero is (sq == 0)
        assert report.residual == math.sqrt(float(sq))


@pytest.mark.parametrize("m", MODES)
def test_contraction_and_frobenius_sq_of_each_mode(m):
    mode = mode_of(m)
    t = made(m, (3, 2, 2), 15)
    exact, size = fractions(t), magnitudes(t)
    for slots in ([0], [1, 2], [0, 1, 2]):
        axis = tuple(slots)
        check(contraction(t, slots),
              np.add.reduce(exact, axis=axis, initial=Fraction(0)),
              np.add.reduce(size, axis=axis, initial=Fraction(0)), mode)
    check(frobenius_sq(t), sum((v * v for v in exact.flat), Fraction(0)),
          sum((v * v for v in size.flat), Fraction(0)), mode)


class TestOpenDefects:
    """Three defects of one cause, each a failure before every call read
    its mode at its entry."""

    def test_int64_beside_wide_python_ints(self):
        # total_direct multiplied int64 views into Python ints and
        # raised OverflowError
        net = build_matmul_chain(np.array([[1, 2], [3, 4]]),
                                 objects([1 << 70, 1, 2, 3]).reshape(2, 2))
        direct, via_product = total_direct(net), total_bmp(net)
        assert {type(v) for v in direct.flat} == {int}
        assert list(direct.flat) == list(via_product.flat)
        assert direct[0, 0, 0] == 1 << 70

    def test_object_arrays_of_python_ints_give_ints(self):
        # each of these but total_direct gave Fractions
        o = objects([1 << 70, 1, 2, 3]).reshape(2, 2)
        net = build_matmul_chain(o, o)
        for got in (bmp([o, o]), contraction(o, [0]), total_bmp(net),
                    total_direct(net)):
            assert {type(v) for v in got.flat} == {int}
        assert type(frobenius_sq(o)) is int
        small = objects([1, 2, 3, 4]).reshape(2, 2)
        assert bmp([small, small]).dtype == np.int64

    def test_inf_in_an_object_array_of_floats(self):
        # total_bmp gave NaN at [1, 1] where total_direct gives 6.0
        net = Network(nodes=[NodeSpec("x", 2), NodeSpec("z", 2)],
                      edges=[("x", "z")], order=["x", "z"],
                      activations={"x": exact_array(["1/2", "2"]),
                                   "z": objects([1.0, np.inf, 2.0, 3.0])
                                   .reshape(2, 2)})
        for route in (total_bmp, observed_total):
            with pytest.raises(NetworkError, match="'z' is not finite"):
                route(net)
        got = total_direct(net)
        assert got.dtype == np.float64
        assert list(got.flat) == [0.5, np.inf, 4.0, 6.0]


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_scheme_refuses_non_finite_object_factors(bad):
    s = known_strassen()
    for which in ("H", "K", "F"):
        mats = {"H": s.H, "K": s.K, "F": s.F}
        mats[which] = mats[which].copy()
        mats[which][0, 0] = bad
        with pytest.raises(NonFiniteEntries):
            BilinearScheme(n=2, r=7, **mats)


def test_object_floats_verify_as_their_float64_copy():
    rng = np.random.default_rng(16)
    floats = [rng.normal(size=shape) for shape in ((4, 7), (4, 7), (7, 4))]
    held = [m.astype(object) for m in floats]
    want = verify_scheme(BilinearScheme(2, 7, *floats))
    got = verify_scheme(BilinearScheme(2, 7, *held))
    assert np.float64(got.residual).tobytes() \
        == np.float64(want.residual).tobytes()
    assert np.array(got.slot_norms).tobytes() \
        == np.array(want.slot_norms).tobytes()
    assert got.to_json() == want.to_json()
