"""Exact arithmetic on scaled integers.

Every exact product, contraction, total tensor, pipeline and residual is
held to the Fraction references of ``reference.py`` on two kinds of
rationals: small ones (numerators in [-4, 4], denominators 1 to 3), whose
scaled integers fit int64, and large ones (numerators near 2^40 over
coprime denominators near 10^6), whose scaled integers do not, so that
the Python-int route runs.  Results must be Fractions either way, and
integer arithmetic must never wrap.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from netgen import float_scheme, kron_scheme, random_exact, \
    random_network
from reference import masked_bmp, masked_total, residual_sq

from bmpnet import network, tensor
from bmpnet.network import Network, NodeSpec, build_matmul_chain, \
    hidden_positions, observed_total, strassen_pipeline, strassen_stages, \
    total_bmp, total_direct
from bmpnet.scheme import BilinearScheme, forward_fast
from bmpnet.tensor import blow, bmp, contraction, fit_integers, \
    frobenius_sq, scaled, unscaled, zeros_matching
from bmpnet.verify import _residual_sq, known_strassen, verify_scheme

# sixteen primes just above 10^6: any two are coprime
PRIMES = [p for p in range(10 ** 6, 10 ** 6 + 300)
          if all(p % q for q in range(2, 1001))][:16]


def big_exact(rng, shape):
    """Rationals with numerators near +-2^40 over denominators drawn from
    PRIMES; zeros at random, about one entry in five."""
    numer = rng.integers(-1000, 1001, size=shape) + (1 << 40)
    sign = rng.choice([-1, 1], size=shape)
    denom = rng.choice(PRIMES, size=shape)
    zero = rng.random(size=shape) < 0.2
    out = np.empty(shape, dtype=object)
    for idx in np.ndindex(shape):
        out[idx] = Fraction(0) if zero[idx] else Fraction(
            int(sign[idx] * numer[idx]), int(denom[idx]))
    return out


def small_exact(rng, shape):
    out = random_exact(rng, shape)
    out[rng.random(size=shape) < 0.2] = 0
    return out


KINDS = {"small": small_exact, "big": big_exact}


def all_fractions(arr):
    return all(type(v) is Fraction for v in np.asarray(arr).flat)


def equal(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and all(
        g == w for g, w in zip(got.flat, want.flat))


@pytest.fixture
def routes(monkeypatch):
    """Record the dtype of what each route of ``bmp`` multiplies:
    ``einsum`` (integers, int64 or Python ints) and ``accumulate`` (the
    ordered sum of floats, one shared index at a time)."""
    seen = {"einsum": [], "accumulate": []}
    einsum, accumulate = np.einsum, tensor._accumulate

    def spy_einsum(*args, **kwargs):
        seen["einsum"].append(args[0].dtype)
        return einsum(*args, **kwargs)

    def spy_accumulate(factors, l, out):
        seen["accumulate"].append(out.dtype)
        return accumulate(factors, l, out)

    monkeypatch.setattr(np, "einsum", spy_einsum)
    monkeypatch.setattr(tensor, "_accumulate", spy_accumulate)
    return seen


def took(routes, kind):
    """Whether every product of a fixture kind took one einsum: in int64
    for the small kind, and for the big kind in Python ints at least
    once (a product of mostly zeros can still fit int64)."""
    if routes["accumulate"] or not routes["einsum"]:
        return False
    if kind == "small":
        return set(routes["einsum"]) == {np.dtype(np.int64)}
    return np.dtype(object) in routes["einsum"]


def test_fixtures_take_both_routes():
    rng = np.random.default_rng(0)
    assert len(PRIMES) == 16
    assert scaled(small_exact(rng, (3, 4)))[0].dtype == np.int64
    assert scaled(big_exact(rng, (3, 4)))[0].dtype == object


class TestScaled:
    def test_round_trip(self):
        rng = np.random.default_rng(1)
        for make in KINDS.values():
            t = make(rng, (2, 3, 4))
            ints, denom = scaled(t)
            assert denom == math.lcm(*(v.denominator for v in t.flat))
            assert equal(unscaled(ints, denom), t)
            assert all_fractions(unscaled(ints, denom))

    def test_broadcast_view_stays_a_view(self):
        t = np.broadcast_to(np.array([[Fraction(1, 2)], [Fraction(3)]],
                                     dtype=object), (2, 5))
        ints, denom = scaled(t)
        assert denom == 2 and ints.shape == (2, 5)
        assert ints.strides[1] == 0
        assert equal(ints, [[1] * 5, [6] * 5])

    def test_integer_arrays_are_their_own_scaled_form(self):
        t = np.arange(6).reshape(2, 3)
        ints, denom = scaled(t)
        assert ints is t and denom == 1

    def test_python_int_lifts_and_pads_fill_int_zeros(self):
        # past 2^62 the scaled integers are Python ints in an object
        # array; Fraction zeros there would make the einsum mix types
        rng = np.random.default_rng(10)
        net = Network(nodes=[NodeSpec("a", 2), NodeSpec("b", 3)],
                      edges=[("a", "b")], order=["a", "b"],
                      activations={"a": tensor.exact_array([(1 << 62) + 1,
                                                            "1/2"]),
                                   "b": small_exact(rng, (2, 3))})
        ints = scaled(net.activations["a"])[0]
        assert ints.dtype == object
        for t in (network.lift(net, 0, ints), network._padded(ints, 4)):
            assert {type(v) for v in t.flat} == {int}
        got = total_bmp(net)
        assert all_fractions(got) and equal(got, total_direct(net))

    def test_floats_have_no_scaled_form(self):
        assert scaled(np.ones(3)) is None
        assert scaled(np.array([Fraction(1), 0.5], dtype=object)) is None


class TestBound:
    def test_int64_only_below_two_to_the_62(self):
        below = [np.array([(1 << 31) - 1])] * 2
        at = [np.array([1 << 31])] * 2
        assert fit_integers(below, 1)[0].dtype == np.int64
        assert fit_integers(at, 1)[0].dtype == object
        assert fit_integers([np.array([1 << 30])] * 2, 4)[0].dtype == object
        assert fit_integers([np.array([1 << 30])] * 2, 3)[0].dtype \
            == np.int64
        assert fit_integers([np.array([1])], 1, (1 << 62) - 2)[0].dtype \
            == np.int64
        assert fit_integers([np.array([1])], 1, (1 << 62) - 1)[0].dtype \
            == object

    def test_zero_factor_does_not_hide_a_large_partial_product(self):
        # each maximum counts as at least 1: 2^40 * 2^40 would wrap before
        # the zero factor is reached
        arrays = [np.array([1 << 40]), np.array([1 << 40]), np.array([0])]
        assert fit_integers(arrays, 1)[0].dtype == object

    def test_most_negative_int64(self):
        low = np.array([np.iinfo(np.int64).min])
        assert fit_integers([low], 1)[0].dtype == object

    def test_integer_arrays_stay_integers(self):
        ints = np.arange(6).reshape(2, 3)
        assert zeros_matching((2, 2), ints).dtype == ints.dtype
        assert blow(ints).dtype == ints.dtype
        assert bmp([ints, ints.T]).dtype == np.int64
        assert contraction(ints, [1]).dtype == np.int64

    def test_int64_product_at_the_bound(self, routes):
        # l * prod(max |f|) = 3 * 715827883 * (2^31 - 1) * 1 = 2^62 - 1:
        # int64, and its extreme entries equal the Fraction reference
        top = [715827883, (1 << 31) - 1, 1]
        rng = np.random.default_rng(8)
        factors = []
        for k, m in enumerate(top):
            shape = [2, 2, 2]
            shape[k] = 3
            f = rng.integers(-m, m + 1, size=shape)
            f.flat[k] = m * (-1) ** k
            factors.append(f)
        got = bmp(factors)
        assert got.dtype == np.int64
        assert routes["einsum"] == [np.dtype(np.int64)]
        assert not routes["accumulate"]
        assert equal(got, masked_bmp([f.astype(object) for f in factors]))
        full = [np.full(f.shape, m) for f, m in zip(factors, top)]
        assert bmp(full)[0, 0, 0] == 3 * math.prod(top)
        # the first maximum past the bound takes the Python-int route
        full[1] = full[1] + 1
        wide = bmp(full)
        assert wide.dtype == object
        assert routes["einsum"][-1] == np.dtype(object)
        assert wide[0, 0, 0] == 3 * 715827883 * (1 << 31) >= 1 << 62

    @pytest.mark.parametrize("extents, l", [((2, 0, 3), 2), ((2, 1, 3), 0),
                                            ((0, 0), 0)])
    def test_zero_extent(self, extents, l):
        # int64 factors, Fractions, and Python ints past 2^62
        d = len(extents)
        for scale in (None, 1, 1 << 70):
            factors = []
            for k in range(d):
                shape = list(extents)
                shape[k] = l
                f = np.arange(math.prod(shape)).reshape(shape) + 1
                factors.append(f if scale is None
                               else f.astype(object) * Fraction(scale))
            got = bmp(factors)
            assert got.shape == extents
            assert got.dtype == (np.int64 if scale is None else object)
            assert equal(got, masked_bmp([f.astype(object)
                                          for f in factors]))
            assert not got.size or not got.any()

    def test_one_bound_covers_the_hidden_sum(self):
        # a and b hidden, both feeding o, every entry 2^20: the product's
        # l * prod(max |a_k|) = 3 * 2^60 fits int64, but summing the nine
        # hidden states gives 9 * 2^60 > 2^63
        big = 1 << 20
        net = Network(
            nodes=[NodeSpec("a", 3, hidden=True),
                   NodeSpec("b", 3, hidden=True), NodeSpec("o", 3)],
            edges=[("a", "o"), ("b", "o")], order=["a", "b", "o"],
            activations={"a": np.full(3, big), "b": np.full(3, big),
                         "o": np.full((3, 3, 3), big)})
        got = observed_total(net)
        assert got.dtype == object and got.shape == (3,)
        assert all(type(v) is int and v == 9 << 60 for v in got.flat)
        net.activations["o"] = net.activations["o"].astype(object) \
            * Fraction(1, 3)
        got = observed_total(net)
        assert all_fractions(got)
        assert all(v == Fraction(3 << 60) for v in got.flat)

    def test_integer_results_never_wrap(self):
        a = np.array([[1 << 40]])
        assert bmp([a, a])[0, 0] == 1 << 80
        # each term fits int64, the sum of the eight does not
        assert bmp([np.full((8, 1), 1 << 30),
                    np.full((1, 8), 1 << 30)])[0, 0] == 1 << 63
        t = np.full(4, 1 << 61)
        assert contraction(t, [0]) == 1 << 63
        assert frobenius_sq(np.array([1 << 40, 3])) == (1 << 80) + 9
        assert type(frobenius_sq(np.array([1, 2]))) is int

    def test_unsigned_integers_are_integers(self):
        # unsigned arrays take the integer route: no uint8 product wraps
        twenty = np.full((2, 2), 20, np.uint8)
        got = bmp([twenty, twenty])
        assert got.dtype == np.int64 and (got == 800).all()
        for u in (np.full((2, 3), 200, np.uint8),
                  np.array([[1 << 40, 7]], np.uint64)):
            wide = u.astype(np.int64)
            for op in (lambda t: contraction(t, [0]),
                       lambda t: contraction(t, [0, 1])):
                got, want = op(u), op(wide)
                assert got.dtype == want.dtype and equal(got, want)
            got, want = frobenius_sq(u), frobenius_sq(wide)
            assert type(got) is type(want) is int and got == want
        assert zeros_matching((2,), twenty).dtype == np.uint8

    def test_network_routes_never_wrap(self):
        # the direct route bounds its product of q entries as the
        # product route does
        big = np.array([[1 << 40, 1], [1, 1]])
        net = build_matmul_chain(big, big)
        direct = total_direct(net)
        assert equal(direct, total_bmp(net))
        assert direct[0, 0, 0] == 1 << 80
        twenty = np.full((2, 2), 20, np.uint8)
        net = build_matmul_chain(twenty, twenty)
        for total in (total_direct(net), total_bmp(net)):
            assert total.dtype == np.int64 and (total == 400).all()


@pytest.mark.parametrize("kind", KINDS)
class TestAgainstFractions:
    def test_bmp(self, kind, routes):
        rng = np.random.default_rng(2)
        for d in (2, 3, 4):
            for _ in range(4):
                extents = [int(e) for e in rng.integers(1, 4, size=d)]
                l = int(rng.integers(1, 5))
                factors = []
                for k in range(d):
                    shape = list(extents)
                    shape[k] = l
                    factors.append(KINDS[kind](rng, tuple(shape)))
                got = bmp(factors)
                assert equal(got, masked_bmp(factors))
                assert all_fractions(got)
        assert took(routes, kind)

    def test_contraction(self, kind):
        rng = np.random.default_rng(3)
        t = KINDS[kind](rng, (3, 2, 4))
        for slots in ({0}, {1, 2}, {0, 1, 2}):
            got = contraction(t, slots)
            want = np.add.reduce(t, axis=tuple(sorted(slots)),
                                 initial=Fraction(0))
            assert equal(got, want)
            assert all_fractions(got)

    def test_frobenius_sq(self, kind):
        rng = np.random.default_rng(4)
        t = KINDS[kind](rng, (3, 5))
        got = frobenius_sq(t)
        assert type(got) is Fraction
        assert got == sum((v * v for v in t.flat), Fraction(0))

    def test_network_totals(self, kind, routes):
        rng = np.random.default_rng(5)
        for _ in range(25):
            net = random_network(rng)
            for nid, act in net.activations.items():
                net.activations[nid] = KINDS[kind](rng, act.shape)
            want = masked_total(net)
            got = total_bmp(net)
            assert equal(got, want) and equal(got, total_direct(net))
            assert all_fractions(got)
            observed = observed_total(net)
            assert equal(observed, np.add.reduce(
                want, axis=tuple(hidden_positions(net)),
                initial=Fraction(0)))
            assert all_fractions(observed)
        assert took(routes, kind)

    def test_network_totals_convert_each_activation_once(self, kind,
                                                        routes, monkeypatch):
        # the integer route scales each activation once and leaves bmp to
        # the float route; no route calls contraction, and no pipeline
        # pads through the scheme module
        calls = {"scaled": 0, "bmp": 0, "contraction": 0, "padded": 0}

        def spy(name, owner, attr):
            fn = getattr(owner, attr)

            def counted(*args):
                calls[name] += 1
                return fn(*args)
            monkeypatch.setattr(owner, attr, counted)

        for name in ("scaled", "bmp", "contraction"):
            spy(name, network, name)
        spy("padded", network.scheme_module, "padded_square_factors")
        rng = np.random.default_rng(9)
        for _ in range(10):
            net = random_network(rng)
            for nid, act in net.activations.items():
                net.activations[nid] = KINDS[kind](rng, act.shape)
            for total in (total_bmp, observed_total):
                calls.update(scaled=0, bmp=0, contraction=0)
                total(net)
                assert calls == {"scaled": len(net.order), "bmp": 0,
                                 "contraction": 0, "padded": 0}
        assert took(routes, kind)
        calls.update(bmp=0, contraction=0)
        observed_total(build_matmul_chain(np.eye(2), np.ones((2, 2))))
        assert calls["bmp"] == 1 and calls["contraction"] == 0
        make = KINDS[kind]
        exact = BilinearScheme(n=2, r=7, H=make(rng, (4, 7)),
                               K=make(rng, (4, 7)), F=make(rng, (7, 4)))
        for s, a, b in ((exact, make(rng, (2, 2)), make(rng, (2, 2))),
                        (exact, np.eye(2), np.ones((2, 2))),
                        (float_scheme(exact), np.eye(2), np.ones((2, 2)))):
            strassen_stages(a, b, s)
            strassen_pipeline(a, b, s)
        assert calls["padded"] == 0 and calls["contraction"] == 0

    def test_strassen_pipeline(self, kind):
        rng = np.random.default_rng(6)
        make = KINDS[kind]
        s = BilinearScheme(n=2, r=7, H=make(rng, (4, 7)),
                           K=make(rng, (4, 7)), F=make(rng, (7, 4)))
        for _ in range(3):
            a, b = make(rng, (2, 2)), make(rng, (2, 2))
            stages = strassen_stages(a, b, s)
            s1 = s.H.T.dot(a.reshape(4))
            s2 = s.K.T.dot(b.reshape(4))
            assert equal(stages["s1"], s1) and equal(stages["s2"], s2)
            assert equal(stages["products"], s1 * s2)
            out = strassen_pipeline(a, b, s)
            assert equal(out[:4], forward_fast(s, a.reshape(4),
                                               b.reshape(4)))
            assert equal(out[4:], [0, 0, 0])
            for key in ("s1", "s2", "products", "output"):
                assert all_fractions(stages[key])

    def test_exact_residual(self, kind):
        rng = np.random.default_rng(7)
        make = KINDS[kind]
        for n, r in ((1, 2), (2, 7), (2, 3)):
            m = n * n
            s = BilinearScheme(n=n, r=r, H=make(rng, (m, r)),
                               K=make(rng, (m, r)), F=make(rng, (r, m)))
            got = _residual_sq(s, n)
            assert type(got) is Fraction
            assert got == residual_sq(s)


class TestCertificates:
    @staticmethod
    def moved(s, shift):
        H = s.H.copy()
        H[0, 0] += shift
        return BilinearScheme(n=s.n, r=s.r, H=H, K=s.K, F=s.F)

    def test_entry_moved_by_two_to_the_minus_70_is_rejected(self):
        strassen = known_strassen()
        for s in (strassen, kron_scheme(strassen, strassen)):
            assert verify_scheme(s).exact_zero is True
            bad = self.moved(s, Fraction(1, 1 << 70))
            assert scaled(bad.H)[0].dtype == object
            report = verify_scheme(bad)
            assert report.exact_zero is False
            sq = _residual_sq(bad, bad.n)
            assert sq > 0 and sq == residual_sq(bad)

    def test_certified_scheme_with_large_denominators(self):
        # Strassen's scheme under a diagonal rescaling of each slot by
        # coprime primes: H and K columns divided, F rows multiplied
        strassen = known_strassen()
        p = [Fraction(q) for q in PRIMES[:7]]
        q = [Fraction(q) for q in PRIMES[7:14]]
        H = strassen.H / np.array(p, dtype=object)
        K = strassen.K / np.array(q, dtype=object)
        F = strassen.F * np.array([a * b for a, b in zip(p, q)],
                                  dtype=object)[:, None]
        s = BilinearScheme(n=2, r=7, H=H, K=K, F=F)
        assert scaled(H)[1] == math.prod(PRIMES[:7])
        assert verify_scheme(s).exact_zero is True
        assert verify_scheme(self.moved(s, Fraction(1, 1 << 70))) \
            .exact_zero is False
