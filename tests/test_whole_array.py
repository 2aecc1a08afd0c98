"""Whole-array certification held to its per-entry references: grid
snapping by one ``searchsorted``, slot norms and gauge fixing from whole
factors, and the direct total tensor as one broadcast product.  Every
result must equal the reference's, element type included, and floats
must keep their bits."""

import math
from fractions import Fraction

import numpy as np
import pytest

from bmpnet import verify
from bmpnet.network import Network, NodeSpec, parent_positions, total_direct
from bmpnet.scheme import BilinearScheme
from bmpnet.tensor import scaled
from bmpnet.verify import (
    DEFAULT_GRID,
    known_strassen,
    normalize_slots,
    round_scheme,
    slot_contribution_norms,
)
from netgen import float_scheme, kron_scheme, random_exact, random_network
from reference import normalize_each, round_each, slot_norms_each, \
    total_each

THIRDS = (Fraction(-1, 3), Fraction(1, 3), Fraction(2, 3))

GRIDS = [
    DEFAULT_GRID,
    DEFAULT_GRID + (Fraction(1, 3), Fraction(-1, 3)),
    (Fraction(-1), Fraction(1)),
    THIRDS,
    (Fraction(0),) + THIRDS,
]


def same(got, want):
    """Equal entry by entry, with the same type, and for floats the same
    bits (so -0.0 and NaN count too)."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    if got.dtype != object:
        assert got.tobytes() == want.tobytes()
        return
    for g, w in zip(got.flat, want.flat):
        assert type(g) is type(w), (g, w)
        if isinstance(w, float):
            assert np.float64(g).tobytes() == np.float64(w).tobytes()
        else:
            assert g == w, (g, w)


def same_scheme(got, want):
    assert (got.n, got.r) == (want.n, want.r)
    for g, w in ((got.H, want.H), (got.K, want.K), (got.F, want.F)):
        same(g, w)


def packed(values, exact=False):
    """A 2x2 scheme whose H, K and F all hold ``values`` (cycled to fill
    them), as floats, or as given in an object array when ``exact``."""
    r = max(1, -(-len(values) // 4))
    flat = np.array([values[i % len(values)] for i in range(4 * r)],
                    dtype=object if exact else np.float64)
    return BilinearScheme(n=2, r=r, H=flat.reshape(4, r),
                          K=flat[::-1].reshape(4, r),
                          F=flat.reshape(r, 4))


def probes(grid):
    """Every midpoint of the grid as the nearest double and the next
    doubles on either side, both zeros, the grid points and values past
    both ends."""
    points = sorted(set(Fraction(g) for g in grid))
    xs = [0.0, -0.0, -7.5, 7.5] + [float(g) for g in points]
    for lo, hi in zip(points, points[1:]):
        mid = float((lo + hi) / 2)
        xs += [mid, np.nextafter(mid, -np.inf), np.nextafter(mid, np.inf)]
    return xs


class TestRound:
    @pytest.mark.parametrize("grid", GRIDS)
    def test_midpoints_and_neighbours(self, grid):
        s = packed(probes(grid))
        same_scheme(round_scheme(s, grid), round_each(s, grid))

    @pytest.mark.parametrize("grid", GRIDS)
    def test_fraction_entries(self, grid):
        # exact midpoints whose nearest double lies on either side of them
        points = sorted(set(Fraction(g) for g in grid))
        values = [(lo + hi) / 2 for lo, hi in zip(points, points[1:])]
        values += [Fraction(1, 6), Fraction(-1, 6), Fraction(0), 2,
                   Fraction(5, 7), Fraction(-1, 2)]
        s = packed(values, exact=True)
        same_scheme(round_scheme(s, grid), round_each(s, grid))

    @pytest.mark.parametrize("grid", GRIDS)
    def test_random_values(self, grid):
        rng = np.random.default_rng(len(grid))
        s = BilinearScheme(n=3, r=23, H=rng.uniform(-1.5, 1.5, (9, 23)),
                           K=rng.normal(size=(9, 23)),
                           F=rng.uniform(-1, 1, (23, 9)))
        same_scheme(round_scheme(s, grid), round_each(s, grid))

    def test_strided_and_float32_factors(self):
        rng = np.random.default_rng(4)
        base = rng.uniform(-1, 1, (23, 9))
        s = BilinearScheme(n=3, r=23, H=base.T, K=base.T.astype(np.float32),
                           F=np.asfortranarray(base))
        same_scheme(round_scheme(s), round_each(s))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_raises_as_before(self, bad):
        for which in ("H", "K", "F"):
            s = float_scheme(known_strassen())
            getattr(s, which)[1, 2] = bad
            with pytest.raises(Exception) as want:
                round_each(s)
            with pytest.raises(want.type):
                round_scheme(s)

    def test_non_finite_object_entry_raises_as_before(self):
        s = known_strassen()
        s.K[0, 0] = float("nan")
        with pytest.raises(ValueError):
            round_each(s)
        with pytest.raises(ValueError):
            round_scheme(s)


def pinned_schemes():
    """Strassen's scheme exact and as floats, composed with itself (4x4,
    rank 49), and a float scheme snapped to the grid of thirds."""
    s2 = known_strassen()
    third = round_each(packed(
        [0.3, -0.4, 0.7, 0.1, -1.0, 0.66, 0.2, 0.0, 0.34]), THIRDS)
    return [s2, float_scheme(s2), kron_scheme(s2, s2), third]


class TestSlotNorms:
    @pytest.mark.parametrize("s", pinned_schemes(),
                             ids=["strassen", "float", "kron", "thirds"])
    def test_bits_of_the_reference(self, s):
        got, want = slot_contribution_norms(s), slot_norms_each(s)
        assert all(type(g) is float for g in got)
        same(got, want)

    def test_random_float_scheme(self):
        rng = np.random.default_rng(12)
        s = BilinearScheme(n=3, r=23, H=rng.normal(size=(9, 23)),
                           K=1e-3 * rng.normal(size=(9, 23)),
                           F=1e3 * rng.normal(size=(23, 9)))
        same(slot_contribution_norms(s), slot_norms_each(s))

    @pytest.mark.parametrize("s", pinned_schemes(),
                             ids=["strassen", "float", "kron", "thirds"])
    def test_report_scales_each_factor_once(self, s, monkeypatch):
        # the residual and the slot norms of one report share the
        # scaled forms of H, K and F, with the bits of each alone
        calls = []

        def counting(t):
            calls.append(t)
            return scaled(t)

        monkeypatch.setattr(verify, "scaled", counting)
        report = verify.verify_scheme(s)
        assert len(calls) == 3
        same(report.slot_norms, slot_norms_each(s))
        alone = verify._residual_sq(s, s.n)
        assert report.residual == math.sqrt(float(alone))
        if report.exact_zero is not None:
            assert report.exact_zero == (verify.residual_sq_exact(s, s.n)
                                         == 0)


def lone_slot(entry, rest):
    """Strassen's scheme, exact, with slot 0 made (entry e_0) (x) e_0
    (x) e_0, so that its norm is ``entry`` as a double; with ``rest``
    False every other H entry is 0."""
    s = known_strassen()
    H, K, F = s.H.copy(), s.K.copy(), s.F.copy()
    if not rest:
        H[...] = Fraction(0)
    for t in (H, K, F.T):
        t[:, 0] = [Fraction(1), Fraction(0), Fraction(0), Fraction(0)]
    H[0, 0] = entry
    return BilinearScheme(n=2, r=7, H=H, K=K, F=F)


class TestSlotNormsPastTwoToThe53:
    """Scaled integers or a denominator of 2^53 or more are not all
    doubles; their quotient rounded from doubles would be off by a bit
    here, so these factors are converted entry by entry."""

    @pytest.mark.parametrize("entry, rest", [
        (Fraction((1 << 53) + 5, 3), True),
        (Fraction(1, (1 << 53) + 1), False)],
        ids=["numerator", "denominator"])
    def test_bits_of_the_reference(self, entry, rest):
        s = lone_slot(entry, rest)
        ints, denom = scaled(s.H)
        assert ints.dtype == np.int64
        assert max(int(abs(ints).max()), denom) >= 1 << 53
        assert float(ints[0, 0]) / float(denom) != float(entry)
        got = slot_contribution_norms(s)
        same(got, slot_norms_each(s))
        assert got[0] == float(entry)


class TestNormalize:
    @pytest.mark.parametrize("s", pinned_schemes(),
                             ids=["strassen", "float", "kron", "thirds"])
    def test_equal_to_the_reference(self, s):
        same_scheme(normalize_slots(s), normalize_each(s))

    def test_random_float_scheme_with_zero_columns(self):
        rng = np.random.default_rng(13)
        H = 3.0 * rng.normal(size=(9, 23))
        K = 0.2 * rng.normal(size=(9, 23))
        H[:, 4] = 0.0
        K[:, 7] = -0.0
        K[:, 4] = 0.0
        s = BilinearScheme(n=3, r=23, H=H, K=K,
                           F=rng.normal(size=(23, 9)))
        same_scheme(normalize_slots(s), normalize_each(s))


def chain(acts, sizes):
    """A network of single nodes n0 -> n1 -> ... with the given states
    and activations, each node a child of every earlier one."""
    names = ["n%d" % k for k in range(len(sizes))]
    return Network(
        nodes=[NodeSpec(nid, s) for nid, s in zip(names, sizes)],
        edges=[(names[i], names[j]) for j in range(len(names))
               for i in range(j)],
        order=names, activations=dict(zip(names, acts)))


def retyped(net, kinds, rng):
    """``net`` with node k's activation drawn anew as kinds[k]: 'float',
    'int' (int64) or 'exact' (Fractions)."""
    acts = {}
    for nid, kind in zip(net.order, kinds):
        shape = np.shape(net.activations[nid])
        acts[nid] = {
            "float": lambda: rng.normal(size=shape),
            "int": lambda: rng.integers(-5, 6, size=shape),
            "exact": lambda: random_exact(rng, shape),
        }[kind]()
    return Network(nodes=net.nodes, edges=net.edges, order=net.order,
                   activations=acts)


class TestTotalDirect:
    @pytest.mark.parametrize("kind", ["float", "int", "exact", "mixed"])
    def test_random_networks(self, kind):
        rng = np.random.default_rng(["float", "int", "exact",
                                     "mixed"].index(kind))
        for _ in range(60):
            net = random_network(rng)
            kinds = [kind] * len(net.order) if kind != "mixed" else \
                list(rng.choice(["float", "exact"], size=len(net.order)))
            net = retyped(net, kinds, rng)
            same(total_direct(net), total_each(net))

    @pytest.mark.parametrize("kinds", [
        ("exact", "float", "float"), ("float", "exact", "float"),
        ("float", "float", "exact"), ("int", "exact", "float"),
        ("exact", "int", "int"), ("int", "float", "int")])
    def test_every_mix_of_three(self, kinds):
        rng = np.random.default_rng(21)
        net = retyped(chain([np.zeros((2,)), np.zeros((2, 3)),
                             np.zeros((2, 3, 2))], [2, 3, 2]), kinds, rng)
        same(total_direct(net), total_each(net))

    @pytest.mark.parametrize("act", [
        np.array([0.5, -0.0, np.inf]), np.array([3, -2], dtype=np.int64),
        np.array([Fraction(1, 3), Fraction(0)], dtype=object)])
    def test_single_node(self, act):
        net = chain([act], [len(act)])
        same(total_direct(net), total_each(net))

    def test_parent_lists_of_every_node(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            net = random_network(rng)
            assert parent_positions(net) == [
                parent_positions(net, nid) for nid in net.order]
