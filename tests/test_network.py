"""Network construction, validation, lifting, and the two total-tensor
routes, plus the staged 2x2 multiplication pipelines."""

from fractions import Fraction

import numpy as np
import pytest

from netgen import float_scheme, random_exact, random_network

from bmpnet import network
from bmpnet.network import (
    ActivationOrderMismatch,
    CycleDetected,
    Network,
    NetworkError,
    NodeSpec,
    OrderNotTopological,
    StateSizeMismatch,
    build_matmul_chain,
    hidden_positions,
    lift,
    observed_total,
    parent_positions,
    strassen_pipeline,
    strassen_stages,
    total_bmp,
    total_direct,
    validate,
)
from bmpnet.scheme import BilinearScheme, RankTooSmall
from bmpnet.tensor import blow, contraction, exact_array, forget
from bmpnet.verify import known_strassen


def chain(d1, a2, a3):
    """Three-node chain n0 -> n1 -> n2 with the given activations."""
    return Network(
        nodes=[NodeSpec("n0", len(d1)),
               NodeSpec("n1", np.asarray(a2).shape[1], hidden=True),
               NodeSpec("n2", np.asarray(a3).shape[1])],
        edges=[("n0", "n1"), ("n1", "n2")],
        order=["n0", "n1", "n2"],
        activations={"n0": np.asarray(d1), "n1": np.asarray(a2),
                     "n2": np.asarray(a3)},
    )


class TestValidate:
    def test_chain_is_valid(self):
        net = chain(np.ones(2), np.ones((2, 2)), np.ones((2, 2)))
        validate(net)

    def test_order_against_edges(self):
        net = chain(np.ones(2), np.ones((2, 2)), np.ones((2, 2)))
        net.order = ["n1", "n0", "n2"]
        with pytest.raises(OrderNotTopological):
            validate(net)

    def test_back_edge_makes_a_cycle(self):
        net = chain(np.ones(2), np.ones((2, 2)), np.ones((2, 2)))
        net.edges.append(("n2", "n0"))
        with pytest.raises(CycleDetected):
            validate(net)

    def test_self_loop(self):
        net = chain(np.ones(2), np.ones((2, 2)), np.ones((2, 2)))
        net.edges.append(("n1", "n1"))
        with pytest.raises(CycleDetected, match="'n1'"):
            validate(net)

    def test_cycle_reported_before_incomplete_order(self):
        net = chain(np.ones(2), np.ones((2, 2)), np.ones((2, 2)))
        net.edges.append(("n2", "n0"))
        net.order = ["n0", "n1"]
        with pytest.raises(CycleDetected):
            validate(net)

    def test_incomplete_order_without_edges(self):
        net = chain(np.ones(2), np.ones((2, 2)), np.ones((2, 2)))
        net.edges = []
        net.order = ["n0", "n2"]
        with pytest.raises(OrderNotTopological, match="exactly once"):
            validate(net)

    def test_order_listing_a_node_twice(self):
        net = chain(np.ones(2), np.ones((2, 2)), np.ones((2, 2)))
        net.order = ["n0", "n1", "n1", "n2"]
        with pytest.raises(OrderNotTopological, match="exactly once"):
            validate(net)

    def test_forward_skip_edge_is_valid(self):
        net = chain(np.ones(2), np.ones((2, 2)), np.ones((2, 2, 2)))
        net.edges.append(("n0", "n2"))
        assert validate(net) == [[], [0], [0, 1]]

    def test_cycle_reported_before_bad_order(self):
        # with both defects present the cycle is the primary diagnosis
        net = chain(np.ones(2), np.ones((2, 2)), np.ones((2, 2)))
        net.edges.append(("n2", "n0"))
        net.order = ["n1", "n0", "n2"]
        with pytest.raises(CycleDetected):
            validate(net)

    def test_activation_order_mismatch(self):
        net = chain(np.ones(2), np.ones((2, 2)), np.ones((2, 2)))
        net.activations["n1"] = np.ones(2)
        with pytest.raises(ActivationOrderMismatch):
            validate(net)

    def test_missing_activation(self):
        net = chain(np.ones(2), np.ones((2, 2)), np.ones((2, 2)))
        del net.activations["n2"]
        with pytest.raises(ActivationOrderMismatch):
            validate(net)

    def test_state_size_mismatch(self):
        net = chain(np.ones(2), np.ones((3, 2)), np.ones((2, 2)))
        with pytest.raises(StateSizeMismatch):
            validate(net)

    def test_nonpositive_states(self):
        net = Network(nodes=[NodeSpec("n0", 0)], edges=[], order=["n0"],
                      activations={"n0": np.ones(0)})
        with pytest.raises(StateSizeMismatch):
            validate(net)

    def test_duplicate_ids(self):
        net = Network(nodes=[NodeSpec("x", 2), NodeSpec("x", 2)],
                      edges=[], order=["x", "x"],
                      activations={"x": np.ones(2)})
        with pytest.raises(NetworkError):
            validate(net)

    def test_unknown_edge_endpoint(self):
        net = chain(np.ones(2), np.ones((2, 2)), np.ones((2, 2)))
        net.edges.append(("n0", "ghost"))
        with pytest.raises(NetworkError):
            validate(net)

    def test_order_must_cover_nodes(self):
        net = chain(np.ones(2), np.ones((2, 2)), np.ones((2, 2)))
        net.order = ["n0", "n1"]
        with pytest.raises(OrderNotTopological):
            validate(net)

    def test_random_networks_are_valid(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            validate(random_network(rng))


def composed_lift(net, i):
    """The lift of node ``i`` as ``forget``, ``blow`` and ``forget``
    compose it: free slots for the skipped predecessors, ``blow`` unless
    the node is last, free slots for the later nodes."""
    q = len(net.order)
    sizes = [net.node_map()[nid].states for nid in net.order]
    nid = net.order[i]
    t = np.asarray(net.activations[nid])
    parents = parent_positions(net, nid)
    gaps = [j for j in range(i) if j not in parents]
    if gaps:
        t = forget(t, gaps, [sizes[j] for j in gaps])
    if i != q - 1:
        t = blow(t)
    tail = list(range(i + 2, q))
    if tail:
        t = forget(t, tail, [sizes[j] for j in tail])
    return t


def with_entries(net, kind, rng):
    """``net`` with its small Fraction activations made ``kind``: the
    Fractions themselves, int64 (times 6), Python ints past 2^62 (times
    6 * 2^64), or floats with about a third of the entries NaN or +-inf."""
    acts = {}
    for nid, a in net.activations.items():
        vals = [v * 6 for v in a.flat]
        if kind == "fraction":
            acts[nid] = a
        elif kind == "int64":
            acts[nid] = np.array(vals, dtype=np.int64).reshape(a.shape)
        elif kind == "big":
            acts[nid] = np.array([int(v) << 64 for v in vals],
                                 dtype=object).reshape(a.shape)
        else:
            out = np.array(vals, dtype=np.float64)
            odd = rng.random(out.size) < 0.35
            out[odd] = rng.choice([np.nan, np.inf, -np.inf], odd.sum())
            acts[nid] = out.reshape(a.shape)
    return Network(nodes=net.nodes, edges=net.edges, order=net.order,
                   activations=acts)


class TestLift:
    @pytest.mark.parametrize("kind", ["fraction", "int64", "big", "float"])
    def test_random_networks_lift_as_forget_blow_forget(self, kind):
        # entry for entry, in dtype and in each entry's type: Python-int
        # zeros stay ints, and the zeros beside NaN and inf are written
        # zeros, not products with 0
        rng = np.random.default_rng(22)
        for _ in range(40):
            net = with_entries(random_network(rng, q_max=5), kind, rng)
            for i in range(len(net.order)):
                got, want = lift(net, i), composed_lift(net, i)
                assert got.dtype == want.dtype and got.shape == want.shape
                if kind == "float":
                    assert got.tobytes() == want.tobytes()
                else:
                    assert list(map(type, got.flat)) == \
                        list(map(type, want.flat))
                    assert list(got.flat) == list(want.flat)
                if kind == "big":
                    assert {type(v) for v in got.flat} == {int}

    def test_chain_source_forgets_tail_after_blow(self):
        rng = np.random.default_rng(14)
        d1 = rng.normal(size=2)
        net = chain(d1, rng.normal(size=(2, 3)), rng.normal(size=(3, 2)))
        want = forget(blow(d1), [2], [2])
        np.testing.assert_array_equal(lift(net, 0), want)

    def test_chain_middle_is_plain_blow(self):
        rng = np.random.default_rng(15)
        a2 = rng.normal(size=(2, 3))
        net = chain(rng.normal(size=2), a2, rng.normal(size=(3, 2)))
        np.testing.assert_array_equal(lift(net, 1), blow(a2))

    def test_chain_sink_forgets_leading_slot(self):
        rng = np.random.default_rng(16)
        a3 = rng.normal(size=(3, 2))
        net = chain(rng.normal(size=2), rng.normal(size=(2, 3)), a3)
        np.testing.assert_array_equal(lift(net, 2), forget(a3, [0], [2]))

    def test_single_node_unchanged(self):
        v = np.array([0.25, 0.75])
        net = Network(nodes=[NodeSpec("only", 2)], edges=[],
                      order=["only"], activations={"only": v})
        np.testing.assert_array_equal(lift(net, 0), v)

    def test_skipped_predecessor_becomes_free_slot(self):
        rng = np.random.default_rng(17)
        act = rng.normal(size=(2, 2))
        net = Network(
            nodes=[NodeSpec("n0", 2), NodeSpec("n1", 3), NodeSpec("n2", 2)],
            edges=[("n0", "n2")],
            order=["n0", "n1", "n2"],
            activations={"n0": rng.normal(size=2),
                         "n1": rng.normal(size=3),
                         "n2": act},
        )
        lifted = lift(net, 2)
        assert lifted.shape == (2, 3, 2)
        for j in range(3):
            np.testing.assert_array_equal(lifted[:, j, :], act)

    def test_all_lifts_have_order_q(self):
        rng = np.random.default_rng(18)
        for _ in range(30):
            net = random_network(rng)
            q = len(net.order)
            for i in range(q):
                assert lift(net, i).ndim == q


class TestTotalDirect:
    def test_single_node_is_its_distribution(self):
        v = np.array([1.0, 1.0])
        net = Network(nodes=[NodeSpec("only", 2)], edges=[],
                      order=["only"], activations={"only": v})
        np.testing.assert_array_equal(total_direct(net), v)

    def test_two_node_chain_masks_rows(self):
        rng = np.random.default_rng(19)
        m = rng.normal(size=(2, 3))
        net = Network(
            nodes=[NodeSpec("src", 2), NodeSpec("dst", 3)],
            edges=[("src", "dst")],
            order=["src", "dst"],
            activations={"src": np.array([1.0, 0.0]), "dst": m},
        )
        total = total_direct(net)
        np.testing.assert_array_equal(total[0], m[0])
        np.testing.assert_array_equal(total[1], np.zeros(3))


class TestTwoRoutesAgree:
    def test_random_networks_exact(self):
        rng = np.random.default_rng(20)
        for _ in range(60):
            net = random_network(rng)
            direct = total_direct(net)
            via_product = total_bmp(net)
            assert direct.shape == via_product.shape
            for idx in np.ndindex(direct.shape):
                assert direct[idx] == via_product[idx]

    def test_single_node_route(self):
        v = exact_array(["1/2", "1/3"])
        net = Network(nodes=[NodeSpec("only", 2)], edges=[],
                      order=["only"], activations={"only": v})
        out = total_bmp(net)
        assert out[0] == Fraction(1, 2)
        assert out[1] == Fraction(1, 3)

    @pytest.mark.parametrize("v", [np.array([0.5, 2.0]), np.array([1, 3]),
                                   exact_array(["1/2", "3"])])
    def test_single_node_total_is_a_fresh_array(self, v):
        # writing into the total leaves the network as it was
        net = Network(nodes=[NodeSpec("x", 2)], edges=[], order=["x"],
                      activations={"x": v})
        want = v.copy()
        for out in (total_bmp(net), total_direct(net)):
            assert not np.shares_memory(out, v)
            assert out.dtype == v.dtype
            out[...] = 7
            assert np.array_equal(net.activations["x"], want)

    def test_integer_activations_with_a_float_one(self):
        # the rows node's ones are int64: the direct route must not
        # truncate the float products into them
        net = build_matmul_chain(np.array([[1, 2], [3, 4]]),
                                 np.array([[0.5, 0.25], [1.0, 1.0]]))
        direct, via_product = total_direct(net), total_bmp(net)
        assert direct.dtype == via_product.dtype == np.float64
        assert direct.tobytes() == via_product.tobytes()
        assert direct[0, 0, 0] == 0.5

    def test_classical_chain(self):
        rng = np.random.default_rng(21)
        net = build_matmul_chain(random_exact(rng, (2, 2)),
                                 random_exact(rng, (2, 2)))
        d = total_direct(net)
        b = total_bmp(net)
        for idx in np.ndindex(d.shape):
            assert d[idx] == b[idx]

    def test_random_networks_float(self):
        # finite floats: the product route multiplies in another order and
        # adds exact zeros, so it agrees within rounding
        rng = np.random.default_rng(25)
        for _ in range(60):
            net = random_network(rng, q_max=5)
            for nid, act in net.activations.items():
                net.activations[nid] = rng.standard_normal(act.shape)
            direct, via_product = total_direct(net), total_bmp(net)
            assert direct.dtype == via_product.dtype == np.float64
            np.testing.assert_allclose(via_product, direct, rtol=1e-13,
                                       atol=0)
            hidden = tuple(hidden_positions(net))
            np.testing.assert_allclose(observed_total(net),
                                       direct.sum(axis=hidden), rtol=1e-12,
                                       atol=1e-12)


class TestNonFinite:
    """0 * inf is NaN, so the product route, whose lifts hold blow's zeros,
    refuses a float activation with NaN or inf; the definition has no
    zero to meet them and totals them as before."""

    @staticmethod
    def pair(x, z):
        return Network(nodes=[NodeSpec("x", 2), NodeSpec("z", 2)],
                       edges=[("x", "z")], order=["x", "z"],
                       activations={"x": x, "z": z})

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_product_route_refuses_a_float_network(self, bad):
        net = self.pair(np.array([0.5, 2.0]), np.array([[1, bad], [2, 3]]))
        for route in (total_bmp, observed_total):
            with pytest.raises(NetworkError, match="'z' is not finite"):
                route(net)
        got = total_direct(net)
        want = np.array([[0.5, 0.5 * bad], [4, 6]])
        assert got.dtype == np.float64
        assert got.tobytes() == want.tobytes()

    def test_product_route_refuses_inf_beside_fractions(self):
        net = self.pair(exact_array(["1/2", "2"]),
                        np.array([[1, np.inf], [2, 3]]))
        with pytest.raises(NetworkError, match="'z' is not finite"):
            total_bmp(net)
        got = total_direct(net)
        assert got.dtype == object
        assert list(got.flat) == [0.5, np.inf, 4, 6]


class TestMarginalize:
    def test_classical_network_yields_product(self):
        rng = np.random.default_rng(22)
        a = random_exact(rng, (2, 2))
        b = random_exact(rng, (2, 2))
        net = build_matmul_chain(a, b)
        out = contraction(total_bmp(net), {1})
        want = a.dot(b)
        for idx in np.ndindex((2, 2)):
            assert out[idx] == want[idx]

    def test_empty_slot_set_is_identity(self):
        t = np.arange(8.0).reshape(2, 2, 2)
        np.testing.assert_array_equal(contraction(t, set()), t)

    def test_all_slots_total_sum(self):
        t = np.arange(8.0).reshape(2, 2, 2)
        assert contraction(t, {0, 1, 2}) == t.sum()

    def test_observed_total_uses_hidden_flags(self):
        rng = np.random.default_rng(23)
        net = build_matmul_chain(rng.normal(size=(2, 2)),
                                 rng.normal(size=(2, 2)))
        assert hidden_positions(net) == [1]
        np.testing.assert_array_equal(
            observed_total(net), contraction(total_bmp(net), {1}))

    def test_float_observed_total_is_the_contracted_total(self):
        # float totals are multiplied by bmp and summed by the same call
        # contraction makes, so the bits agree
        rng = np.random.default_rng(24)
        for _ in range(60):
            net = random_network(rng)
            for nid, act in net.activations.items():
                net.activations[nid] = rng.standard_normal(act.shape)
            got = observed_total(net)
            want = contraction(total_bmp(net), hidden_positions(net))
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


class TestClassical2x2:
    def test_identity(self):
        out = observed_total(build_matmul_chain(np.eye(2), np.eye(2)))
        np.testing.assert_array_equal(out, np.eye(2))

    def test_known_product(self):
        a = exact_array([[1, 2], [3, 4]])
        b = exact_array([[5, 6], [7, 8]])
        out = observed_total(build_matmul_chain(a, b))
        want = exact_array([[19, 22], [43, 50]])
        for idx in np.ndindex((2, 2)):
            assert out[idx] == want[idx]

    def test_random_floats(self):
        rng = np.random.default_rng(24)
        for _ in range(20):
            a = rng.uniform(-1, 1, (2, 2))
            b = rng.uniform(-1, 1, (2, 2))
            np.testing.assert_allclose(
                observed_total(build_matmul_chain(a, b)), a @ b, atol=1e-12)

    def test_bottom_right_entry_exact(self):
        # (AB)[1,1] must be a21*b12 + a22*b22
        rng = np.random.default_rng(25)
        a = random_exact(rng, (2, 2))
        b = random_exact(rng, (2, 2))
        out = observed_total(build_matmul_chain(a, b))
        assert out[1, 1] == a[1, 0] * b[0, 1] + a[1, 1] * b[1, 1]


def strassen_with_zero_slot():
    """Strassen at rank 8: an all-zero eighth slot, so that the pipeline
    pads the operands by 4 entries and the factors by 4 rows or columns."""
    s = known_strassen()
    zero = exact_array(np.zeros((4, 1)))
    return BilinearScheme(n=2, r=8, H=np.hstack([s.H, zero]),
                          K=np.hstack([s.K, zero]), F=np.vstack([s.F, zero.T]))


def float_strassen():
    return float_scheme(known_strassen())


def int64_strassen():
    s = known_strassen()
    return BilinearScheme(n=2, r=7, H=s.H.astype(np.int64),
                          K=s.K.astype(np.int64), F=s.F.astype(np.int64))


def fractions(rng):
    return random_exact(rng, (2, 2))


def floats(rng):
    return rng.uniform(-1, 1, (2, 2))


# name: (scheme, operand maker, whether the output is Fractions); the
# last two mix an exact input with a float one, so they run on floats
PIPELINE_CASES = {
    "exact": (known_strassen, fractions, True),
    "int64 operands": (known_strassen,
                       lambda rng: rng.integers(-5, 6, (2, 2)), True),
    "float": (float_strassen, floats, False),
    "zero slot": (strassen_with_zero_slot, fractions, True),
    "exact scheme, float operands": (known_strassen, floats, False),
    "float scheme, Fraction operands": (float_strassen, fractions, False),
}


class TestStrassenPipeline:
    @pytest.mark.parametrize("case", PIPELINE_CASES)
    def test_pipeline_is_the_stages_output(self, case):
        make_scheme, operand, exact = PIPELINE_CASES[case]
        s = make_scheme()
        rng = np.random.default_rng(30)
        for _ in range(3):
            a, b = operand(rng), operand(rng)
            out = strassen_pipeline(a, b, s)
            want = strassen_stages(a, b, s)["output"]
            assert out.dtype == want.dtype and out.shape == (s.r,)
            assert list(map(type, out)) == list(map(type, want))
            assert list(out) == list(want)
            assert {type(v) is Fraction for v in out} == {exact}
            np.testing.assert_allclose(
                np.asarray(out[:4], dtype=float),
                np.asarray(a.dot(b), dtype=float).reshape(4), atol=1e-12)
            assert all(v == 0 for v in out[4:])

    @pytest.mark.parametrize("entry", [strassen_pipeline, strassen_stages])
    @pytest.mark.parametrize("exact", [True, False])
    def test_rank_too_small(self, entry, exact):
        mode = exact_array if exact else np.asarray
        s = BilinearScheme(n=2, r=3, H=mode(np.zeros((4, 3))),
                           K=mode(np.zeros((4, 3))), F=mode(np.zeros((3, 4))))
        with pytest.raises(RankTooSmall):
            entry(mode(np.eye(2)), mode(np.eye(2)), s)

    def test_identity_inputs(self):
        s = known_strassen()
        out = strassen_pipeline(exact_array(np.eye(2)),
                                exact_array(np.eye(2)), s)
        want = [1, 0, 0, 1, 0, 0, 0]
        assert list(out) == [Fraction(v) for v in want]

    def test_left_combinations_are_the_seven_classics(self):
        rng = np.random.default_rng(26)
        a = random_exact(rng, (2, 2))
        b = random_exact(rng, (2, 2))
        stages = strassen_stages(a, b, known_strassen())
        s1 = stages["s1"]
        want = [a[0, 0] + a[1, 1], a[1, 0] + a[1, 1], a[0, 0], a[1, 1],
                a[0, 0] + a[0, 1], a[1, 0] - a[0, 0], a[0, 1] - a[1, 1]]
        assert list(s1) == want

    def test_random_rational_inputs_exact(self):
        rng = np.random.default_rng(27)
        s = known_strassen()
        for _ in range(20):
            a = random_exact(rng, (2, 2))
            b = random_exact(rng, (2, 2))
            out = strassen_pipeline(a, b, s)
            assert out.shape == (7,)
            want = a.dot(b).reshape(4)
            for j in range(4):
                assert out[j] == want[j]
            for j in range(4, 7):
                assert out[j] == 0

    def test_fourth_coordinate_formula(self):
        rng = np.random.default_rng(28)
        a = random_exact(rng, (2, 2))
        b = random_exact(rng, (2, 2))
        out = strassen_pipeline(a, b, known_strassen())
        assert out[3] == a[1, 0] * b[0, 1] + a[1, 1] * b[1, 1]

    def test_float_mode(self):
        rng = np.random.default_rng(29)
        s = float_scheme(known_strassen())
        a = rng.uniform(-1, 1, (2, 2))
        b = rng.uniform(-1, 1, (2, 2))
        out = strassen_pipeline(a, b, s)
        np.testing.assert_allclose(out[:4], (a @ b).reshape(4), atol=1e-12)
        np.testing.assert_allclose(out[4:], 0, atol=1e-12)

    @pytest.mark.parametrize("mode", [np.asarray, exact_array])
    def test_wide_operand_converts_to_fractions_once(self, monkeypatch,
                                                     mode):
        # an operand past 2^62 makes the stages' integers Python ints;
        # no stage turns them into Fractions, so the pipeline converts
        # its output once, whether A is int64 or Fractions
        real, calls = network.unscaled, []

        def spy(*args):
            calls.append(args)
            return real(*args)
        monkeypatch.setattr(network, "unscaled", spy)
        a, b = [[(1 << 62) + 1, 1], [2, 3]], [[5, 6], [7, 8]]
        out = strassen_pipeline(mode(a), mode(b), known_strassen())
        assert len(calls) == 1
        want = exact_array(a).dot(exact_array(b)).reshape(4)
        assert list(out) == list(want) + [0, 0, 0]
        assert {type(v) for v in out} == {Fraction}

    @pytest.mark.parametrize("top", [3, 1 << 61])
    def test_int64_scheme_stays_integers(self, top):
        # integers never become Fractions: int64 while the stages fit,
        # Python ints in every array once they pass 2^62
        s = int64_strassen()
        a = np.array([[top, 1], [2, 3]])
        stages = strassen_stages(a, a, s)
        ints = a.astype(object)
        s1 = s.H.T.astype(object).dot(ints.reshape(4))
        s2 = s.K.T.astype(object).dot(ints.reshape(4))
        want = {"s1": s1, "s2": s2, "products": s1 * s2,
                "output": list(ints.dot(ints).reshape(4)) + [0, 0, 0]}
        for key, values in want.items():
            got = stages[key]
            assert list(got) == list(values)
            if top == 3:
                assert got.dtype == np.int64
            else:
                assert {type(v) for v in got} == {int}
        out = strassen_pipeline(a, a, s)
        assert out.dtype == stages["output"].dtype
        assert list(out) == want["output"]

    def test_int64_products_never_wrap(self):
        # s1 and s2 fit int64, their entrywise products do not
        s = int64_strassen()
        a = np.full((2, 2), 1 << 40)
        stages = strassen_stages(a, a, s)
        assert stages["s1"].dtype == stages["s2"].dtype == np.int64
        assert list(stages["products"]) == [
            int(x) * int(y) for x, y in zip(stages["s1"], stages["s2"])]
        assert stages["products"][0] == 1 << 82

    def test_exact_scheme_with_one_float_operand_runs_on_floats(self):
        # a float part makes every part a double, so no stage is left
        # holding scaled integers
        rng = np.random.default_rng(32)
        s = known_strassen()
        for _ in range(3):
            a, b = fractions(rng), floats(rng)
            for x, y in ((a, b), (b, a)):
                stages = strassen_stages(x, y, s)
                out = strassen_pipeline(x, y, s)
                assert out.dtype == np.float64
                assert out.tobytes() == stages["output"].tobytes()
                for key in ("s1", "s2", "products"):
                    assert stages[key].dtype == np.float64
                np.testing.assert_allclose(
                    out[:4], np.asarray(x.dot(y), dtype=float).reshape(4),
                    atol=1e-12)
                assert not out[4:].any()

    @pytest.mark.parametrize("nested", [False, True])
    def test_float_stages_pad_the_operands(self, nested):
        rng = np.random.default_rng(31)
        s = float_scheme(known_strassen())
        a, b = rng.uniform(-1, 1, (2, 2)), rng.uniform(-1, 1, (2, 2))
        stages = strassen_stages(*((a.tolist(), b.tolist()) if nested
                                   else (a, b)), s)
        for key, op in (("a_pad", a), ("b_pad", b)):
            want = np.zeros(7)
            want[:4] = op.reshape(4)
            assert stages[key].dtype == np.float64
            assert stages[key].tobytes() == want.tobytes()


@pytest.fixture
def built(monkeypatch):
    """Count ``network.validate`` calls and the ``Network`` and
    ``NodeSpec`` objects constructed."""
    seen = {"validate": 0, "Network": 0, "NodeSpec": 0}

    def counting(name, call):
        def wrapper(*args, **kwargs):
            seen[name] += 1
            return call(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(network, "validate",
                        counting("validate", network.validate))
    for cls in (Network, NodeSpec):
        monkeypatch.setattr(cls, "__init__",
                            counting(cls.__name__, cls.__init__))
    return seen


class TestValidateCalls:
    @pytest.mark.parametrize("case", PIPELINE_CASES)
    def test_stages_build_and_validate_no_network(self, case, built):
        make_scheme, operand, _ = PIPELINE_CASES[case]
        s = make_scheme()
        rng = np.random.default_rng(31)
        a, b = operand(rng), operand(rng)
        strassen_stages(a, b, s)
        strassen_pipeline(a, b, s)
        assert built == {"validate": 0, "Network": 0, "NodeSpec": 0}

    def test_totals_validate_once_per_call(self, built):
        rng = np.random.default_rng(32)
        nets = [random_network(rng) for _ in range(20)]
        nets.append(build_matmul_chain(np.eye(2), np.ones((2, 2))))
        before = dict(built)
        for calls, net in enumerate(nets, 1):
            total_bmp(net)
            assert built["validate"] == before["validate"] + 2 * calls - 1
            observed_total(net)
            assert built["validate"] == before["validate"] + 2 * calls
        assert built["Network"] == before["Network"]


class TestMassBookkeeping:
    def test_full_contraction_matches_brute_force(self):
        rng = np.random.default_rng(30)
        for _ in range(20):
            net = random_network(rng)
            total = total_direct(net)
            sizes = [net.node_map()[nid].states for nid in net.order]
            mass = Fraction(0)
            for joint in np.ndindex(tuple(sizes)):
                term = Fraction(1)
                for k, nid in enumerate(net.order):
                    parents = parent_positions(net, nid)
                    key = tuple(joint[p] for p in parents) + (joint[k],)
                    term *= net.activations[nid][key]
                mass += term
            assert contraction(total, set(range(total.ndim))) == mass

