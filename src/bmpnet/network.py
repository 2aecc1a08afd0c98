"""Tensor networks on DAGs whose joint tensor factors over node activations.

Each node carries a discrete state of some extent and an activation
tensor of order in-degree + 1, indexed by the states of its parents (in
the network's total order) followed by its own state.  The network's
total tensor multiplies all activations out over every joint state.  It
can be computed two ways: directly from that definition, or by lifting
every activation to a common order and taking one Bhattacharya-Mesner
product.  Both routes must agree entrywise; keeping them separate is the
point, as each checks the other.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import scheme as scheme_module
from .tensor import (
    blow,
    bmp,
    contraction,
    forget,
    is_exact,
    scaled,
    unscaled,
    zeros_matching,
)


class NetworkError(ValueError):
    """Base class for malformed-network conditions."""


class CycleDetected(NetworkError):
    """The edge relation admits a directed cycle."""


class OrderNotTopological(NetworkError):
    """The declared total order is not consistent with the edges."""


class ActivationOrderMismatch(NetworkError):
    """An activation's order differs from in-degree + 1."""


class StateSizeMismatch(NetworkError):
    """An activation axis extent differs from the matching node's states."""


@dataclass(frozen=True)
class NodeSpec:
    """One network node: identity, state extent, observability flag."""

    id: str
    states: int
    hidden: bool = False


@dataclass
class Network:
    """A DAG of nodes with activations and a declared total order.

    ``order`` lists every node id exactly once and must refine the edge
    relation.  ``activations`` maps node ids to ndarrays.
    """

    nodes: list = field(default_factory=list)
    edges: list = field(default_factory=list)
    order: list = field(default_factory=list)
    activations: dict = field(default_factory=dict)

    def node_map(self):
        return {node.id: node for node in self.nodes}


def parent_positions(net, node_id=None):
    """Ascending positions in net.order of the node's parents, or a list
    of those of every node, in net.order."""
    pos = {nid: k for k, nid in enumerate(net.order)}
    every = [sorted(pos[s] for s, d in net.edges if d == n) for n in net.order]
    return every if node_id is None else every[pos[node_id]]


def validate(net):
    """Raise a NetworkError subclass on the first defect found.

    Checks, in this sequence: node-id sanity, edge endpoints, acyclicity,
    the total order being a topological refinement, activation orders,
    then activation axis extents.  A valid order proves acyclicity, so
    the graph is searched for a cycle only when the order fails.
    Returns ``parent_positions(net)``.
    """
    ids = [node.id for node in net.nodes]
    if len(set(ids)) != len(ids):
        raise NetworkError("duplicate node ids")
    id_set = set(ids)
    for node in net.nodes:
        if node.states < 1:
            raise StateSizeMismatch("node %r needs states >= 1" % node.id)
    for src, dst in net.edges:
        if src not in id_set or dst not in id_set:
            raise NetworkError("edge (%r, %r) references unknown node"
                               % (src, dst))
    if len(set(map(tuple, net.edges))) != len(net.edges):
        raise NetworkError("duplicate edges")

    complete = sorted(net.order) == sorted(ids)
    pos = {nid: k for k, nid in enumerate(net.order)}
    back = [(s, d) for s, d in net.edges if complete and pos[s] >= pos[d]]
    if not complete or back:
        from graphlib import CycleError, TopologicalSorter

        sorter = TopologicalSorter()
        for src, dst in net.edges:
            sorter.add(dst, src)
        try:
            sorter.prepare()
        except CycleError as exc:
            cycle = " -> ".join(map(repr, exc.args[1]))
            raise CycleDetected(
                "edge relation contains the cycle %s" % cycle) from None
        if not complete:
            raise OrderNotTopological(
                "order must list every node exactly once")
        raise OrderNotTopological(
            "edge (%r, %r) runs against the order" % back[0])

    node_by_id = net.node_map()
    every = parent_positions(net)
    for nid, parents in zip(net.order, every):
        if nid not in net.activations:
            raise ActivationOrderMismatch("missing activation for %r" % nid)
        act = np.asarray(net.activations[nid])
        want = len(parents) + 1
        if act.ndim != want:
            raise ActivationOrderMismatch(
                "activation of %r has order %d, expected %d"
                % (nid, act.ndim, want))
        expect = tuple(node_by_id[net.order[p]].states for p in parents) \
            + (node_by_id[nid].states,)
        if act.shape != expect:
            raise StateSizeMismatch(
                "activation of %r has shape %s, expected %s"
                % (nid, act.shape, expect))
    return every


def lift(net, i, t=None, parents=None):
    """Lift the activation at order-position ``i`` to an order-q tensor;
    ``t`` and ``parents``, when given, replace it and its parent positions.

    The lifted tensor is indexed by all q node states, except that for
    every non-final node the slot after its own is the duplicated first
    slot introduced by ``blow`` (that duplicate is what the product step
    consumes).  Steps: insert free slots for non-parent predecessors,
    blow unless this is the final node, then insert free slots for the
    remaining later nodes.
    """
    q = len(net.order)
    node_by_id = net.node_map()
    sizes = [node_by_id[nid].states for nid in net.order]
    nid = net.order[i]
    t = np.asarray(net.activations[nid] if t is None else t)

    parents = set(parent_positions(net, nid) if parents is None else parents)
    gaps = [j for j in range(i) if j not in parents]
    if gaps:
        t = forget(t, gaps, [sizes[j] for j in gaps])
    if i != q - 1:
        t = blow(t)
    tail = list(range(i + 2, q))
    if tail:
        t = forget(t, tail, [sizes[j] for j in tail])
    return t


def total_direct(net):
    """Total tensor straight from the definition: for every joint state,
    multiply each node's activation at its parents' states and its own.
    Exponential in q; meant for small networks and as the reference
    implementation the product route is checked against.
    """
    parents = validate(net)
    node_by_id = net.node_map()
    sizes = tuple(node_by_id[nid].states for nid in net.order)
    acts = [np.asarray(net.activations[nid]) for nid in net.order]
    ref = next((a for a in acts if is_exact(a)), acts[0])
    out = zeros_matching(sizes, ref)
    if is_exact(out):
        # numpy scalars in objects, as a per-entry product multiplies them
        acts = [a if is_exact(a) else np.fromiter(a.flat, object, a.size)
                .reshape(a.shape) for a in acts]
    # node j's activation on the joint axes, extent 1 off j and its parents
    views = [a.reshape([s if k == j or k in parents[j] else 1
                        for k, s in enumerate(sizes)])
             for j, a in enumerate(acts)]
    out[...] = math.prod(views[1:], start=views[0])
    return out


def _scaled_total(net):
    """``(total, denom)``: the total tensor as one Bhattacharya-Mesner
    product of lifted factors, times ``denom``.  Exact activations are
    converted to scaled integers once, before lifting, so the lifts, the
    product and any contraction of the result run on integers, and
    ``denom`` is the product of their denominators; it is None when the
    activations are taken as they are (floats, say).

    The factor at product position 0 is the lift of the last node; the
    lift of node k sits at position k + 1.  With a single node there is
    nothing to multiply and the lift itself is the total tensor.
    """
    parents = validate(net)
    acts = [np.asarray(net.activations[nid]) for nid in net.order]
    denom = None
    pairs = [scaled(a) for a in acts]
    if any(map(is_exact, acts)) and all(p is not None for p in pairs):
        acts = [p[0] for p in pairs]
        denom = math.prod(p[1] for p in pairs)
    lifted = [lift(net, k, acts[k], parents[k]) for k in range(len(acts))]
    if len(lifted) == 1:
        return lifted[0], denom
    return bmp(lifted[-1:] + lifted[:-1]), denom


def total_bmp(net):
    """Total tensor as one Bhattacharya-Mesner product of lifted factors
    (see :func:`_scaled_total`); Fractions when the activations are
    exact."""
    total, denom = _scaled_total(net)
    return total if denom is None else unscaled(total, denom)


def hidden_positions(net):
    """Order positions of nodes flagged hidden."""
    node_by_id = net.node_map()
    return [k for k, nid in enumerate(net.order) if node_by_id[nid].hidden]


def observed_total(net):
    """Total tensor with every hidden node summed out; exact activations
    are summed out as scaled integers and rescaled once."""
    total, denom = _scaled_total(net)
    observed = contraction(total, hidden_positions(net))
    return observed if denom is None else unscaled(observed, denom)


def build_matmul_chain(a_mat, b_mat):
    """Three-node chain computing a 2x2 (or n x n) matrix product.

    Node 'rows' ranges over row indices with an all-ones activation,
    'mid' carries A conditioned on the row, 'out' carries B conditioned
    on mid.  Summing the total tensor over 'mid' leaves the product AB.
    """
    a_mat = np.asarray(a_mat)
    b_mat = np.asarray(b_mat)
    if a_mat.ndim != 2 or b_mat.ndim != 2 or a_mat.shape[1] != b_mat.shape[0]:
        raise StateSizeMismatch("need matrices with matching inner extent")
    n_rows, n_mid = a_mat.shape
    n_cols = b_mat.shape[1]
    ones = zeros_matching((n_rows,), a_mat) + 1
    return Network(
        nodes=[
            NodeSpec("rows", n_rows),
            NodeSpec("mid", n_mid, hidden=True),
            NodeSpec("cols", n_cols),
        ],
        edges=[("rows", "mid"), ("mid", "cols")],
        order=["rows", "mid", "cols"],
        activations={"rows": ones, "mid": a_mat, "cols": b_mat},
    )


def combination_stage(coeff_sq, vec_pad):
    """Two-node network applying a padded square coefficient matrix to a
    padded operand vector; contracting the source slot of its total
    tensor returns ``coeff_sq^T vec_pad``."""
    r = vec_pad.shape[0]
    net = Network(
        nodes=[NodeSpec("src", r, hidden=True), NodeSpec("mix", r)],
        edges=[("src", "mix")],
        order=["src", "mix"],
        activations={"src": vec_pad, "mix": coeff_sq},
    )
    return observed_total(net)


def product_stage(s1, s2, f_sq):
    """Two combination vectors feed one output node whose activation
    couples them diagonally through F: entry [s, t, j] is F[s, j] when
    s == t, else 0.  Summing the total tensor over both parent slots
    yields the scheme output vector."""
    r = s1.shape[0]
    coupler = np.transpose(blow(f_sq), (0, 2, 1))
    net = Network(
        nodes=[
            NodeSpec("lin_a", r, hidden=True),
            NodeSpec("lin_b", r, hidden=True),
            NodeSpec("out", r),
        ],
        edges=[("lin_a", "out"), ("lin_b", "out")],
        order=["lin_a", "lin_b", "out"],
        activations={"lin_a": s1, "lin_b": s2, "out": coupler},
    )
    return observed_total(net)


def strassen_stages(a_mat, b_mat, scheme):
    """Run a bilinear scheme as staged networks, returning intermediates.

    Keys: 'a_pad', 'b_pad' (padded operand vectors), 's1', 's2' (the r
    linear combinations of each operand), 'products' (s1 * s2 summed
    against nothing yet, i.e. the entrywise multiplications), 'output'
    (the full length-r product-stage result; coordinates past n^2 are 0).
    """
    n = scheme.n
    a_mat = np.asarray(a_mat)
    b_mat = np.asarray(b_mat)
    if a_mat.shape != (n, n) or b_mat.shape != (n, n):
        raise StateSizeMismatch("operands must be n x n matrices")
    r = scheme.r
    H_sq, K_sq, F_sq = scheme_module.padded_square_factors(scheme)

    a_pad = zeros_matching((r,), a_mat)
    b_pad = zeros_matching((r,), b_mat)
    a_pad[: n * n] = a_mat.reshape(n * n)
    b_pad[: n * n] = b_mat.reshape(n * n)

    def stages(h, a, k, b, f):
        s1 = combination_stage(h, a)
        s2 = combination_stage(k, b)
        return s1, s2, product_stage(s1, s2, f)

    parts = (H_sq, a_pad, K_sq, b_pad, F_sq)
    pairs = [scaled(p) for p in parts]
    if any(map(is_exact, parts)) and all(p is not None for p in pairs):
        # each factor and operand is converted once; the stages run on
        # integers, and only their results become Fractions
        s1, s2, out = stages(*(p[0] for p in pairs))
        d1 = pairs[0][1] * pairs[1][1]
        d2 = pairs[2][1] * pairs[3][1]
        s1, s2, out = (unscaled(s1, d1), unscaled(s2, d2),
                       unscaled(out, d1 * d2 * pairs[4][1]))
    else:
        s1, s2, out = stages(*parts)
    return {
        "a_pad": a_pad,
        "b_pad": b_pad,
        "s1": s1,
        "s2": s2,
        "products": s1 * s2,
        "output": out,
    }


def strassen_pipeline(a_mat, b_mat, scheme):
    """The padded output vector computed end to end through the staged
    networks: its first n^2 coordinates are vec(AB), the rest are 0."""
    return strassen_stages(a_mat, b_mat, scheme)["output"]
