"""Tensor networks on DAGs whose joint tensor factors over node activations.

Each node carries a discrete state of some extent and an activation
tensor of order in-degree + 1, indexed by the states of its parents (in
the network's total order) followed by its own state.  The network's
total tensor multiplies all activations out over every joint state.  It
can be computed two ways: directly from that definition, or by lifting
every activation to a common order and taking one Bhattacharya-Mesner
product.  They agree entrywise on finite activations, and the product
route refuses a float one holding NaN or inf; keeping them separate is
the point, as each checks the other.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import scheme as scheme_module
from .tensor import (
    _padded,
    _product,
    _widened,
    blow,
    bmp,
    fit_integers,
    is_exact,
    scaled,
    unscaled,
    zeros_matching,
)
# imported only for perfbench/tracing.py, which wraps them in this module
from .tensor import contraction, forget  # noqa: F401


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


def lift(net, i, t=None):
    """Lift the activation at order-position ``i`` to an order-q tensor;
    ``t``, when given, replaces it.

    The lifted tensor is indexed by all q node states, except that for
    every non-final node the slot after its own is the duplicated first
    slot introduced by ``blow`` (that duplicate is what the product step
    consumes).  Steps: insert free slots for non-parent predecessors,
    blow unless this is the final node, then insert free slots for the
    remaining later nodes.
    """
    node_by_id = net.node_map()
    sizes = [node_by_id[nid].states for nid in net.order]
    nid = net.order[i]
    t = np.asarray(net.activations[nid] if t is None else t)
    return _lift(t, i, parent_positions(net, nid), sizes)


def _lift(t, i, parents, sizes):
    """:func:`lift` of ``t`` at order-position ``i`` with the parent
    positions ``parents``, in a network of node extents ``sizes``: ``t``
    on slots 0..i, extent 1 at each skipped predecessor, widened by one
    broadcast copy; ``blow`` unless ``i`` is last; then the later slots
    widened by one broadcast copy.  Every free slot is written by copy,
    never by a product, so every entry keeps its bits, NaN and inf too."""
    q = len(sizes)
    if len(parents) < i:
        t = _widened(t.reshape([sizes[j] if j in parents else 1
                                for j in range(i)] + [sizes[i]]),
                     sizes[:i + 1])
    if i == q - 1:
        return t
    t = blow(t)
    if i + 2 < q:
        t = _widened(t.reshape(t.shape + (1,) * (q - i - 2)),
                     t.shape + tuple(sizes[i + 2:]))
    return t


def total_direct(net):
    """Total tensor straight from the definition: for every joint state,
    multiply each node's activation at its parents' states and its own.
    Exponential in q; meant for small networks and as the reference
    implementation the product route is checked against.
    """
    parents = validate(net)
    acts = [np.asarray(net.activations[nid]) for nid in net.order]
    sizes = [a.shape[-1] for a in acts]  # node k's extent
    if not any(map(is_exact, acts)) and any(
            a.dtype.kind not in "iu" for a in acts):
        # integers meet floats as floats, in the dtype bmp casts to
        dtype = np.result_type(np.float64, *acts)
        acts = [a.astype(dtype, copy=False) for a in acts]
    ints = [k for k, a in enumerate(acts) if a.dtype.kind in "iu"]
    if ints:
        # their product, widened past 2^62 instead of wrapping
        for k, a in zip(ints, fit_integers([acts[k] for k in ints], 1)):
            acts[k] = a
    if any(map(is_exact, acts)):
        # numpy scalars in objects, as a per-entry product multiplies them
        acts = [a if is_exact(a) else np.fromiter(a.flat, object, a.size)
                .reshape(a.shape) for a in acts]
    # node j's activation on the joint axes, extent 1 off j and its parents
    views = [a.reshape([s if k == j or k in parents[j] else 1
                        for k, s in enumerate(sizes)])
             for j, a in enumerate(acts)]
    # in the dtype of the product, so that no float is cast to an integer
    return math.prod(views[1:], start=views[0].copy())


def _total(net, hidden=()):
    """:func:`_product_total` of a caller's network, once it validates and
    no float activation holds NaN or inf, which ``blow``'s zeros would
    meet in the product (0 * inf is NaN) where the definition has none."""
    parents = validate(net)
    acts = [np.asarray(net.activations[nid]) for nid in net.order]
    for nid, a in zip(net.order, acts):
        if a.dtype.kind in "fc" and not np.isfinite(a).all():
            raise NetworkError("activation of %r is not finite" % nid)
    return _product_total(acts, parents, hidden)


def _product_total(acts, parents, hidden=(), unscale=True):
    """The total tensor of a valid network, given as its activations
    ``acts`` in order and their parent positions ``parents``, as one
    Bhattacharya-Mesner product of lifted factors, with the order
    positions ``hidden`` (ascending) summed out; a fresh array.  When
    every activation scales to integers, each is scaled and bounded once,
    then lifted: one bound, ``l * E * prod(max |a_k|)`` (``l`` the largest
    node extent, ``E`` the product of the hidden extents), covers every
    partial sum of the product and of the hidden sum; the result becomes
    Fractions once if any activation is exact, unless ``unscale`` is
    false: then it stays the integers over the product of the
    denominators.  Other activations (floats, say) are lifted and
    multiplied by :func:`bmp` as they are.

    The factor at product position 0 is the lift of the last node; the
    lift of node k sits at position k + 1.  With a single node there is
    nothing to multiply and the lift itself is the total tensor.
    """
    sizes = [a.shape[-1] for a in acts]  # node k's extent
    pairs = [scaled(a) for a in acts]
    ints = all(p is not None for p in pairs)
    # each activation's bounded integers, or each activation as it is
    factors = fit_integers([p[0] for p in pairs], max(sizes) * math.prod(
        sizes[k] for k in hidden)) if ints else acts
    lifted = [_lift(f, k, parents[k], sizes) for k, f in enumerate(factors)]
    total = lifted[0].copy() if len(lifted) == 1 else (
        _product if ints else bmp)(lifted[-1:] + lifted[:-1])
    if hidden:
        total = np.asarray(total.sum(axis=tuple(hidden)))
    if unscale and ints and any(map(is_exact, acts)):
        return unscaled(total, math.prod(p[1] for p in pairs))
    return total


def total_bmp(net):
    """Total tensor as one Bhattacharya-Mesner product of lifted factors
    (see :func:`_total`); Fractions when the activations are exact."""
    return _total(net)


def hidden_positions(net):
    """Order positions of nodes flagged hidden."""
    node_by_id = net.node_map()
    return [k for k, nid in enumerate(net.order) if node_by_id[nid].hidden]


def observed_total(net):
    """Total tensor with every hidden node summed out; exact activations
    are summed out as scaled integers and rescaled once."""
    return _total(net, hidden_positions(net))


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


def _stage(acts):
    """Total of the star network whose nodes carry ``acts``: every node
    but the last is hidden and a parent of the last, and the total is
    summed over those parents' positions; integers stay integers
    (:func:`_product_total` with ``unscale`` false).  No network is
    built or validated: :func:`_staged` has checked what it passes."""
    k = len(acts) - 1
    return _product_total(acts, [()] * k + [range(k)], range(k), False)


def _staged(a_mat, b_mat, scheme):
    """``(s1, s2, out, denoms)`` of a scheme run as staged networks on
    n x n operands, each part (H, vec A, K, vec B, F) zero-padded to r
    along every axis.  Two combination stages give s1 = H^T a and s2 =
    K^T b; the product stage's output node couples them diagonally
    through F: its entry [s, t, j] is F[s, j] when s == t, else 0.  When
    every part is an integer or exact array, the stages run on the parts'
    scaled integers and give integers (Python ints past 2^62), with
    ``denoms`` the denominators of s1, s2 and out if a part is exact,
    else None; otherwise on the parts as float64, with ``denoms`` None."""
    n = scheme.n
    m, r = n * n, scheme.r
    a_mat, b_mat = np.asarray(a_mat), np.asarray(b_mat)
    if a_mat.shape != (n, n) or b_mat.shape != (n, n):
        raise StateSizeMismatch("operands must be n x n matrices")
    if r < m:
        raise scheme_module.RankTooSmall(
            "need r >= n^2 to pad, got r=%d < %d" % (r, m))
    parts = (scheme.H, a_mat.reshape(m), scheme.K, b_mat.reshape(m), scheme.F)
    pairs = [scaled(p) for p in parts]
    denoms = None
    if any(p is None for p in pairs):
        # a stage of exact parts would return integers never rescaled
        parts = [p.astype(np.float64, copy=False) for p in parts]
    elif any(map(is_exact, parts)):
        parts, (dh, da, dk, db, df) = zip(*pairs)
        denoms = dh * da, dk * db, dh * da * dk * db * df
    h, a, k, b, f = (_padded(p, r) for p in parts)
    s1 = _stage((a, h))
    s2 = _stage((b, k))
    out = _stage((s1, s2, np.transpose(blow(f), (0, 2, 1))))
    return s1, s2, out, denoms


def strassen_stages(a_mat, b_mat, scheme):
    """Run a bilinear scheme as staged networks, returning intermediates.

    Keys: 'a_pad', 'b_pad' (padded operand vectors), 's1', 's2' (the r
    linear combinations of each operand), 'products' (s1 * s2 summed
    against nothing yet, i.e. the entrywise multiplications), 'output'
    (the full length-r product-stage result; coordinates past n^2 are 0).
    """
    s1, s2, out, denoms = _staged(a_mat, b_mat, scheme)
    if denoms is not None:
        s1, s2, out = map(unscaled, (s1, s2, out), denoms)
    # int64 products widen past 2^62 instead of wrapping
    products = (np.multiply(*fit_integers([s1, s2], 1))
                if s1.dtype == np.int64 else s1 * s2)
    return {
        "a_pad": _padded(np.ravel(a_mat), scheme.r),
        "b_pad": _padded(np.ravel(b_mat), scheme.r),
        "s1": s1,
        "s2": s2,
        "products": products,
        "output": out,
    }


def strassen_pipeline(a_mat, b_mat, scheme):
    """The padded output vector computed end to end through the staged
    networks: its first n^2 coordinates are vec(AB), the rest are 0."""
    *_, out, denoms = _staged(a_mat, b_mat, scheme)
    return out if denoms is None else unscaled(out, denoms[2])
