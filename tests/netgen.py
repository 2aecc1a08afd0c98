"""Random valid networks for property tests, composed schemes, and
float copies of exact schemes.

Node count, state sizes, edge density, hidden flags, and activation
entries are all drawn from the supplied generator.  Activations are
small Fractions so that both total-tensor routes can be compared with
exact equality.  ``kron_scheme`` builds larger exact schemes to certify.
"""

from fractions import Fraction

import numpy as np

from bmpnet.network import Network, NodeSpec, parent_positions
from bmpnet.scheme import BilinearScheme, scheme_from_json, scheme_to_json


def random_exact(rng, shape):
    numer = rng.integers(-4, 5, size=shape)
    denom = rng.choice([1, 2, 3], size=shape)
    out = np.empty(shape, dtype=object)
    for idx in np.ndindex(shape):
        out[idx] = Fraction(int(numer[idx]), int(denom[idx]))
    return out


def float_scheme(scheme):
    """A float64 copy of a scheme, read back from its JSON form: each
    entry converts as ``float()`` converts it."""
    return scheme_from_json(scheme_to_json(scheme))


def random_network(rng, q_max=4, s_max=3):
    q = int(rng.integers(1, q_max + 1))
    sizes = [int(rng.integers(1, s_max + 1)) for _ in range(q)]
    names = ["n%d" % k for k in range(q)]
    edges = []
    for j in range(1, q):
        for i in range(j):
            if rng.random() < 0.5:
                edges.append((names[i], names[j]))
    nodes = [NodeSpec(names[k], sizes[k], hidden=bool(rng.random() < 0.3))
             for k in range(q)]
    net = Network(nodes=nodes, edges=edges, order=list(names),
                  activations={})
    for k, nid in enumerate(names):
        parents = parent_positions(net, nid)
        shape = tuple(sizes[p] for p in parents) + (sizes[k],)
        net.activations[nid] = random_exact(rng, shape)
    return net


def kron_scheme(s1, s2):
    """Kronecker product of two schemes: n1 n2 x n1 n2 matrices at rank
    r1 r2, blocks of s2 multiplied by s1 (Strassen's recursion as one
    scheme).  Row-major index (i1 n2 + i2) n + (j1 n2 + j2) splits into
    (i1, j1) for s1 and (i2, j2) for s2; slot s1 r2 + s2 pairs the slots."""
    n1, n2 = s1.n, s2.n
    n, r = n1 * n2, s1.r * s2.r

    def kron(M1, M2, shape):
        # M1, M2 have three axes each; interleave them, M1's first
        return (M1[:, None, :, None, :, None]
                * M2[None, :, None, :, None, :]).reshape(shape)

    def cols(s, M):
        return M.reshape(s.n, s.n, s.r)

    return BilinearScheme(
        n=n, r=r,
        H=kron(cols(s1, s1.H), cols(s2, s2.H), (n * n, r)),
        K=kron(cols(s1, s1.K), cols(s2, s2.K), (n * n, r)),
        F=kron(s1.F.reshape(s1.r, n1, n1), s2.F.reshape(s2.r, n2, n2),
               (r, n * n)))
