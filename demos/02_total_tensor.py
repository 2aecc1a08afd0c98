"""Total tensor of a network two ways.

A network is a DAG whose nodes carry state sizes and whose activations
are tensors over (parents' states, own states).  The total tensor is the
product, over nodes, of every activation entry consistent with a global
state assignment.  It can be computed directly from that definition, or
by lifting each activation to a common order and combining the lifts
with a single product; the two routes agree exactly.
"""

import numpy as np

from bmpnet.network import build_matmul_chain, total_bmp, total_direct
from bmpnet.tensor import contraction, exact_array

a = exact_array([[1, 2], [3, 4]])
b = exact_array([[5, 6], [7, 8]])

net = build_matmul_chain(a, b)
print("chain network for the classical product: %d nodes" % len(net.nodes))
for node in net.nodes:
    print("  node %-4s states=%d hidden=%s" % (node.id, node.states,
                                               node.hidden))

direct = total_direct(net)
product = total_bmp(net)
print("\ntotal tensor shape:", direct.shape)
print("routes agree entrywise:",
      all(direct[idx] == product[idx] for idx in np.ndindex(direct.shape)))

# summing out the middle (hidden) slot leaves exactly A @ B
out = contraction(product, {1})
print("\nmarginal over the hidden slot:")
print(np.array2string(out.astype(object)))
print("equals A @ B:", np.array_equal(out, a.dot(b)))
