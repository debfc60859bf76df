"""Seeded inputs for the ``stream`` workload, built without algconn so the
program receives only the generated graph6 text.

Orders are fixed and only the structure follows the seed: the Jacobi
solve costs ~n³ and the matching DP ~2ⁿ, so seeding the orders would make
the work per run swing with the seed instead of with the code.
"""

from __future__ import annotations

import random

#: One random labelled tree of each order: few large eigensolves.  Short-form
#: graph6, the only form algconn reads, stops at order 62.
TREE_ORDERS = (50, 52, 54, 56, 58, 60, 62)

#: Orders of the connected non-tree slice, cycled: the 2ⁿ matching DP.
NONTREE_ORDERS = (12, 13, 14, 15, 16, 17, 18)
NONTREE_COUNT = 40


def encode_graph6(n: int, edges) -> str:
    """Short-form graph6 of an order-``n`` graph given as ``(u, v)`` pairs."""
    present = {(min(u, v), max(u, v)) for u, v in edges}
    bits = [1 if (i, j) in present else 0 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    chars = [chr(n + 63)]
    for k in range(0, len(bits), 6):
        value = 0
        for b in bits[k : k + 6]:
            value = (value << 1) | b
        chars.append(chr(value + 63))
    return "".join(chars)


def random_tree(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """Uniform random labelled tree, decoded from a random Prüfer sequence."""
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    for v in seq:
        leaf = degree.index(1)
        edges.append((leaf, v))
        degree[leaf] -= 1
        degree[v] -= 1
    a = degree.index(1)
    b = degree.index(1, a + 1)
    edges.append((a, b))
    return edges


def random_nontree(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """Connected graph with ``2n - 1`` edges: a random spanning tree plus
    ``n`` distinct extra edges."""
    edges = {(min(u, v), max(u, v)) for u, v in random_tree(rng, n)}
    while len(edges) < 2 * n - 1:
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    return sorted(edges)


def stream_inputs(seed: int) -> tuple[list[tuple[int, list]], list[tuple[int, list]]]:
    """``(trees, nontrees)`` as lists of ``(n, edges)``; the same seed gives
    the same graphs."""
    rng = random.Random(f"perfbench-stream-{seed}")
    trees = [(n, random_tree(rng, n)) for n in TREE_ORDERS]
    nontrees = [
        (n, random_nontree(rng, n))
        for n in (NONTREE_ORDERS[i % len(NONTREE_ORDERS)] for i in range(NONTREE_COUNT))
    ]
    return trees, nontrees
