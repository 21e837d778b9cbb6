"""Independent brute-force oracles used to freeze expected test values.

Everything here works on plain data (label tuples, vertex counts, edge sets)
and never imports the package under test.  The enumerators favour the most
literal transcription of the definitions over speed.
"""
from __future__ import annotations

import math
from itertools import combinations, permutations


def naive_induce(labels):
    """(edge index pairs, isolated indices) by the textbook definition."""
    labels = tuple(sorted(labels))
    members = set(labels)
    k = len(labels)
    edges = set()
    for i in range(k):
        for j in range(i + 1, k):
            if labels[i] + labels[j] in members:
                edges.add((i, j))
    touched = {v for e in edges for v in e}
    isolated = tuple(i for i in range(k) if i not in touched)
    return frozenset(edges), isolated


def canonical_edges(edges):
    return frozenset(tuple(sorted(e)) for e in edges)


def naive_isomorphic(n1, edges1, n2, edges2):
    """Permutation-based isomorphism test for graphs with <= 8 vertices."""
    if n1 != n2 or len(edges1) != len(edges2):
        return False
    if n1 > 8:
        raise ValueError("naive isomorphism limited to 8 vertices")
    target = canonical_edges(edges2)
    base = canonical_edges(edges1)
    for perm in permutations(range(n1)):
        if all(tuple(sorted((perm[u], perm[v]))) in target for u, v in base) and len(
            base
        ) == len(target):
            return True
    return False


def _core_of(labels):
    labels = tuple(sorted(labels))
    edges, isolated = naive_induce(labels)
    isolated_set = set(isolated)
    core_ids = [i for i in range(len(labels)) if i not in isolated_set]
    remap = {old: new for new, old in enumerate(core_ids)}
    core_edges = frozenset((remap[u], remap[v]) for u, v in edges)
    return len(core_ids), core_edges, len(isolated)


def _window_solutions(n, edges, x, low, size_options, exact_isolates, positive):
    """All valid label sets with min label `low` and range exactly x."""
    found = []
    if positive and low < 1:
        return found
    window = list(range(low, low + x + 1))
    interior = window[1:-1]
    for size in size_options:
        if size < 2 or size > x + 1:
            continue
        for combo in combinations(interior, size - 2):
            labels = tuple([window[0], *combo, window[-1]])
            core_n, core_edges, iso_count = _core_of(labels)
            if exact_isolates is not None and iso_count != exact_isolates:
                continue
            if core_n != n:
                continue
            if naive_isomorphic(core_n, core_edges, n, edges):
                found.append(labels)
    return found


def naive_search(invariant, n, edges, *, sigma=None, zeta=None, max_range=12):
    """Literal minimum-range enumeration; returns (value, witness) or Nones.

    invariant: "spum" | "ispum" | "sd" | "isd".  Windows scan every possible
    minimum label (positive: [1, x]; integral: [-2x, x], which covers mixed,
    all-negative, and all-positive solutions directly).
    """
    edges = canonical_edges(edges)
    integral = invariant in ("ispum", "isd")
    if invariant == "spum":
        if sigma is None:
            raise ValueError("spum needs sigma")
        exact_isolates = sigma
    elif invariant == "ispum":
        if zeta is None:
            raise ValueError("ispum needs zeta")
        exact_isolates = zeta
    else:
        exact_isolates = None
    for x in range(1, max_range + 1):
        if invariant == "spum":
            sizes = [n + sigma]
        elif invariant == "ispum":
            sizes = [n + zeta]
        elif invariant == "sd":
            sizes = range(n + 1, x + 2)
        else:
            sizes = range(n, x + 2)
        lows = range(-2 * x, x + 1) if integral else range(1, x + 1)
        solutions = []
        for low in lows:
            solutions.extend(
                _window_solutions(n, edges, x, low, sizes, exact_isolates, not integral)
            )
        if solutions:
            return x, min(solutions)
    return None, None


def power_coefficients(elements, k):
    """Sparse coefficients of (sum of z^a)^k as a dict."""
    poly = {0: 1}
    for _ in range(k):
        nxt: dict[int, int] = {}
        for s, c in poly.items():
            for a in elements:
                nxt[s + a] = nxt.get(s + a, 0) + c
        poly = nxt
    return poly


def is_bk_oracle(elements, k):
    """B_k test: every coefficient of the k-th power is <= k!.

    For k >= 3 that makes every k-subset sum distinct, not every k-multiset
    sum: (1, 2, 4, 8) passes at k = 3 although 1 + 1 + 8 = 2 + 4 + 4.
    """
    if not elements:
        return True
    return max(power_coefficients(elements, k).values()) <= math.factorial(k)


def is_sidon_oracle(elements):
    """Distinct pairwise sums with repetition allowed: the B_2 condition."""
    sums = [a + b for a, b in combinations(elements, 2)]
    sums += [2 * a for a in elements]
    return len(sums) == len(set(sums))


def naive_hyper_induce(labels, k):
    """k-uniform sum hypergraph: hyperedge when k distinct labels sum in."""
    labels = tuple(sorted(labels))
    members = set(labels)
    edges = set()
    for combo in combinations(range(len(labels)), k):
        if sum(labels[i] for i in combo) in members:
            edges.add(combo)
    touched = {v for e in edges for v in e}
    isolated = tuple(i for i in range(len(labels)) if i not in touched)
    return frozenset(edges), isolated


def _hyper_core(labels, k):
    labels = tuple(sorted(labels))
    edges, isolated = naive_hyper_induce(labels, k)
    isolated_set = set(isolated)
    core_ids = [i for i in range(len(labels)) if i not in isolated_set]
    remap = {old: new for new, old in enumerate(core_ids)}
    core_edges = frozenset(tuple(sorted(remap[v] for v in e)) for e in edges)
    return len(core_ids), core_edges


def naive_hyper_isomorphic(n, edges1, edges2):
    """Does some permutation of range(n) carry edges1 onto edges2?"""
    target = frozenset(tuple(sorted(e)) for e in edges2)
    return any(
        frozenset(tuple(sorted(perm[v] for v in e)) for e in edges1) == target
        for perm in permutations(range(n))
    )


def naive_hyper_sd(n, hyperedges, k, *, max_range=14):
    """Minimum-range positive search for the k-uniform sum hypergraph."""
    target = frozenset(tuple(sorted(e)) for e in hyperedges)
    for x in range(1, max_range + 1):
        solutions = []
        for low in range(1, x + 1):
            window = list(range(low, low + x + 1))
            interior = window[1:-1]
            for size in range(n + 1, x + 2):
                for combo in combinations(interior, size - 2):
                    labels = tuple([window[0], *combo, window[-1]])
                    core_n, core_edges = _hyper_core(labels, k)
                    if core_n == n and naive_hyper_isomorphic(n, core_edges, target):
                        solutions.append(labels)
        if solutions:
            return x, min(solutions)
    return None, None


def _sum_edge_count(labels, k):
    """Number of k-subsets of sorted labels whose sum is a label."""
    members = set(labels)

    def count(start, left, total):
        # every pick after labels[i] is at least labels[i]
        if not left:
            return total in members
        found = 0
        for i in range(start, len(labels) - left + 1):
            if total + labels[i] * left > labels[-1]:
                break
            found += count(i + 1, left - 1, total + labels[i])
        return found

    return count(0, k, 0)


def naive_hyper_window(h, lo, hi, node_cap):
    """Recursive include-first window search: (labels or None, nodes, aborted).

    h needs only n, k and edges. Every label set in [lo, hi] that holds both
    ends and has at least n + 1 labels is tested in lexicographic order, each
    test one node, and a subtree too small to reach n + 1 labels is skipped
    uncounted. Each call first checks nodes against node_cap.
    """
    target = frozenset(tuple(sorted(e)) for e in h.edges)
    interior = list(range(lo + 1, hi))
    min_size = h.n + 1
    nodes = 0

    def test(labels):
        # an isomorphic core has exactly len(target) edges
        if _sum_edge_count(labels, h.k) != len(target):
            return False
        core_n, core_edges = _hyper_core(labels, h.k)
        return core_n == h.n and naive_hyper_isomorphic(h.n, core_edges, target)

    def visit(idx, chosen):
        nonlocal nodes
        if nodes > node_cap:
            return "abort"
        if len(chosen) + (len(interior) - idx) + 1 < min_size:
            return None
        if idx == len(interior):
            nodes += 1
            candidate = chosen + [hi]
            return tuple(candidate) if test(candidate) else None
        found = visit(idx + 1, chosen + [interior[idx]])
        if found is not None:
            return found
        return visit(idx + 1, chosen)

    found = visit(0, [lo])
    if found == "abort":
        return None, nodes, True
    return found, nodes, False


def residue_class_sets(rng, k, sizes):
    """Seeded sorted label sets whose labels lie in few residue classes mod
    k*k: one, two or three classes at random, and the pattern of the
    general constructions, labels k*k*x + 1 and, for some k of them,
    k*k*(their x summed) + k. Each comes dense (about two labels' room per
    label) and sparse (400), with positive, mixed-sign and all-negative
    labels, at every size in sizes."""
    m = k * k
    sets = []
    for n in sizes:
        for spread in (2, 400):
            width = spread * n
            for low in (1, -(width // 2), -width - 1):
                room = range(low, low + width)
                for count in (1, 2, 3):
                    classes = rng.sample(range(m), count)
                    sets.append(sorted(m * x + rng.choice(classes) for x in rng.sample(room, n)))
                xs = rng.sample(room, n // 3 + k)
                values = {m * x + 1 for x in xs}
                while len(values) < n:
                    values.add(m * sum(rng.sample(xs, k)) + k)
                sets.append(sorted(values))
    return [tuple(s) for s in sets]
