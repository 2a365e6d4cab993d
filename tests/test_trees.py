import functools
import gc
import json
import math
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from gdnls.errors import ResourceError
from gdnls.trees import (
    LEAF,
    Tree,
    count_trees,
    enumerate_trees,
    fitted_growth_constant,
    leaf_signature,
    root_splits,
    tree_from_json,
    tree_to_json,
)
from oracles import tree_stats


def test_spot_counts():
    assert count_trees(1, 1) == 8
    assert count_trees(2, 0) == 3
    assert count_trees(0, 2) == 5
    assert count_trees(0, 0) == 1
    assert count_trees(1, 0) == 1
    assert count_trees(0, 1) == 1


@functools.lru_cache(maxsize=None)
def _count_by_root_splits(k, p):
    """Reference count: the root-split recursion, one product of child
    counts per split."""
    if k == 0 and p == 0:
        return 1
    total = 0
    for split in root_splits(k, p):
        prod = 1
        for child in split:
            prod *= _count_by_root_splits(*child)
        total += prod
    return total


def test_count_matches_the_root_split_recursion():
    """Every generation up to level 10, and each edge further out: ternary
    trees up to k = 40, quinary ones up to p = 24 (the recursion's split
    count grows too fast to take every k + p <= 40)."""
    pairs = [(k, j - k) for j in range(11) for k in range(j + 1)]
    pairs += [(k, 0) for k in range(11, 41)] + [(0, p) for p in range(11, 25)]
    for k, p in pairs:
        assert count_trees(k, p) == _count_by_root_splits(k, p), (k, p)


def test_count_takes_no_recursion_at_depth():
    """Far beyond the recursion limit, and fast: ternary trees are the
    Fuss-Catalan numbers binom(3k, k) / (2k + 1)."""
    assert count_trees(1200, 0) == math.comb(3600, 1200) // 2401


def test_count_matches_enumeration_up_to_level_4():
    for j in range(5):
        for k in range(j + 1):
            p = j - k
            forest = enumerate_trees(k, p, depth_cap=4)
            assert len(forest) == count_trees(k, p)
            assert len(set(forest)) == len(forest)  # all distinct


def test_generating_function_fixed_point():
    """Independent oracle: the bivariate series T(u, w) = sum count(k,p) u^k w^p
    satisfies T = 1 + u T^3 + w T^5 (root is a leaf, a 3-ary or a 5-ary node).
    Verified coefficient-by-coefficient up to total degree 4 with truncated
    polynomial arithmetic."""
    deg = 4

    def mul(a, b):
        out = {}
        for (ka, pa), ca in a.items():
            for (kb, pb), cb in b.items():
                k, p = ka + kb, pa + pb
                if k + p <= deg:
                    out[(k, p)] = out.get((k, p), 0) + ca * cb
        return out

    T = {(k, j - k): count_trees(k, j - k) for j in range(deg + 1) for k in range(j + 1)}
    T3 = mul(mul(T, T), T)
    T5 = mul(T3, mul(T, T))
    rhs = {(0, 0): 1}
    for (k, p), c in T3.items():
        if k + 1 + p <= deg:
            rhs[(k + 1, p)] = rhs.get((k + 1, p), 0) + c
    for (k, p), c in T5.items():
        if k + p + 1 <= deg:
            rhs[(k, p + 1)] = rhs.get((k, p + 1), 0) + c
    for key, want in T.items():
        assert rhs.get(key, 0) == want


def test_enumeration_order_deterministic():
    a = enumerate_trees(1, 1)
    b = enumerate_trees(1, 1)
    assert a == b
    # 3-ary roots come first
    arities = [len(t.children) for t in a]
    assert arities == sorted(arities)


def test_enumeration_holds_no_memory_after_the_result_is_dropped():
    """The lower generations live in a per-call table, not a process-wide
    cache: once the 23,751 trees of (0, 6) are dropped, they are freed."""
    tracemalloc.start()
    try:
        forest = enumerate_trees(0, 6, depth_cap=6)
        assert len(forest) == count_trees(0, 6) == 23_751
        del forest
        gc.collect()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 500_000


def test_node_arity_validation():
    with pytest.raises(ValueError):
        Tree(children=(LEAF, LEAF))
    with pytest.raises(ValueError):
        Tree(children=(LEAF,) * 4)


def test_depth_cap_enforced():
    with pytest.raises(ResourceError):
        enumerate_trees(3, 2, depth_cap=4)
    assert enumerate_trees(3, 2, depth_cap=5)


def test_leaf_signature_cubic_root():
    tree = Tree(children=(LEAF, LEAF, LEAF))
    sig = leaf_signature(tree)
    assert sig.conjugated == (False, False, True)
    assert sig.differentiated == (False, False, True)


def test_leaf_signature_quintic_root():
    tree = Tree(children=(LEAF,) * 5)
    sig = leaf_signature(tree)
    assert sig.conjugated == (False, True, False, True, False)
    assert sig.differentiated == (False,) * 5


def test_leaf_signature_conjugation_flips_in_conjugated_slot():
    inner = Tree(children=(LEAF, LEAF, LEAF))
    tree = Tree(children=(LEAF, LEAF, inner))  # inner sits in the conjugated slot
    sig = leaf_signature(tree)
    # inner's own pattern (F, F, T) flips to (T, T, F)
    assert sig.conjugated == (False, False, True, True, False)


def test_fitted_constant_stable_between_caps():
    c4 = fitted_growth_constant(4)
    c6 = fitted_growth_constant(6)
    assert c4 >= 1.0
    assert c6 >= c4  # sup over a larger index set
    assert c6 <= 2.0 * c4


@st.composite
def trees(draw):
    j = draw(st.integers(min_value=0, max_value=3))
    k = draw(st.integers(min_value=0, max_value=j))
    forest = enumerate_trees(k, j - k)
    return draw(st.sampled_from(forest))


@given(trees())
def test_stats_invariants(tree):
    s = tree_stats(tree)
    assert s.total == 3 * s.n3 + 5 * s.n5 + 1
    assert s.terminal == 2 * s.n3 + 4 * s.n5 + 1
    assert s.internal == s.n3 + s.n5
    sig = leaf_signature(tree)
    assert len(sig.conjugated) == s.terminal
    assert len(sig.differentiated) == s.terminal
    # each term carries one more plain factor than conjugated ones
    plain = sum(1 for c in sig.conjugated if not c)
    assert plain - (s.terminal - plain) == 1


@given(trees())
def test_json_round_trip(tree):
    text = tree_to_json(tree)
    assert tree_from_json(text) == tree
    json.loads(text)  # well-formed


def test_counts_are_exact_integers_at_depth():
    # deep counts overflow 64-bit ranges without bignum arithmetic
    total = sum(count_trees(k, 10 - k) for k in range(11))
    assert total > 0
    assert isinstance(total, int)
