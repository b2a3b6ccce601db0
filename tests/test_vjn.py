import random

import pytest

from trickle.graph import GraphError, validate
from trickle.parabolic import is_parabolic, member, parabolic_subgraph
from trickle.pilings import from_syllables
from trickle.vjn import (consecutive_tuple, jn_embedding_check, kjn_graph,
                         parse_vjn_word, perm_identity, perm_mul,
                         transposition, vjn_encode, vjn_equal)


def test_kjn_sizes():
    assert len(kjn_graph(2).vertices) == 2
    assert len(kjn_graph(3).vertices) == 12
    assert len(kjn_graph(4).vertices) == 60


def test_kjn_validates():
    for n in (2, 3, 4):
        assert validate(kjn_graph(n)).ok


def test_kjn_phi_examples():
    g = kjn_graph(3)
    assert g.phi((1, 2, 3), (1, 2)) == (2, 3)
    assert g.phi((3, 1, 2), (1, 2)) == (3, 1)
    assert g.phi((1, 2, 3), (2, 3)) == (1, 2)
    assert g.phi((1, 2, 3), (1, 2, 3)) == (1, 2, 3)


def test_kjn_order_and_edges():
    g = kjn_graph(3)
    assert g.less((1, 2), (1, 2, 3))
    assert not g.less((2, 1), (1, 2, 3))
    assert g.edge((1, 2), (1, 2, 3))
    assert not g.edge((1, 2), (2, 3))     # overlapping, not nested
    g4 = kjn_graph(4)
    assert g4.edge((1, 2), (3, 4))        # disjoint supports commute


def test_parse():
    assert parse_vjn_word(3, "x[1,2] r2") == [("x", 1, 2), ("r", 2)]
    with pytest.raises(GraphError):
        parse_vjn_word(3, "x[2,1]")
    with pytest.raises(GraphError):
        parse_vjn_word(3, "r3")
    with pytest.raises(GraphError):
        parse_vjn_word(3, "bogus")


def test_encode_examples():
    e = vjn_encode(3, "r1 x[1,2] r1")
    assert e.perm == perm_identity(3)
    assert e.kernel == from_syllables(kjn_graph(3), [((2, 1), 1)])
    e = vjn_encode(3, "x[1,3]")
    assert e.perm == perm_identity(3)
    assert e.kernel == from_syllables(kjn_graph(3), [((1, 2, 3), 1)])
    assert vjn_equal(3, "r1 r2 r1", "r2 r1 r2")
    assert not vjn_equal(3, "x[1,2]", "r1")
    with pytest.raises(GraphError):
        vjn_encode(3, [("r", 3)])


@pytest.mark.parametrize("p, q", [(1, 3), (0, 2), (2, 2), (2, 1)])
def test_encode_refuses_intervals_out_of_range(p, q):
    with pytest.raises(GraphError, match=rf"^'x\[{p},{q}\]' is out of range for n = 2$"):
        vjn_encode(2, [("x", p, q)])
    with pytest.raises(GraphError):
        vjn_equal(2, [("x", p, q)], [("x", 1, 2)])


@pytest.mark.parametrize("tok", [("y", 1, 2), ("x", 1.0, 2), ("r", 1.0), ("r",), ("x", 1),
                                 ("x", 1, 2, 3), ("r", 1, 2), ("r", 5.0), (), "r1", None])
def test_encode_refuses_malformed_tokens(tok):
    with pytest.raises(GraphError, match=r"^bad token .*; expected \('x', p, q\) or \('r', i\)$"):
        vjn_encode(3, [tok])
    with pytest.raises(GraphError):
        vjn_equal(3, [tok], [("x", 1, 2)])


def test_encode_reads_positions_through_index():
    # as exponents are read: True is the position 1, and lists are tokens
    assert vjn_encode(3, [("x", True, 3), ("r", True)]) == vjn_encode(3, [["x", 1, 3], ["r", 1]])


def _word(tokens):
    return " ".join(tokens)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_all_defining_relations(n):
    ivals = [(p, q) for p in range(1, n + 1) for q in range(p + 1, n + 1)]
    for p, q in ivals:
        assert vjn_equal(n, f"x[{p},{q}] x[{p},{q}]", "")
        for m, r in ivals:
            if q < m or r < p:
                assert vjn_equal(n, f"x[{p},{q}] x[{m},{r}]",
                                 f"x[{m},{r}] x[{p},{q}]")
            elif p <= m and r <= q and (p, q) != (m, r):
                pq, mr = p + q - r, p + q - m
                assert vjn_equal(n, f"x[{p},{q}] x[{m},{r}]",
                                 f"x[{pq},{mr}] x[{p},{q}]")
    for i in range(1, n):
        assert vjn_equal(n, f"r{i} r{i}", "")
        for j in range(1, n):
            if abs(i - j) == 1:
                assert vjn_equal(n, f"r{i} r{j} r{i}", f"r{j} r{i} r{j}")
            elif i != j:
                assert vjn_equal(n, f"r{i} r{j}", f"r{j} r{i}")
    for p, q in ivals:
        for i in range(1, n):
            if i < p - 1 or i >= q + 1:
                assert vjn_equal(n, f"r{i} x[{p},{q}]", f"x[{p},{q}] r{i}")
        if q < n:
            rs = " ".join(f"r{k}" for k in range(q, p - 1, -1))
            assert vjn_equal(n, f"x[{p},{q}] {rs}", f"{rs} x[{p + 1},{q + 1}]")


def test_mixed_translation_relation_explicit():
    # x[1,2] r2 r1 = r2 r1 x[2,3]
    assert vjn_equal(3, "x[1,2] r2 r1", "r2 r1 x[2,3]")
    assert vjn_equal(4, "x[1,3] r3 r2 r1", "r3 r2 r1 x[2,4]")


def test_projection_splits():
    e = vjn_encode(4, "r1 r3 r2")
    assert e.kernel.is_identity
    e = vjn_encode(4, "x[1,2] x[2,4]")
    assert e.perm == perm_identity(4)


def test_consecutive_tuples_form_a_parabolic_copy():
    for n in (3, 4):
        g = kjn_graph(n)
        consec = {consecutive_tuple(p, q)
                  for p in range(1, n + 1) for q in range(p + 1, n + 1)}
        assert is_parabolic(g, consec)
        sub = parabolic_subgraph(g, consec)
        assert member(vjn_encode(n, "x[1,2] x[1,%d]" % n).kernel, sub)
        if n >= 3:
            outside = vjn_encode(n, "r1 x[2,3] r1").kernel
            assert not member(outside, sub)


def test_embedding_check_explicit_pairs():
    # a defining relation pair agrees as equal; distinct generators as unequal
    assert jn_embedding_check(3, [([(1, 3), (1, 2)], [(2, 3), (1, 3)])])
    assert jn_embedding_check(3, [([(1, 2)], [(2, 3)])])
    assert vjn_equal(3, "x[1,3] x[1,2]", "x[2,3] x[1,3]")
    assert not vjn_equal(3, "x[1,2]", "x[2,3]")


def test_embedding_check():
    rng = random.Random(17)
    for n in (3, 4):
        samples = []
        ivals = [(p, q) for p in range(1, n + 1) for q in range(p + 1, n + 1)]
        for _ in range(120):
            w1 = [rng.choice(ivals) for _ in range(rng.randrange(5))]
            w2 = [rng.choice(ivals) for _ in range(rng.randrange(5))]
            samples.append((w1, w2))
        assert jn_embedding_check(n, samples)
    assert jn_embedding_check(3, [])


def test_perm_helpers():
    s1, s2 = transposition(3, 1), transposition(3, 2)
    assert perm_mul(s1, s1) == perm_identity(3)
    assert perm_mul(perm_mul(s1, s2), s1) == perm_mul(perm_mul(s2, s1), s2)


def test_bad_tuple_token_error_is_bounded():
    token = "(" + "1," * 3000 + "x)"
    with pytest.raises(GraphError, match="bad tuple token") as err:
        kjn_graph(3).parse_vertex(token)
    assert len(str(err.value)) < 100
