import itertools
import random
import re

import pytest

from corrupt import broken_d, broken_g
from trickle import garside as gar
from trickle.dyadic import Dyadic
from trickle.families import cactus, fixture, gar3, raag, path_graph
from trickle.graph import GraphError, INFINITY, TrickleGraph
from trickle.pilings import GroupElement, element_from_text, from_syllables
from trickle.thompson import TOP


@pytest.fixture(scope="module")
def g3():
    return gar3()


def elt(graph, text):
    return element_from_text(graph, text)


def test_is_pregarside(g3):
    assert gar.is_pregarside(g3)
    assert not gar.is_pregarside(cactus(3))
    assert gar.is_pregarside(fixture("RAAG-P6"))
    from trickle.thompson import f_graph
    assert gar.is_pregarside(f_graph())


def test_is_positive(g3):
    assert gar.is_positive(elt(g3, "x y"))
    assert not gar.is_positive(elt(g3, "x y^-1"))
    assert gar.is_positive(GroupElement.identity(g3))
    with pytest.raises(GraphError):
        gar.is_positive(elt(cactus(3), "[1,2]"))


def test_left_divides(g3):
    x, y, z = (elt(g3, v) for v in "xyz")
    xy = elt(g3, "x y")
    assert gar.left_divides(x, xy)
    assert not gar.left_divides(y, xy)
    assert gar.left_divides(z, xy)          # x y = z x
    assert gar.left_divides(GroupElement.identity(g3), xy)


def test_right_divides(g3):
    x, y, z = (elt(g3, v) for v in "xyz")
    xy = elt(g3, "x y")
    assert gar.right_divides(y, xy)
    assert gar.right_divides(x, xy)         # x y = z x
    assert not gar.right_divides(z, xy)


def _division_vertices(g):
    if g.finite:
        return list(g.vertices)
    pool = [Dyadic(k, 2) for k in range(-6, 7)]
    return pool + [TOP] if g.contains_vertex(TOP) else pool


@pytest.mark.parametrize("name", ["GAR3", "RAAG-C6", "F", "QUANDLE"])
def test_right_divides_matches_left_division_in_the_dual(name):
    # the reference: a right-divides b iff the reversed word of a
    # left-divides the reversed word of b in the dual graph
    g = fixture(name)
    rng = random.Random(f"right-divides:{name}")
    verts = _division_vertices(g)

    def element(exponents):
        return from_syllables(g, [(rng.choice(verts), rng.choice(exponents))
                                  for _ in range(rng.randrange(5))])

    verdicts = []
    for _ in range(150):
        a = element((1, 1, 2, -1))
        b = element((1, 2)) * a if rng.random() < 0.5 else element((1, 2, -1))
        got = gar.right_divides(a, b)
        assert got == gar.left_divides(gar._reversed_in_dual(a), gar._reversed_in_dual(b))
        verdicts.append(got)
    assert 30 < sum(verdicts) < 120


def test_divides_against_bruteforce(g3):
    # oracle: enumerate positive words w with x . w = g
    atoms = {v: elt(g3, v) for v in "xyz"}
    for length in range(5):
        for word in itertools.product("xyz", repeat=length):
            g = from_syllables(g3, [(v, 1) for v in word])
            lefts = {v for v in "xyz"
                     if any(atoms[v] * from_syllables(g3, [(w, 1) for w in rest]) == g
                            for rest in itertools.product("xyz", repeat=max(length - 1, 0)))}
            assert gar.atom_left_divisors(g) == lefts


def test_atom_divisors_examples(g3):
    assert gar.atom_left_divisors(elt(g3, "x y")) == {"x", "z"}
    assert gar.atom_left_divisors(elt(g3, "y z")) == {"y", "z"}
    assert gar.atom_left_divisors(GroupElement.identity(g3)) == frozenset()
    assert gar.atom_right_divisors(elt(g3, "x y")) == {"y", "x"}


def test_square_free_and_delta(g3):
    sf = gar.square_free(g3)
    assert len(sf) == 8
    by_len = {}
    for e in sf:
        by_len.setdefault(gar.letter_length(e), []).append(e)
    assert [len(by_len.get(p, [])) for p in range(4)] == [1, 3, 3, 1]
    delta = gar.garside_element(g3)
    assert delta in sf
    assert gar.letter_length(delta) == 3
    div_l = {e for e in sf if gar.left_divides(e, delta)}
    div_r = {e for e in sf if gar.right_divides(e, delta)}
    assert div_l == div_r == set(sf)
    for v in g3.vertices:
        assert gar.left_divides(elt(g3, v), delta)
        assert gar.right_divides(elt(g3, v), delta)


def test_single_vertex_garside():
    g = TrickleGraph.build(["x"], INFINITY, [])
    sf = gar.square_free(g)
    assert len(sf) == 2
    assert gar.garside_element(g) == elt(g, "x")


def test_lcm_atoms(g3):
    assert gar.lcm_atoms(g3, {"y", "z"}) == elt(g3, "y z")
    assert gar.lcm_atoms(g3, {"x", "y"}) == elt(g3, "x z")
    assert gar.lcm_atoms(g3, {"x"}) == elt(g3, "x")
    assert gar.lcm_atoms(g3, set()).is_identity


def test_lcm_bruteforce(g3):
    x, y, z = (elt(g3, v) for v in "xyz")
    assert gar.lcm_bruteforce(x, y, 4) == elt(g3, "x z")
    assert gar.lcm_bruteforce(y, z, 4) == elt(g3, "y z")
    g = elt(g3, "x y")
    assert gar.lcm_bruteforce(g, g, 4) == g


def test_lcm_atoms_matches_bruteforce_on_pairs(g3):
    for a, b in itertools.combinations("xyz", 2):
        assert (gar.lcm_atoms(g3, {a, b})
                == gar.lcm_bruteforce(elt(g3, a), elt(g3, b), 4))


def _random_complete_torsion_free_graph(rng, max_n=4):
    from trickle.graph import validate

    while True:
        n = rng.randrange(1, max_n + 1)
        verts = [f"v{i}" for i in range(n)]
        edges = [(a, b) for i, a in enumerate(verts) for b in verts[i + 1:]]
        perm = verts[:]
        rng.shuffle(perm)
        less = [(a, b) for i, a in enumerate(perm) for b in perm[i + 1:]
                if rng.random() < 0.5]
        below = {v: set() for v in verts}
        for a, b in less:
            below[b].add(a)
        for b in perm:
            for a in list(below[b]):
                below[b] |= below[a]
        phi = {}
        for x in verts:
            pool = sorted(below[x])
            if pool and rng.random() < 0.7:
                image = pool[:]
                rng.shuffle(image)
                phi[x] = dict(zip(pool, image))
        g = TrickleGraph.build(verts, INFINITY, edges, less, phi)
        if validate(g).ok:
            return g


def test_lcm_agreement_on_random_complete_graphs():
    rng = random.Random(15)
    for _ in range(8):
        g = _random_complete_torsion_free_graph(rng)
        atoms = {v: elt(g, v) for v in g.vertices}
        for a, b in itertools.combinations(sorted(atoms), 2):
            assert (gar.lcm_atoms(g, {a, b})
                    == gar.lcm_bruteforce(atoms[a], atoms[b], len(atoms)))


def _square_free_scan(graph):
    """Each square-free element by its atom left divisors, from the 2**n scan."""
    return {gar.atom_left_divisors(e): e for e in gar.square_free(graph)}


def test_lcm_atoms_matches_the_square_free_scan(g3):
    # every subset of GAR3 and of 420 random complete graphs of 1 to 6
    # vertices: 3,214 subsets at this seed
    rng = random.Random(20)
    graphs = [g3] + [_random_complete_torsion_free_graph(rng, max_n=6) for _ in range(420)]
    subsets = 0
    for g in graphs:
        scan = _square_free_scan(g)
        assert len(scan) == 2 ** len(g.vertices)
        for r in range(len(g.vertices) + 1):
            for X in itertools.combinations(g.vertices, r):
                assert gar.lcm_atoms(g, X) == scan[frozenset(X)], (g.vertices, X)
                subsets += 1
    assert subsets > 3000


def test_lcm_atoms_refuses_a_graph_breaking_axiom_d():
    # phi_x swaps the incomparable y and z, so the candidate z x for {x, z}
    # normalizes to y x, whose atoms are {x, y}: the post-check refuses it
    g = broken_d()
    with pytest.raises(GraphError, match=re.escape(
            "no square-free element has atom divisor set ['x', 'z']")):
        gar.lcm_atoms(g, {"x", "z"})


def test_lcm_on_a_path():
    g = raag(*path_graph(3))
    # non-adjacent generators share no multiple at all
    assert gar.lcm_bruteforce(elt(g, "v1"), elt(g, "v3"), 4) is None
    # adjacent ones commute, so the lcm is their product
    assert gar.lcm_bruteforce(elt(g, "v1"), elt(g, "v2"), 4) == elt(g, "v1 v2")


def test_theta_cube(g3):
    assert gar.theta_cube_check(g3).ok
    assert gar.theta_cube_check(fixture("RAAG-P6")).ok
    assert gar.theta_cube_check(fixture("RAAG-C6")).ok
    # the cactus graph with labels forced infinite is still a valid quadruple
    j3 = cactus(3)
    relaxed = TrickleGraph.build(
        j3.vertices, INFINITY,
        [(x, y) for i, x in enumerate(j3.vertices) for y in j3.vertices[i + 1:]
         if j3.edge(x, y)],
        [(x, y) for x in j3.vertices for y in j3.vertices if j3.less(x, y)],
        {x: {y: j3.phi(x, y) for y in j3.star(x)} for x in j3.vertices})
    assert gar.theta_cube_check(relaxed).ok
    report = gar.theta_cube_check(broken_g())
    assert not report.ok
    assert any(v.axiom == "cube-coherence" for v in report.violations)


def test_theta_cube_reports_a_complement_defined_off_a_triangle():
    # phi_x swaps b and c, but only b-d is an edge: x * d is defined from
    # the side of b and not of c
    g = TrickleGraph.build(["x", "b", "c", "d"], INFINITY,
                           edges=[("x", "b"), ("x", "c"), ("x", "d"), ("b", "d")],
                           less=[("b", "x"), ("c", "x"), ("d", "x")],
                           phi={"x": {"b": "c", "c": "b"}})
    report = gar.theta_cube_check(g)
    assert report.axioms_violated() == ["cube-definedness"]
    assert str(report.violations[0]) == ("axiom (cube-definedness) at ('b', 'x', 'd'): one side "
                                         "of the cube is defined without a full triangle")
    assert len(report.violations) == 8


def _renamed(graph, old, new):
    """The same graph with the vertex ``old`` called ``new``."""
    def r(v):
        return new if v == old else v
    verts = graph.vertices
    return TrickleGraph.build(
        [r(v) for v in verts], {r(v): graph.mu(v) for v in verts},
        [(r(x), r(y)) for i, x in enumerate(verts) for y in verts[i + 1:]
         if graph.edge(x, y)],
        [(r(x), r(y)) for x in verts for y in verts if graph.less(x, y)],
        {r(x): {r(y): r(graph.phi(x, y)) for y in graph.star(x)} for x in verts})


@pytest.mark.parametrize("name, vertex", [("RAAG-P6", "v1"), ("J3", "[1,2]")])
def test_theta_cube_allows_a_vertex_named_empty(name, vertex):
    # the empty string is a vertex here, not the trivial word
    assert gar.theta_cube_check(_renamed(fixture(name), vertex, "")).violations == []


def test_is_garside(g3):
    assert gar.is_garside(g3)
    assert not gar.is_garside(raag(*path_graph(3)))
    from trickle.thompson import f_graph
    assert not gar.is_garside(f_graph())
    with pytest.raises(GraphError):
        gar.is_garside(cactus(3))


def test_monoid_embedding(g3):
    # positive words are equal as positive pilings iff equal in the group
    rng = random.Random(12)
    graphs = [g3, fixture("RAAG-P6")]
    for g in graphs:
        for _ in range(150):
            w1 = [(rng.choice(g.vertices), 1) for _ in range(rng.randrange(6))]
            w2 = [(rng.choice(g.vertices), 1) for _ in range(rng.randrange(6))]
            positive_eq = from_syllables(g, w1).piling == from_syllables(g, w2).piling
            group_eq = (from_syllables(g, w1) * from_syllables(g, w2).inverse()).is_identity
            assert positive_eq == group_eq


def test_torsion_spot_check(g3):
    rng = random.Random(13)
    done = 0
    while done < 60:
        word = [(rng.choice(g3.vertices), rng.choice([-2, -1, 1, 2]))
                for _ in range(rng.randrange(1, 5))]
        g = from_syllables(g3, word)
        if g.is_identity:
            continue
        done += 1
        for k in range(2, 7):
            assert not (g ** k).is_identity


def test_parabolic_positive_membership(g3):
    # membership and positivity commute on a parabolic subset
    from trickle.parabolic import member, parabolic_subgraph
    sub = parabolic_subgraph(g3, {"y", "z"})
    rng = random.Random(14)
    for _ in range(120):
        word = [(rng.choice(g3.vertices), rng.choice([-1, 1]))
                for _ in range(rng.randrange(5))]
        g = from_syllables(g3, word)
        in_both = member(g, sub) and gar.is_positive(g)
        letters = g.nf()
        assert in_both == all(v in {"y", "z"} and e > 0 for v, e in letters)
