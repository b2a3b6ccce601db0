"""Fuzz on random valid graphs that are not complete.

Two sources: graph products of cyclic groups on random graphs, and the
parabolic subgraphs of downward closures in J5 and KJ4.  On each graph
the canonical form must not depend on the rewriting strategy, and a word
must reduce to an exchange-connected word when a defining relator is
inserted into it.
"""

import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from trickle.confluence import exponent_range, normalize_random_strategy, random_piling
from trickle.families import cactus, graph_product
from trickle.graph import INFINITY, validate
from trickle.parabolic import downward_closure, parabolic_subgraph
from trickle.pilings import make_syllable, normalize
from trickle.syllabic import exchange_connected, syllabic_reduce
from trickle.vjn import kjn_graph

PARENTS = (cactus(5), kjn_graph(4))


@st.composite
def _graph_products(draw):
    verts = [f"v{i}" for i in range(draw(st.integers(2, 6)))]
    pairs = list(itertools.combinations(verts, 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs) - 1))
    mu = {v: draw(st.sampled_from([2, 3, INFINITY])) for v in verts}
    return graph_product(verts, edges, mu)


@st.composite
def _parabolics(draw):
    parent = draw(st.sampled_from(PARENTS))
    top = draw(st.lists(st.sampled_from(parent.vertices), min_size=1, max_size=2))
    return parabolic_subgraph(parent, downward_closure(parent, top)).graph()


def _relator(g, rng):
    """A defining relator: x^mu(x) for a finite label, or the exchange
    relator x^a y^b x'^-a y'^-b of an edge {x, y}, where
    x^a y^b = y'^b x'^a."""
    x = rng.choice(g.vertices)
    neighbours = [y for y in g.vertices if g.edge(x, y)]
    if g.mu(x) != INFINITY and (not neighbours or rng.random() < 0.5):
        return ((x, 1),) * g.mu(x)
    if not neighbours:
        return ()
    y = rng.choice(neighbours)
    a, b = rng.choice(exponent_range(g, x, 2)), rng.choice(exponent_range(g, y, 2))
    x2, y2 = g.phi_pow(y, -b, x), g.phi_pow(x, a, y)
    return tuple(make_syllable(g, v, k) for v, k in ((x, a), (y, b), (x2, -a), (y2, -b)))


def _check(g, seed):
    assert validate(g).ok
    rng = random.Random(seed)
    for _ in range(3):
        piling = random_piling(g, rng)
        assert normalize_random_strategy(g, piling, rng) == normalize(g, piling)
    word = []
    for _ in range(rng.randrange(6)):
        v = rng.choice(g.vertices)
        word.append((v, rng.choice(exponent_range(g, v, 2))))
    cut = rng.randrange(len(word) + 1)
    with_relator = tuple(word[:cut]) + _relator(g, rng) + tuple(word[cut:])
    assert exchange_connected(g, syllabic_reduce(g, word), syllabic_reduce(g, with_relator))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_graph_products(), st.integers(0, 2 ** 32))
def test_random_graph_products(g, seed):
    assert not g.complete()
    _check(g, seed)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_parabolics(), st.integers(0, 2 ** 32))
def test_parabolics_of_downward_closures(g, seed):
    _check(g, seed)
