"""The integer kernel of finite graphs against the step on vertex names.

The reference route is ``_halves(graph, strata, None)``: the same
driver, with no step table, so each move is a fresh ``_step`` that
queries the graph by vertex name.  ``normalize`` and ``from_syllables``
run on the kernel and must give the same pilings and raise the same
errors.
"""

import random
import re
import reprlib
import sys
import threading
import tracemalloc

import pytest

from corrupt import BROKEN
from trickle.confluence import random_piling
from trickle.dyadic import Dyadic
from trickle.families import FIXTURES, fixture
from trickle.graph import INFINITY, GraphError, TrickleGraph
from trickle import pilings
from trickle.pilings import (_LEAF, _halves, _name_step, canonical_exponent,
                             from_syllables, normalize, sort_stratum)
from trickle.thompson import f_graph
from trickle.vjn import kjn_graph

LETTERS = (1, 50, _LEAF - 1, _LEAF, _LEAF + 1, 2 * _LEAF + 1, 800)
TABLE_MB = 1.5     # one step table at its bound, on any fixture


def reference_normalize(graph, piling):
    """The name route, reading each exponent mod mu as ``normalize`` does."""
    strata = [tuple([(v, canonical_exponent(graph, v, a)) for v, a in U
                     if canonical_exponent(graph, v, a)]) for U in piling]
    return _halves(graph, [U for U in strata if U], None)


def reference_from_syllables(graph, pairs):
    strata = []
    for v, k in pairs:
        if not graph.contains_vertex(v):
            raise GraphError(f"unknown vertex {reprlib.repr(v)}")
        c = canonical_exponent(graph, v, k)
        if c:
            strata.append(((v, c),))
    return reference_normalize(graph, strata)


def table_entries(table):
    """What the step table bound counts: each stratum at its weight, each move at one."""
    return pilings._STRATUM_WEIGHT * len(table.strata) + table.moves


def outcome(fn, *args):
    try:
        return fn(*args)
    except GraphError as e:
        return f"GraphError: {e}"


def random_word(graph, rng, length):
    """Exponents in and out of the canonical range, zero included."""
    word = []
    for _ in range(length):
        v = rng.choice(graph.vertices)
        m = graph.mu(v)
        word.append((v, rng.choice((-3, -2, -1, 0, 1, 2, 5)) if m == INFINITY
                     else rng.randrange(-2 * m, 2 * m)))
    return word


def assert_same_routes(graph, rng):
    for n in LETTERS:
        word = random_word(graph, rng, n)
        ref = outcome(reference_from_syllables, graph, word)
        got = outcome(lambda: from_syllables(graph, word).piling)
        assert got == ref, (graph.name, n)
        piling = tuple(((v, canonical_exponent(graph, v, a)),) for v, a in word
                       if canonical_exponent(graph, v, a))
        assert outcome(normalize, graph, piling) == outcome(reference_normalize, graph, piling)
    for _ in range(40):
        piling = random_piling(graph, rng, max_len=8)
        assert outcome(normalize, graph, piling) == outcome(reference_normalize, graph, piling)


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_kernel_matches_the_name_step_on_fixtures(name):
    rng = random.Random(f"kernel:{name}")
    base = fixture(name)
    for g in (base, base.dual()):
        assert_same_routes(g, rng)


@pytest.mark.parametrize("axiom", sorted(BROKEN))
def test_kernel_matches_the_name_step_on_broken_graphs(axiom):
    assert_same_routes(BROKEN[axiom](), random.Random(f"kernel:{axiom}"))


def test_extraction_through_a_three_cycle():
    # phi_t turns p -> q -> r: in the stratum (t, p), p extracts to q, which
    # lands next to w where t and r do not
    g = TrickleGraph.build(["t", "p", "q", "r", "w"], INFINITY,
                           [("t", "p"), ("t", "q"), ("t", "r"), ("q", "w")],
                           [("p", "t"), ("q", "t"), ("r", "t")],
                           phi={"t": {"p": "q", "q": "r", "r": "p"}})
    piling = ((("w", 1),), (("t", 1), ("p", 1)))
    assert normalize(g, piling) == reference_normalize(g, piling) == (
        (("w", 1), ("q", 1)), (("t", 1),))
    assert_same_routes(g, random.Random("kernel:three-cycle"))


NOT_INJECTIVE = (["x", "y", "z"], 2, [("x", "y"), ("x", "z"), ("y", "z")],
                 [("y", "x"), ("z", "x")], {"x": {"y": "z", "z": "z"}})
OUTSIDE_THE_STAR = (["x", "y", "z"], 2, [("x", "y")], [("y", "x")], {"x": {"y": "z"}})


@pytest.mark.parametrize("tables, text", [
    (NOT_INJECTIVE, "phi_'x' is not injective: 'y' and 'z' both map to 'z'"),
    (OUTSIDE_THE_STAR, "phi_'x' sends 'y' to 'z' outside the star"),
])
def test_unsound_star_maps_raise_the_name_step_error(tables, text):
    g = TrickleGraph.build(*tables)
    # "y x" pulls y back through phi_x; "x y" only through the sound phi_y
    with pytest.raises(GraphError) as ref:
        reference_from_syllables(g, [("y", 1), ("x", 1)])
    with pytest.raises(GraphError) as got:
        from_syllables(g, [("y", 1), ("x", 1)])
    assert str(got.value) == str(ref.value) == text
    with pytest.raises(GraphError) as got:
        normalize(g, ((("y", 1),), (("x", 1),)))
    assert str(got.value) == text
    assert (from_syllables(g, [("x", 1), ("y", 1)]).piling
            == reference_from_syllables(g, [("x", 1), ("y", 1)]) == ((("x", 1), ("y", 1)),))


def test_strata_off_the_stars_raise_the_name_step_error():
    # a path a - b - c: a stratum holding both ends is no clique, and the
    # moves on it leave the star of a or of c
    g = TrickleGraph.build(["a", "b", "c"], INFINITY, [("a", "b"), ("b", "c")])
    ends = (("c", 1), ("a", 1))
    for piling, text in ((((("a", 1),), ends), "'a' is not in star('c')"),
                         ((ends, (("a", 1),)), "'c' is not in star('a')")):
        assert outcome(normalize, g, piling) == outcome(reference_normalize, g, piling)
        assert outcome(normalize, g, piling) == f"GraphError: {text}"


def test_unknown_vertex_error_is_the_name_step_error():
    g = fixture("J5")
    long_id = "v" * 2000
    for word, bad in (([("nope", 1)], "nope"),
                      ([("[1,2]", 1), (long_id, 3), ("nope", 1)], long_id)):
        with pytest.raises(GraphError) as got:
            from_syllables(g, word)
        assert str(got.value) == f"unknown vertex {reprlib.repr(bad)}"
        assert len(str(got.value)) < 200
    with pytest.raises(GraphError, match="unknown vertex 'nope'"):
        normalize(g, ((("[1,2]", 1),), (("nope", 1),)))


def test_exponents_enter_the_step_table_as_ints():
    # the table keys strata by value: 2.0 or True would take the id of
    # 2 or 1 and spell every later answer for it
    g = fixture("RAAG-C6")
    with pytest.raises(GraphError) as got:
        normalize(g, ((("v1", 2.0),),))
    assert str(got.value) == "non-integral exponent 2.0"
    assert repr(normalize(g, ((("v1", 2),),))) == "((('v1', 2),),)"
    g = fixture("RAAG-C6")
    assert repr(from_syllables(g, [("v1", True)]).piling) == "((('v1', 1),),)"
    assert repr(from_syllables(g, [("v1", 1)]).piling) == "((('v1', 1),),)"
    long_exp = "9" * 2000
    with pytest.raises(GraphError) as got:
        from_syllables(g, [("v2", 1), ("v1", long_exp)])
    assert str(got.value) == f"non-integral exponent {reprlib.repr(long_exp)}"


@pytest.mark.parametrize("name", ["RAAG-C6", "F", "QUANDLE"])
def test_lazy_and_finite_routes_read_exponents_alike(name):
    # a non-integral exponent is one GraphError and True is read as 1,
    # whether the graph runs on a step table or lazily
    g = fixture(name)
    v = g.vertices[0] if g.finite else Dyadic(0)
    for bad in (2.0, "9" * 2000):
        message = f"non-integral exponent {reprlib.repr(bad)}"
        with pytest.raises(GraphError) as got:
            from_syllables(g, [(v, 1), (v, bad)])
        assert str(got.value) == message
        with pytest.raises(GraphError) as got:
            normalize(g, (((v, 1),), ((v, bad),)))
        assert str(got.value) == message
    for piling in (normalize(g, (((v, True),),)), from_syllables(g, [(v, True)]).piling):
        assert piling == (((v, 1),),) and type(piling[0][0][1]) is int


def test_kernel_is_compiled_once_and_only_for_finite_graphs():
    g = fixture("KJ4")
    assert g.kernel() is g.kernel()
    assert g.dual().kernel() is not g.kernel()
    assert f_graph().kernel() is None


def test_kernel_tables_grow_with_the_stars():
    g = kjn_graph(6)
    k = g.kernel()
    cycles = {id(ids): ids for table in k.pw for ids, _ in table.values()}
    entries = (len(k.adj) + len(k.mu) + sum(len(table) for table in k.pw)
               + sum(len(ids) for ids in cycles.values()))
    stars = sum(len(g.star(v)) for v in g.vertices)
    assert len(g.vertices) == 1950
    assert entries <= len(g.vertices) + stars


def test_step_table_holds_at_most_the_bound_plus_one_call(monkeypatch):
    # a call binds the table it starts with, and a table over the bound
    # is never bound again: the next call gets a fresh one
    bound = 3000
    monkeypatch.setattr(pilings, "_TABLE_BOUND", bound)
    g = fixture("RAAG-C6")
    k = g.kernel()
    k.table = None
    rng = random.Random("table:bound")
    replaced = most = 0
    for _ in range(100):
        t = k.table
        before = table_entries(t) if t is not None else 0
        from_syllables(g, random_word(g, rng, 60))
        if k.table is t:
            assert before <= bound
        else:
            replaced += 1
            before = 0
        most = max(most, table_entries(k.table) - before)
    assert replaced > 3
    assert table_entries(k.table) <= bound + most


MEMORY_WORDS = 80       # of 200 letters: J5, KJ4 and the small fixtures never reach the bound


def test_step_table_memory_stays_within_the_stated_bound():
    # the bound of _TABLE_BOUND's comment and the README, on the most each
    # fixture's table holds before the bound replaces it
    held_mb, unreached = {}, []
    for name in sorted(FIXTURES):
        g = fixture(name)
        k = g.kernel()
        rng = random.Random(f"table:memory:{name}")
        words = [random_word(g, rng, 200) for _ in range(MEMORY_WORDS)]
        tracemalloc.start()
        try:
            before, most = tracemalloc.get_traced_memory()[0], 0
            for word in words:
                held = k.table
                from_syllables(g, word)
                if held is not None and k.table is not held:
                    break
                most = max(most, tracemalloc.get_traced_memory()[0] - before)
            else:
                unreached.append(name)
        finally:
            tracemalloc.stop()
        held_mb[name] = most / 2 ** 20
    assert max(held_mb.values()) <= TABLE_MB, held_mb
    assert not {"GAR3", "RAAG-C6", "RAAG-P6"} & set(unreached), unreached


# ----------------------------------------------------------------------
# the step table a finite graph's kernel keeps across calls

WARM_LENGTHS = (3, 17, 40)      # none of them in LETTERS


def warm(graph, rng, words=200):
    """Fill the graph's step table with seeded words of other lengths."""
    for i in range(words):
        outcome(from_syllables, graph, random_word(graph, rng, WARM_LENGTHS[i % 3]))


def assert_table_sound(table):
    """Every id names its stratum, every remainder id a mover holds names
    its stratum left without that mover, and every move kept is the move of
    the name route, ``_name_step``; a pair where it raises keeps nothing."""
    assert (len(table.sids) == len(table.strata) == len(table.rows) == len(table.masks)
            == len(table.movers))
    assert all(table.sids[S] == u for u, S in enumerate(table.strata))
    for V, movers in zip(table.strata, table.movers):
        for i, w in enumerate((movers or [])[1::2]):
            if w is not None:
                assert (table.strata[w] if w >= 0 else ()) == V[:i] + V[i + 1:]
    n = len(table.kernel.mu)
    for key, u in table.ones.items():
        assert table.strata[u] == ((key % n, key // n),)
        assert type(key // n) is int
    for u, row in enumerate(table.rows):
        for v, t in row.items():
            fresh = _name_step(table.kernel, table.strata[u], table.strata[v])
            assert fresh == (None if t is None else tuple(table.strata[w] for w in t))


@pytest.mark.parametrize("state", ["cold", "warm", "replaced"])
@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_step_table_matches_the_name_step(name, state, monkeypatch):
    # "replaced": the bound drops just below the warm table's entries, so
    # the routes start on a fresh table and cross the bound again
    rng = random.Random(f"table:{name}:{state}")
    base = fixture(name)
    for g in (base, base.dual()):
        k = g.kernel()
        k.table = None
        if state != "cold":
            warm(g, rng)
            full = k.table
            if state == "replaced":
                monkeypatch.setattr(pilings, "_TABLE_BOUND", table_entries(full) - 1)
        assert_same_routes(g, rng)
        assert_table_sound(k.table)
        if state == "replaced":
            assert k.table is not full


ERROR_GRAPHS = {
    **{f"broken-{axiom}": make for axiom, make in BROKEN.items()},
    "not-injective": lambda: TrickleGraph.build(*NOT_INJECTIVE),
    "outside-the-star": lambda: TrickleGraph.build(*OUTSIDE_THE_STAR),
    "path": lambda: TrickleGraph.build(["a", "b", "c"], INFINITY, [("a", "b"), ("b", "c")]),
}


def loose_piling(graph, rng):
    """Strata of any 1-3 distinct vertices, edges or not, in ranking order."""
    strata = []
    for _ in range(rng.randint(1, 6)):
        support = rng.sample(graph.vertices, rng.randint(1, min(3, len(graph.vertices))))
        strata.append(sort_stratum(graph, [(v, rng.choice((-1, 1, 2))) for v in support]))
    return tuple(strata)


@pytest.mark.parametrize("name", sorted(ERROR_GRAPHS))
def test_warm_table_raises_the_name_step_errors(name):
    # loose pilings reach the unsound maps and the vertices off a star
    g = ERROR_GRAPHS[name]()
    rng = random.Random(f"table:{name}")
    warm(g, rng)
    assert_same_routes(g, rng)
    for _ in range(100):
        piling = loose_piling(g, rng)
        assert outcome(normalize, g, piling) == outcome(reference_normalize, g, piling)
    assert_table_sound(g.kernel().table)


def test_a_fault_past_a_landing_mover_fires_only_when_a_search_reaches_it():
    # phi_t sends s out of its star, so the mover s of V = (t, s) has no
    # conjugate image; the mover t before it lands in (t,) but not in (r,),
    # r being no neighbour of t
    g = TrickleGraph.build(["r", "s", "t"], INFINITY, [("s", "t"), ("r", "s")],
                           [("s", "t")], phi={"t": {"s": "r"}})
    V = sort_stratum(g, [("t", 1), ("s", 1)])
    assert V == (("t", 1), ("s", 1))
    text = "phi_'t' sends 's' to 'r' outside the star"
    for order in (("lands", "raises"), ("raises", "lands", "raises")):
        g.kernel().table = None
        for case in order:
            if case == "lands":
                piling = ((("t", 1),), V)
                assert (normalize(g, piling) == reference_normalize(g, piling)
                        == ((("t", 2), ("s", 1)),))
            else:
                piling = ((("r", 1),), V)
                assert outcome(normalize, g, piling) == outcome(reference_normalize, g, piling)
                assert outcome(normalize, g, piling) == f"GraphError: {text}"
        table = g.kernel().table
        assert_table_sound(table)
        r, s, t = (g.kernel().index[x] for x in "rst")
        v = table.sids[((t, 1), (s, 1))]
        assert v not in table.rows[table.sids[((r, 1),)]]
        assert table.rows[table.sids[((t, 1),)]][v] is not None


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_every_stratum_interned_is_an_input_or_a_kept_move(name):
    # a mover's remainder is interned at its first landing, not when the
    # movers of its stratum are built
    rng = random.Random(f"table:interned:{name}")
    g = fixture(name)
    k = g.kernel()
    k.table = None
    warm(g, rng)
    table = k.table
    made = set(table.ones.values())
    made.update(w for row in table.rows for t in row.values() if t for w in t)
    assert made == set(range(len(table.strata)))


def test_a_raising_step_leaves_no_entry():
    g = TrickleGraph.build(*NOT_INJECTIVE)
    text = "phi_'x' is not injective: 'y' and 'z' both map to 'z'"
    for _ in range(2):
        with pytest.raises(GraphError, match=re.escape(text)):
            from_syllables(g, [("y", 1), ("x", 1)])
        assert_table_sound(g.kernel().table)
        word = [("x", 1), ("y", 1), ("z", 1)]
        assert from_syllables(g, word).piling == reference_from_syllables(g, word)


class _SwitchingDict(dict):
    """A dict whose reads and writes run Python code, where the interpreter
    may switch threads: between a miss and the write that follows it."""

    def get(self, key, default=None):
        return dict.get(self, key, default)

    def __setitem__(self, key, value):
        dict.__setitem__(self, key, value)


class _SwitchingTable(pilings._StepTable):
    __slots__ = ()

    def __init__(self, kernel):
        super().__init__(kernel)
        self.sids, self.ones = _SwitchingDict(), _SwitchingDict()


def test_threads_share_one_table(monkeypatch):
    # the bound is low, so tables are replaced while the threads run; each
    # word starts in all threads at once, so they meet the same new strata
    # and syllables together, and without the lock some stratum gets two ids
    monkeypatch.setattr(pilings, "_TABLE_BOUND", 2000)
    monkeypatch.setattr(pilings, "_StepTable", _SwitchingTable)
    g = fixture("J5")
    rng = random.Random("table:threads")
    words = [random_word(g, rng, rng.randrange(5, 60)) for _ in range(100)]
    serial = [reference_from_syllables(g, w) for w in words]
    k = g.kernel()
    k.table = None
    tables, results, errors = {}, [None] * 4, []
    step = threading.Barrier(4, timeout=60)

    def work(n):
        try:
            out = []
            for w in words:
                step.wait()
                out.append(from_syllables(g, w).piling)
                tables.setdefault(id(k.table), k.table)
            results[n] = out
        except Exception as e:
            errors.append(e)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(n,)) for n in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    assert results == [serial] * 4
    assert len(tables) > 1
    for table in tables.values():
        assert_table_sound(table)


class _Index:
    """An exponent that is no int but reads as one through ``operator.index``."""

    def __init__(self, k):
        self.k = k

    def __index__(self):
        return self.k


def disguise(rng, a):
    """``a`` as a bool, an ``_Index`` or itself: the same exponent to the routes."""
    r = rng.random()
    if a in (0, 1) and r < 0.3:
        return bool(a)
    return _Index(a) if r < 0.5 else a


@pytest.mark.parametrize("name", ["J5", "GAR3", "KJ4", "RAAG-C6"])
def test_syllable_ids_match_the_reference(name, monkeypatch):
    # from_syllables takes one-syllable strata ids from the table's cache of
    # syllables, normalize from its stratum ids, and the two share the table;
    # the bound is low, so tables are replaced between the words
    # and inside some; exponents come as ints, bools (True must come back as
    # 1) and index-able objects, and some words hold an unknown vertex
    monkeypatch.setattr(pilings, "_TABLE_BOUND", 3000)
    g = fixture(name)
    k = g.kernel()
    k.table = None
    rng = random.Random(f"table:ones:{name}")
    tables = []
    for i in range(150):
        word = random_word(g, rng, rng.randrange(1, 120))
        if i % 10 == 9:
            word.insert(rng.randrange(len(word) + 1), ("nope", 1))
        mixed = [(v, disguise(rng, a)) for v, a in word]
        assert (repr(outcome(lambda: from_syllables(g, mixed).piling))
                == repr(outcome(reference_from_syllables, g, word))), (name, i)
        strata = [((v, a if v == "nope" else canonical_exponent(g, v, a)),) for v, a in word
                  if v == "nope" or canonical_exponent(g, v, a)]
        mixed = tuple(((v, disguise(rng, a)),) for ((v, a),) in strata)
        expected = ("GraphError: unknown vertex 'nope'" if i % 10 == 9
                    else reference_normalize(g, strata))
        assert repr(outcome(normalize, g, mixed)) == repr(expected), (name, i)
        if not tables or k.table is not tables[-1]:
            tables.append(k.table)
    assert len(tables) > 3
    for table in tables:
        assert_table_sound(table)
