import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trickle.families import cactus, dual_cactus_s3, gar3
from trickle.graph import GraphError, ValidationReport, validate
from trickle.jsonio import dump_graph, graph_from_dict, load_graph

GOOD = {
    "vertices": [{"id": "x", "mu": "inf"}, {"id": "y", "mu": "inf"},
                 {"id": "z", "mu": "inf"}],
    "edges": [["x", "y"], ["x", "z"], ["y", "z"]],
    "less": [["y", "x"], ["z", "x"]],
    "phi": {"x": [["y", "z"], ["z", "y"]]},
}


def test_load_gar3_equivalent():
    g = graph_from_dict(GOOD)
    assert g.same_structure(gar3())


def test_round_trip(tmp_path):
    for make in (gar3, dual_cactus_s3, lambda: cactus(4)):
        g = make()
        path = tmp_path / "g.json"
        path.write_text(dump_graph(g))
        again = load_graph(path)
        assert again.same_structure(g)


def test_dump_is_byte_stable():
    assert dump_graph(gar3()) == dump_graph(gar3())


def _broken(**changes):
    doc = json.loads(json.dumps(GOOD))
    doc.update(changes)
    return doc


def test_unknown_top_field_rejected():
    with pytest.raises(GraphError, match="unknown fields"):
        graph_from_dict(_broken(colour="blue"))


def test_unknown_vertex_field_rejected():
    doc = _broken(vertices=[{"id": "x", "mu": 2, "note": "?"}])
    with pytest.raises(GraphError, match="unknown vertex fields"):
        graph_from_dict(doc)


def test_bad_mu_rejected():
    with pytest.raises(GraphError, match="mu"):
        graph_from_dict(_broken(vertices=[{"id": "x", "mu": 1}], edges=[], less=[], phi={}))
    with pytest.raises(GraphError, match="mu"):
        graph_from_dict(_broken(vertices=[{"id": "x", "mu": "lots"}], edges=[], less=[], phi={}))


def test_bad_ids_rejected():
    with pytest.raises(GraphError, match="may not contain"):
        graph_from_dict({"vertices": [{"id": "a b", "mu": 2}], "edges": []})
    with pytest.raises(GraphError, match="may not contain"):
        graph_from_dict({"vertices": [{"id": "a^2", "mu": 2}], "edges": []})
    with pytest.raises(GraphError, match="duplicate"):
        graph_from_dict({"vertices": [{"id": "a", "mu": 2}, {"id": "a", "mu": 2}],
                         "edges": []})


def test_unknown_vertex_in_relation_rejected():
    with pytest.raises(GraphError, match="unknown vertex"):
        graph_from_dict(_broken(edges=[["x", "w"]]))
    with pytest.raises(GraphError, match="unknown vertex"):
        graph_from_dict(_broken(less=[["w", "x"]]))


def test_order_cycle_rejected():
    with pytest.raises(GraphError, match="cycle"):
        graph_from_dict(_broken(less=[["x", "y"], ["y", "x"]]))


def test_phi_outside_star_rejected():
    doc = _broken(edges=[["x", "y"]], phi={"x": [["z", "y"]]}, less=[])
    with pytest.raises(GraphError, match="not a star vertex"):
        graph_from_dict(doc)


def test_broken_phi_loads_but_fails_validation():
    # a non-bijective star map is a file we must accept and then diagnose
    doc = _broken(phi={"x": [["y", "z"], ["z", "z"]]})
    g = graph_from_dict(doc)
    report = validate(g)
    assert not report.ok
    assert "structure" in report.axioms_violated()


def test_not_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{")
    with pytest.raises(GraphError, match="not valid JSON"):
        load_graph(path)


def test_unreadable_file(tmp_path):
    with pytest.raises(GraphError, match="cannot read"):
        load_graph(tmp_path / "missing.json")


@pytest.mark.parametrize("content, message", [
    (b'{"vertices": 5, "edges": []}', "vertices must be an array"),
    (b'{"vertices": null, "edges": []}', "vertices must be an array"),
    (b'{"vertices": [{"id": "a", "mu": 2}, {"id": "b", "mu": 2}], "edges": [[["a"], "b"]]}',
     "unknown vertex"),
    (b"[" * 100_000 + b"]" * 100_000, "nested too deeply"),
    (b"\xff\xfe{}", "not valid JSON"),
    (b'{"vertices": ' + b"7" * 5000 + b', "edges": []}', "not valid JSON"),
    (b'{"vertices": [], "edges": [' + b"[" * 800 + b"]" * 800 + b"]}", "is not a pair"),
], ids=["vertices-int", "vertices-null", "pair-entry-list", "deep-nesting",
        "not-utf8", "huge-number", "deep-edge-entry"])
def test_malformed_files_raise_graph_error(tmp_path, content, message):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    with pytest.raises(GraphError, match=message) as info:
        load_graph(path)
    # the message repeats at most a bounded excerpt of the offending value
    assert len(str(info.value)) <= 300


# Fuzz inputs: any JSON-like value, a well-formed document over x, y, z, or
# GOOD or such a document with one or two fields replaced or deleted.
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=12)
_IDS = st.sampled_from("xyz")
_NEAR = (_IDS | st.lists(_IDS, min_size=2, max_size=2)
         | st.lists(st.lists(_IDS, min_size=2, max_size=2), max_size=3)
         | st.sampled_from(["w", "", "a b", "x^2", "inf", 2, 3, 1, 0, -1, 2.0, True,
                            None, [], {}, {"id": "w", "mu": 2}]))
_PAIRS = st.lists(st.lists(_IDS, min_size=2, max_size=2, unique=True), max_size=4)
_SHAPED = st.fixed_dictionaries({
    "vertices": st.tuples(*(st.fixed_dictionaries(
        {"id": st.just(v), "mu": st.sampled_from([2, 3, "inf"])}) for v in "xyz")).map(list),
    "edges": _PAIRS,
    "less": _PAIRS,
    "phi": st.dictionaries(_IDS, _PAIRS, max_size=3),
})


def _locations(value, path=()):
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from _locations(child, path + (key,))


@st.composite
def _mutants(draw):
    doc = json.loads(json.dumps(draw(st.just(GOOD) | _SHAPED)))
    for _ in range(draw(st.integers(1, 2))):
        *parents, key = draw(st.sampled_from(list(_locations(doc))))
        node = doc
        for step in parents:
            node = node[step]
        how = draw(st.sampled_from(["delete", "near", "near", "json"]))
        if how == "delete":
            del node[key]
        else:
            node[key] = draw(_NEAR if how == "near" else _JSON)
    return doc


@settings(derandomize=True, max_examples=400, deadline=None)
@given(_JSON | _SHAPED | _mutants())
def test_loader_fuzz_raises_graph_error_or_loads_a_judged_graph(doc):
    try:
        graph = graph_from_dict(doc)
    except GraphError:
        return
    assert isinstance(validate(graph), ValidationReport)
