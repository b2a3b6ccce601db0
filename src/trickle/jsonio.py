"""Strict JSON schema for finite graphs.

Document shape:

    {
      "vertices": [{"id": "a", "mu": 2}, {"id": "b", "mu": "inf"}, ...],
      "less":     [["a", "b"], ...],    # a < b; any acyclic relation
      "edges":    [["a", "b"], ...],
      "phi":      {"a": [["b", "c"], ...], ...}   # omitted entries: identity
    }

The loader checks only the shape: objects and arrays where the schema
has them, no unknown fields, vertex ids that are nonempty strings without
whitespace or '^' (they double as word tokens), mu an integer or "inf",
pairs of two strings, and no phi entry defined twice.  Everything else
is checked by ``TrickleGraph.build``, as for every other caller: duplicate
ids, mu >= 2, unknown vertices, self-loops, order cycles, and phi entries
outside the star.  It closes ``less`` transitively; star-map images are
taken as given, so files describing broken graphs still load and can be
diagnosed with validate.
"""

from __future__ import annotations

import json
import reprlib

from .graph import INFINITY, GraphError, TrickleGraph

_TOP_FIELDS = {"vertices", "less", "edges", "phi"}
_VERTEX_FIELDS = {"id", "mu"}


def _check_id(vid):
    if not isinstance(vid, str) or not vid:
        raise GraphError(f"vertex id must be a nonempty string, got {reprlib.repr(vid)}")
    if "^" in vid or any(c.isspace() for c in vid):
        raise GraphError(f"vertex id {reprlib.repr(vid)} may not contain '^' or whitespace")
    return vid


def _pairs(value, what):
    if not isinstance(value, list):
        raise GraphError(f"{what} must be an array of pairs")
    out = []
    for item in value:
        if not (isinstance(item, list) and len(item) == 2):
            raise GraphError(f"{what} entry {reprlib.repr(item)} is not a pair")
        for v in item:
            if not isinstance(v, str):
                raise GraphError(f"{what} entry names unknown vertex {reprlib.repr(v)}")
        out.append(tuple(item))
    return out


def graph_from_dict(doc) -> TrickleGraph:
    if not isinstance(doc, dict):
        raise GraphError("graph document must be a JSON object")
    unknown = set(doc) - _TOP_FIELDS
    if unknown:
        raise GraphError(f"unknown fields: {reprlib.repr(sorted(unknown))}")
    if "vertices" not in doc or "edges" not in doc:
        raise GraphError("graph document needs 'vertices' and 'edges'")
    if not isinstance(doc["vertices"], list):
        raise GraphError("vertices must be an array of objects")
    mu = {}
    order = []
    for entry in doc["vertices"]:
        if not isinstance(entry, dict):
            raise GraphError(f"vertex entry {reprlib.repr(entry)} is not an object")
        extra = set(entry) - _VERTEX_FIELDS
        if extra:
            raise GraphError(f"unknown vertex fields: {reprlib.repr(sorted(extra))}")
        if "id" not in entry or "mu" not in entry:
            raise GraphError(f"vertex entry {reprlib.repr(entry)} needs 'id' and 'mu'")
        vid = _check_id(entry["id"])
        m = entry["mu"]
        if m != "inf" and not isinstance(m, int):
            raise GraphError(f"mu of {reprlib.repr(vid)} must be an integer >= 2 or \"inf\"")
        order.append(vid)
        mu[vid] = INFINITY if m == "inf" else m

    edges = _pairs(doc["edges"], "edges")
    less = _pairs(doc.get("less", []), "less")
    phi_doc = doc.get("phi", {})
    if not isinstance(phi_doc, dict):
        raise GraphError("phi must be an object")
    phi = {}
    for x, entries in phi_doc.items():
        table = phi[x] = {}
        for y, img in _pairs(entries, f"phi[{reprlib.repr(x)}]"):
            if y in table:
                raise GraphError(f"phi[{reprlib.repr(x)}] defines {reprlib.repr(y)} twice")
            table[y] = img

    return TrickleGraph.build(order, mu, edges, less, phi, name="graph")


def load_graph(path) -> TrickleGraph:
    try:
        with open(path, encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except ValueError as e:  # also undecodable bytes and huge numbers
                raise GraphError(f"{path}: not valid JSON ({e})") from None
            except RecursionError:
                raise GraphError(f"{path}: JSON nested too deeply") from None
    except OSError as e:
        raise GraphError(f"cannot read {path}: {e.strerror or e}") from None
    return graph_from_dict(doc)


def graph_to_dict(graph: TrickleGraph) -> dict:
    """The document of a finite graph, vertices written as their tokens."""
    vertices, mu, edges, less, phi = graph.tables()
    fmt = {v: graph.format_vertex(v) for v in vertices}.__getitem__
    return {
        "vertices": [{"id": fmt(v), "mu": "inf" if mu[v] == INFINITY else mu[v]}
                     for v in vertices],
        "less": sorted([fmt(a), fmt(b)] for a, b in less),
        "edges": sorted(sorted((fmt(a), fmt(b))) for a, b in edges),
        "phi": {fmt(x): sorted([fmt(y), fmt(img)] for y, img in moved.items())
                for x, moved in phi.items()},
    }


def dump_graph(graph: TrickleGraph) -> str:
    return json.dumps(graph_to_dict(graph), indent=2, sort_keys=True) + "\n"
