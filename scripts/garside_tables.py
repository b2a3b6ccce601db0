#!/usr/bin/env python3
"""Print the divisor structure of a finite complete torsion-free graph.

Defaults to the three-generator swap fixture; pass a graph JSON file to
inspect another one.  Shows the square-free elements graded by length,
the Garside element, each element's atom divisors on both sides, and the
pairwise atom lcm table.
"""

import itertools

from trickle import garside as gar
from trickle.cli import _fail, _Parser
from trickle.families import gar3
from trickle.graph import GraphError
from trickle.jsonio import load_graph
from trickle.pilings import from_syllables


def main():
    ap = _Parser(description=__doc__)
    ap.add_argument("graph", nargs="?", default=None, help="graph JSON file")
    args = ap.parse_args()

    try:
        g = load_graph(args.graph) if args.graph else gar3()
    except GraphError as e:
        _fail(e)
    if not (gar.is_pregarside(g) and gar.is_garside(g)):
        raise SystemExit("the graph is not finite, complete and torsion-free")

    fmt = g.format_vertex
    print(f"graph: {g.name}, ranking {' '.join(map(fmt, g.vertices))}")
    delta = gar.garside_element(g)
    print(f"Garside element: {delta.nf_str()}")

    sf = gar.square_free(g)
    by_len = {}
    for e in sf:
        by_len.setdefault(gar.letter_length(e), []).append(e)
    print(f"square-free elements ({len(sf)} total):")
    for length in sorted(by_len):
        words = sorted(e.nf_str() or "1" for e in by_len[length])
        print(f"  length {length}: {', '.join(words)}")

    print("atom divisors (left | right):")
    for e in sorted(sf, key=lambda e: (gar.letter_length(e), e.nf_str())):
        left = " ".join(sorted(map(fmt, gar.atom_left_divisors(e)))) or "-"
        right = " ".join(sorted(map(fmt, gar.atom_right_divisors(e)))) or "-"
        print(f"  {e.nf_str() or '1':12} {left:12} | {right}")

    print("atom lcm table:")
    for a, b in itertools.combinations(g.vertices, 2):
        try:
            lcm = gar.lcm_atoms(g, {a, b})
        except GraphError as e:     # only a graph that breaks an axiom
            print(f"  {fmt(a)} v {fmt(b)}: {e}")
            continue
        brute = gar.lcm_bruteforce(from_syllables(g, [(a, 1)]),
                                   from_syllables(g, [(b, 1)]),
                                   len(g.vertices))
        tag = "" if lcm == brute else "   (!) brute force disagrees"
        print(f"  {fmt(a)} v {fmt(b)} = {lcm.nf_str()}{tag}")


if __name__ == "__main__":
    main()
