"""Command-line front end.

Exit codes: 0 for success or a positive answer, 1 for a negative answer
(unequal words, non-member, failed confluence check), 2 for usage,
schema, or validation errors.  Output is deterministic for fixed inputs.

The parser is the standard library's ``argparse``, and each command
imports the modules it needs in its own body: a call pays at start-up
only for the command it runs, so ``nf`` and ``eq`` load ``graph``,
``pilings`` and ``jsonio`` of this package and nothing else.  A usage
error is one ``error:`` line on stderr with exit 2, like any bad input.
"""

from __future__ import annotations

import argparse
import os
import sys

NEGATIVE = 1
USAGE = 2

# Largest --n per family, chosen so that the largest allowed size runs in
# under about 2 s: the graphs grow polynomially (cactus, raag, racg) or
# factorially (kjn, vjn) in n.
MAX_N = {"raag": 2000, "racg": 2000, "cactus": 25, "kjn": 6, "vjn": 6}

# Largest `confluence --samples`: each sample is reduced under 20 random
# strategies, and 10,000 samples take about 4 s on GAR3 at the default
# bounds on a 2-core x86-64 host.
MAX_SAMPLES = 10_000


def _split_list(text):
    """Split on top-level commas, leaving bracketed ids like [1,2] and (1,2) intact."""
    items, depth, cur = [], 0, []
    for ch in text:
        if ch == "," and depth == 0:
            items.append("".join(cur).strip())
            cur = []
        else:
            depth += ch in "[("
            depth -= ch in "])"
            cur.append(ch)
    items.append("".join(cur).strip())
    return [item for item in items if item]


def _load(path, order_override=None):
    from .jsonio import load_graph

    g = load_graph(path)
    if order_override:
        g = g.with_ranking(_split_list(order_override))
    return g


def _fail(message):
    """One ``error:`` line, past 200 characters cut in the middle as reprlib cuts."""
    text = str(message)
    print(f"error: {text if len(text) <= 200 else text[:98] + '...' + text[-99:]}",
          file=sys.stderr)
    sys.exit(USAGE)


def _check_n(family, n):
    if n > MAX_N[family]:
        _fail(f"--n {n} is above the bound {MAX_N[family]} for {family}")


def _ranking_line(graph):
    return "ranking: " + " ".join(graph.format_vertex(v) for v in graph.vertices)


def _answer(yes, positive, negative):
    """Print the answer; its exit code is 0 when positive, NEGATIVE otherwise."""
    print(positive if yes else negative)
    return 0 if yes else NEGATIVE


# ----------------------------------------------------------------------
# commands: each takes the parsed arguments and returns its exit code


def validate_cmd(args):
    """Check the axioms of a graph file, printing witnesses."""
    from .graph import validate

    report = validate(_load(args.graph_path))
    print(report.describe())
    return 0 if report.ok else USAGE


def nf_cmd(args):
    """Normal form of a word."""
    from .pilings import element_from_text

    g = _load(args.graph_path, args.order_override)
    elt = element_from_text(g, args.word)
    print(_ranking_line(g))
    print("nf: " + (elt.nf_str() or "(identity)"))


def eq_cmd(args):
    """Are two words equal in the group?"""
    from .pilings import element_from_text

    g = _load(args.graph_path)
    same = element_from_text(g, args.word1) == element_from_text(g, args.word2)
    return _answer(same, "equal", "not equal")


def order_cmd(args):
    """Group order: finite with its size, or infinite with the reason."""
    from .pilings import is_finite

    print(is_finite(_load(args.graph_path)))


def member_cmd(args):
    """Does the word lie in the standard parabolic subgroup?"""
    from .parabolic import member, parabolic_subgraph
    from .pilings import element_from_text

    g = _load(args.graph_path)
    sub = parabolic_subgraph(g, _split_list(args.vertices))
    inside = member(element_from_text(g, args.word), sub)
    return _answer(inside, "member", "not a member")


def tits_reduce_cmd(args):
    """Shortest syllabic word for the element of a syllabic word."""
    from .pilings import format_word, parse_word
    from .syllabic import syllabic_reduce

    g = _load(args.graph_path)
    reduced = syllabic_reduce(g, parse_word(g, args.word))
    print(format_word(g, reduced) or "(identity)")


def garside_cmd(args):
    """Garside data of a torsion-free graph."""
    from . import garside

    g = _load(args.graph_path)
    if not garside.is_pregarside(g):
        _fail("the graph has finite labels; no positive-monoid structure")
    if not garside.is_garside(g):
        print("not Garside: the graph is not finite and complete")
        return NEGATIVE
    print("Garside")
    print(f"delta: {garside.garside_element(g).nf_str()}")
    print(f"square-free elements: {2 ** len(g.vertices)}")


def divisors_cmd(args):
    """Vertices dividing a positive element on the chosen side."""
    from .garside import atom_left_divisors, atom_right_divisors
    from .pilings import element_from_text

    g = _load(args.graph_path)
    elt = element_from_text(g, args.word)
    divs = (atom_left_divisors if args.side == "left" else atom_right_divisors)(elt)
    print(" ".join(sorted(g.format_vertex(v) for v in divs)) or "(none)")


def lcm_cmd(args):
    """Least common multiple of a set of vertices (finite complete graphs)."""
    from .garside import lcm_atoms

    elt = lcm_atoms(_load(args.graph_path), _split_list(args.atoms))
    print(elt.nf_str() or "(identity)")


def confluence_cmd(args):
    """Certify local confluence within bounds; nonzero exit on failure."""
    import random

    from .confluence import check_critical_pairs, check_strategy_independence

    if args.samples > MAX_SAMPLES:
        _fail(f"--samples {args.samples} is above the bound {MAX_SAMPLES}")
    g = _load(args.graph_path)
    report = check_critical_pairs(g, args.max_support, args.max_exp)
    sampled = check_strategy_independence(
        g, random.Random(args.seed), pilings=args.samples,
        max_support=args.max_support, max_exp=args.max_exp)
    report.samples_checked = sampled.samples_checked
    report.sample_failures = sampled.sample_failures
    print(report.describe())
    return 0 if report.ok else NEGATIVE


def example_cmd(args):
    """Emit a stock graph as JSON on stdout."""
    from . import families
    from .jsonio import dump_graph, load_graph

    family, n = args.family, args.n
    if family in MAX_N:
        _check_n(family, n)
    if family in ("raag", "racg"):
        base = families.cycle_graph(n) if args.cycle else families.path_graph(n)
        g = (families.raag if family == "raag" else families.racg)(*base)
    elif family == "gp":
        if args.base_path is None:
            _fail("gp needs --graph with a base file")
        vertices, mu, edges, less, _ = load_graph(args.base_path).tables()
        if less:
            _fail("gp base graph must not carry an order")
        g = families.graph_product(vertices, edges, mu)
    elif family == "cactus":
        g = families.cactus(n)
    elif family == "cstar":
        g = families.dual_cactus_s3()
    elif family == "kjn":
        g = families.kjn_graph(n)
    else:
        g = families.gar3()
    sys.stdout.write(dump_graph(g))


def vjn_eq_cmd(args):
    """Equality of two virtual cactus words (tokens x[p,q], r<i>)."""
    from .vjn import vjn_equal

    _check_n("vjn", args.n)
    return _answer(vjn_equal(args.n, args.word1, args.word2), "equal", "not equal")


def f_nf_cmd(args):
    """Normal form of a word over the dyadic homeomorphism group."""
    from .pilings import element_from_text
    from .thompson import f_graph

    print(element_from_text(f_graph(), args.word).nf_str() or "(identity)")


def f_eq_cmd(args):
    """Are two words over the dyadic homeomorphism group equal?"""
    from .pilings import element_from_text
    from .thompson import f_graph

    g = f_graph()
    same = element_from_text(g, args.word1) == element_from_text(g, args.word2)
    return _answer(same, "equal", "not equal")


# ----------------------------------------------------------------------
# the parser


class _Parser(argparse.ArgumentParser):
    """A usage error is one ``error:`` line and exit 2.  Options match whole,
    not by prefix, and -1/2 is a word; the subcommand parsers share the class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def _parse_optional(self, arg):
        return None if arg[:1] == "-" and arg[1:2].isdigit() else super()._parse_optional(arg)

    def error(self, message):
        _fail(message)


def _group(parser):
    return parser.add_subparsers(dest="command", metavar="COMMAND", required=True)


def _command(group, name, run, *positionals):
    """Subcommand ``name`` running ``run``, whose docstring is its help."""
    p = group.add_parser(name, help=run.__doc__, description=run.__doc__)
    p.set_defaults(run=run)
    for dest in positionals:
        p.add_argument(dest)
    return p


def _parser():
    default = "default: %(default)s"
    main = _Parser(prog="trickle",
                   description="Word problem, normal forms, and divisibility over trickle graphs.")
    sub = _group(main)
    _command(sub, "validate", validate_cmd, "graph_path")
    _command(sub, "nf", nf_cmd, "graph_path", "word").add_argument(
        "--order-override", help="comma-separated vertex ranking to use for normal forms")
    _command(sub, "eq", eq_cmd, "graph_path", "word1", "word2")
    _command(sub, "order", order_cmd, "graph_path")
    _command(sub, "member", member_cmd, "graph_path", "word").add_argument(
        "--vertices", required=True, help="comma-separated parabolic subset")
    _command(sub, "tits-reduce", tits_reduce_cmd, "graph_path", "word")
    _command(sub, "garside", garside_cmd, "graph_path")
    _command(sub, "divisors", divisors_cmd, "graph_path", "word").add_argument(
        "--side", choices=("left", "right"), default="left")
    _command(sub, "lcm", lcm_cmd, "graph_path").add_argument(
        "--atoms", required=True, help="comma-separated vertex set")
    p = _command(sub, "confluence", confluence_cmd, "graph_path")
    p.add_argument("--max-support", type=int, default=3, help=default)
    p.add_argument("--max-exp", type=int, default=2, help=default)
    p.add_argument("--samples", type=int, default=200, help="random pilings for the "
                   "strategy-independence check (default: %(default)s)")
    p.add_argument("--seed", type=int, default=0, help=default)
    p = _command(sub, "example", example_cmd)
    p.add_argument("family", choices=("raag", "racg", "gp", "cactus", "cstar", "gar3", "kjn"))
    p.add_argument("--n", type=int, default=3, help=default)
    p.add_argument("--cycle", action="store_true",
                   help="use a cycle instead of a path (raag/racg)")
    p.add_argument("--graph", dest="base_path",
                   help="base graph file for gp (vertices, mu, edges only)")

    about = "Virtual cactus words."
    vjn = _group(sub.add_parser("vjn", help=about, description=about))
    _command(vjn, "eq", vjn_eq_cmd, "word1", "word2").add_argument(
        "--n", type=int, required=True)
    about = "Words over the dyadic homeomorphism group (tokens inf, k, k/2**e)."
    f = _group(sub.add_parser("f", help=about, description=about))
    _command(f, "nf", f_nf_cmd, "word")
    _command(f, "eq", f_eq_cmd, "word1", "word2")
    return main


def main(argv=None):
    """Run one command on ``argv`` (default ``sys.argv[1:]``) and return
    its exit code.  Any input error (``GraphError`` is a ``ValueError``)
    becomes a single ``error:`` line and exit 2, and so does a closed
    stdout, whose later writes go to devnull; other exceptions are bugs
    and keep their traceback."""
    args = _parser().parse_args(argv)
    try:
        code = args.run(args) or 0
        sys.stdout.flush()
        return code
    except ValueError as e:
        _fail(e)
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        _fail("standard output was closed")


if __name__ == "__main__":
    sys.exit(main())
