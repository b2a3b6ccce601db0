"""Command-line front end.

Exit codes: 0 for success or a positive answer, 1 for a negative answer
(unequal words, non-member, failed confluence check), 2 for usage,
schema, or validation errors.  Output is deterministic for fixed inputs.
"""

from __future__ import annotations

import random
import sys

import click

from . import confluence as conf
from . import families, garside, jsonio, parabolic, syllabic, thompson, vjn
from .graph import validate as validate_graph
from .pilings import element_from_text, format_word, is_finite

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
    g = jsonio.load_graph(path)
    if order_override:
        g = g.with_ranking(_split_list(order_override))
    return g


def _fail(message):
    click.echo(f"error: {message}", err=True)
    sys.exit(USAGE)


def _check_n(family, n):
    if n > MAX_N[family]:
        _fail(f"--n {n} is above the bound {MAX_N[family]} for {family}")


def _ranking_line(graph):
    return "ranking: " + " ".join(graph.format_vertex(v) for v in graph.vertices)


class _ErrorBoundary(click.Group):
    """Every command runs inside ``invoke``, nested groups included, so this
    one handler turns any input error (``GraphError`` is a ``ValueError``)
    into a single ``error:`` line and exit 2.  Other exceptions are bugs and
    keep their traceback."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except ValueError as e:
            _fail(e)


@click.group(cls=_ErrorBoundary)
def main():
    """Word problem, normal forms, and divisibility over trickle graphs."""


@main.command("validate")
@click.argument("graph_path")
def validate_cmd(graph_path):
    """Check the axioms of a graph file, printing witnesses."""
    report = validate_graph(_load(graph_path))
    click.echo(report.describe())
    sys.exit(0 if report.ok else USAGE)


@main.command("nf")
@click.argument("graph_path")
@click.argument("word")
@click.option("--order-override", default=None,
              help="comma-separated vertex ranking to use for normal forms")
def nf_cmd(graph_path, word, order_override):
    """Normal form of a word."""
    g = _load(graph_path, order_override)
    elt = element_from_text(g, word)
    click.echo(_ranking_line(g))
    click.echo("nf: " + (elt.nf_str() or "(identity)"))


@main.command("eq")
@click.argument("graph_path")
@click.argument("word1")
@click.argument("word2")
def eq_cmd(graph_path, word1, word2):
    """Are two words equal in the group?"""
    g = _load(graph_path)
    same = element_from_text(g, word1) == element_from_text(g, word2)
    click.echo("equal" if same else "not equal")
    sys.exit(0 if same else NEGATIVE)


@main.command("order")
@click.argument("graph_path")
def order_cmd(graph_path):
    """Group order: finite with its size, or infinite with the reason."""
    click.echo(str(is_finite(_load(graph_path))))


@main.command("member")
@click.argument("graph_path")
@click.argument("word")
@click.option("--vertices", required=True, help="comma-separated parabolic subset")
def member_cmd(graph_path, word, vertices):
    """Does the word lie in the standard parabolic subgroup?"""
    g = _load(graph_path)
    sub = parabolic.parabolic_subgraph(g, _split_list(vertices))
    inside = parabolic.member(element_from_text(g, word), sub)
    click.echo("member" if inside else "not a member")
    sys.exit(0 if inside else NEGATIVE)


@main.command("tits-reduce")
@click.argument("graph_path")
@click.argument("word")
def tits_reduce_cmd(graph_path, word):
    """Shortest syllabic word for the element of a syllabic word."""
    g = _load(graph_path)
    reduced = syllabic.syllabic_reduce(g, syllabic.parse_syllabic(g, word))
    click.echo(format_word(g, reduced) or "(identity)")


@main.command("garside")
@click.argument("graph_path")
def garside_cmd(graph_path):
    """Garside data of a torsion-free graph."""
    g = _load(graph_path)
    if not garside.is_pregarside(g):
        _fail("the graph has finite labels; no positive-monoid structure")
    if not garside.is_garside(g):
        click.echo("not Garside: the graph is not finite and complete")
        sys.exit(NEGATIVE)
    delta = garside.garside_element(g)
    sf = garside.square_free(g)
    click.echo("Garside")
    click.echo(f"delta: {delta.nf_str()}")
    click.echo(f"square-free elements: {len(sf)}")


@main.command("divisors")
@click.argument("graph_path")
@click.argument("word")
@click.option("--side", type=click.Choice(["left", "right"]), default="left")
def divisors_cmd(graph_path, word, side):
    """Vertices dividing a positive element on the chosen side."""
    g = _load(graph_path)
    elt = element_from_text(g, word)
    if side == "left":
        divs = garside.atom_left_divisors(elt)
    else:
        divs = garside.atom_right_divisors(elt)
    click.echo(" ".join(sorted(g.format_vertex(v) for v in divs)) or "(none)")


@main.command("lcm")
@click.argument("graph_path")
@click.option("--atoms", required=True, help="comma-separated vertex set")
def lcm_cmd(graph_path, atoms):
    """Least common multiple of a set of vertices (finite complete graphs)."""
    elt = garside.lcm_atoms(_load(graph_path), _split_list(atoms))
    click.echo(elt.nf_str() or "(identity)")


@main.command("confluence")
@click.argument("graph_path")
@click.option("--max-support", default=3, show_default=True)
@click.option("--max-exp", default=2, show_default=True)
@click.option("--samples", default=200, show_default=True,
              help="random pilings for the strategy-independence check")
@click.option("--seed", default=0, show_default=True)
def confluence_cmd(graph_path, max_support, max_exp, samples, seed):
    """Certify local confluence within bounds; nonzero exit on failure."""
    if samples > MAX_SAMPLES:
        _fail(f"--samples {samples} is above the bound {MAX_SAMPLES}")
    g = _load(graph_path)
    report = conf.check_critical_pairs(g, max_support, max_exp)
    sampled = conf.check_strategy_independence(
        g, random.Random(seed), pilings=samples,
        max_support=max_support, max_exp=max_exp)
    report.samples_checked = sampled.samples_checked
    report.sample_failures = sampled.sample_failures
    click.echo(report.describe())
    sys.exit(0 if report.ok else NEGATIVE)


@main.command("example")
@click.argument("family", type=click.Choice(["raag", "racg", "gp", "cactus", "cstar", "gar3", "kjn"]))
@click.option("--n", default=3, show_default=True)
@click.option("--cycle", is_flag=True, help="use a cycle instead of a path (raag/racg)")
@click.option("--graph", "base_path", default=None,
              help="base graph file for gp (vertices, mu, edges only)")
def example_cmd(family, n, cycle, base_path):
    """Emit a stock graph as JSON on stdout."""
    if family in MAX_N:
        _check_n(family, n)
    if family in ("raag", "racg"):
        base = families.cycle_graph(n) if cycle else families.path_graph(n)
        g = (families.raag if family == "raag" else families.racg)(*base)
    elif family == "gp":
        if base_path is None:
            _fail("gp needs --graph with a base file")
        vertices, mu, edges, less, _ = jsonio.load_graph(base_path).tables()
        if less:
            _fail("gp base graph must not carry an order")
        g = families.graph_product(vertices, edges, mu)
    elif family == "cactus":
        g = families.cactus(n)
    elif family == "cstar":
        g = families.dual_cactus_s3()
    elif family == "kjn":
        g = vjn.kjn_graph(n)
    else:
        g = families.gar3()
    click.echo(jsonio.dump_graph(g), nl=False)


@main.group("vjn")
def vjn_group():
    """Virtual cactus words."""


@vjn_group.command("eq")
@click.option("--n", required=True, type=int)
@click.argument("word1")
@click.argument("word2")
def vjn_eq_cmd(n, word1, word2):
    """Equality of two virtual cactus words (tokens x[p,q], r<i>)."""
    _check_n("vjn", n)
    same = vjn.vjn_equal(n, word1, word2)
    click.echo("equal" if same else "not equal")
    sys.exit(0 if same else NEGATIVE)


@main.group("f")
def f_group():
    """Words over the dyadic homeomorphism group (tokens inf, k, k/2**e)."""


@f_group.command("nf")
@click.argument("word")
def f_nf_cmd(word):
    click.echo(element_from_text(thompson.f_graph(), word).nf_str() or "(identity)")


@f_group.command("eq")
@click.argument("word1")
@click.argument("word2")
def f_eq_cmd(word1, word2):
    g = thompson.f_graph()
    same = element_from_text(g, word1) == element_from_text(g, word2)
    click.echo("equal" if same else "not equal")
    sys.exit(0 if same else NEGATIVE)


if __name__ == "__main__":
    main()
