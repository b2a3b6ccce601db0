"""The benchmark's workloads: seeded inputs, ops, expected answers, CLI calls.

A workload is a list of blocks.  Every block has the same mix of ops (the
same counts per fixture, kind and size), so any run of whole blocks sees
the stated mix; the contents differ from block to block and from seed to
seed.  Block 0 is the digest block: its answers form the answer digest.

Each op carries its inputs as plain data (their repr feeds the input
digest and failure witnesses), a function that makes the library call the op times, a
function that renders the answer for the digest, and a check against an
expected value known by construction or given by an independent route
(``corpus.Abelian``, ``syllabic.exchange_connected``,
``garside.lcm_bruteforce``, ``thompson.evaluate_letters``, the random
strategies inside ``check_strategy_independence``).  Checks run after the
timed loop.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from corpus import Abelian, WordMaker, canonical, letters, word_text


@dataclass
class Op:
    kind: str
    inputs: tuple
    fn: object             # () -> result, the timed call
    check: object          # result -> None | failure message
    render: object         # result -> answer text
    tag: str | None = None


@dataclass
class CliCall:
    args: list
    check: object          # CompletedProcess -> None | failure message


@dataclass
class Workload:
    name: str
    blocks: list
    cli: list = field(default_factory=list)
    tail_percentile: int = 95
    trace_blocks: int = 1


def _flat(piling):
    return tuple(s for U in piling for s in U)


def _expect(expected):
    def check(ans):
        return None if ans == expected else f"answered {ans!r}, expected {expected!r}"
    return check


def _yes_no(ans):
    return "yes" if ans else "no"


def _exit_check(expected_code, expected_out):
    def check(proc):
        out = proc.stdout.strip()
        if proc.returncode != expected_code or out != expected_out:
            return (f"exit {proc.returncode} with {out!r} {proc.stderr.strip()[-200:]!r}, "
                    f"expected exit {expected_code} with {expected_out!r}")
        return None
    return check


def _write_graph(lib, graph, path):
    """JSON file for the CLI; loaded back so the file is known to parse."""
    path.write_text(lib.jsonio.dump_graph(graph), encoding="utf-8")
    return lib.jsonio.load_graph(str(path))


# ----------------------------------------------------------------------
# wordproblem

WP_FIXTURES = ("J5", "CSTAR", "KJ4", "RAAG-C6", "RACG-C6")
WP_LENGTHS = (50, 100, 200, 400, 800)
WP_BLOCKS = 24
# parabolic subsets of J4, each missing an orbit class of the star maps
J4_SUBSETS = (("[1,2]", "[2,3]", "[1,3]"), ("[2,3]", "[3,4]", "[2,4]"),
              ("[1,2]", "[3,4]"), ("[1,4]", "[2,3]"))
WP_CLI_FIXTURES = ("J5", "CSTAR", "RAAG-C6", "RACG-C6")
CLI_CALLS = 20


def equal_pair(maker, rng, length, equal):
    """(w1, w2) equal by construction, or unequal by one extra letter."""
    w1 = maker.word(rng, length)
    w2 = maker.scramble(rng, w1, exchanges=length // 10, relators=length // 20)
    if not equal:
        w2.insert(rng.randrange(len(w2) + 1), (maker.sample(rng), 1))
    return w1, w2


def _eq_op(lib, name, g, w1, w2, expected, tag):
    P = lib.pilings
    return Op("eq", (name, w1, w2),
              lambda: P.from_syllables(g, w1) == P.from_syllables(g, w2),
              _expect(expected), _yes_no, tag)


def _reduced_check(lib, g, abel, core):
    """The answer must be exchange-connected to the reduced core word."""
    S = lib.syllabic

    def check(word):
        if abel.image(word) != abel.image(core):
            return "abelian invariant differs from the input's"
        ref = S.syllabic_reduce(g, core)
        if len(ref) != len(word):
            return f"syllabic length {len(word)}, expected {len(ref)}"
        if not S.exchange_connected(g, word, ref):
            return "not exchange-connected to the reduced input"
        return None
    return check


def _nf_op(lib, name, g, abel, core, w, tag):
    P = lib.pilings

    def fn():
        e = P.from_syllables(g, w)
        return e.piling, e.nf_str()

    reduced = _reduced_check(lib, g, abel, core)
    return Op("nf", (name, w), fn,
              lambda out: reduced(_flat(out[0])), lambda out: out[1], tag)


def _tits_op(lib, name, g, abel, core, w, tag):
    S = lib.syllabic
    w = tuple(canonical(g, w))
    return Op("tits-reduce", (name, w),
              lambda: S.syllabic_reduce(g, w), _reduced_check(lib, g, abel, core),
              lambda out: S.format_syllabic(g, out), tag)


def _member_op(lib, g, sub, X, w, expected, tag):
    P, par = lib.pilings, lib.parabolic
    return Op("member", ("J4", w, X),
              lambda: par.member(P.from_syllables(g, w), sub), _expect(expected), _yes_no, tag)


def wordproblem(lib, seed, tmp):
    rng = random.Random(f"wordproblem:{seed}")
    graphs = {name: lib.families.fixture(name) for name in WP_FIXTURES + ("J4",)}
    makers = {name: WordMaker(g) for name, g in graphs.items()}
    abel = {name: Abelian(g) for name, g in graphs.items()}
    j4, a4 = graphs["J4"], abel["J4"]
    subsets = []
    for X in J4_SUBSETS:
        covered = {a4.cls(v) for v in X}
        outside = [v for v in j4.vertices if a4.cls(v) not in covered]
        subsets.append((X, lib.parabolic.parabolic_subgraph(j4, X), outside))

    blocks = []
    for _ in range(WP_BLOCKS):
        block = []
        for name in WP_FIXTURES:
            g, maker = graphs[name], makers[name]
            for length in WP_LENGTHS:
                tag = f"len{length}"
                for equal in (True, False):
                    w1, w2 = equal_pair(maker, rng, length, equal)
                    block.append(_eq_op(lib, name, g, w1, w2, equal, tag))
                for build in (_nf_op, _tits_op):
                    core = canonical(g, maker.word(rng, rng.randint(3, 6)))
                    w = maker.pad(rng, core, length)
                    block.append(build(lib, name, g, abel[name], core, w, tag))
        for length in WP_LENGTHS:
            for inside in (True, False):
                X, sub, outside = subsets[rng.randrange(len(subsets))]
                base = [(rng.choice(X), rng.choice((1, -1, 2, -2))) for _ in range(length // 2)]
                w = makers["J4"].pad(rng, base, length)
                if not inside:
                    w.insert(rng.randrange(len(w) + 1), (rng.choice(outside), 1))
                block.append(_member_op(lib, j4, sub, X, w, inside, f"len{length}"))
        rng.shuffle(block)
        blocks.append(block)

    cli = []
    loaded = {}
    for name in WP_CLI_FIXTURES:
        path = tmp / f"{name.lower()}.json"
        loaded[name] = (str(path), _write_graph(lib, graphs[name], path))
    for i in range(CLI_CALLS):
        name = WP_CLI_FIXTURES[i % len(WP_CLI_FIXTURES)]
        path, g = loaded[name]
        if (i // len(WP_CLI_FIXTURES)) % 2 == 0:
            equal = (i // 2) % 2 == 0
            w1, w2 = equal_pair(makers[name], rng, 50, equal)
            cli.append(CliCall(["eq", path, word_text(g, w1), word_text(g, w2)],
                               _exit_check(0 if equal else 1, "equal" if equal else "not equal")))
        else:
            w = makers[name].word(rng, 50)
            cli.append(CliCall(["nf", path, word_text(g, w)], _cli_nf_check(lib, g, w)))
    return Workload("wordproblem", blocks, cli, tail_percentile=99, trace_blocks=3)


def _cli_nf_check(lib, g, w):
    def check(proc):
        e = lib.pilings.from_syllables(g, w)
        ranking = "ranking: " + " ".join(g.format_vertex(v) for v in g.vertices)
        expected = f"{ranking}\nnf: {e.nf_str() or '(identity)'}"
        return _exit_check(0, expected)(proc)
    return check


# ----------------------------------------------------------------------
# algebra

ALG_POOL = 6          # operands per fixture and block
ALG_BLOCKS = 24
VJN_SIZES = (4, 5)
VJN_LENGTHS = (100, 400)


def _vjn_word(rng, n, length):
    out = []
    for _ in range(length):
        if rng.random() < 0.3:
            out.append(("r", rng.randint(1, n - 1)))
        else:
            p = rng.randint(1, n - 1)
            out.append(("x", p, rng.randint(p + 1, n)))
    return out


def _vjn_token(rng, n):
    if rng.random() < 0.5:
        return ("r", rng.randint(1, n - 1))
    p = rng.randint(1, n - 1)
    return ("x", p, rng.randint(p + 1, n))


def vjn_pair(rng, n, length, equal):
    """Equal by inserting squares r_i r_i and x[p,q] x[p,q]; unequal by
    one extra generator, which flips the permutation sign or the parity
    of interval letters."""
    w1 = _vjn_word(rng, n, length)
    w2 = list(w1)
    for _ in range(length // 20):
        tok = _vjn_token(rng, n)
        i = rng.randrange(len(w2) + 1)
        w2[i:i] = [tok, tok]
    if not equal:
        w2.insert(rng.randrange(len(w2) + 1), _vjn_token(rng, n))
    return w1, w2


def vjn_text(word):
    return " ".join(f"r{t[1]}" if t[0] == "r" else f"x[{t[1]},{t[2]}]" for t in word)


def _piling_text(out):
    return repr(out.piling)


def algebra(lib, seed, tmp):
    rng = random.Random(f"algebra:{seed}")
    P, G = lib.pilings, lib.garside
    fam = lib.families
    graphs = {name: fam.fixture(name) for name in ("GAR3", "J5", "CSTAR")}
    gar = graphs["GAR3"]
    abel = {name: Abelian(g) for name, g in graphs.items()}
    makers = {name: WordMaker(g) for name, g in graphs.items()}
    for n in VJN_SIZES:
        lib.vjn.kjn_graph(n)
    atoms = list(gar.vertices)

    def positive_word(lo, hi):
        return [(rng.choice(atoms), rng.randint(1, 3)) for _ in range(rng.randint(lo, hi))]

    lcm_ref = {}
    for X in ((atoms[0], atoms[1]), (atoms[0], atoms[2]), (atoms[1], atoms[2])):
        a, b = (P.from_syllables(gar, [(v, 1)]) for v in X)
        lcm_ref[X] = G.lcm_bruteforce(a, b, 4)

    def pool():
        """A block's operands: words and their elements, per fixture."""
        gar_words = []
        for _ in range(ALG_POOL // 3):
            a = rng.randint(2000, 4000)
            x, y, z = rng.sample(atoms, 3)
            gar_words.append([(x, a), (y, 1), (z, -a)])
            gar_words.append([(v, 1) for v in rng.sample(atoms, 2)])
            gar_words.append(makers["GAR3"].word(rng, 6))
        words = {"GAR3": gar_words,
                 "J5": [makers["J5"].word(rng, 30) for _ in range(ALG_POOL)],
                 "CSTAR": [makers["CSTAR"].word(rng, 30) for _ in range(ALG_POOL)]}
        return {name: [(w, P.from_syllables(graphs[name], w)) for w in ws]
                for name, ws in words.items()}

    def image(name, e):
        return abel[name].image(_flat(e.piling))

    def mul_op(name, operands):
        (w1, g), (w2, h) = rng.choice(operands), rng.choice(operands)
        want = abel[name].add(abel[name].image(w1), abel[name].image(w2))
        return Op("mul", (name, w1, w2), lambda: g * h,
                  lambda out: None if image(name, out) == want else "exponent sums do not add",
                  _piling_text)

    def inv_op(name, operand):
        w, g = operand
        want = abel[name].add(abel[name].image(w), scale=[-1])

        def check(out):
            if image(name, out) != want:
                return "exponent sums of the inverse are not negated"
            return None if (g * out).is_identity else "g * g^-1 is not the identity"
        return Op("inverse", (name, w), g.inverse, check, _piling_text)

    def pow_op(name, operand, k):
        w, g = operand
        want = abel[name].add(abel[name].image(w), scale=[k])

        def check(out):
            if image(name, out) != want:
                return "exponent sums of the power are not scaled"
            return None if (out * g ** -k).is_identity else "g^k * g^-k is not the identity"
        return Op("pow", (name, w, k), lambda: g ** k, check, _piling_text)

    def sign(k):
        return k if rng.random() < 0.5 else -k

    def garside_ops():
        a_w, b_w = positive_word(2, 6), positive_word(1, 6)
        a, b = P.from_syllables(gar, a_w), P.from_syllables(gar, b_w)
        ab = P.from_syllables(gar, a_w + b_w)
        ops = [
            Op("left-divides", ("GAR3", a_w, a_w + b_w),
               lambda: G.left_divides(a, ab), _expect(True), _yes_no),
            Op("left-divides", ("GAR3", a_w + b_w, a_w),
               lambda: G.left_divides(ab, a), _expect(False), _yes_no),
            Op("right-divides", ("GAR3", b_w, a_w + b_w),
               lambda: G.right_divides(b, ab), _expect(True), _yes_no),
        ]
        v, h_w = rng.choice(atoms), positive_word(1, 6)
        vh = P.from_syllables(gar, [(v, 1)] + h_w)
        hv = P.from_syllables(gar, h_w + [(v, 1)])

        def contains(out):
            return None if v in out else f"{v} missing from the atom divisors {sorted(out)}"
        ops.append(Op("atoms-left", ("GAR3", [(v, 1)] + h_w),
                      lambda: G.atom_left_divisors(vh), contains, lambda out: " ".join(sorted(out))))
        ops.append(Op("atoms-right", ("GAR3", h_w + [(v, 1)]),
                      lambda: G.atom_right_divisors(hv), contains, lambda out: " ".join(sorted(out))))
        X = rng.choice(sorted(lcm_ref))
        ref = lcm_ref[X]
        ops.append(Op("lcm", ("GAR3", X), lambda: G.lcm_atoms(gar, X),
                      lambda out: None if out == ref else f"lcm_bruteforce gives {ref!r}",
                      _piling_text))
        return ops

    def vjn_op(n, length, equal):
        w1, w2 = vjn_pair(rng, n, length, equal)
        return Op("vjn-eq", (n, w1, w2),
                  lambda: lib.vjn.vjn_equal(n, w1, w2), _expect(equal), _yes_no)

    blocks = []
    for _ in range(ALG_BLOCKS):
        operands = pool()
        gar_ops = operands["GAR3"]
        block = []
        for name, count in (("GAR3", 3), ("J5", 8), ("CSTAR", 4)):
            block.extend(mul_op(name, operands[name]) for _ in range(count))
        block.append(inv_op("GAR3", gar_ops[3 * rng.randrange(ALG_POOL // 3)]))
        block.append(inv_op("GAR3", rng.choice(gar_ops)))
        block.append(inv_op("J5", rng.choice(operands["J5"])))
        block.append(inv_op("CSTAR", rng.choice(operands["CSTAR"])))
        block.append(pow_op("GAR3", gar_ops[3 * rng.randrange(ALG_POOL // 3) + 1],
                            sign(rng.randint(1000, 4000))))
        block.append(pow_op("GAR3", rng.choice(gar_ops), sign(rng.randint(2, 50))))
        block.append(pow_op("J5", rng.choice(operands["J5"]), sign(rng.randint(2, 20))))
        block.append(pow_op("CSTAR", rng.choice(operands["CSTAR"]), sign(rng.randint(2, 20))))
        block.extend(garside_ops())
        for n in VJN_SIZES:
            for length in VJN_LENGTHS:
                for equal in (True, False):
                    block.append(vjn_op(n, length, equal))
        rng.shuffle(block)
        blocks.append(block)

    path = tmp / "gar3.json"
    gj = _write_graph(lib, gar, path)
    cli = []
    for i in range(CLI_CALLS):
        kind = i % 3
        if kind == 0:
            w = positive_word(2, 6)
            side = "left" if i % 2 == 0 else "right"
            cli.append(CliCall(["divisors", str(path), word_text(gj, w), "--side", side],
                               _cli_divisors_check(lib, gj, w, side)))
        elif kind == 1:
            equal = (i // 3) % 2 == 0
            w1, w2 = vjn_pair(rng, 4, 30, equal)
            cli.append(CliCall(["vjn", "eq", "--n", "4", vjn_text(w1), vjn_text(w2)],
                               _exit_check(0 if equal else 1, "equal" if equal else "not equal")))
        else:
            X = rng.choice(sorted(lcm_ref))
            cli.append(CliCall(["lcm", str(path), "--atoms", ",".join(X)],
                               _exit_check(0, lcm_ref[X].nf_str())))
    return Workload("algebra", blocks, cli, tail_percentile=95, trace_blocks=3)


def _cli_divisors_check(lib, g, w, side):
    def check(proc):
        e = lib.pilings.from_syllables(g, w)
        divs = (lib.garside.atom_left_divisors(e) if side == "left"
                else lib.garside.atom_right_divisors(e))
        return _exit_check(0, " ".join(sorted(divs)))(proc)
    return check


# ----------------------------------------------------------------------
# thompson

# F words stop at 20 syllables: at 40 one normal form takes 100-600 ms
# and a handful of them set a run's time; the powers carry the tail.
F_NF_LENGTHS = (10, 15, 20)
F_EQ_LENGTHS = (10, 15)
Q_EQ_LENGTHS = (10, 20, 40)
F_POWERS = (50, 75, 100, 150, 200)
TH_BLOCKS = 30
EVAL_POINTS = 2


def thompson(lib, seed, tmp):
    rng = random.Random(f"thompson:{seed}")
    th, P = lib.thompson, lib.pilings
    Dyadic, TOP = lib.dyadic.Dyadic, th.TOP
    F, Q = lib.families.fixture("F"), lib.families.fixture("QUANDLE")

    def dyadic(rng):
        e = rng.randint(0, 12)
        return Dyadic(rng.randint(-3 << e, 3 << e), e)

    def f_vertex(rng):
        return TOP if rng.random() < 0.08 else dyadic(rng)

    exps = (1, -1, 2, -2, 3, -3)
    fm = WordMaker(F, f_vertex, exps)
    qm = WordMaker(Q, dyadic, exps)

    def evaluation_check(w, points):
        def check(out):
            word = letters(w)
            nf = letters(_flat(out[0]))
            for t in points:
                if th.evaluate_letters(nf, t) != th.evaluate_letters(word, t):
                    return f"normal form and word differ at {t}"
            return None
        return check

    def nf_op(w, tag):
        points = [Dyadic(rng.randint(-5 << 6, 5 << 6), 6) for _ in range(EVAL_POINTS)]

        def fn():
            e = P.from_syllables(F, w)
            return e.piling, e.nf_str()
        return Op("f-nf", ("F", w, points),
                  fn, evaluation_check(w, points), lambda out: out[1], tag)

    def eq_op(name, g, maker, length, equal):
        w1, w2 = equal_pair(maker, rng, length, equal)
        return _eq_op(lib, name, g, w1, w2, equal, f"{name}.eq.len{length}")

    blocks = []
    for _ in range(TH_BLOCKS):
        block = [nf_op(fm.word(rng, n), f"nf.len{n}") for n in F_NF_LENGTHS]
        block += [nf_op([(Dyadic(0), 1), (Dyadic(1, 1), k)], f"k{k}") for k in F_POWERS]
        for n in F_EQ_LENGTHS:
            block += [eq_op("F", F, fm, n, equal) for equal in (True, False)]
        for n in Q_EQ_LENGTHS:
            block += [eq_op("QUANDLE", Q, qm, n, equal) for equal in (True, False)]
        rng.shuffle(block)
        blocks.append(block)

    cli = []
    for i in range(CLI_CALLS):
        if i % 2 == 0:
            w = fm.word(rng, 10)
            cli.append(CliCall(["f", "nf", "--", word_text(F, w)], _cli_f_nf_check(lib, F, w)))
        else:
            equal = (i // 2) % 2 == 0
            w1, w2 = equal_pair(fm, rng, 10, equal)
            cli.append(CliCall(["f", "eq", "--", word_text(F, w1), word_text(F, w2)],
                               _exit_check(0 if equal else 1, "equal" if equal else "not equal")))
    return Workload("thompson", blocks, cli, tail_percentile=95, trace_blocks=6)


def _cli_f_nf_check(lib, F, w):
    def check(proc):
        e = lib.pilings.from_syllables(F, w)
        return _exit_check(0, e.nf_str() or "(identity)")(proc)
    return check


# ----------------------------------------------------------------------
# confluence

# pair counts recorded at the commit that introduced this benchmark
CRITICAL_PAIRS = (("J5", 3, 2, 754_979), ("GAR3", 2, 2, 714_540))
SI_FIXTURE = "J5"
# 600 pilings a block rather than 200: strategy independence is a small
# share of a block's time, and more samples steady the op latencies
SI_PILINGS = 600
SI_PER_OP = 10
SI_STRATEGIES = 20
CONF_BLOCKS = 6
CONF_CLI = (("J3", 197), ("CSTAR", 1847))
CLI_SAMPLES = 20


def _describe(report):
    return " / ".join(report.describe().splitlines()[:3])


def critical_pairs_op(lib, name, g, max_support, max_exp, pairs):
    def check(report):
        if not report.ok:
            return f"not confluent: {_describe(report)}"
        if pairs is not None and report.pairs_checked != pairs:
            return f"checked {report.pairs_checked} pairs, recorded {pairs}"
        return None
    return Op("critical-pairs", (name, max_support, max_exp),
              lambda: lib.confluence.check_critical_pairs(g, max_support, max_exp), check,
              lambda r: f"{r.pairs_checked} pairs, {len(r.failures)} unresolved")


def strategy_op(lib, name, g, seed):
    def check(report):
        if report.samples_checked != SI_PER_OP:
            return f"checked {report.samples_checked} pilings, asked for {SI_PER_OP}"
        return None if report.ok else f"strategies diverge: {_describe(report)}"
    return Op("strategy-independence", (name, SI_STRATEGIES, seed),
              lambda: lib.confluence.check_strategy_independence(
                  g, random.Random(seed), pilings=SI_PER_OP, strategies=SI_STRATEGIES),
              check, lambda r: f"{r.samples_checked} pilings, {len(r.sample_failures)} divergent")


def confluence_blocks(lib, rng, pair_fixtures, si_fixture, blocks):
    """Blocks of verifier calls: every critical-pair check, then the
    strategy-independence check split into calls of SI_PER_OP random
    pilings, each call with its own seed and timed as one op."""
    out = []
    for _ in range(blocks):
        block = [critical_pairs_op(lib, name, g, s, e, pairs) for name, g, s, e, pairs in pair_fixtures]
        name, g = si_fixture
        block += [strategy_op(lib, name, g, rng.getrandbits(32))
                  for _ in range(SI_PILINGS // SI_PER_OP)]
        out.append(block)
    return out


def confluence(lib, seed, tmp):
    rng = random.Random(f"confluence:{seed}")
    fam = lib.families
    pair_fixtures = [(name, fam.fixture(name), s, e, pairs) for name, s, e, pairs in CRITICAL_PAIRS]
    si = (SI_FIXTURE, fam.fixture(SI_FIXTURE))
    blocks = confluence_blocks(lib, rng, pair_fixtures, si, CONF_BLOCKS)
    paths = {}
    for name, _ in CONF_CLI:
        path = tmp / f"{name.lower()}.json"
        _write_graph(lib, fam.fixture(name), path)
        paths[name] = str(path)
    cli = []
    for i in range(CLI_CALLS):
        name, pairs = CONF_CLI[i % len(CONF_CLI)]
        expected = (f"critical pairs checked: {pairs}, unresolved: 0\n"
                    f"random pilings checked: {CLI_SAMPLES}, divergent: 0")
        cli.append(CliCall(["confluence", paths[name], "--samples", str(CLI_SAMPLES),
                            "--seed", str(rng.randrange(1000))], _exit_check(0, expected)))
    return Workload("confluence", blocks, cli, tail_percentile=90, trace_blocks=1)


BUILDERS = {
    "wordproblem": wordproblem,
    "algebra": algebra,
    "confluence": confluence,
    "thompson": thompson,
}
