"""Seeded word construction and the benchmark's own invariant.

Everything here talks to a graph only through its query oracle (``edge``,
``mu``, ``phi``, ``phi_pow``, ``star``); nothing calls the normal-form
engine, so expected answers built here are independent of it.

Equal words are made by inserting relators and applying exchange moves:

    free cancellation   v^k v^-k
    torsion             v^a v^(mu(v) - a)            (finite mu)
    exchange            x^a y^b = phi_x^a(y)^b phi_y^-b(x)^a   (edge x, y)

Unequal words differ from an equal one by one extra letter, which moves
the abelian invariant below.
"""

from __future__ import annotations

import math

EXPONENTS = (1, -1, 2, -2)


class Abelian:
    """The map of words onto the abelianization over star-map orbits.

    Vertices fall into classes, the orbits of y -> phi_x(y).  A word maps
    to the exponent sum of each class, taken mod mu of the class (mu is
    constant on a class by axiom (f)).  Every relator maps to zero: x^mu
    vanishes mod mu, and both sides of phi_x(y) x = phi_y(x) y hit the
    classes of x and y once each.  So words with different images are
    unequal.  With every label 2 this is letter-count parity per class,
    with every label infinite it is exponent sums, and on CSTAR it is the
    map onto Z/2 x Z/3.

    Lazy graphs pass ``classify``, a function naming the class of a vertex.
    """

    def __init__(self, graph, classify=None):
        self._mod = {}
        if classify is not None:
            self._classify = classify
            return
        parent = {v: v for v in graph.vertices}

        def find(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        for x in graph.vertices:
            for y in graph.star(x):
                a, b = find(y), find(graph.phi(x, y))
                if a != b:
                    parent[a] = b
        table = {v: find(v) for v in graph.vertices}
        self._classify = table.__getitem__
        for v in graph.vertices:
            m = graph.mu(v)
            self._mod[table[v]] = 0 if m == math.inf else m

    def cls(self, v):
        return self._classify(v)

    def image(self, word) -> dict:
        out = {}
        for v, k in word:
            c = self._classify(v)
            out[c] = out.get(c, 0) + k
        return self._reduce(out)

    def _reduce(self, vec):
        out = {}
        for c, k in vec.items():
            m = self._mod.get(c, 0)
            if m:
                k %= m
            if k:
                out[c] = k
        return out

    def add(self, *vecs, scale=None) -> dict:
        """Sum of images, each multiplied by the matching entry of ``scale``."""
        scale = scale or [1] * len(vecs)
        out = {}
        for vec, s in zip(vecs, scale):
            for c, k in vec.items():
                out[c] = out.get(c, 0) + s * k
        return self._reduce(out)


class WordMaker:
    """Random words and equal-by-construction rewrites over one graph.

    ``sample`` draws a vertex from the given ``random.Random``; for finite
    graphs it defaults to a uniform choice.  ``exponents`` are the syllable
    exponents of random words.
    """

    def __init__(self, graph, sample=None, exponents=EXPONENTS):
        self.graph = graph
        self.exponents = exponents
        if graph.finite:
            verts = graph.vertices
            self.sample = sample or (lambda rng: verts[int(rng.random() * len(verts))])
            self._nbrs = {v: [w for w in verts if graph.edge(v, w)] for v in verts}
        else:
            self.sample = sample
            self._nbrs = None

    def neighbour(self, rng, x):
        """A vertex adjacent to x, or None when x is isolated."""
        if self._nbrs is not None:
            nbrs = self._nbrs[x]
            return nbrs[int(rng.random() * len(nbrs))] if nbrs else None
        for _ in range(100):
            y = self.sample(rng)
            if y != x and self.graph.edge(x, y):
                return y
        return None

    def word(self, rng, length):
        if self.graph.finite:
            verts = rng.choices(self.graph.vertices, k=length)
        else:
            verts = [self.sample(rng) for _ in range(length)]
        return list(zip(verts, rng.choices(self.exponents, k=length)))

    def relator(self, rng, vertex=None):
        """A word equal to the identity, as a list of syllables."""
        g = self.graph
        x = self.sample(rng) if vertex is None else vertex
        kind = rng.random()
        if kind < 1 / 3:
            m = g.mu(x)
            if m != math.inf:
                a = 1 + int(rng.random() * (m - 1))
                return [(x, a), (x, m - a)]
        y = self.neighbour(rng, x) if kind >= 2 / 3 else None
        exps = self.exponents
        a = exps[int(rng.random() * len(exps))]
        b = exps[int(rng.random() * len(exps))]
        if y is None:
            return [(x, a), (x, -a)]
        return [(x, a), (y, b), (g.phi_pow(y, -b, x), -a), (g.phi_pow(x, a, y), -b)]

    def exchange(self, word, i):
        """The word with syllables i, i + 1 exchanged across their edge."""
        (x, a), (y, b) = word[i], word[i + 1]
        g = self.graph
        word[i:i + 2] = [(g.phi_pow(x, a, y), b), (g.phi_pow(y, -b, x), a)]

    def scramble(self, rng, word, exchanges, relators):
        """An equal word: exchange moves, then relator insertions."""
        out = list(word)
        g = self.graph
        for _ in range(exchanges):
            if len(out) < 2:
                break
            for _ in range(8):
                i = rng.randrange(len(out) - 1)
                if out[i][0] != out[i + 1][0] and g.edge(out[i][0], out[i + 1][0]):
                    self.exchange(out, i)
                    break
        for _ in range(relators):
            i = int(rng.random() * (len(out) + 1))
            out[i:i] = self.relator(rng)
        return out

    def pad(self, rng, word, length):
        """Insert relators into word until it has at least ``length`` syllables."""
        out = list(word)
        while len(out) < length:
            i = int(rng.random() * (len(out) + 1))
            out[i:i] = self.relator(rng)
        return out


def canonical(graph, word):
    """Syllables with exponents reduced mod mu and vanished ones dropped."""
    out = []
    for v, k in word:
        m = graph.mu(v)
        if m != math.inf:
            k %= m
        if k:
            out.append((v, k))
    return out


def word_text(graph, word) -> str:
    """The word in the CLI grammar: tokens v or v^k."""
    fmt = graph.format_vertex
    return " ".join(fmt(v) if k == 1 else f"{fmt(v)}^{k}" for v, k in word)


def letters(word):
    """Unit letters (v, +1 | -1) of a syllable word."""
    out = []
    for v, k in word:
        out.extend([(v, 1 if k > 0 else -1)] * abs(k))
    return out
