#!/usr/bin/env python3
"""Self-test of the benchmark's correctness gate.

    python3 perfbench/selftest.py [--seed N]

Run from the root of a checkout that has ``src/`` and ``tests/``.  Three
checks, each printed as one line; the exit code is 0 only if all hold:

1. ``broken_g`` from tests/corrupt.py, whose star maps break the exchange
   axiom, goes through the confluence ops: the gate must count failures
   and print a witness.
2. One expected answer in a generated wordproblem corpus is flipped: the
   gate must count exactly that op as a failure.
3. The invariants behind the unequal pairs hold on the seed corpus:
   relators map to zero, and the abelian image (or, for virtual cactus
   words, permutation sign and interval-letter parity) agrees on every
   pair expected equal and differs on every pair expected unequal;
   expected non-members of a parabolic subgroup have an image outside it.
"""

from __future__ import annotations

import argparse
import random
import sys

import run
from corpus import Abelian, WordMaker
from workloads import BUILDERS, Op, Workload, confluence_blocks


def gate(workload, blocks=1):
    runner = run.Runner(workload)
    runner.run(blocks=blocks)
    lines = []
    failed, _ = run.verify(workload, runner.executions, "selftest", lines.append)
    return failed, len(runner.executions), lines


def broken_confluence(lib):
    sys.path.insert(0, str(run.ROOT / "tests"))
    import corrupt

    g = corrupt.broken_g()
    rng = random.Random(0)
    blocks = confluence_blocks(lib, rng, [("broken-g", g, 3, 2, None)], ("broken-g", g), 1)
    failed, attempted, lines = gate(Workload("confluence-broken-g", blocks))
    ok = failed > 0 and any(line.startswith("witness: ") for line in lines)
    detail = lines[0][:160] if lines else "no witness"
    return ok, f"broken_g: {failed}/{attempted} ops failed; {detail}"


def flipped_answer(lib, seed, tmp):
    wl = BUILDERS["wordproblem"](lib, seed, tmp)
    block = wl.blocks[0]
    i = next(n for n, op in enumerate(block) if op.kind == "eq")
    op = block[i]

    def flipped(ans, check=op.check):
        return "flipped expectation" if check(ans) is None else None
    block[i] = Op(op.kind, op.inputs, op.fn, flipped, op.render, op.tag)
    failed, attempted, lines = gate(wl)
    ok = failed == 1 and f"op=0.{i} " in lines[0]
    return ok, f"flipped expected answer of op 0.{i}: {failed}/{attempted} ops failed"


def vjn_invariant(word):
    sign = sum(1 for t in word if t[0] == "r") % 2
    parity = sum(1 for t in word if t[0] == "x") % 2
    return sign, parity


def invariants(lib, seed, tmp):
    """Every expected answer of an eq or member op agrees with the invariant."""
    fam = lib.families
    TOP = lib.thompson.TOP
    maps = {name: Abelian(fam.fixture(name))
            for name in ("J5", "CSTAR", "KJ4", "RAAG-C6", "RACG-C6", "J4", "GAR3")}
    maps["F"] = Abelian(None, lambda v: "top" if v is TOP else "dyadic")
    maps["QUANDLE"] = Abelian(None, lambda v: "dyadic")
    bad, checked = [], 0

    rng = random.Random(seed)
    for name, a in maps.items():
        if name in ("F", "QUANDLE"):
            continue
        maker = WordMaker(fam.fixture(name))
        for _ in range(500):
            checked += 1
            if a.image(maker.relator(rng)):
                bad.append(f"{name} relator with a nonzero image")

    for wname in ("wordproblem", "thompson", "algebra"):
        wl = BUILDERS[wname](lib, seed, tmp)
        for block in wl.blocks:
            for op in block:
                if op.kind not in ("eq", "member", "vjn-eq"):
                    continue
                expected = op.check(True) is None
                checked += 1
                if op.kind == "eq":
                    name, w1, w2 = op.inputs
                    same = maps[name].image(w1) == maps[name].image(w2)
                    if same != expected:
                        bad.append(f"{wname} eq {name}: invariant says {same}, expected {expected}")
                elif op.kind == "vjn-eq":
                    n, w1, w2 = op.inputs
                    same = vjn_invariant(w1) == vjn_invariant(w2)
                    if same != expected:
                        bad.append(f"vjn n={n}: invariant says {same}, expected {expected}")
                else:
                    name, w, X = op.inputs
                    a = maps[name]
                    inside = set(a.image(w)) <= {a.cls(v) for v in X}
                    if not expected and inside:
                        bad.append(f"member {X}: expected non-member has an image inside")
    ok = not bad
    return ok, f"invariants: {checked} checked, {len(bad)} wrong" + (f"; {bad[0]}" if bad else "")


def main(argv=None):
    ap = argparse.ArgumentParser(description="Self-test of the benchmark's correctness gate.")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    lib = run.import_library()
    tmp = run.ROOT / ".perfbench" / "selftest"
    tmp.mkdir(parents=True, exist_ok=True)
    results = [broken_confluence(lib), flipped_answer(lib, args.seed, tmp),
               invariants(lib, args.seed, tmp)]
    for ok, line in results:
        print(("ok    " if ok else "FAIL  ") + line)
    return 0 if all(ok for ok, _ in results) else 1


if __name__ == "__main__":
    sys.exit(main())
