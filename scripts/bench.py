#!/usr/bin/env python3
"""Time long words, the two verifier checks, word batches and the kernel compile.

One word per fixture and length, the same on every run for a given
seed.  Its first ``from_syllables`` runs on a freshly built copy of the
graph whose step table is still empty (the kernel is compiled before
the clock starts): that is the cold time.  Then it runs three times
more and the best time is kept, the warm time, since a finite graph
keeps the moves it has met.  The record holds the commit, a host
line and one row per (fixture, letters): the cold and best times in
seconds, the number of strata in the normal form and a digest of it, so
two records of one seed can also be checked for equal normal forms.
Then ``check_critical_pairs``
runs once per fixture at support 3 and exponent 2, and on RAAG-C6 at
support 2 and exponent 4; its rows hold the
pair count, the verdict, the order of the symmetry group the check was
reduced by, the C2 units it evaluated and the time of that one run.  Then
``check_strategy_independence`` runs once per fixture on 1000 random
pilings under 20 strategies each, seeded with ``Random(100)``; its rows
hold the sample count, the verdict and the time.  Next,
``from_syllables`` runs on batches of ten words at the lengths of the
perfbench ``wordproblem`` workload; each row holds the cold time of the
batch on a fresh copy of the graph, the best of three more and a digest
of its normal forms.  Then each fixture's step table is filled, on a
fresh copy of the graph, with seeded words of TABLE_LETTERS letters until
the bound replaces it or TABLE_WORDS words have run; its row holds the
words, strata, moves and weighted entries (what the table bound caps) of
the table just before, whether it reached the bound, and the most memory
it held, traced by ``tracemalloc``.  Then one in-process run of two
passes over the blocks of the perfbench ``wordproblem`` workload at this
seed, the first on empty step tables: per graph and pass, the fresh pair
searches (``_table_step`` calls), the tables replaced and the weighted
entries at the end of the pass.  Then the integer kernel
of ``kjn_graph(n)`` is compiled for n = 4..6; each row holds the best
time and the number of table entries.  Last, the command line's cold
start: ``python -m trickle.cli nf`` on GAR3 and ``f nf`` each run in
COLD_STARTS fresh processes; each row holds the wall times in ms and
their median.

Every time in the record is corrected for the speed of a shared host by
the calibration probe of ``perfbench/calibration.py``, which runs in this
process throughout; the field of the same name ending in ``_raw`` holds
the uncorrected time (the probes inside the interval left out).  The
step-table rows hold memory, traced by ``tracemalloc``, and no time.

    python3 scripts/bench.py --out BENCH_<n>.json
"""

import argparse
import hashlib
import importlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

# time the checkout this script lives in, not an installed copy
ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from calibration import Calibrator  # noqa: E402

from trickle import pilings  # noqa: E402
from trickle.confluence import check_critical_pairs, check_strategy_independence  # noqa: E402
from trickle.families import fixture  # noqa: E402
from trickle.graph import INFINITY, Kernel  # noqa: E402
from trickle.jsonio import dump_graph  # noqa: E402
from trickle.pilings import from_syllables  # noqa: E402
from trickle.vjn import kjn_graph  # noqa: E402

FIXTURES = ("J5", "CSTAR", "KJ4", "RAAG-C6", "RACG-C6")
LETTERS = (200, 400, 800, 1600, 3200, 6400, 12800)
REPEATS = 3
PAIR_FIXTURES = ("J5", "GAR3", "KJ4", "RAAG-C6")
# (fixture, max_support, max_exp) of each critical-pair row
PAIR_CASES = tuple((name, 3, 2) for name in PAIR_FIXTURES) + (("RAAG-C6", 2, 4),)
SAMPLES, STRATEGIES, SAMPLE_SEED = 1000, 20, 100
WORD_LETTERS = (50, 100, 200, 400, 800)
WORDS = 10
TABLE_FIXTURES = FIXTURES + ("GAR3",)
TABLE_WORDS, TABLE_LETTERS = 300, 200
WORDPROBLEM_PASSES = 2
KERNEL_SIZES = (4, 5, 6)
COLD_STARTS = 5


def random_word(g, rng, length):
    """Syllables with exponents +-1, +-2 (or a nonzero residue)."""
    out = []
    for _ in range(length):
        v = rng.choice(g.vertices)
        m = g.mu(v)
        a = rng.choice((-2, -1, 1, 2)) if m == INFINITY else rng.randrange(1, m)
        out.append((v, a))
    return out


def timed(cal, fn):
    """The corrected and raw seconds of one call of ``fn``, and its result."""
    t0 = time.perf_counter()
    out = fn()
    corrected, raw = cal.correct(t0, time.perf_counter())
    return corrected, raw, out


def best_time(cal, fn):
    """The least corrected and the least raw seconds of REPEATS calls of
    ``fn``, and the last result."""
    runs = [timed(cal, fn) for _ in range(REPEATS)]
    return min(c for c, _, _ in runs), min(r for _, r, _ in runs), runs[-1][2]


def cold_time(cal, g, fn):
    """Corrected and raw seconds of ``fn(fresh)`` on a fresh copy of ``g``
    with its kernel compiled, so the step table starts empty; and the copy."""
    fresh = g.with_ranking(g.vertices)
    fresh.kernel()
    corrected, raw, _ = timed(cal, lambda: fn(fresh))
    return corrected, raw, fresh


def weighted_entries(table):
    """What the step table bound caps: strata at their weight, moves at one."""
    return pilings._STRATUM_WEIGHT * len(table.strata) + table.moves


def table_at_bound(name, seed):
    """Fill the step table of a fresh copy of fixture ``name`` with seeded
    words until the bound replaces it or TABLE_WORDS words have run."""
    g = fixture(name)
    kernel = g.kernel()
    rng = random.Random(f"{seed}:table:{name}")
    words = [random_word(g, rng, TABLE_LETTERS) for _ in range(TABLE_WORDS)]
    tracemalloc.start()
    try:
        before, most = tracemalloc.get_traced_memory()[0], 0
        for run, w in enumerate(words):
            table = kernel.table
            from_syllables(g, w)
            if table is not None and kernel.table is not table:
                break
            most = max(most, tracemalloc.get_traced_memory()[0] - before)
        else:
            run, table = len(words), kernel.table
    finally:
        tracemalloc.stop()
    return {"fixture": name, "words": run, "strata": len(table.strata), "moves": table.moves,
            "entries": weighted_entries(table), "reached_bound": run < len(words),
            "table_mb": round(most / 2 ** 20, 3)}


def wordproblem_passes(seed):
    """Fresh pair searches, tables replaced and weighted entries per graph and
    pass over the perfbench ``wordproblem`` blocks, run in this process."""
    import run
    from workloads import BUILDERS
    lib = SimpleNamespace(**{m: importlib.import_module(f"trickle.{m}") for m in run.MODULES})
    real, kernels, retired, replaced = pilings._table, set(), Counter(), Counter()

    def counting_table(kernel):
        kernels.add(kernel)
        old = kernel.table
        table = real(kernel)
        if old is not None and table is not old:
            retired[kernel] += old.moves
            replaced[kernel] += 1
        return table

    out = []
    pilings._table = counting_table
    try:
        with tempfile.TemporaryDirectory() as tmp:
            blocks = BUILDERS["wordproblem"](lib, seed, Path(tmp)).blocks
            for n in range(WORDPROBLEM_PASSES):
                start = {k: k.table.moves for k in kernels}
                retired.clear()
                replaced.clear()
                for block in blocks:
                    for op in block:
                        op.fn()
                rows = {}
                for k in kernels:
                    row = rows.setdefault(k.graph.name, {"pass": n, "graph": k.graph.name,
                                                         "fresh_searches": 0, "replaced": 0,
                                                         "entries": 0})
                    row["fresh_searches"] += retired[k] + k.table.moves - start.get(k, 0)
                    row["replaced"] += replaced[k]
                    row["entries"] += weighted_entries(k.table)
                out += [rows[name] for name in sorted(rows)]
    finally:
        pilings._table = real
    return out


def cold_start_ms(cal, args):
    """Corrected and raw wall ms of COLD_STARTS fresh ``python -m trickle.cli``
    runs of ``args``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    times, raws = [], []
    for _ in range(COLD_STARTS):
        corrected, raw, _ = timed(cal, lambda: subprocess.run(
            [sys.executable, "-m", "trickle.cli", *args], env=env, check=True,
            capture_output=True))
        times.append(round(corrected * 1000, 2))
        raws.append(round(raw * 1000, 2))
    return times, raws


def digest(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def commit():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "describe", "--always", "--dirty",
                              "--abbrev=40"],
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def measure(cal, seed):
    """The record's rows, timed with the calibrator ``cal``."""
    rows = []
    for name in FIXTURES:
        g = fixture(name)
        for n in LETTERS:
            word = random_word(g, random.Random(f"{seed}:{name}:{n}"), n)
            cold, cold_raw, fresh = cold_time(cal, g, lambda h: from_syllables(h, word))
            best, best_raw, nf = best_time(cal, lambda: from_syllables(fresh, word).piling)
            rows.append({"fixture": name, "letters": n, "cold_s": round(cold, 6),
                         "best_s": round(best, 6), "cold_s_raw": round(cold_raw, 6),
                         "best_s_raw": round(best_raw, 6),
                         "strata_out": len(nf), "nf_digest": digest(nf)})
            print(f"{name:8} {n:>6} {cold * 1000:>10.1f} cold {best * 1000:>10.1f} ms",
                  flush=True)

    pairs = []
    for name, *bounds in PAIR_CASES:
        g = fixture(name)
        seconds, raw, report = timed(cal, lambda: check_critical_pairs(g, *bounds))
        pairs.append({"fixture": name, "bounds": bounds,
                      "pairs_checked": report.pairs_checked, "ok": report.ok,
                      "group_order": report.group_order, "c2_evaluated": report.c2_evaluated,
                      "seconds": round(seconds, 3), "seconds_raw": round(raw, 3)})
        print(f"{name:8} {tuple(bounds)} {report.pairs_checked:>9} pairs {seconds:>8.2f} s, "
              f"group order {report.group_order}, {report.c2_evaluated} C2 units", flush=True)

    samples = []
    for name in PAIR_FIXTURES:
        g = fixture(name)
        seconds, raw, report = timed(cal, lambda: check_strategy_independence(
            g, random.Random(SAMPLE_SEED), SAMPLES, STRATEGIES))
        samples.append({"fixture": name, "pilings": SAMPLES, "strategies": STRATEGIES,
                        "seed": SAMPLE_SEED, "samples_checked": report.samples_checked,
                        "ok": report.ok, "seconds": round(seconds, 3),
                        "seconds_raw": round(raw, 3)})
        print(f"{name:8} {report.samples_checked:>9} samples {seconds:>6.2f} s", flush=True)

    words = []
    for name in FIXTURES:
        g = fixture(name)
        for n in WORD_LETTERS:
            rng = random.Random(f"{seed}:words:{name}:{n}")
            batch = [random_word(g, rng, n) for _ in range(WORDS)]
            cold, cold_raw, fresh = cold_time(cal, g,
                                              lambda h: [from_syllables(h, w) for w in batch])
            best, best_raw, nfs = best_time(
                cal, lambda: [from_syllables(fresh, w).piling for w in batch])
            words.append({"fixture": name, "letters": n, "words": WORDS,
                          "cold_s": round(cold, 6), "best_s": round(best, 6),
                          "cold_s_raw": round(cold_raw, 6), "best_s_raw": round(best_raw, 6),
                          "nf_digest": digest(nfs)})
            print(f"{name:8} {n:>6} {cold * 1000:>10.2f} cold {best * 1000:>10.2f} ms "
                  f"from_syllables x{WORDS}", flush=True)

    tables = []
    for name in TABLE_FIXTURES:
        row = table_at_bound(name, seed)
        tables.append(row)
        print(f"{name:8} table {row['strata']:>6} strata {row['moves']:>7} moves "
              f"{row['entries']:>7} entries {row['table_mb']:>7.3f} MB "
              f"{'at the bound' if row['reached_bound'] else 'below the bound'}", flush=True)

    passes = wordproblem_passes(seed)
    for n in range(WORDPROBLEM_PASSES):
        done = [r for r in passes if r["pass"] == n]
        print(f"wordproblem pass {n}: {sum(r['fresh_searches'] for r in done):>7} fresh searches, "
              f"{sum(r['replaced'] for r in done):>3} tables replaced", flush=True)

    kernels = []
    for n in KERNEL_SIZES:
        g = kjn_graph(n)
        best, best_raw, k = best_time(cal, lambda: Kernel(g))
        entries = len(k.adj) + len(k.mu) + sum(len(table) for table in k.pw)
        kernels.append({"graph": f"kjn_graph({n})", "vertices": len(g.vertices),
                        "entries": entries, "best_s": round(best, 6),
                        "best_s_raw": round(best_raw, 6)})
        print(f"kjn({n}) {len(g.vertices):>6} vertices {best * 1000:>8.2f} ms compile", flush=True)

    starts = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "gar3.json"
        path.write_text(dump_graph(fixture("GAR3")))
        for label, argv in (("nf GAR3", ["nf", str(path), "x y z"]), ("f nf", ["f", "nf", "0 inf"])):
            times, raws = cold_start_ms(cal, argv)
            starts.append({"command": label, "runs_ms": times,
                           "median_ms": statistics.median(times), "runs_ms_raw": raws,
                           "median_ms_raw": statistics.median(raws)})
            print(f"{label:8} {statistics.median(times):>8.1f} ms cold start "
                  f"(median of {COLD_STARTS})", flush=True)

    return {"normalize": rows, "critical_pairs": pairs, "strategy_independence": samples,
            "from_syllables": words, "step_tables": tables, "wordproblem_passes": passes,
            "kernel_compile": kernels, "cli_cold_start": starts}


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--out", required=True, help="path of the JSON record")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    with Calibrator() as cal:
        rows = measure(cal, args.seed)
    record = {
        "commit": commit(),
        "host": f"{platform.platform()}, {os.cpu_count()} cpus, "
                f"Python {platform.python_version()}",
        "seed": args.seed,
        "repeats": REPEATS,
        "median_probe_s": round(cal.median_probe(), 6),
        **rows,
    }
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
