#!/usr/bin/env python3
"""Seeded benchmark for the trickle engine.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ./src.
Workloads: wordproblem, algebra, confluence, thompson (see README.md in
this directory).

One process, one closed-loop client: each op starts when the previous
one has answered.  Inputs are generated before timing starts, whole
blocks of ops run until the time is up, every answer is then checked,
and the CLI calls run one at a time at the end.  The last line of
standard output is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; earlier lines carry failure witnesses and a
``record:`` line with the run record.

Reported times are corrected for the speed of a shared host by a
calibration probe (calibration.py); the record keeps the uncorrected
ones.  With ``--trace 1`` the run executes the digest block once without
tracing, then a fixed number of blocks with every layer wrapped (see
tracing.py), and prints the per-layer metrics, the tracing overhead and
the share of op time no wrapped span covers.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from calibration import Calibrator  # noqa: E402
from workloads import BUILDERS  # noqa: E402

MODULES = ("graph", "dyadic", "pilings", "syllabic", "parabolic", "garside",
           "confluence", "families", "vjn", "thompson", "jsonio")
SETUP_REPS = 3
IMPORT_PROBES = 5
PERCENTILES = (99, 95, 90, 75, 50)
CLI_TIMEOUT = 60


def import_library():
    """Fresh import of every trickle module from ./src."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "trickle" or m.startswith("trickle.")]:
        del sys.modules[name]
    lib = SimpleNamespace(**{m: importlib.import_module(f"trickle.{m}") for m in MODULES})
    origin = Path(lib.pilings.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise RuntimeError("trickle was imported from outside ./src")
    return lib


def percentile(values, p):
    """Nearest-rank percentile and the number of samples above it."""
    s = sorted(values)
    idx = max(0, -(-p * len(s) // 100) - 1)
    return s[idx], len(s) - idx - 1


def tail(values, nominal):
    """The nominal percentile, or the highest lower one with ten samples beyond it."""
    for p in (nominal,) + tuple(q for q in PERCENTILES if q < nominal):
        value, beyond = percentile(values, p)
        if beyond >= 10:
            return p, value, beyond
    value, beyond = percentile(values, 50)
    return 50, value, beyond


def digest(lines):
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode("utf-8", "backslashreplace"))
        h.update(b"\n")
    return h.hexdigest()[:16]


def source_digest():
    return digest(p.read_text(encoding="utf-8") for p in sorted((SRC / "trickle").glob("*.py")))


def commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        path = ROOT / ".git" / ref[5:]
        if path.is_file():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return None


class Runner:
    """Executes blocks of ops and keeps every result and time span."""

    def __init__(self, workload):
        self.wl = workload
        self.executions = []          # (block, index, result, error)
        self.op_spans = []            # (start, end) of each execution
        self.block_spans = []

    def run(self, seconds=None, blocks=None, tracer=None):
        """Whole blocks until ``seconds`` have passed, or exactly ``blocks``."""
        wl = self.wl
        start = perf_counter()
        done = 0
        while True:
            b = done % len(wl.blocks)
            t_block = perf_counter()
            for i, op in enumerate(wl.blocks[b]):
                t0 = perf_counter()
                try:
                    out = op.fn() if tracer is None else tracer.run_op((b, i), op.fn)
                    err = None
                except Exception as e:  # every failure is counted, the run goes on
                    out, err = None, f"{type(e).__name__}: {e}"
                self.op_spans.append((t0, perf_counter()))
                self.executions.append((b, i, out, err))
            self.block_spans.append((t_block, perf_counter()))
            done += 1
            if blocks is not None:
                if done >= blocks:
                    break
            elif perf_counter() - start >= seconds:
                break
        return done

    def tagged(self, latencies):
        out = {}
        for (b, i, _, _), dt in zip(self.executions, latencies):
            tag = self.wl.blocks[b][i].tag
            if tag:
                out.setdefault(tag, []).append(dt)
        return out


def timings(cal, spans):
    """Corrected and raw durations of the spans; raw twice without a calibrator."""
    if cal is None:
        raw = [end - start for start, end in spans]
        return raw, raw
    pairs = [cal.correct(start, end) for start, end in spans]
    return [c for c, _ in pairs], [r for _, r in pairs]


def verify(workload, executions, seed, witness):
    """Check every execution; returns (failures, answers by op key)."""
    answers, verdicts = {}, {}
    failed = 0
    for b, i, out, err in executions:
        op = workload.blocks[b][i]
        key = (b, i)
        if err is None:
            try:
                text = op.render(out)
            except Exception as e:
                text, err = None, f"render raised {type(e).__name__}: {e}"
        if err is None:
            if key not in answers:
                answers[key] = text
                try:
                    verdicts[key] = op.check(out)
                except Exception as e:
                    verdicts[key] = f"check raised {type(e).__name__}: {e}"
            elif answers[key] != text:
                err = "answer differs from an earlier execution of the same op"
            err = err or verdicts[key]
        else:
            answers.setdefault(key, f"error: {err}")
        if err:
            failed += 1
            witness(f"witness: workload={workload.name} seed={seed} op={b}.{i} "
                    f"kind={op.kind} error={err} input={op.inputs!r}")
    return failed, answers


def answer_digest(workload, answers):
    return digest(answers.get((0, i), "missing") for i in range(len(workload.blocks[0])))


def inputs_digest(workload):
    return digest(repr(op.inputs) for block in workload.blocks for op in block)


def run_cli(workload, env):
    """Sequential CLI subprocesses; (spans, completed processes or errors)."""
    spans, results = [], []
    for call in workload.cli:
        t0 = perf_counter()
        try:
            results.append(subprocess.run([sys.executable, "-m", "trickle.cli", *call.args],
                                          cwd=ROOT, env=env, capture_output=True, text=True,
                                          timeout=CLI_TIMEOUT))
        except subprocess.SubprocessError as e:
            results.append(f"{type(e).__name__}: {e}")
        spans.append((t0, perf_counter()))
    return spans, results


def check_cli(workload, results, seed, witness):
    failed = 0
    for n, (call, proc) in enumerate(zip(workload.cli, results)):
        if isinstance(proc, str):
            msg = proc
        else:
            try:
                msg = call.check(proc)
            except Exception as e:
                msg = f"check raised {type(e).__name__}: {e}"
        if msg:
            failed += 1
            witness(f"witness: workload={workload.name} seed={seed} cli={n} "
                    f"error={msg} input=trickle {' '.join(call.args)}")
    return failed


def import_probe(env):
    """Seconds to import trickle.cli in a fresh interpreter (median)."""
    code = "import time; t = time.perf_counter(); import trickle.cli; print(time.perf_counter() - t)"
    out = []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=CLI_TIMEOUT)
        if proc.returncode == 0:
            out.append(float(proc.stdout.strip()))
    return statistics.median(out) if out else 0.0


def metric(value, unit):
    return {"value": value, "unit": unit}


def setup(name, seed, tmp, reps, tracer=None):
    """Import, build fixtures, write CLI files, generate inputs; ``reps`` times."""
    spans = []
    for _ in range(reps):
        gc.collect()
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir(parents=True)
        t0 = perf_counter()
        lib = import_library()
        if tracer is not None:
            tracing.install(tracer, lib)
        workload = BUILDERS[name](lib, seed, tmp)
        spans.append((t0, perf_counter()))
    return lib, workload, spans


def timing_metrics(wl, latencies, block_times, setup_times, cli_times):
    _, tail_value, _ = tail(latencies, wl.tail_percentile)
    return {
        "setup_s": metric(statistics.median(setup_times), "s"),
        "ops_per_s": metric(len(latencies) / sum(block_times), "1/s"),
        "op_p50_ms": metric(statistics.median(latencies) * 1e3, "ms"),
        "op_tail_ms": metric(tail_value * 1e3, "ms"),
        "verdict_s": metric(statistics.fmean(block_times), "s"),
        "cli_ms": metric(statistics.median(cli_times) * 1e3, "ms"),
    }


def by_tag(runner, latencies):
    return {tag: round(statistics.median(v) * 1e3, 3)
            for tag, v in sorted(runner.tagged(latencies).items())}


def untraced(args, tmp, env, witness):
    with Calibrator() as cal:
        lib, wl, setup_spans = setup(args.workload, args.seed, tmp, SETUP_REPS)
        runner = Runner(wl)
        blocks = runner.run(seconds=args.seconds)
        cli_spans, cli_results = run_cli(wl, env)
    failed, answers = verify(wl, runner.executions, args.seed, witness)
    failed += check_cli(wl, cli_results, args.seed, witness)

    corrected, raw = zip(*(timings(cal, spans) for spans in (
        runner.op_spans, runner.block_spans, setup_spans, cli_spans)))
    metrics = timing_metrics(wl, *corrected)
    metrics["peak_rss_mb"] = metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    p, _, beyond = tail(corrected[0], wl.tail_percentile)
    attempted = len(runner.executions) + len(cli_spans)
    record = {
        "blocks": blocks, "ops_per_block": len(wl.blocks[0]),
        "passes": round(blocks / len(wl.blocks), 3), "samples": len(corrected[0]),
        "tail_percentile": p, "tail_samples_beyond": beyond,
        "probe_ms": round(cal.median_probe() * 1e3, 4), "probes": len(cal.durations),
        "uncorrected": {k: v["value"] for k, v in timing_metrics(wl, *raw).items()},
        "setup_s_each": [round(t, 4) for t in corrected[2]], "cli_calls": len(cli_spans),
        "inputs_digest": inputs_digest(wl), "answers_digest": answer_digest(wl, answers),
        "latency_p50_ms_by_tag": by_tag(runner, corrected[0]),
    }
    if wl.name == "confluence":
        record["pairs_per_s"] = pairs_per_s(wl, runner, corrected[0])
    return attempted, failed, metrics, record


def pairs_per_s(wl, runner, latencies):
    pairs = seconds = 0.0
    for (b, i, out, err), dt in zip(runner.executions, latencies):
        if err is None and wl.blocks[b][i].kind == "critical-pairs":
            pairs += out.pairs_checked
            seconds += dt
    return pairs / seconds if seconds else 0.0


def traced(args, tmp, env, witness):
    tracer = tracing.Tracer()
    lib, wl, _ = setup(args.workload, args.seed, tmp, 1, tracer)
    setup_layers = {
        "families.build.s": tracer.total_s["families.build"],
        "vjn.kjn_graph.s": tracer.total_s["vjn.kjn_graph"],
        "jsonio.load_graph.s": tracer.total_s["jsonio.load_graph"],
    }
    tracer.uninstall()
    tracer.reset()

    plain = Runner(wl)
    traced_runner = Runner(wl)
    with Calibrator(tracer.exclude) as cal:
        plain.run(blocks=1)
        tracing.install(tracer, lib)
        try:
            blocks = traced_runner.run(blocks=wl.trace_blocks, tracer=tracer)
        finally:
            tracer.uninstall()

    failed, plain_answers = verify(wl, plain.executions, args.seed, witness)
    traced_failed, traced_answers = verify(wl, traced_runner.executions, args.seed, witness)
    failed += traced_failed
    plain_digest = answer_digest(wl, plain_answers)
    traced_digest = answer_digest(wl, traced_answers)
    if plain_digest != traced_digest:
        failed += 1
        witness(f"witness: workload={wl.name} seed={args.seed} traced answer digest "
                f"{traced_digest} differs from the untraced {plain_digest}")

    (plain_block0,), _ = timings(cal, plain.block_spans)
    block_times, _ = timings(cal, traced_runner.block_spans)
    metrics = layer_metrics(tracer, traced_runner, wl, block_times[0] / plain_block0 - 1, cal)
    for name, value in setup_layers.items():
        metrics[name] = metric(value, "s")
    metrics["cli.import_s"] = metric(import_probe(env), "s")
    attempted = len(plain.executions) + len(traced_runner.executions)
    record = {
        "traced_blocks": blocks, "traced_s": round(sum(block_times), 3),
        "untraced_block0_s": round(plain_block0, 4), "traced_block0_s": round(block_times[0], 4),
        "inputs_digest": inputs_digest(wl), "answers_digest": traced_digest,
        "untraced_answers_digest": plain_digest,
        "spans_kept": len(tracer.spans), "spans_dropped": tracer.spans_dropped,
    }
    write_spans(tracer, args)
    return attempted, failed, metrics, record


LAYER_CALLS = ("graph.edge", "graph.phi", "graph.phi_pow", "graph.sort_key",
               "thompson.h_apply", "thompson.level", "pilings.normalize",
               "pilings.push_syllable", "pilings.stratum_can_add", "pilings.mul",
               "garside.left_divides")
LAYER_SELF = ("graph.phi_pow", "thompson.h_apply", "pilings.normalize",
              "pilings.from_syllables", "pilings.mul", "pilings.inverse", "pilings.pow",
              "syllabic.syllabic_reduce", "parabolic.member", "garside.left_divides",
              "garside.atom_divisors", "vjn.vjn_encode")
LAYER_TOTAL = ("confluence.enumerate_strata", "confluence.check_critical_pairs",
               "confluence.check_strategy_independence")
LENGTH_TAGS = ("len50", "len200", "len800")
POWER_TAGS = ("k50", "k100", "k200")


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(tracer, runner, wl, overhead, cal):
    c = tracer.calls
    m = {f"{name}.calls": metric(c[name], "count") for name in LAYER_CALLS}
    m.update({f"{name}.self_s": metric(tracer.self_s[name], "s") for name in LAYER_SELF})
    m.update({f"{name}.s": metric(tracer.total_s[name], "s") for name in LAYER_TOTAL})
    m["pilings.normalize.strata_in"] = metric(c["pilings.normalize.strata_in"], "count")
    m["pilings.push_syllable.landed_ratio"] = metric(
        _ratio(c["pilings.push_syllable.landed"], c["pilings.push_syllable"]), "ratio")
    m["pilings.nf_letters.letters"] = metric(c["pilings.nf_letters.letters"], "count")
    pairs = sum(out.pairs_checked for b, i, out, err in runner.executions
                if err is None and wl.blocks[b][i].kind == "critical-pairs")
    m["confluence.pairs_checked"] = metric(pairs, "count")
    m["confluence.pairs_per_s"] = metric(
        _ratio(pairs, tracer.total_s["confluence.check_critical_pairs"]), "1/s")
    m["confluence.mult.lookups"] = metric(c["confluence.mult.lookups"], "count")
    m["confluence.mult.hit_ratio"] = metric(
        1 - _ratio(c["confluence.mult.misses"], c["confluence.mult.lookups"])
        if c["confluence.mult.lookups"] else 0.0, "ratio")
    for tag in LENGTH_TAGS:
        v = tracer.durations.get(f"pilings.from_syllables.{tag}") if wl.name == "wordproblem" else None
        m[f"pilings.from_syllables.p50_ms.{tag}"] = metric(
            statistics.median(v) * 1e3 if v else 0.0, "ms")
    _, latencies = timings(cal, runner.op_spans)
    tagged = runner.tagged(latencies) if wl.name == "thompson" else {}
    for tag in POWER_TAGS:
        v = tagged.get(tag)
        m[f"thompson.nf.p50_ms.{tag}"] = metric(statistics.median(v) * 1e3 if v else 0.0, "ms")
    block_times, _ = timings(cal, runner.block_spans)
    m["trace.ops_per_s"] = metric(len(latencies) / sum(block_times), "1/s")
    m["trace.overhead"] = metric(overhead, "ratio")
    m["trace.uncovered_share"] = metric(
        1 - _ratio(tracer.op_covered, tracer.op_time), "ratio")
    return m


def write_spans(tracer, args):
    out = ROOT / ".perfbench" / f"spans-{args.workload}-{args.seed}.jsonl"
    with open(out, "w", encoding="utf-8") as fh:
        for span_id, name, start, end, parent, op in tracer.spans:
            fh.write(json.dumps({"id": span_id, "name": name, "start": start, "end": end,
                                 "parent": parent, "op": list(op) if op else None}) + "\n")


def witness(line):
    print(line, flush=True)


def pin_cpu():
    """Keep the run and its CLI children on the CPU it started on, so the
    calibration probes time the CPU the work runs on."""
    try:
        fields = Path("/proc/self/stat").read_text().rsplit(")", 1)[1].split()
        os.sched_setaffinity(0, {int(fields[36])})
    except (OSError, ValueError, IndexError):
        pass


def main(argv=None):
    ap = argparse.ArgumentParser(description="Seeded benchmark for the trickle engine.")
    ap.add_argument("--workload", required=True, choices=sorted(BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "trickle" / "__init__.py").is_file():
        print(f"error: no trickle package under ./src of {ROOT.name}", file=sys.stderr)
        return 2

    tmp = ROOT / ".perfbench" / f"run-{os.getpid()}"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    nproc = len(os.sched_getaffinity(0))
    pin_cpu()
    try:
        run = traced if args.trace else untraced
        attempted, failed, metrics, record = run(args, tmp, env, witness)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "clients": 1, "loop": "closed",
        "commit": commit(), "source_digest": source_digest(),
        "python": platform.python_version(), "nproc": nproc,
        "platform": platform.platform(), "fail_ratio": failed / attempted,
        **record,
    }
    print("record: " + json.dumps(record), flush=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
