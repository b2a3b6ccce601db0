import contextlib
import decimal
import io
import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from trickle.cli import MAX_SAMPLES, main
from trickle.confluence import MAX_STRATA
from trickle.dyadic import MAX_PARSED_EXP
from trickle.families import cactus, dual_cactus_s3, gar3, raag
from trickle.graph import TrickleGraph
from trickle.jsonio import dump_graph


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    base = tmp_path_factory.mktemp("graphs")
    out = {}
    out["j3"] = base / "j3.json"
    out["j3"].write_text(dump_graph(cactus(3)))
    out["gar3"] = base / "gar3.json"
    out["gar3"].write_text(dump_graph(gar3()))
    out["j4"] = base / "j4.json"
    out["j4"].write_text(dump_graph(cactus(4)))
    out["cstar"] = base / "cstar.json"
    out["cstar"].write_text(dump_graph(dual_cactus_s3()))
    k2 = TrickleGraph.build(["x", "y"], {"x": 2, "y": 3}, [("x", "y")], [("y", "x")])
    out["k2"] = base / "k2.json"
    out["k2"].write_text(dump_graph(k2))
    broken = {"vertices": [{"id": "x", "mu": 2}, {"id": "y", "mu": 2}],
              "edges": [], "less": [["y", "x"]], "phi": {}}
    out["broken"] = base / "broken.json"
    out["broken"].write_text(json.dumps(broken))
    # a 3,000-character vertex id: alone (complete, mu infinite) and beside
    # a vertex it has no edge to
    for name, others in (("long-complete", []), ("long-missing", ["b"])):
        doc = {"vertices": [{"id": v, "mu": "inf"} for v in [LONG_ID, *others]], "edges": []}
        out[name] = base / f"{name}.json"
        out[name].write_text(json.dumps(doc))
    return {k: str(v) for k, v in out.items()}


LONG_ID = "v" * 3000


def invoke(args):
    """Run ``main`` in process: (exit code, stdout and stderr as written, in order)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        try:
            code = main(list(args))
        except SystemExit as e:
            code = e.code
    return code or 0, out.getvalue()


def run(*args, code=0):
    exit_code, output = invoke(args)
    assert exit_code == code, output
    return output


def test_validate(paths):
    out = run("validate", paths["j3"])
    assert out.strip() == "valid"
    out = run("validate", paths["broken"], code=2)
    assert "axiom (a)" in out and "'y', 'x'" in out


def test_eq(paths):
    out = run("eq", paths["j3"], "[1,3] [1,2]", "[2,3] [1,3]")
    assert out.strip() == "equal"
    run("eq", paths["j3"], "[1,2]", "[2,3]", code=1)
    run("eq", paths["j3"], "[1,2]", "bogus", code=2)


def test_nf_round_trips_through_eq(paths):
    out = run("nf", paths["j3"], "[1,2] [1,3]")
    assert out.splitlines()[0].startswith("ranking:")
    word = out.splitlines()[1].removeprefix("nf: ")
    run("eq", paths["j3"], "[1,2] [1,3]", word)


def test_nf_keeps_large_exponents(paths):
    out = run("nf", paths["gar3"], "x^99999999999 y")
    assert out.splitlines()[1] == "nf: x^99999999999 y"


def test_nf_order_override(paths):
    plain = run("nf", paths["gar3"], "y z")
    swapped = run("nf", paths["gar3"], "y z", "--order-override", "z,y,x")
    assert plain.splitlines()[1] == "nf: z y"
    assert swapped.splitlines()[1] == "nf: y z"
    run("nf", paths["gar3"], "x", "--order-override", "x,y,z", code=2)


def test_order(paths):
    assert run("order", paths["k2"]).strip() == "finite, order 6"
    assert "infinite" in run("order", paths["j3"])


def test_member(paths):
    run("member", paths["j3"], "[1,3] [1,2] [1,3]", "--vertices", "[1,2],[2,3]")
    run("member", paths["j3"], "[1,3]", "--vertices", "[1,2],[2,3]", code=1)
    run("member", paths["j3"], "[1,2]", "--vertices", "[1,2],[1,3]", code=2)


def test_tits_reduce(paths):
    out = run("tits-reduce", paths["gar3"], "x y y^-1")
    assert out.strip() == "x"
    out = run("tits-reduce", paths["j3"], "[2,3] [1,3]")
    assert out.strip() == "[1,3] [1,2]"


def test_tits_reduce_reads_exponents_mod_mu(paths):
    # as nf and eq do: x^mu(x) is the identity, and x^0 is no token
    assert run("tits-reduce", paths["j3"], "[1,2]^2").strip() == "(identity)"
    assert run("nf", paths["j3"], "[1,2]^2").endswith("nf: (identity)\n")
    assert run("tits-reduce", paths["j3"], "[1,2]^3 [2,3]").strip() == "[1,2] [2,3]"
    out = run("tits-reduce", paths["j3"], "[1,2]^0", code=2)
    assert out == "error: zero exponent in token '[1,2]^0'\n"


def test_garside(paths, tmp_path):
    out = run("garside", paths["gar3"])
    assert "delta: x z y" in out and "square-free elements: 8" in out
    run("garside", paths["j3"], code=2)
    path = tmp_path / "p3.json"
    path.write_text(run("example", "raag", "--n", "3"))
    assert run("garside", str(path), code=1) == "not Garside: the graph is not finite and complete\n"


def test_divisors(paths):
    assert run("divisors", paths["gar3"], "x y").strip() == "x z"
    assert run("divisors", paths["gar3"], "x y", "--side", "right").strip() == "x y"


def test_lcm(paths):
    assert run("lcm", paths["gar3"], "--atoms", "x,y").strip() == "x z"
    run("lcm", paths["gar3"], "--atoms", "x,w", code=2)


K22 = [f"v{i}" for i in range(1, 23)]


def test_garside_and_lcm_on_a_22_vertex_complete_raag(tmp_path):
    # 2**22 square-free elements: the lcm is built and the count is 2**n,
    # so each command answers at once instead of scanning them
    path = tmp_path / "k22.json"
    path.write_text(dump_graph(raag(K22, list(itertools.combinations(K22, 2)))))
    result = _python("-m", "trickle.cli", "lcm", str(path), "--atoms", ",".join(K22),
                     timeout=10)
    assert result.returncode == 0, result.stderr
    assert sorted(result.stdout.split()) == sorted(K22)
    result = _python("-m", "trickle.cli", "garside", str(path), timeout=10)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[2] == f"square-free elements: {2 ** 22}"


def test_f_words_may_start_with_a_minus_sign_without_the_separator():
    assert run("f", "nf", "-1/2").strip() == "-1/2"
    assert run("f", "eq", "0", "-1/2", code=1).strip() == "not equal"
    assert run("f", "eq", "-1/2^-3", "--", "-1/2^-3").strip() == "equal"


def test_confluence(paths):
    out = run("confluence", paths["j3"], "--samples", "50")
    assert "unresolved: 0" in out


def test_confluence_failure(tmp_path):
    import sys
    sys.path.insert(0, "tests")
    from corrupt import broken_g
    path = tmp_path / "bad.json"
    path.write_text(dump_graph(broken_g()))
    exit_code, output = invoke(["confluence", str(path), "--samples", "0", "--max-exp", "1"])
    assert exit_code == 1
    assert "unresolved" in output


def test_confluence_report_lists_divergent_samples(tmp_path):
    from corrupt import broken_g
    path = tmp_path / "broken_g.json"
    path.write_text(dump_graph(broken_g()))
    exit_code, output = invoke(["confluence", str(path), "--max-support", "2",
                                "--max-exp", "1", "--samples", "40"])
    assert exit_code == 1
    lines = output.splitlines()
    at = lines.index("random pilings checked: 40, divergent: 2")
    assert lines[at + 1:] == [
        "  ((('z3', 1),), (('x', -1), ('z1', -1)), (('y', -1),), (('z3', -1),))"
        " reached 4 distinct irreducible forms",
        "  ((('y', -1), ('z2', 1)), (('x', -1), ('y', -1))) reached 2 distinct irreducible forms",
    ]


@pytest.mark.parametrize("graph, bound", [
    ("gar3", ["--max-exp", "0"]),
    ("gar3", ["--max-support=-1"]),
    ("j4", ["--max-support", "0"]),
], ids=["max-exp-0", "max-support-negative", "max-support-0"])
def test_confluence_rejects_bounds_below_one(paths, graph, bound):
    out = run("confluence", paths[graph], *bound, code=2)
    assert len(out.splitlines()) == 1
    assert out.startswith("error: max_support and max_exp must be at least 1")


def test_confluence_refuses_a_huge_exponent_bound(paths):
    out = run("confluence", paths["gar3"], "--max-exp", "1000000000", "--samples", "1",
              code=2)
    assert len(out.splitlines()) == 1
    assert out.startswith(f"error: more than {MAX_STRATA} strata")


def test_confluence_refuses_a_large_graph(tmp_path):
    path = tmp_path / "raag2000.json"
    path.write_text(run("example", "raag", "--n", "2000"))
    out = run("confluence", str(path), code=2)
    assert len(out.splitlines()) == 1
    assert out.startswith(f"error: more than {MAX_STRATA} strata")


@pytest.mark.parametrize("samples", [str(MAX_SAMPLES + 1), "100000000000000000000"])
def test_confluence_refuses_too_many_samples(paths, samples):
    t0 = time.perf_counter()
    out = run("confluence", paths["gar3"], "--samples", samples, "--max-support", "1",
              "--max-exp", "1", code=2)
    assert time.perf_counter() - t0 < 5
    assert out == f"error: --samples {samples} is above the bound {MAX_SAMPLES}\n"


@pytest.mark.parametrize("option", [["--samples", "-5"], ["--samples=-1"]],
                         ids=["samples-5", "samples-1"])
def test_confluence_rejects_negative_samples(paths, option):
    out = run("confluence", paths["j4"], *option, "--max-support", "1", "--max-exp", "1",
              code=2)
    samples = option[-1].split("=")[-1]
    assert out == f"error: --samples {samples} is below 0\n"


def test_confluence_refuses_negative_samples_before_loading_the_graph(tmp_path):
    # the critical-pair check would run first, and a missing file would be
    # the error, if the graph were loaded before the count is read
    out = run("confluence", str(tmp_path / "missing.json"), "--samples", "-1", code=2)
    assert out == "error: --samples -1 is below 0\n"


ROOT = Path(__file__).resolve().parents[1]


def _python(*args, timeout=60, stdin=None, **env):
    """Run a fresh interpreter on this checkout's sources, as a user would,
    with the text ``stdin`` as its input; a run past the timeout fails the
    test instead of hanging it."""
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          timeout=timeout, input=stdin)


@pytest.mark.parametrize("option", [["--samples", "-1"], ["--strategies", "-2"]],
                         ids=["samples-negative", "strategies-negative"])
def test_sweep_rejects_negative_counts(option):
    result = _python(str(ROOT / "scripts" / "confluence_sweep.py"), "J3",
                     "--max-support", "1", "--max-exp", "1", *option)
    assert result.returncode == 2 and result.stdout == ""
    bound = 0 if option[0] == "--samples" else 1
    assert result.stderr == f"error: {option[0]} {option[1]} is below {bound}\n"


@pytest.mark.parametrize("samples", [str(MAX_SAMPLES + 1), "100000000000000000000"])
def test_sweep_refuses_too_many_samples(samples):
    t0 = time.perf_counter()
    result = _python(str(ROOT / "scripts" / "confluence_sweep.py"), "J3", "--samples", samples,
                     "--max-support", "1", "--max-exp", "1")
    assert time.perf_counter() - t0 < 5
    assert result.returncode == 2 and result.stdout == ""
    assert result.stderr == f"error: --samples {samples} is above the bound {MAX_SAMPLES}\n"


@pytest.mark.parametrize("script, args", [
    ("confluence_sweep.py", ["--samples", "x"]),
    ("confluence_sweep.py", ["--samp", "5", "J3"]),
    ("confluence_sweep.py", ["J3", "NOPE", "--max-support", "1", "--max-exp", "1"]),
    ("confluence_sweep.py", ["J3", "x" * 3000]),
    ("garside_tables.py", ["a", "b"]),
    ("garside_tables.py", ["--bogus"]),
], ids=["sweep-samples-not-int", "sweep-option-prefix", "sweep-unknown-fixture",
        "sweep-unknown-fixture-long", "garside-tables-extra-argument", "garside-tables-unknown-option"])
def test_scripts_usage_error_is_one_error_line_and_exit_2(script, args):
    # as the trickle command line: nothing on stdout, the sweep's header included
    result = _python(str(ROOT / "scripts" / script), *args)
    assert result.returncode == 2 and result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), result.stderr
    assert len(lines[0]) <= 300


def test_garside_tables_refuses_finite_labels(paths):
    result = _python(str(ROOT / "scripts" / "garside_tables.py"), paths["j3"])
    assert result.returncode == 1
    assert result.stderr == "the graph is not finite, complete and torsion-free\n"


def test_garside_tables_reports_an_unreadable_file(tmp_path):
    result = _python(str(ROOT / "scripts" / "garside_tables.py"), str(tmp_path / "missing.json"))
    assert result.returncode == 2
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: cannot read"), result.stderr


BAD_GRAPHS = {
    "vertices-int": b'{"vertices": 5, "edges": []}',
    "vertices-null": b'{"vertices": null, "edges": []}',
    "pair-entry-list": b'{"vertices": [{"id": "a", "mu": 2}], "edges": [[["a"], "a"]]}',
    "deep-nesting": b"[" * 100_000 + b"]" * 100_000,
    "not-utf8": b"\xff\xfe{}",
    "huge-number": b'{"vertices": ' + b"7" * 5000 + b', "edges": []}',
    "deep-edge-entry": b'{"vertices": [], "edges": [' + b"[" * 960 + b"]" * 960 + b"]}",
}

SWEEP = str(ROOT / "scripts" / "confluence_sweep.py")

# 2**15000 in decimal, 4,516 digits: past int()'s 4300-digit limit
HUGE_DENOMINATOR = str(decimal.Context(prec=5000).power(2, 15000))


@pytest.mark.parametrize("args", [
    *(["nf", name, "a"] for name in BAD_GRAPHS),
    ["f", "nf", "1/3"],
    ["f", "eq", "0 inf", "x/y"],
    ["f", "nf", "0 1/" + HUGE_DENOMINATOR],
    ["eq", "j3", "[1,2]", "bogus"],
    ["example", "raag", "--n", "0"],
    ["example", "racg", "--n", "-1", "--cycle"],
    ["example", "kjn", "--n", "7"],
    ["example", "gp"],
    ["vjn", "eq", "--n", "7", "r1", "r1"],
    ["example", "cactus", "--n", "200"],
    ["example", "raag", "--n", "10000"],
    ["f", "nf", "--", "-1/2 0^2000000"],
    ["divisors", "long-complete", LONG_ID + "^-1"],
    ["example", LONG_ID],
    ["nf", "gar3", "x", LONG_ID],
    [SWEEP, LONG_ID],
], ids=[*BAD_GRAPHS, "f-nf-not-dyadic", "f-eq-not-a-number", "f-nf-huge-denominator",
        "eq-unknown-token", "example-raag-n-0", "example-racg-cycle-n-negative",
        "example-kjn-n-7", "example-gp-no-base", "vjn-eq-n-7", "example-cactus-n-200", "example-raag-n-10000",
        "f-nf-power-past-the-cap", "divisors-not-positive-long-id",
        "example-unknown-family-long", "nf-extra-argument-long", "sweep-unknown-fixture-long"])
def test_bad_input_is_one_error_line_and_exit_2(tmp_path, paths, args):
    files = dict(paths)
    for name in BAD_GRAPHS.keys() & set(args):
        files[name] = tmp_path / "bad.json"
        files[name].write_bytes(BAD_GRAPHS[name])
    program = [] if args[0] == SWEEP else ["-m", "trickle.cli"]
    result = _python(*program, *(str(files.get(a, a)) for a in args))
    assert result.returncode == 2
    assert "Traceback" not in result.stdout + result.stderr
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), result.stderr
    assert len(lines[0]) <= 300


@pytest.mark.parametrize("args, message", [
    (["nf", "gar3"], "the following arguments are required: word"),
    (["order", "gar3", "extra"], "unrecognized arguments: extra"),
    (["confluence", "gar3", "--samples", "x"], "argument --samples: invalid int value: 'x'"),
    (["example", "raag", "--n", "3.5"], "argument --n: invalid int value: '3.5'"),
    (["bogus"], "argument COMMAND: invalid choice: 'bogus'"),
    (["nf", "gar3", "x", "--bogus"], "unrecognized arguments: --bogus"),
    (["confluence", "gar3", "--samp", "5"], "unrecognized arguments: --samp 5"),
    (["divisors", "gar3", "x", "--side", "up"], "argument --side: invalid choice: 'up'"),
    (["example", "nope"], "argument family: invalid choice: 'nope'"),
    ([], "the following arguments are required: COMMAND"),
], ids=["missing-argument", "extra-argument", "samples-not-an-int", "n-not-an-int",
        "unknown-command", "unknown-option", "abbreviated-option", "bad-side",
        "bad-family", "no-command"])
def test_usage_error_is_one_error_line_and_exit_2(paths, args, message):
    code, output = invoke([paths.get(a, a) for a in args])
    assert code == 2
    assert len(output.splitlines()) == 1 and output.startswith(f"error: {message}"), output


def test_usage_error_in_a_fresh_interpreter():
    result = _python("-m", "trickle.cli", "nf")
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == "error: the following arguments are required: graph_path, word\n"


def test_closed_stdout_is_one_error_line_and_exit_2():
    # `trickle example kjn --n 5 | true`: 288 kB, more than a pipe holds, so a
    # write fails once the reader has gone, whenever it goes
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen([sys.executable, "-m", "trickle.cli", "example", "kjn", "--n", "5"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    stderr = proc.communicate(timeout=60)[1].decode()
    assert proc.returncode == 2
    assert stderr == "error: standard output was closed\n"


def test_import_loads_no_command_module():
    # -S: a site hook may import modules of its own; the package must not
    code = ("import sys, trickle.cli; print(' '.join(sorted(m for m in sys.modules if m in "
            "('click', 'dataclasses', 'inspect', 'typing') or m.startswith('trickle'))))")
    result = _python("-S", "-c", code)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["trickle", "trickle.cli", "trickle.graph", "trickle.pilings"]


def test_verifier_parabolic_and_vjn_load_no_dataclasses():
    code = ("import sys, trickle.confluence, trickle.parabolic, trickle.vjn; print(' '.join("
            "sorted(m for m in ('dataclasses', 'inspect', 'typing') if m in sys.modules)))")
    result = _python("-S", "-c", code)
    assert (result.returncode, result.stdout) == (0, "\n"), result.stderr


@pytest.mark.parametrize("graph", ["long-complete", "long-missing"])
def test_order_bounds_a_long_vertex_id(paths, graph):
    # an infinite group is an answer, not an error: one short line, exit 0
    result = _python("-m", "trickle.cli", "order", paths[graph])
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert len(lines) == 1 and lines[0].startswith("infinite ("), result.stdout[:300]
    assert len(lines[0]) <= 300


def test_f_nf_far_power_prints_2_to_the_e_and_parses_back():
    word = "-1/2 0^1000000"
    result = _python("-m", "trickle.cli", "f", "nf", "--", word)
    assert (result.returncode, result.stdout) == (0, "0^1000000 -1/2**1000001\n"), result.stderr
    result = _python("-m", "trickle.cli", "f", "eq", "--", result.stdout.strip(), word)
    assert (result.returncode, result.stdout) == (0, "equal\n"), result.stderr


def test_f_nf_prints_a_numerator_past_the_digit_limit_in_hex():
    # the normal form holds (2**20000 + 1)/2**20000, 6,021 digits in decimal
    word = "-1/2**20000 inf^-1"
    result = _python("-m", "trickle.cli", "f", "nf", "--", word)
    assert result.returncode == 0, result.stderr
    assert result.stdout == f"inf^-1 -{hex((1 << 20000) + 1)}/2**20000\n"
    result = _python("-m", "trickle.cli", "f", "eq", "--", result.stdout.strip(), word)
    assert (result.returncode, result.stdout) == (0, "equal\n"), result.stderr


@pytest.mark.parametrize("e", [1_000_001, MAX_PARSED_EXP], ids=["e-1000001", "e-max"])
def test_f_nf_lifts_the_lowest_prefix_rung_of_a_long_ladder(e):
    # the ladder below -1/2**e has v_0 = -1 + 0.1...1 with e - 1 one digits;
    # conjugating -3/4 up from the lowest prefix rung cuts v_0 after its first
    # and second 1 (quadratic if the others were dropped one at a time)
    result = _python("-m", "trickle.cli", "f", "nf", "--", f"-3/4^-1 -1/2**{e}")
    assert (result.returncode, result.stdout) == (0, f"-1/2**{e} -3/8^-1\n"), result.stderr


def test_f_nf_past_the_argument_limit_goes_back_in_through_stdin():
    # 250,048 bytes, above the 128 KiB the system allows one argument
    word = "0^1000000 1/2^1000000 -3/4^-1000000"
    nf = _python("-m", "trickle.cli", "f", "nf", "--", word)
    assert nf.returncode == 0 and len(nf.stdout) == 250_048, nf.stderr
    again = _python("-m", "trickle.cli", "f", "nf", "-", stdin=nf.stdout)
    assert (again.returncode, again.stdout) == (0, nf.stdout), again.stderr
    for args in (["-", word], ["--", word, "-"]):
        result = _python("-m", "trickle.cli", "f", "eq", *args, stdin=nf.stdout)
        assert (result.returncode, result.stdout) == (0, "equal\n"), result.stderr
    result = _python("-m", "trickle.cli", "f", "eq", "-", "0", stdin=nf.stdout)
    assert (result.returncode, result.stdout) == (1, "not equal\n"), result.stderr


def test_f_eq_reads_at_most_one_word_from_stdin():
    result = _python("-m", "trickle.cli", "f", "eq", "-", "-", stdin="0 inf")
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == "error: at most one word may be read from stdin ('-')\n"


LONG_TOKEN = "a" * 5000
LONG_NUMBER = "9" * 1000


@pytest.mark.parametrize("args", [
    ["nf", "gar3", LONG_TOKEN],
    ["nf", "gar3", "x^" + LONG_TOKEN],
    ["nf", "gar3", LONG_TOKEN + "^0"],
    ["member", "gar3", "x", "--vertices", LONG_TOKEN],
    ["lcm", "gar3", "--atoms", LONG_TOKEN],
    ["divisors", "gar3", LONG_TOKEN],
    ["tits-reduce", "gar3", LONG_TOKEN],
    ["vjn", "eq", "--n", "3", LONG_TOKEN, "r1"],
    ["vjn", "eq", "--n", "3", f"x[1,{LONG_NUMBER}]", "r1"],
    ["vjn", "eq", "--n", "3", "r" + LONG_NUMBER, "r1"],
], ids=["nf-unknown-vertex", "nf-bad-exponent", "nf-zero-exponent", "member-vertices",
        "lcm-atoms", "divisors", "tits-reduce", "vjn-bad-token", "vjn-interval-range",
        "vjn-transposition-range"])
def test_error_lines_bound_long_tokens(paths, args):
    result = _python("-m", "trickle.cli", *(paths.get(a, a) for a in args))
    assert result.returncode == 2
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), result.stderr[:300]
    assert len(lines[0]) < 200


def test_validate_output_ignores_the_hash_seed(tmp_path):
    # set iteration order follows PYTHONHASHSEED; the witnesses must not
    doc = {"vertices": [{"id": v, "mu": 2} for v in "abcdx"],
           "edges": [["a", "x"], ["b", "x"], ["c", "x"], ["d", "x"], ["a", "b"], ["c", "d"]],
           "phi": {"x": [["a", "c"], ["c", "a"]], "a": [["b", "x"], ["x", "b"]],
                   "b": [["a", "x"], ["x", "x"]]}}
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    runs = [_python("-m", "trickle.cli", "validate", str(path), PYTHONHASHSEED=str(seed))
            for seed in range(4)]
    assert runs[0].returncode == 2 and "structural error" in runs[0].stdout
    assert all(r.stdout == runs[0].stdout and r.stderr == runs[0].stderr for r in runs)
    # the confluence report's witnesses and reached forms are pilings built
    # through sets
    from corrupt import broken_g
    path = tmp_path / "broken_g.json"
    path.write_text(dump_graph(broken_g()))
    runs = [_python("-m", "trickle.cli", "confluence", str(path), "--max-support", "2",
                    "--max-exp", "1", "--samples", "40", PYTHONHASHSEED=str(seed))
            for seed in range(4)]
    assert runs[0].returncode == 1 and "reached" in runs[0].stdout
    assert all(r.stdout == runs[0].stdout and r.stderr == runs[0].stderr for r in runs)


def test_star_map_error_bounds_a_long_vertex_id(tmp_path):
    # phi_x sends the long vertex and z both to z: the move in "z x" asks
    # phi_x, and the error names the preimages through reprlib
    long_id = "v" * 2000
    doc = {"vertices": [{"id": v, "mu": 2} for v in ("x", long_id, "z")],
           "edges": [["x", long_id], ["x", "z"]],
           "less": [[long_id, "x"], ["z", "x"]],
           "phi": {"x": [[long_id, "z"], ["z", "z"]]}}
    path = tmp_path / "long.json"
    path.write_text(json.dumps(doc))
    result = _python("-m", "trickle.cli", "nf", str(path), "z x")
    assert result.returncode == 2
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), result.stderr
    assert "is not injective" in lines[0] and len(lines[0]) < 200


def test_order_cycle_is_named_by_a_vertex_on_it(tmp_path):
    # "top" lies above the cycle a < b < c < a and "bottom" below it
    doc = {"vertices": [{"id": v, "mu": 2} for v in ["top", "a", "b", "c", "bottom"]],
           "edges": [["bottom", "a"], ["a", "b"], ["b", "c"], ["c", "a"], ["c", "top"]],
           "less": [["bottom", "a"], ["a", "b"], ["b", "c"], ["c", "a"], ["c", "top"]]}
    path = tmp_path / "cyclic.json"
    path.write_text(json.dumps(doc))
    runs = [_python("-m", "trickle.cli", "validate", str(path), PYTHONHASHSEED=str(seed))
            for seed in range(4)]
    assert all(r.returncode == 2 and r.stderr == runs[0].stderr for r in runs)
    named = runs[0].stderr.split("cycle through ")[1].strip()
    assert named in ("'a'", "'b'", "'c'")


def test_kjn_tuple_ids_in_vertex_lists(tmp_path):
    path = tmp_path / "kj3.json"
    path.write_text(run("example", "kjn", "--n", "3"))
    subset = ["--vertices", "(1,2,3),(1,2),(2,3)"]
    assert run("member", str(path), "(2,3) (1,2)", *subset).strip() == "member"
    run("member", str(path), "(2,1)", *subset, code=1)
    ranking = run("nf", str(path), "(1,2)").splitlines()[0].removeprefix("ranking: ")
    override = ",".join(ranking.split())
    out = run("nf", str(path), "(2,3) (1,2)", "--order-override", override)
    assert out.splitlines()[0] == "ranking: " + ranking


def test_example_emission_parses_back(tmp_path):
    for args in (["example", "gar3"], ["example", "cactus", "--n", "4"],
                 ["example", "racg", "--n", "5"], ["example", "raag", "--n", "4", "--cycle"],
                 ["example", "cstar"], ["example", "kjn", "--n", "3"]):
        out = run(*args)
        doc = json.loads(out)
        from trickle.jsonio import graph_from_dict
        from trickle.graph import validate
        assert validate(graph_from_dict(doc)).ok


def test_example_gp(tmp_path, paths):
    base = {"vertices": [{"id": "a", "mu": 3}, {"id": "b", "mu": "inf"}],
            "edges": [["a", "b"]]}
    p = tmp_path / "base.json"
    p.write_text(json.dumps(base))
    out = run("example", "gp", "--graph", str(p))
    doc = json.loads(out)
    assert doc["less"] == []
    run("example", "gp", "--graph", paths["gar3"], code=2)  # ordered base refused


def test_vjn_eq():
    run("vjn", "eq", "--n", "3", "x[1,2] r2 r1", "r2 r1 x[2,3]")
    run("vjn", "eq", "--n", "3", "x[1,2]", "r1", code=1)
    run("vjn", "eq", "--n", "3", "x[9,1]", "r1", code=2)


def test_f_commands():
    out = run("f", "nf", "0 inf")
    assert out.strip() == "inf 1"
    run("f", "eq", "0 inf", "inf 1")
    run("f", "eq", "inf 0", "1 inf", code=1)
    run("f", "nf", "1/3", code=2)


def test_outputs_are_deterministic(paths):
    a = run("confluence", paths["j3"], "--samples", "20")
    b = run("confluence", paths["j3"], "--samples", "20")
    assert a == b
    assert run("nf", paths["cstar"], "x u z") == run("nf", paths["cstar"], "x u z")
