"""CLI and file-format tests: exit codes, round trips, seed stability."""

import random
import time

import pytest

from helpers import format_approx
from mvinterp import cli
from mvinterp.cli import _auto_b, main
from mvinterp.formats import (
    ParsedApprox,
    ParsedInstance,
    ParseError,
    format_instance,
    format_solution,
    instance_hash,
    parse_instance,
    parse_solution,
)
from mvinterp.field import prime_field
from mvinterp.outcomes import Failure
from mvinterp.reduction import build_reduction

F13 = prime_field(13)

SAMPLE = """\
field 13
s 1
ell 1
b 3
k 1
points 3
0 1 1
1 1 2
2 1 5
"""

APPROX_SAMPLE = """\
field 13
approx 1 2
bounds 1 1
modulus 0 : 0 0 1
residue 0 0 : 0 1
residue 0 1 : 0 12
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ----------------------------------------------------------------- formats


def test_instance_roundtrip():
    parsed = parse_instance(SAMPLE)
    assert isinstance(parsed, ParsedInstance)
    assert parsed.n == 3 and parsed.weights == (1,)
    assert format_instance(parsed) == SAMPLE
    assert parse_instance(format_instance(parsed)) == parsed


def test_approx_roundtrip():
    parsed = parse_instance(APPROX_SAMPLE)
    assert isinstance(parsed, ParsedApprox)
    printed = format_approx(parsed)
    again = parse_instance(printed)
    assert again.approx.moduli == parsed.approx.moduli
    assert again.approx.residues == parsed.approx.residues
    assert again.approx.col_bounds == parsed.approx.col_bounds


def test_parse_rejects_malformed():
    for text in (
        "",  # no field
        "field 4\ns 1\nell 1\nb 1\nk 0\npoints 0\n",  # 4 is not prime
        SAMPLE.replace("points 3", "points 4"),  # row count mismatch
        SAMPLE.replace("k 1", "k 1 2"),  # weight count vs s
        SAMPLE + "unknownkey 5\n",
        SAMPLE.replace("0 1 1", "0 1 zz"),  # bad element token
        APPROX_SAMPLE.replace("bounds 1 1", "bounds 1"),
        APPROX_SAMPLE + "residue 4 0 : 1\n",  # row out of range
    ):
        with pytest.raises(ParseError):
            parse_instance(text)


def test_solution_roundtrip():
    from mvinterp.poly import Poly
    from mvinterp.reduction import MultiPoly

    Q = MultiPoly(
        F13, 1, {(0,): Poly(F13, [F13.el(1), F13.el(0), F13.el(1)]), (1,): Poly(F13, [F13.el(12)])}
    )
    text = format_solution(Q, instance_hash(SAMPLE), "hankel")
    h, bk, back = parse_solution(text, F13, 1)
    assert h == instance_hash(SAMPLE) and bk == "hankel"
    assert back == Q
    assert format_solution(back, h, bk) == text


def test_extension_field_tokens():
    text = """\
field 5 2 2 4 1
s 1
ell 1
b 2
k 0
points 3
0 1 3,2
1 1 4
2,1 1 0,1
"""
    parsed = parse_instance(text)
    assert parsed.ctx.order == 25
    assert format_instance(parsed) == text.replace("4\n", "4,0\n").replace(
        "0 1 3,2", "0,0 1 3,2"
    ).replace("1 1 4,0", "1,0 1 4,0")


# --------------------------------------------------------------- gen/solve


def test_gen_is_seed_stable(tmp_path):
    a = write(tmp_path, "a.txt", "")
    b = write(tmp_path, "b.txt", "")
    flags = ["gen", "--p", "101", "--n", "6", "--m", "2", "--ell", "2",
             "--k", "1", "--seed", "33"]
    assert main(flags + ["--out", a]) == 0
    assert main(flags + ["--out", b]) == 0
    assert open(a).read() == open(b).read()


def test_gen_rejects_n_over_p(capsys):
    assert main(["gen", "--p", "5", "--n", "6", "--seed", "1"]) == 1
    assert "distinct" in capsys.readouterr().err


def test_gen_auto_b_is_underdetermined_and_solvable(tmp_path):
    path = write(tmp_path, "g.txt", "")
    assert main(["gen", "--p", "101", "--n", "8", "--m", "2", "--ell", "3",
                 "--k", "1", "--seed", "7", "--out", path]) == 0
    parsed = parse_instance(open(path).read())
    _, a = build_reduction(parsed.interpolation_instance())
    assert a.total_rows < a.total_cols
    assert _auto_b(8, 2, 3, 1) == parsed.b
    sol = write(tmp_path, "g.sol", "")
    assert main(["solve", "--backend", "dense", "--in", path, "--seed", "1",
                 "--out", sol]) == 0
    assert main(["verify", "--in", path, "--solution", sol]) == 0


def test_solve_sample_and_verify(tmp_path, capsys):
    inst = write(tmp_path, "i.txt", SAMPLE)
    sol = write(tmp_path, "s.txt", "")
    assert main(["solve", "--in", inst, "--seed", "5", "--out", sol]) == 0
    assert main(["verify", "--in", inst, "--solution", sol]) == 0
    assert "verified" in capsys.readouterr().out
    # changing one coefficient breaks verification: the monomial it adds
    # is nonzero at the point (1, 2)
    text = open(sol).read()
    head, sep, tail = text.rpartition(" : ")
    coefs = tail.split()
    coefs[0] = str((int(coefs[0]) + 1) % 13)
    bad = head + sep + " ".join(coefs) + "\n"
    assert bad != text
    badf = write(tmp_path, "bad.txt", bad)
    assert main(["verify", "--in", inst, "--solution", badf]) == 1


def test_solve_exit_codes_match_across_backends(tmp_path):
    for seed in (1, 2, 3):
        inst = write(tmp_path, f"i{seed}.txt", "")
        assert main(["gen", "--p", "13", "--n", "4", "--m", "1", "--ell", "2",
                     "--k", "1", "--seed", str(seed), "--out", inst]) == 0
        codes = {
            bk: main(["solve", "--backend", bk, "--in", inst, "--seed", "9"])
            for bk in ("hankel", "toeplitz", "dense")
        }
        assert len(set(codes.values())) == 1, codes


def test_solve_no_solution_exit2(tmp_path, capsys):
    # weighted-degree budget of zero admits no Y-exponents at all
    inst = write(tmp_path, "n.txt", "field 13\ns 1\nell 1\nb 0\nk 0\npoints 1\n3 1 5\n")
    assert main(["solve", "--in", inst, "--seed", "1"]) == 2
    assert "NoSolutionSpace" in capsys.readouterr().out


@pytest.mark.parametrize(
    "ell, k, points, code",
    [
        (10**8, 1, "0 1 1\n1 1 2\n2 1 5\n", 0),  # b = 3 admits Y-degrees 0..2
        (2, 0, "4 30000000 7\n", 2),  # the capped multiplicity's product
        (2, 1, "4 30000000 7\n", 2),  # the whole product, every weight >= n
    ],
    ids=["ell", "mult", "mult-weight"],
)
def test_solve_costs_the_admissible_exponents(tmp_path, capsys, ell, k, points, code):
    # a Y-degree bound, or a multiplicity, far above what the degree budget
    # admits costs no time or memory of its own: columns are enumerated
    # within the budget, and the degree count comes before any product
    count = points.count("\n")
    inst = write(tmp_path, "i.txt", f"field 13\ns 1\nell {ell}\nb 3\nk {k}\npoints {count}\n{points}")
    sol = write(tmp_path, "s.txt", "")
    t0 = time.perf_counter()
    assert main(["solve", "--in", inst, "--seed", "1", "--out", sol]) == code
    assert time.perf_counter() - t0 < 5
    if code == 0:
        assert main(["verify", "--in", inst, "--solution", sol]) == 0
    else:
        assert "NO_SOLUTION" in capsys.readouterr().out


def test_solve_input_errors_exit1(tmp_path, capsys):
    assert main(["solve", "--in", str(tmp_path / "missing.txt"), "--seed", "1"]) == 1
    garbage = write(tmp_path, "g.txt", "field 13\nwhat\n")
    assert main(["solve", "--in", garbage, "--seed", "1"]) == 1
    dup = write(tmp_path, "d.txt", SAMPLE.replace("1 1 2", "0 1 2"))
    assert main(["solve", "--in", dup, "--seed", "1"]) == 1  # duplicate x outside soft
    noN0 = write(tmp_path, "r.txt", SAMPLE)
    assert main(["solve", "--mode", "reencode", "--in", noN0, "--seed", "1"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, text",
    [
        (["solve"], SAMPLE.replace("s 1\n", "") + "s 1\n"),  # points before s
        (["solve"], SAMPLE.replace("points 3", "points")),
        (["solve"], SAMPLE.replace("field 13", "field")),
        (["gen", "--p", "318665857834031151167461", "--n", "8"], None),  # a pseudoprime
    ],
    ids=["points-before-s", "points-without-count", "bare-field", "gen-pseudoprime"],
)
def test_malformed_input_is_an_error_not_a_traceback(tmp_path, capsys, argv, text):
    if text is not None:
        argv = argv + ["--in", write(tmp_path, "i.txt", text)]
    assert main(argv + ["--seed", "1"]) == 1
    assert capsys.readouterr().err.startswith("error:")


S2_REENCODE = "field 13\ns 2\nell 1\nb 3\nk 1 1\nn0 1\npoints 2\n0 1 0 0\n1 1 2 3\n"
REENCODE = SAMPLE.replace("k 1", "k 0\nn0 1").replace("0 1 1", "0 1 0")
SOLVE, RAW = ["solve"], ["solve", "--mode", "raw-approx"]
REENC, WU = ["solve", "--mode", "reencode"], ["solve", "--mode", "wu"]
HEAD = "hash 0\nbackend hankel\n"

# id -> (argv, instance text, solution text, expected error text)
INPUT_CHECKS = {
    "repeated-field": (SOLVE, SAMPLE.replace("13", "13\nfield 17", 1), None, "repeated field"),
    "repeated-s": (SOLVE, SAMPLE.replace("s 1", "s 1\ns 1"), None, "repeated s"),
    "repeated-ell": (SOLVE, SAMPLE.replace("ell 1", "ell 1\nell 2"), None, "repeated ell"),
    "repeated-b": (SOLVE, SAMPLE.replace("b 3", "b 3\nb 4"), None, "repeated b"),
    "repeated-k": (SOLVE, SAMPLE.replace("k 1", "k 1\nk 1"), None, "repeated k"),
    "repeated-n0": (REENC, REENCODE.replace("n0 1", "n0 1\nn0 1"), None, "repeated n0"),
    "repeated-points": (SOLVE, SAMPLE + "points 1\n3 1 1\n", None, "repeated points"),
    "repeated-approx": (
        RAW, APPROX_SAMPLE.replace("approx 1 2", "approx 1 2\napprox 1 2"), None, "repeated approx"
    ),
    "repeated-bounds": (RAW, APPROX_SAMPLE + "bounds 1 1\n", None, "repeated bounds"),
    "repeated-modulus": (RAW, APPROX_SAMPLE + "modulus 0 : 1 1\n", None, "repeated modulus 0"),
    "repeated-residue": (RAW, APPROX_SAMPLE + "residue 0 1 : 3\n", None, "repeated residue (0, 1)"),
    "non-integer-token": (SOLVE, SAMPLE.replace("b 3", "b x"), None, "bad b"),
    "element-too-long": (SOLVE, SAMPLE.replace("0 1 1", "0 1 1,2"), None, "more than 1 coeff"),
    "extension-count": (SOLVE, SAMPLE.replace("13", "5 2 2 4", 1), None, "needs 3 coefficients"),
    # X^2 + 1 = (X - 2)(X + 2) over F_5
    "reducible-extension": (SOLVE, SAMPLE.replace("13", "5 2 1 0 1", 1), None, "reducible"),
    "point-row-tokens": (SOLVE, SAMPLE.replace("0 1 1", "0 1 1 1"), None, "point row needs"),
    "approx-one-number": (
        RAW, APPROX_SAMPLE.replace("approx 1 2", "approx 1"), None, "approx takes mu and nu"
    ),
    "modulus-before-field": (
        RAW, "approx 1 1\nbounds 1\nmodulus 0 : 0 1\nfield 13\n", None, "must precede"
    ),
    "record-without-colon": (
        RAW, APPROX_SAMPLE.replace("modulus 0 :", "modulus 0"), None, "expected 'modulus"
    ),
    "missing-moduli": (
        RAW, APPROX_SAMPLE.replace("modulus 0 : 0 0 1\n", ""), None, "need moduli 0..0"
    ),
    "degree-0-modulus": (
        RAW, "field 13\napprox 1 1\nbounds 1\nmodulus 0 : 1\n", None, "bad approximation"
    ),
    "missing-b": (SOLVE, SAMPLE.replace("b 3\n", ""), None, "missing b line"),
    "missing-points": (SOLVE, "field 13\ns 1\nell 1\nb 3\nk 1\n", None, "missing points"),
    "solution-without-colon": (["verify"], SAMPLE, HEAD + "0 1 2\n", "expected '<exponents>"),
    "solution-exponent-count": (["verify"], SAMPLE, HEAD + "0 1 : 2\n", "expected 1 exponents"),
    "solution-duplicate": (["verify"], SAMPLE, HEAD + "0 : 1\n0 : 2\n", "duplicate record"),
    "solution-without-header": (["verify"], SAMPLE, "0 : 1\n", "missing hash or backend"),
    "solution-repeated-hash": (["verify"], SAMPLE, "hash a\n" + HEAD + "0 : 1\n", "repeated hash"),
    "solution-repeated-backend": (
        ["verify"], SAMPLE, HEAD + "backend dense\n0 : 1\n", "repeated backend"
    ),
    "reencode-s2": (REENC, S2_REENCODE, None, "needs s = 1"),
    "reencode-inf": (REENC, REENCODE.replace("2 1 5", "2 1 inf"), None, "infinite y"),
    "reencode-zero-y-past-n0": (REENC, REENCODE.replace("1 1 2", "1 1 0"), None, "y != 0"),
    "wu-s2": (WU, S2_REENCODE, None, "wu mode needs s = 1"),
    "wu-mixed-multiplicity": (WU, SAMPLE.replace("1 1 2", "1 2 2"), None, "common multiplicity"),
    "raw-approx-on-interpolation": (RAW, SAMPLE, None, "needs an approx-format"),
    "gen-n-zero": (["gen", "--p", "13", "--n", "0"], None, None, "need n, m, ell >= 1"),
    "gen-reencode-m-over-ell": (
        ["gen", "--p", "13", "--n", "4", "--m", "3", "--ell", "2", "--mode", "reencode"],
        None,
        None,
        "needs m <= ell",
    ),
}


@pytest.mark.parametrize("argv, text, solution, message", INPUT_CHECKS.values(), ids=INPUT_CHECKS)
def test_input_checks_exit1(tmp_path, capsys, argv, text, solution, message):
    # every input check ends in exit 1 and one error line, never a traceback
    if text is not None:
        argv = argv + ["--in", write(tmp_path, "i.txt", text)]
    if solution is not None:
        argv = argv + ["--solution", write(tmp_path, "s.txt", solution)]
    else:
        argv = argv + ["--seed", "1"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err and "Traceback" not in err


def test_gen_past_int64_primes(tmp_path):
    # rng.sample takes no range past sys.maxsize; the x are drawn one by one
    path = write(tmp_path, "g.txt", "")
    assert main(["gen", "--p", "18446744073709551557", "--n", "8", "--seed", "1",
                 "--out", path]) == 0
    parsed = parse_instance(open(path).read())
    assert len({x.c for x, _, _ in parsed.rows}) == 8
    sol = write(tmp_path, "g.sol", "")
    assert main(["solve", "--in", path, "--seed", "1", "--out", sol]) == 0
    assert main(["verify", "--in", path, "--solution", sol]) == 0


def test_solve_rejects_max_retries_below_one(tmp_path, capsys):
    # zero attempts could only ever end in FAILURE, so it is bad input
    inst = write(tmp_path, "i.txt", SAMPLE)
    for retries in ("0", "-3"):
        assert main(["solve", "--in", inst, "--seed", "1", "--max-retries", retries]) == 1
        assert "error:" in capsys.readouterr().err
    assert main(["solve", "--in", inst, "--seed", "1", "--max-retries", "1"]) in (0, 3)
    capsys.readouterr()


def test_solver_failure_maps_to_exit3(tmp_path, monkeypatch, capsys):
    inst = write(tmp_path, "i.txt", SAMPLE.replace("b 3", "b 9"))
    monkeypatch.setattr(
        "mvinterp.cli.interpolate_instance", lambda *a, **kw: Failure(8)
    )
    assert main(["solve", "--in", inst, "--seed", "1"]) == 3
    assert "FAILURE" in capsys.readouterr().out


def test_raw_approx_solve_and_verify(tmp_path, capsys):
    inst = write(tmp_path, "a.txt", APPROX_SAMPLE)
    sol = write(tmp_path, "a.sol", "")
    assert main(["solve", "--mode", "raw-approx", "--in", inst, "--seed", "2",
                 "--out", sol]) == 0
    assert main(["verify", "--in", inst, "--solution", sol]) == 0
    # a record for an unknown the instance does not have (nu = 2)
    extra = write(tmp_path, "x.sol", open(sol).read() + "7 : 3 4\n")
    capsys.readouterr()
    assert main(["verify", "--in", inst, "--solution", extra]) == 1
    captured = capsys.readouterr()
    assert "not a solution" in captured.err and "verified" not in captured.out
    # the gs pipeline refuses an approx-format file
    assert main(["solve", "--in", inst, "--seed", "2"]) == 1


def test_wu_mode_end_to_end(tmp_path):
    inst = write(tmp_path, "w.txt", "")
    assert main(["gen", "--p", "13", "--n", "5", "--m", "1", "--ell", "2",
                 "--k", "1", "--mode", "wu", "--seed", "4", "--out", inst]) == 0
    assert "inf" in open(inst).read()
    sol = write(tmp_path, "w.sol", "")
    assert main(["solve", "--mode", "wu", "--in", inst, "--seed", "6", "--out", sol]) == 0
    assert main(["verify", "--in", inst, "--solution", sol]) == 0
    # infinity rows are rejected outside wu mode
    assert main(["solve", "--in", inst, "--seed", "6"]) == 1


def test_soft_mode_end_to_end(tmp_path):
    inst = write(tmp_path, "s.txt", "")
    assert main(["gen", "--p", "13", "--n", "5", "--m", "1", "--ell", "2",
                 "--k", "0", "--mode", "soft", "--seed", "8", "--out", inst]) == 0
    text = open(inst).read()
    xs = [line.split()[0] for line in text.splitlines()[-5:]]
    assert len(set(xs)) < len(xs)  # really has duplicates
    sol = write(tmp_path, "s.sol", "")
    assert main(["solve", "--mode", "soft", "--in", inst, "--seed", "2", "--out", sol]) == 0
    assert main(["verify", "--in", inst, "--solution", sol]) == 0


def test_reencode_mode_end_to_end(tmp_path):
    inst = write(tmp_path, "r.txt", "")
    assert main(["gen", "--p", "13", "--n", "6", "--m", "2", "--ell", "2",
                 "--k", "1", "--mode", "reencode", "--seed", "3", "--out", inst]) == 0
    assert "n0 3" in open(inst).read()
    sol = write(tmp_path, "r.sol", "")
    assert main(["solve", "--mode", "reencode", "--in", inst, "--seed", "2",
                 "--out", sol]) == 0
    assert main(["verify", "--in", inst, "--solution", sol]) == 0


def test_verify_rejects_zero_solution(tmp_path, capsys):
    inst = write(tmp_path, "i.txt", SAMPLE)
    empty = write(
        tmp_path, "z.txt", f"hash {instance_hash(SAMPLE)}\nbackend dense\n"
    )
    assert main(["verify", "--in", inst, "--solution", empty]) == 1
    capsys.readouterr()


def test_verify_rejects_degree_violation(tmp_path, capsys):
    inst = write(tmp_path, "i.txt", SAMPLE)
    # weighted degree 3 is not below b = 3
    sol = write(
        tmp_path, "v.txt",
        f"hash {instance_hash(SAMPLE)}\nbackend dense\n0 : 0 0 0 1\n",
    )
    assert main(["verify", "--in", inst, "--solution", sol]) == 1
    capsys.readouterr()


def test_verify_rejects_wu_infinity_violation(tmp_path, capsys):
    text = SAMPLE.replace("2 1 5\n", "2 1 inf\n")
    inst = write(tmp_path, "w.txt", text)
    head = f"hash {instance_hash(text)}\nbackend dense\n"
    # Y - X - 1 vanishes at both finite points, but X - 2 does not divide
    # its Y-coefficient, as the point at infinity over x = 2 requires
    bad = write(tmp_path, "bad.txt", head + "0 : 12 12\n1 : 1\n")
    assert main(["verify", "--in", inst, "--solution", bad]) == 1
    assert "not a solution" in capsys.readouterr().err
    # (X - 2)(Y - X - 1) meets the same finite points and the divisibility
    good = write(tmp_path, "good.txt", head + "0 : 2 1 12\n1 : 11 1\n")
    assert main(["verify", "--in", inst, "--solution", good]) == 0
    capsys.readouterr()


def test_bench_csv_shape(capsys):
    assert main(["bench", "--sizes", "4,6", "--backend", "hankel,dense",
                 "--reps", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "size,backend,median_ms,verdict,reps"
    assert len(lines) == 1 + 4
    for line in lines[1:]:
        cells = line.split(",")
        assert len(cells) == 5
        assert cells[3] in ("solution", "no-solution")
        assert cells[4] == "2"
        float(cells[2])


def test_bench_reports_a_failure_in_any_rep(monkeypatch, capsys):
    calls = []

    def solve_built(a, built, rng, real=cli.solve_built):
        calls.append(rng)
        return Failure(8) if len(calls) == 3 else real(a, built, rng)  # warm-up, rep 0, rep 1

    monkeypatch.setattr(cli, "solve_built", solve_built)
    assert main(["bench", "--sizes", "6", "--backend", "hankel", "--reps", "3"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()[1:]
    assert [row.split(",")[3] for row in rows] == ["mixed"]


@pytest.mark.parametrize(
    "mode, verifier",
    [
        ("gs", "mvinterp.apps.verify_solution"),
        ("reencode", "mvinterp.apps.verify_solution"),
        ("wu", "mvinterp.apps.verify_wu"),
        ("soft", "mvinterp.apps.verify_solution"),
        ("raw-approx", "mvinterp.backend.verify_approx"),
    ],
)
def test_solve_reports_a_pipeline_verifier_rejection(tmp_path, monkeypatch, capsys, mode,
                                                      verifier):
    # every pipeline verifies its own Solution; solve does not check it again
    inst = write(tmp_path, "i.txt", APPROX_SAMPLE if mode == "raw-approx" else "")
    if mode != "raw-approx":
        assert main(["gen", "--p", "13", "--n", "6", "--m", "1", "--ell", "2", "--k", "1",
                     "--mode", mode, "--seed", "3", "--out", inst]) == 0
    sol = tmp_path / "s.sol"
    argv = ["solve", "--mode", mode, "--in", inst, "--seed", "2", "--out", str(sol)]
    assert main(argv) == 0 and sol.exists()
    sol.unlink()
    monkeypatch.setattr(verifier, lambda *args: False)
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: internal error")
    assert not sol.exists()


def test_bench_rejects_unknown_backend(capsys):
    assert main(["bench", "--sizes", "4", "--backend", "qr"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize(
    "args", [["--sizes", "0"], ["--sizes", "-4"], ["--reps", "0"], ["--sizes", "16777214"]]
)
def test_bench_rejects_bad_sizes_and_reps(args, capsys):
    assert main(["bench", "--backend", "dense", "--sizes", "4", *args]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert captured.out == ""


def test_bench_reports_the_dense_guard(capsys):
    # the dense build refuses n = 1024 (TooLarge) before any timing
    assert main(["bench", "--backend", "dense", "--sizes", "1024", "--reps", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert captured.out.strip() == "size,backend,median_ms,verdict,reps"
