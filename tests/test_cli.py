"""End-to-end tests of the carries-lab command line harness."""

import argparse
import errno
import functools
import gc
import hashlib
import inspect
import json
import os
import signal
import subprocess
import sys
from enum import IntEnum
from fractions import Fraction
from pathlib import Path

import pytest

from carrieslab import cli, spectral, verify
from carrieslab.colored import ColoredPermutation
from carrieslab.process import (
    ENUMERATION_LIMIT,
    GRID_N_LIMIT,
    MOMENT_GRID_LIMIT,
    SAMPLE_LIMIT,
    SHUFFLE_LIMIT,
    SIMULATE_LIMIT,
    STATE_LIMIT,
    STEP_LIMIT,
    make_process,
    parameter_ratio,
    state_count,
)
from carrieslab.ratmat import RationalMatrix
from carrieslab.shuffle import (
    MultiDigitWord,
    bijection_minus,
    bijection_plus,
    shuffle_probability,
)
from carrieslab.verify import (SuiteReport, _chain_grid, run_suite,
                               smallest_valid_bases, valid_parameters)


def run(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_matrix_json_classical(capsys):
    code, out, err = run(capsys, "matrix", "--sign", "+", "--b", "2", "--n", "2", "--p", "1")
    assert code == 0 and err == ""
    assert json.loads(out) == [["3/4", "1/4"], ["1/4", "3/4"]]


def test_matrix_csv_has_dimension_header(capsys):
    code, out, _ = run(capsys, "--format", "csv",
                       "matrix", "--sign", "+", "--b", "2", "--n", "2", "--p", "1")
    assert code == 0
    assert out.splitlines() == ["dim,2", "3/4,1/4", "1/4,3/4"]


def test_matrix_accepts_consistent_digit_offset(capsys):
    code, out, _ = run(capsys, "matrix", "--sign", "+", "--b", "3", "--n", "2",
                       "--p", "2", "--d", "-1")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 3  # p > 1, so n + 1 states


def test_matrix_rejects_offset_p_mismatch(capsys):
    code, _, err = run(capsys, "matrix", "--sign", "-", "--b", "2", "--n", "2",
                       "--p", "1", "--d", "-1")
    assert code == 2 and "carries-lab:" in err


def test_eigen_check_and_json_layout(capsys):
    code, out, _ = run(capsys, "eigen", "--sign", "-", "--b", "8", "--n", "3",
                       "--p", "3", "--check")
    assert code == 0 and out.strip() == "R·L=I: ok, P=RDL: ok"
    code, out, _ = run(capsys, "eigen", "--sign", "-", "--b", "8", "--n", "3", "--p", "3")
    obj = json.loads(out)
    assert obj["schema"] == 1
    assert obj["eigenvalues"] == ["1", "-1/8", "1/64", "-1/512"]
    assert obj["left"]["dim"] == obj["right"]["dim"] == 4
    assert len(obj["right"]["rows"]) == 4


def test_moments_stationary_closed_forms(capsys):
    code, out, _ = run(capsys, "moments", "--sign", "-", "--b", "8", "--n", "3",
                       "--p", "3", "--stationary", "--r", "1")
    assert code == 0
    obj = json.loads(out)
    assert obj["start"] == "stationary" and obj["r"] == 1
    assert (obj["mean"], obj["variance"], obj["cov"]) == ("5/3", "1/3", "-1/24")


def test_moments_refuses_s_with_stationary(capsys):
    # --s is the first time of a conditional covariance; a stationary query would drop it.
    chain = ("moments", "--sign", "-", "--b", "8", "--n", "3", "--p", "3")
    for s in ("99", "0", "-1"):
        code, out, err = run(capsys, *chain, "--stationary", "--s", s)
        assert (code, out, err) == (2, "", "carries-lab: moments --stationary does not use --s\n")
    code, out, _ = run(capsys, *chain, "--i", "1", "--r", "2", "--s", "3")
    obj = json.loads(out)
    assert code == 0 and (obj["start"], obj["r"], obj["s"]) == (1, 2, 3)
    expected = verify.covariance_conditional(make_process("-", 8, 3, 3), 3, 2, 1)
    assert obj["cov"] == str(expected) != "0"


def test_moments_conditional_closed_forms(capsys):
    code, out, _ = run(capsys, "moments", "--sign", "+", "--b", "2", "--n", "2", "--p", "1")
    obj = json.loads(out)
    assert code == 0 and (obj["start"], obj["r"], obj["s"]) == (0, 1, 0)
    assert (obj["mean"], obj["variance"], obj["cov"]) == ("1/4", "3/16", "0")


def test_moments_one_summand_uses_oracle(capsys):
    # n = 1 has no closed second moments; the answer must still be exact.
    code, out, _ = run(capsys, "moments", "--sign", "+", "--b", "3", "--n", "1",
                       "--p", "2", "--r", "1", "--s", "1")
    obj = json.loads(out)
    assert code == 0 and obj["variance"] == "2/9" and obj["cov"] == "2/27"


def test_moments_rejects_bad_start_state(capsys):
    code, _, err = run(capsys, "moments", "--sign", "+", "--b", "2", "--n", "2",
                       "--p", "1", "--i", "5")
    assert code == 2 and "start state" in err


def test_float_rendering_is_fixed_point(capsys):
    code, out, _ = run(capsys, "--float", "--digits", "6",
                       "matrix", "--sign", "+", "--b", "2", "--n", "2", "--p", "1")
    assert code == 0
    assert json.loads(out)[0] == ["0.750000", "0.250000"]
    code, out, _ = run(capsys, "--float", "--digits", "4",
                       "moments", "--sign", "-", "--b", "8", "--n", "3", "--p", "3",
                       "--stationary", "--r", "1")
    assert json.loads(out)["cov"] == "-0.0417"  # -1/24 rounded exactly


def test_out_writes_file_and_keeps_stdout_quiet(capsys, tmp_path):
    target = tmp_path / "matrix.json"
    code, out, _ = run(capsys, "--out", str(target),
                       "matrix", "--sign", "+", "--b", "2", "--n", "2", "--p", "1")
    assert code == 0 and out == ""
    assert json.loads(target.read_text()) == [["3/4", "1/4"], ["1/4", "3/4"]]


def test_simulate_seed_default_and_stability(capsys):
    argv = ("simulate", "--sign", "+", "--b", "3", "--n", "2", "--p", "1", "--N", "4")
    _, sub_seed, _ = run(capsys, *argv, "--seed", "5")
    _, again, _ = run(capsys, *argv, "--seed", "5")
    _, other, _ = run(capsys, *argv, "--seed", "6")
    assert sub_seed == again != other
    obj = json.loads(sub_seed)
    assert obj["seed"] == 5 and len(obj["kappas"]) == 5 and len(obj["remainders"]) == 4
    _, default, _ = run(capsys, *argv)
    assert json.loads(default)["seed"] == 1729
    _, shuffled, _ = run(capsys, "shuffle", "--b", "3", "--n", "2", "--p", "1", "--N", "2")
    assert json.loads(shuffled)["seed"] == 1729
    # A seed is set by the flag of the subcommand that uses it; the top level has none.
    with pytest.raises(SystemExit) as info:
        cli.main(["--seed", "5", *argv])
    assert info.value.code == 2


def test_simulate_csv_layout(capsys):
    code, out, _ = run(capsys, "--format", "csv",
                       "simulate", "--sign", "-", "--b", "2", "--n", "3", "--p", "1",
                       "--N", "2", "--seed", "9")
    lines = out.splitlines()
    assert code == 0 and lines[0] == "step,kappa,remainder,digits"
    assert len(lines) == 3 and lines[1].startswith("1,")


def test_simulate_refuses_negative_step_count(capsys):
    code, out, err = run(capsys, "simulate", "--sign", "+", "--b", "3", "--n", "2", "--p", "1",
                         "--N", "-1")
    assert (code, out, err) == (2, "", "carries-lab: step count must be nonnegative\n")


def test_shuffle_reports_descents(capsys):
    code, out, _ = run(capsys, "shuffle", "--b", "3", "--n", "4", "--p", "2",
                       "--N", "3", "--seed", "11")
    obj = json.loads(out)
    assert code == 0 and len(obj["descents"]) == len(obj["elements"]) == 3
    assert all(len(word) == 4 for word in obj["words"])


def test_shuffle_rejects_wrong_congruence(capsys):
    code, _, err = run(capsys, "shuffle", "--sign", "+", "--b", "3", "--n", "2",
                       "--p", "3", "--N", "1")
    assert code == 2 and "mod p" in err


def test_digits_round_trip(capsys):
    code, out, _ = run(capsys, "digits", "--x", "9", "--sign", "-", "--b", "2")
    obj = json.loads(out)
    assert code == 0 and obj["value"] == obj["x"] == 9
    code, out, _ = run(capsys, "digits", "--x", "100", "--sign", "+", "--b", "10", "--d", "-5")
    assert code == 0 and json.loads(out)["value"] == 100


def test_verify_fast_suite_json_report(capsys):
    code, out, err = run(capsys, "verify", "examples-golden")
    assert code == 0 and err == ""
    obj = json.loads(out)
    assert obj["schema"] == 1 and obj["suite"] == "examples-golden" and obj["passed"]
    keys = [case["key"] for case in obj["cases"]]
    assert keys == sorted(keys) and all(case["ok"] for case in obj["cases"])


def test_verify_csv_report(capsys):
    code, out, _ = run(capsys, "--format", "csv", "verify", "symmetry")
    lines = out.splitlines()
    assert code == 0 and lines[0] == "case,ok,detail" and lines[-1] == "passed,1,"


def test_verify_bounds_flags(capsys):
    code, out, _ = run(capsys, "verify", "transition", "--b", "3", "--n", "2")
    obj = json.loads(out)
    assert code == 0 and obj["passed"]
    assert all(" b=2 " in c["key"] or " b=3 " in c["key"] or "b=" not in c["key"]
               for c in obj["cases"])


def test_verify_single_case_override(capsys):
    code, out, _ = run(capsys, "verify", "bijection-plus",
                       "--b", "3", "--n", "2", "--p", "1", "--N", "2")
    obj = json.loads(out)
    assert code == 0 and obj["passed"] and len(obj["cases"]) == 1


def test_verify_partial_case_flags_rejected(capsys):
    code, _, err = run(capsys, "verify", "bijection-plus", "--b", "3")
    assert code == 2 and "needs all of" in err


def test_verify_unused_flag_rejected(capsys):
    code, _, err = run(capsys, "verify", "eigen", "--samples", "10")
    assert code == 2 and "--samples" in err


def test_verify_refuses_options_that_leave_no_case(capsys, monkeypatch):
    assert not SuiteReport("eigen", "empty grid").passed
    with pytest.raises(ValueError):
        run_suite("eigen", n_max=0)
    # An empty grid is refused before any case, so spot cases outside it cannot pass alone.
    monkeypatch.setattr(verify, "SuiteCase", lambda *case: pytest.fail(f"ran {case[0]}"))
    for argv in (["transition", "--b", "1"], ["eigen", "--n", "0"],
                 ["descent-stats", "--n", "0"], ["gessel", "--n", "0"],
                 ["moments", "--b", "1"], ["moments", "--n", "0"], ["duality", "--n", "0"],
                 ["sf-numbers", "--n", "-1"]):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2 and out == "" and "has no cases to check" in err


def test_verify_refuses_sample_counts_below_one(capsys):
    for argv in (["bijection-plus", "--samples", "0"], ["bijection-minus", "--samples", "0"],
                 ["bijection-plus", "--samples", "-3"]):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2 and out == "" and "samples >= 1" in err


def test_verify_refuses_a_single_bijection_case_without_digit_places(capsys):
    for suite in ("bijection-plus", "bijection-minus"):
        for places, refusal in (("0", "need an integer number of digit places >= 1, got 0"),
                                ("-1", "step count must be nonnegative")):
            code, out, err = run(capsys, "verify", suite, "--b", "2", "--n", "1", "--p", "1",
                                 "--N", places)
            assert (code, out, err) == (2, "", f"carries-lab: {refusal}\n")


def test_verify_refuses_sample_counts_below_the_floor_of_the_bound(capsys, monkeypatch):
    # Below m = 2 (K ln 2 + ln 10^6) (25)^2, K outcomes of the exact law, a correct engine may
    # exceed total variation 1/50 more often than 10^-6; --samples 2 and 8 used to exit 1.
    for suite, floor in (("bijection-plus", 108_245), ("bijection-minus", 27_667)):
        assert run_suite(suite, cases=(), samples=floor).passed
        with monkeypatch.context() as patch:
            patch.setattr(verify, "SuiteCase", lambda *case: pytest.fail(f"ran {case[0]}"))
            for samples in (2, 8, floor - 1):
                code, out, err = run(capsys, "verify", suite, "--samples", str(samples))
                assert (code, out) == (2, "") and f"needs samples >= {floor} " in err


def test_verify_refuses_negative_bounds(capsys):
    # A negative bound would skip every r, s or identity check and still pass.
    for suite, flag in (("moments", "--r"), ("moments", "--s"), ("gessel", "--cutoff")):
        code, out, err = run(capsys, "verify", suite, flag, "-1")
        assert (code, out) == (2, "") and f"{flag} must be nonnegative" in err


def test_suites_refuse_negative_bounds_without_the_cli():
    for suite, options in (("moments", {"r_max": -1}), ("moments", {"s_max": -1}),
                           ("gessel", {"cutoff": -1})):
        with pytest.raises(ValueError, match="must be nonnegative"):
            run_suite(suite, **options)


def test_every_priced_grid_is_priced_before_its_first_case(monkeypatch):
    # Each default grid's sum, in the unit and under the cap its one check_grid names.
    priced = {}

    class Priced(Exception):
        pass

    def record(what, cells, limit, unit):
        priced[what] = (sum(cost for _, cost, _ in cells), limit, unit)
        raise Priced

    monkeypatch.setattr(verify, "check_grid", record)
    monkeypatch.setattr(verify, "SuiteCase", lambda *case: pytest.fail("a case ran"))
    for suite in ("transition", "moments", "gessel", "descent-stats"):
        with pytest.raises(Priced):
            run_suite(suite)
    assert priced == {
        # b^n digit tuples stepped from each state, over the 280 chains.
        "the transition grid": (675892, ENUMERATION_LIMIT, "digit tuples x states"),
        "the moments grid": (123984, MOMENT_GRID_LIMIT, "units of states^2 x (r+1) x (s+1)"),
        # Sum |G|^2 = 2,413 compositions and sum (n+1)^3 (3+1)^2 = 3,168 identity terms.
        "the gessel grid": (2413 + 3168, ENUMERATION_LIMIT, "compositions and identity terms"),
        # Sum |G| = 153 + 4,282 + 31,287 elements and 2 x sum n p = 2 x 90 rank-table letters.
        "the descent-stats grid": (153 + 4282 + 31287 + 2 * 90, ENUMERATION_LIMIT,
                                   "group elements + 2 x letters"),
    }


def test_chain_grids_are_priced_without_building_a_chain(monkeypatch):
    # Pricing reads (sign, b, n, p) and the state count only; a refusal builds no chain.
    monkeypatch.setattr(verify, "make_process", lambda *chain: pytest.fail(f"built {chain}"))
    for suite, options, cap in (("transition", {"b_max": 100000, "n_max": 1}, ENUMERATION_LIMIT),
                                ("moments", {"b_max": 100000, "r_max": 0, "s_max": 0},
                                 MOMENT_GRID_LIMIT)):
        with pytest.raises(ValueError, match=f"limited to {cap} "):
            run_suite(suite, **options)


def test_chain_grids_are_walked_once(monkeypatch):
    # valid_parameters runs once per (sign, b, n): 2 x 7 x 4 = 56 calls, pricing included.
    calls = []

    def counted(sign, b):
        calls.append((sign, b))
        return valid_parameters(sign, b)

    monkeypatch.setattr(verify, "valid_parameters", counted)
    for suite in ("transition", "moments"):
        calls.clear()
        assert run_suite(suite).passed
        assert len(calls) == 56, suite


def test_moments_grid_is_bounded_before_its_first_case():
    # The default grid: 3,444 squared states over 280 chains, times 6 values of r and 6 of s.
    assert sum(state_count(c.n, c.p) ** 2 for c in _chain_grid(8, 4)) * 6 * 6 == 123984
    assert 123984 < MOMENT_GRID_LIMIT
    for options in ({"b_max": 2, "n_max": 2, "s_max": 100000},
                    {"b_max": 2, "n_max": 2, "r_max": 100000}, {"r_max": 10**30},
                    {"b_max": 2, "n_max": 157, "r_max": 0, "s_max": 0}):
        with pytest.raises(ValueError, match=f"limited to {MOMENT_GRID_LIMIT} "):
            run_suite("moments", **options)


def test_verify_case_values_out_of_range_name_the_quantity(capsys):
    for argv, quantity in ((("bijection-plus", "--b", "3", "--n", "2", "--p", "1", "--N", "-1"),
                            "step count must be nonnegative"),
                           (("shuffle-prob", "--b", "3", "--n", "-2", "--p", "1"), "cards n"),
                           # A bad (b, p) in an explicit case is input, refused before its
                           # cases, never a failed case of the closed form that refuses it too.
                           (("shuffle-prob", "--b", "4", "--n", "2", "--p", "2"),
                            "invalid parameter"),
                           (("shuffle-onestep", "--b", "4", "--n", "2", "--p", "2"),
                            "invalid parameter"),
                           (("bijection-plus", "--b", "4", "--n", "2", "--p", "2", "--N", "2"),
                            "invalid parameter"),
                           (("bijection-minus", "--b", "3", "--n", "2", "--p", "3", "--N", "2"),
                            "invalid parameter")):
        code, out, err = run(capsys, "verify", *argv)
        assert (code, out) == (2, "") and quantity in err and "repeat" not in err


def test_verify_refuses_sampling_flags_with_a_single_case(capsys):
    # A single case drops the sampled tier, so its --samples and --seed would go unused.
    case = ("--b", "2", "--n", "2", "--p", "1", "--N", "2")
    for flag in ("--samples", "--seed"):
        code, out, err = run(capsys, "verify", "bijection-plus", *case, flag, "5")
        assert (code, out) == (2, "") and f"does not use {flag}" in err
    code, out, _ = run(capsys, "verify", "bijection-plus", *case)
    assert code == 0 and json.loads(out)["passed"]


def test_reproduce_lines_parse_back_to_their_options():
    for suite, options, line in (
        ("bijection-plus", {"cases": ((3, 2, 1, 2),), "mc_case": None},
         "carries-lab verify bijection-plus --b 3 --n 2 --p 1 --N 2"),
        ("gessel", {"cutoff": 2}, "carries-lab verify gessel --cutoff 2"),
    ):
        assert cli._reproduce_command(suite, options) == line
        assert cli._verify_options(cli.build_parser().parse_args(line.split()[1:])) == options


def test_gessel_cutoff_is_one_degree(capsys):
    code, out, _ = run(capsys, "verify", "gessel", "--cutoff", "2")
    assert code == 0 and json.loads(out)["grid"] == "n<=3, p<=2, all d, cutoff (2, 2)"


def test_shuffle_refuses_empty_deck_and_unit_base(capsys):
    for argv in (["--b", "4", "--n", "0", "--p", "3", "--N", "2"],
                 ["--sign", "-", "--b", "5", "--n", "0", "--p", "3", "--N", "2"],
                 ["--b", "1", "--n", "2", "--p", "1", "--N", "2"]):
        code, out, err = run(capsys, "shuffle", *argv)
        assert code == 2 and out == "" and err.startswith("carries-lab:")


def test_verify_failure_exits_one_with_reproduce_line(capsys, monkeypatch):
    # A default run of a sampled suite pins its tier's default samples and seed.
    for suite, line in (("transition", "carries-lab verify transition"),
                        ("bijection-plus",
                         "carries-lab verify bijection-plus --samples 1000000 --seed 20240601")):
        @functools.wraps(cli.SUITES[suite])  # the stub keeps the suite's signature
        def stub(**options):
            yield "stub grid"
            yield "forced", False, "boom"

        monkeypatch.setitem(cli.SUITES, suite, stub)
        code, out, err = run(capsys, "verify", suite)
        assert code == 1
        assert f"reproduce: {line}\n" in err
        obj = json.loads(out)
        assert obj["passed"] is False and obj["cases"][0]["detail"] == "boom"


def test_verify_moments_forms_no_matrix_product_or_power(capsys, monkeypatch):
    # The moments oracle walks integer vectors through P, so its default grid runs and passes
    # with every RationalMatrix product and power refused.
    def refused(*args):
        raise AssertionError("verify moments formed a matrix product or power")

    monkeypatch.setattr(RationalMatrix, "__matmul__", refused)
    monkeypatch.setattr(RationalMatrix, "power", refused)
    code, out, _ = run(capsys, "verify", "moments")
    report = json.loads(out)
    assert code == 0 and report["passed"] is True and len(report["cases"]) == 283


def test_a_shifted_right_eigen_matrix_is_an_internal_failure(capsys, monkeypatch):
    # R L != I is a broken closed form, not bad input: `eigen --check` exits 1 and names it
    # (tests/test_faults.py runs `verify eigen` on the same fault).
    closed_form = spectral.right_eigen_matrix

    def shifted(n, p):
        rows = [list(row) for row in closed_form(n, p).rows]
        rows[0][0] += Fraction(1, 10**6)
        return RationalMatrix(rows)

    monkeypatch.setattr(spectral, "right_eigen_matrix", shifted)
    code, out, err = run(capsys, "eigen", "--sign", "+", "--b", "3", "--n", "2", "--p", "2",
                         "--check")
    assert (code, out) == (1, "")
    assert err.startswith("carries-lab: internal consistency failure: R L != I for ")
    assert err.count("\n") == 1


def test_argparse_rejections_exit_two(capsys):
    for argv in (["verify", "not-a-suite"],
                 ["matrix", "--sign", "*", "--b", "2", "--n", "2", "--p", "1"],
                 ["verify", "bijection-plus", "--seed", "-3"],
                 ["simulate", "--sign", "+", "--b", "2", "--n", "2", "--p", "1", "--N", "2",
                  "--seed", str(2**64)],
                 ["--digits", "0", "matrix", "--sign", "+", "--b", "2", "--n", "2", "--p", "1"],
                 ["matrix", "--sign", "+", "--b", "2", "--n", "2", "--p", "abc"],
                 []):
        with pytest.raises(SystemExit) as info:
            cli.main(argv)
        assert info.value.code == 2
        capsys.readouterr()


@pytest.mark.parametrize("in_missing_directory", [True, False])
def test_an_unwritable_out_path_exits_two_and_leaves_no_file(capsys, tmp_path,
                                                             in_missing_directory):
    # The refusal comes after the work is done, from the write itself: one line, no traceback.
    target, reason = ((tmp_path / "missing" / "x.json", errno.ENOENT) if in_missing_directory
                      else (tmp_path, errno.EISDIR))
    code, out, err = run(capsys, "--out", str(target),
                         "digits", "--x", "5", "--sign", "+", "--b", "10")
    assert (code, out) == (2, "")
    assert err == f"carries-lab: cannot write {target}: {os.strerror(reason)}\n"
    assert list(tmp_path.iterdir()) == []


def test_the_module_entry_point_refuses_an_unwritable_out_path(tmp_path):
    target = tmp_path / "missing" / "x.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(Path(cli.__file__).parent.parent),
                                         *filter(None, [env.get("PYTHONPATH")])])
    result = subprocess.run(
        [sys.executable, "-m", "carrieslab.cli", "--out", str(target),
         "digits", "--x", "5", "--sign", "+", "--b", "10"],
        env=env, capture_output=True, text=True, timeout=60)
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == f"carries-lab: cannot write {target}: {os.strerror(errno.ENOENT)}\n"
    assert list(tmp_path.iterdir()) == []


def _stdout_closed_read_end():
    """A pipe's write end whose read end is already closed: a write to it fails with EPIPE."""
    read, write = os.pipe()
    os.close(read)
    return write


@pytest.mark.parametrize("sink, reason", [
    pytest.param(lambda: os.open("/dev/full", os.O_WRONLY), errno.ENOSPC, id="dev-full",
                 marks=pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")),
    pytest.param(_stdout_closed_read_end, errno.EPIPE, id="closed-pipe"),
])
@pytest.mark.parametrize("argv", [
    ("digits", "--x", "5", "--sign", "+", "--b", "10"),  # one short line, written at the flush
    ("simulate", "--sign", "+", "--b", "7", "--n", "10", "--p", "3", "--N", "2000"),  # 230 kB
], ids=("short", "long"))
def test_an_unwritable_stdout_exits_two_with_one_line(sink, reason, argv):
    # The stdout write and its flush are guarded like --out: one line, no traceback, and
    # nothing left over for the interpreter's flush at exit ("Exception ignored ...").
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(Path(cli.__file__).parent.parent),
                                         *filter(None, [env.get("PYTHONPATH")])])
    fd = sink()
    try:
        result = subprocess.run([sys.executable, "-m", "carrieslab.cli", *argv], stdout=fd,
                                stderr=subprocess.PIPE, env=env, text=True, timeout=60)
    finally:
        os.close(fd)
    assert result.returncode == 2
    assert result.stderr == f"carries-lab: cannot write <stdout>: {os.strerror(reason)}\n"


def test_state_count_above_the_limit_is_refused(capsys):
    top = STATE_LIMIT - 1  # n with p > 1 has n + 1 states
    for command in ("matrix", "eigen", "moments"):
        for n, p in ((top + 1, "2"), (STATE_LIMIT + 1, "1"), (1200, "3/2")):
            code, out, err = run(capsys, command, "--sign", "+", "--b", "7", "--n", str(n),
                                 "--p", p)
            assert (code, out) == (2, "")
            assert f"{command} is limited to {STATE_LIMIT} states" in err
    # At the limit itself the chain is accepted (moments is the cheap one to run).
    code, _, _ = run(capsys, "moments", "--sign", "+", "--b", "7", "--n", str(top), "--p", "2")
    assert code == 0


def test_moment_step_counts_above_the_limit_are_refused(capsys):
    chain = ("moments", "--sign", "+", "--b", "4", "--n", "3", "--p", "3/2")
    for steps in (("--r", str(STEP_LIMIT + 1)), ("--s", str(STEP_LIMIT + 1)),
                  ("--stationary", "--r", str(10**9))):
        code, out, err = run(capsys, *chain, *steps)
        assert (code, out) == (2, "")
        assert f"limited to {STEP_LIMIT}" in err
    code, _, _ = run(capsys, *chain, "--r", str(STEP_LIMIT), "--s", str(STEP_LIMIT))
    assert code == 0


def test_values_past_the_digit_limit_are_refused(capsys):
    argv = ("moments", "--sign", "+", "--b", "1000", "--n", "127", "--p", "999",
            "--r", "1000", "--s", "1000")
    for fmt in ("json", "csv"):
        code, out, err = run(capsys, "--format", fmt, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("carries-lab: the moments variance has more than")
        assert "--float" in err and "sys.set_int_max_str_digits" not in err
    code, out, _ = run(capsys, "--float", *argv)
    assert code == 0 and json.loads(out)["variance"] == "10.666666666667"


def test_exhaustive_bijection_cases_above_the_enumeration_limit_are_refused(capsys):
    # 7^12 summand arrays, and an array count too large to compute.
    for suite, (b, n, p, places) in (("bijection-plus", (7, 4, 3, 3)),
                                     ("bijection-minus", (8, 10**9, 3, 10**9))):
        code, out, err = run(capsys, "verify", suite, "--b", str(b), "--n", str(n),
                             "--p", str(p), "--N", str(places))
        assert (code, out) == (2, "")
        assert f"limited to {ENUMERATION_LIMIT} summand arrays" in err


CHAIN = ("--sign", "+", "--b", "3", "--p", "1")

# Each cap with calls just past it: name -> (argv, the cap the refusal names).
OVER_CAP = {
    "states-matrix": (("matrix", *CHAIN, "--n", str(STATE_LIMIT + 1)), STATE_LIMIT),
    "states-eigen": (("eigen", "--sign", "+", "--b", "7", "--n", str(STATE_LIMIT), "--p", "2"),
                     STATE_LIMIT),
    "steps": (("moments", *CHAIN, "--n", "2", "--r", str(STEP_LIMIT + 1)), STEP_LIMIT),
    "steps-n1-r": (("moments", *CHAIN, "--n", "1", "--r", str(STEP_LIMIT + 1)), STEP_LIMIT),
    "steps-n1-s": (("moments", *CHAIN, "--n", "1", "--s", str(STEP_LIMIT + 1)), STEP_LIMIT),
    "steps-n1-stationary": (("moments", *CHAIN, "--n", "1", "--stationary",
                             "--r", str(STEP_LIMIT + 1)), STEP_LIMIT),
    "enumeration-arrays": (("verify", "bijection-plus", "--b", "7", "--n", "4", "--p", "3",
                            "--N", "3"), ENUMERATION_LIMIT),
    "enumeration-group": (("verify", "shuffle-prob", "--b", "3", "--n", "11", "--p", "1"),
                          ENUMERATION_LIMIT),
    "enumeration-words-onestep": (("verify", "shuffle-onestep", "--b", "31", "--n", "6",
                                   "--p", "1"), ENUMERATION_LIMIT),
    "enumeration-words-prob": (("verify", "shuffle-prob", "--b", "100", "--n", "4", "--p", "1"),
                               ENUMERATION_LIMIT),
    "enumeration-group-past-printing": (("verify", "shuffle-prob", "--b", "3", "--n", "3000",
                                         "--p", "1"), ENUMERATION_LIMIT),
    "simulate-steps": (("simulate", *CHAIN, "--n", "2", "--N", str(SIMULATE_LIMIT // 2 + 1)),
                       SIMULATE_LIMIT),
    "simulate-summands": (("simulate", *CHAIN, "--n", str(SIMULATE_LIMIT + 1), "--N", "1"),
                          SIMULATE_LIMIT),
    "shuffle": (("shuffle", *CHAIN, "--n", "2", "--N", str(SHUFFLE_LIMIT // 2 + 1)),
                SHUFFLE_LIMIT),
    "moments-grid-s": (("verify", "moments", "--b", "2", "--n", "2", "--s", "100000"),
                       MOMENT_GRID_LIMIT),
    "moments-grid-r": (("verify", "moments", "--b", "2", "--n", "2", "--r", "100000"),
                       MOMENT_GRID_LIMIT),
    "moments-grid-chains": (("verify", "moments", "--b", "100000", "--r", "0", "--s", "0"),
                            MOMENT_GRID_LIMIT),
    "moments-grid-summands": (("verify", "moments", "--b", "2", "--n", "157", "--r", "0",
                               "--s", "0"), MOMENT_GRID_LIMIT),
    "transition-grid-bases": (("verify", "transition", "--b", "100000", "--n", "1"),
                              ENUMERATION_LIMIT),
    "transition-grid-summands": (("verify", "transition", "--b", "2", "--n", "40"),
                                 ENUMERATION_LIMIT),
    "gessel-grid-cutoff": (("verify", "gessel", "--cutoff", "100000"), ENUMERATION_LIMIT),
    "descent-stats-grid-letters": (("verify", "descent-stats", "--n", "1", "--p", "4471"),
                                   ENUMERATION_LIMIT),
    **{f"grid-n-{suite}": (("verify", suite, "--n", str(GRID_N_LIMIT + 1)), GRID_N_LIMIT)
       for suite in ("eigen", "duality", "sf-numbers")},
    "samples-plus": (("verify", "bijection-plus", "--samples", str(SAMPLE_LIMIT + 1)),
                     SAMPLE_LIMIT),
    "samples-minus": (("verify", "bijection-minus", "--samples", str(SAMPLE_LIMIT + 1)),
                      SAMPLE_LIMIT),
}


@pytest.mark.parametrize("argv, cap", OVER_CAP.values(), ids=OVER_CAP.keys())
def test_every_cap_refuses_past_its_value(capsys, argv, cap):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("carries-lab: ") and err.count("\n") == 1
    assert f"limited to {cap} " in err and "Traceback" not in err


# Every verify keyword but the seed bounds a grid or the sampled tier.
GRID_BOUNDS = {"b_max", "n_max", "p_max", "r_max", "s_max", "cutoff", "samples"}
HUGE = 10**30


def _huge_calls():
    """One verify call per grid bound or case flag of each suite, with that one value huge."""
    for suite, function in sorted(verify.SUITES.items()):
        signature = inspect.signature(function).parameters
        for flag, key in cli._VERIFY_KEYWORDS.items():
            if key in GRID_BOUNDS and key in signature:
                yield pytest.param(suite, (f"--{flag}", str(HUGE)), id=f"{suite}-{flag}")
        if "cases" in signature:
            first = signature["cases"].default[0]
            for index, flag in enumerate(cli._CASE_FLAGS[:len(first)]):
                case = list(first)
                case[index] = HUGE
                if flag == "p":  # a valid huge p takes b = 1 mod p (sign +) or -1 mod p (-)
                    case[0] = HUGE - 1 if suite == "bijection-minus" else HUGE + 1
                argv = [bit for name, value in zip(cli._CASE_FLAGS, case)
                        for bit in (f"--{name}", str(value))]
                yield pytest.param(suite, tuple(argv), id=f"{suite}-case-{flag}")


def test_every_verify_keyword_is_a_grid_bound_or_the_seed():
    assert set(cli._VERIFY_KEYWORDS.values()) == GRID_BOUNDS | {"seed"}


@pytest.mark.parametrize("suite, argv", _huge_calls())
def test_every_grid_bound_and_case_flag_has_a_cap(capsys, monkeypatch, suite, argv):
    # A bound with no cap would run without end: the alarm turns that hang into a failure.
    def hung(signum, frame):
        raise TimeoutError(f"verify {suite} {' '.join(argv)} was not refused within 5 s")

    monkeypatch.setattr(verify, "SuiteCase", lambda *case: pytest.fail("a case ran"))
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(5)
    try:
        code, out, err = run(capsys, "verify", suite, *argv)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert (code, out) == (2, "")
    assert err.startswith("carries-lab: ") and " is limited to " in err


def test_one_summand_moments_take_the_step_cap(capsys):
    code, out, _ = run(capsys, "moments", *CHAIN, "--n", "1",
                       "--r", str(STEP_LIMIT), "--s", str(STEP_LIMIT))
    assert code == 0 and json.loads(out)["r"] == STEP_LIMIT


def test_every_entry_point_uses_one_validity_rule(capsys):
    for sign in ("+", "-"):
        for b in range(2, 13):
            valid = valid_parameters(sign, b)
            words = MultiDigitWord(b, ((0, 1), (1, 1)))
            for p in range(1, 14):
                checks = [
                    lambda: make_process(sign, b, 2, p),
                    lambda: (bijection_plus if sign == "+" else bijection_minus)(words, p),
                ]
                if sign == "+":
                    checks.append(lambda: shuffle_probability(ColoredPermutation.identity(2, p), b))
                for check in checks:
                    try:
                        check()
                        accepted = True
                    except ValueError as exc:
                        assert "mod p" in str(exc)
                        accepted = False
                    assert accepted == (p in valid), (check, sign, b, p)
                code, out, err = run(capsys, "shuffle", "--sign", sign, "--b", str(b),
                                     "--n", "2", "--p", str(p), "--N", "1")
                assert (code == 0) == (p in valid) and (code == 0 or "mod p" in err)


def test_smallest_valid_bases_match_a_trial_search():
    # The stated rule against trying every base through the validity rule itself.
    def trial(sign, p):
        found = []
        for b in range(2, 10**4):
            try:
                parameter_ratio(sign, b, p)
            except ValueError:
                continue
            found.append(b)
            if len(found) == 3:
                return found

    for a in range(1, 41):
        for c in range(1, a + 1):
            for sign in ("+", "-"):
                found = trial(sign, Fraction(a, c))
                for count in (1, 2, 3):
                    assert smallest_valid_bases(sign, Fraction(a, c), count) == found[:count]
    for sign, p in (("*", 2), ("+", Fraction(1, 2)), ("-", Fraction(2, 3))):
        with pytest.raises(ValueError):
            smallest_valid_bases(sign, p)


def test_invalid_parameters_exit_two(capsys):
    code, _, err = run(capsys, "matrix", "--sign", "+", "--b", "2", "--n", "2", "--p", "5")
    assert code == 2 and err.startswith("carries-lab:")


# Eigen output of the classical two-summand chain, as the CLI writes it.
_EIGEN_JSON = """\
{
  "schema": 1,
  "params": {
    "sign": "+",
    "b": 2,
    "n": 2,
    "p": "1"
  },
  "eigenvalues": [
    "1",
    "1/2"
  ],
  "left": {
    "dim": 2,
    "rows": [
      [
        "1",
        "1"
      ],
      [
        "1",
        "-1"
      ]
    ]
  },
  "right": {
    "dim": 2,
    "rows": [
      [
        "1/2",
        "1/2"
      ],
      [
        "1/2",
        "-1/2"
      ]
    ]
  }
}
"""


# Conditional moments of a three-summand chain at p = 3/2, as the CLI writes them.
_MOMENTS_JSON = """\
{
  "schema": 1,
  "params": {
    "sign": "+",
    "b": 4,
    "n": 3,
    "p": "3/2"
  },
  "start": 1,
  "r": 2,
  "s": 1,
  "mean": "21/16",
  "variance": "85/256",
  "cov": "5/256"
}
"""


# Eigen output at p = 3/2 on six states: L rows over powers of c = 2.
_EIGEN_P32_JSON = """\
{
  "schema": 1,
  "params": {
    "sign": "+",
    "b": 4,
    "n": 5,
    "p": "3/2"
  },
  "eigenvalues": [
    "1",
    "1/4",
    "1/16",
    "1/64",
    "1/256",
    "1/1024"
  ],
  "left": {
    "dim": 6,
    "rows": [
      [
        "1",
        "2933/32",
        "7249/16",
        "5339/16",
        "509/16",
        "1/32"
      ],
      [
        "1",
        "529/16",
        "293/8",
        "-55",
        "-125/8",
        "-1/16"
      ],
      [
        "1",
        "77/8",
        "-59/4",
        "-13/4",
        "29/4",
        "1/8"
      ],
      [
        "1",
        "1/4",
        "-13/2",
        "8",
        "-5/2",
        "-1/4"
      ],
      [
        "1",
        "-7/2",
        "4",
        "-1",
        "-1",
        "1/2"
      ],
      [
        "1",
        "-5",
        "10",
        "-10",
        "5",
        "-1"
      ]
    ]
  },
  "right": {
    "dim": 6,
    "rows": [
      [
        "4/3645",
        "14/729",
        "89/729",
        "497/1458",
        "2857/7290",
        "91/729"
      ],
      [
        "4/3645",
        "8/729",
        "23/729",
        "10/729",
        "-139/3645",
        "-14/729"
      ],
      [
        "4/3645",
        "2/729",
        "-7/729",
        "-25/1458",
        "97/7290",
        "7/729"
      ],
      [
        "4/3645",
        "-4/729",
        "-1/729",
        "19/729",
        "-34/3645",
        "-8/729"
      ],
      [
        "4/3645",
        "-10/729",
        "41/729",
        "-115/1458",
        "37/7290",
        "22/729"
      ],
      [
        "4/3645",
        "-16/729",
        "119/729",
        "-404/729",
        "3041/3645",
        "-308/729"
      ]
    ]
  }
}
"""


# Stationary moments at p = 4/3 with --float, through the exact stationary law.
_MOMENTS_FLOAT_JSON = """\
{
  "schema": 1,
  "params": {
    "sign": "+",
    "b": 5,
    "n": 3,
    "p": "4/3"
  },
  "start": "stationary",
  "r": 1,
  "mean": "1.250000000000",
  "variance": "0.333333333333",
  "cov": "0.066666666667"
}
"""


# Sign - at p = 1: n states, state n - m for column quotient m.
_MATRIX_MINUS_JSON = """\
[
  [
    "1/27",
    "16/27",
    "10/27"
  ],
  [
    "4/27",
    "19/27",
    "4/27"
  ],
  [
    "10/27",
    "16/27",
    "1/27"
  ]
]
"""


# Sign - at p = 3: even factors enter with negated colors.
_SHUFFLE_MINUS_JSON = """\
{
  "schema": 1,
  "b": 5,
  "n": 3,
  "p": 3,
  "sign": "-",
  "seed": 7,
  "words": [
    [
      2,
      1,
      3
    ],
    [
      0,
      0,
      4
    ],
    [
      0,
      2,
      4
    ],
    [
      0,
      4,
      1
    ],
    [
      0,
      0,
      3
    ],
    [
      3,
      0,
      1
    ]
  ],
  "elements": [
    [
      [
        2,
        2
      ],
      [
        1,
        1
      ],
      [
        3,
        0
      ]
    ],
    [
      [
        2,
        2
      ],
      [
        1,
        1
      ],
      [
        3,
        2
      ]
    ],
    [
      [
        2,
        1
      ],
      [
        1,
        1
      ],
      [
        3,
        0
      ]
    ],
    [
      [
        3,
        0
      ],
      [
        1,
        1
      ],
      [
        2,
        2
      ]
    ],
    [
      [
        3,
        0
      ],
      [
        1,
        1
      ],
      [
        2,
        2
      ]
    ],
    [
      [
        2,
        2
      ],
      [
        3,
        1
      ],
      [
        1,
        2
      ]
    ]
  ],
  "descents": [
    1,
    2,
    1,
    2,
    2,
    2
  ]
}
"""


# Sign - at p = 1: the dash end, counted at every odd step, always fires.
_SHUFFLE_ONE_COLOR_JSON = """\
{
  "schema": 1,
  "b": 3,
  "n": 3,
  "p": 1,
  "sign": "-",
  "seed": 11,
  "words": [
    [
      1,
      2,
      1
    ],
    [
      1,
      2,
      2
    ],
    [
      0,
      0,
      2
    ],
    [
      1,
      2,
      2
    ]
  ],
  "elements": [
    [
      [
        1,
        0
      ],
      [
        3,
        0
      ],
      [
        2,
        0
      ]
    ],
    [
      [
        1,
        0
      ],
      [
        3,
        0
      ],
      [
        2,
        0
      ]
    ],
    [
      [
        1,
        0
      ],
      [
        3,
        0
      ],
      [
        2,
        0
      ]
    ],
    [
      [
        1,
        0
      ],
      [
        3,
        0
      ],
      [
        2,
        0
      ]
    ]
  ],
  "descents": [
    1,
    1,
    1,
    1
  ]
}
"""


# Each argv with the exact bytes the CLI writes for it.
PINNED_OUTPUTS = [
    (["--format", "csv", "--float", "--digits", "3",
      "matrix", "--sign", "-", "--b", "8", "--n", "3", "--p", "3"],
     "dim,4\n0.000,0.234,0.656,0.109\n0.002,0.314,0.615,0.068\n"
     "0.008,0.398,0.555,0.039\n0.020,0.480,0.480,0.020\n"),
    (["eigen", "--sign", "+", "--b", "2", "--n", "2", "--p", "1"], _EIGEN_JSON),
    (["--format", "csv", "eigen", "--sign", "+", "--b", "2", "--n", "2", "--p", "1"],
     "eigenvalues,1,1/2\nleft\ndim,2\n1,1\n1,-1\nright\ndim,2\n1/2,1/2\n1/2,-1/2\n"),
    (["--format", "csv", "--float",
      "moments", "--sign", "-", "--b", "8", "--n", "3", "--p", "3", "--stationary", "--r", "1"],
     "schema,1\nstart,stationary\nr,1\nmean,1.666666666667\nvariance,0.333333333333\n"
     "cov,-0.041666666667\n"),
    (["--format", "csv",
      "simulate", "--sign", "-", "--b", "2", "--n", "3", "--p", "1", "--N", "2", "--seed", "9"],
     "step,kappa,remainder,digits\n1,1,1,1 1 1\n2,2,1,0 0 0\n"),
    (["--format", "csv",
      "shuffle", "--sign", "-", "--b", "5", "--n", "3", "--p", "3", "--N", "2", "--seed", "11"],
     "step,descent,word,element\n1,2,3 4 3,(1,0)(3,1)(2,0)\n2,1,3 4 4,(1,0)(3,0)(2,2)\n"),
    (["--format", "csv", "digits", "--x", "9", "--sign", "-", "--b", "2"],
     "schema,1\nx,9\nsign,-\nb,2\nd,0\nvalue,9\ndigits,1 0 0 1 1\n"),
    # p = 3/2 with b = 4, the smallest valid base for sign +: R has c = 2.
    (["--format", "csv", "eigen", "--sign", "+", "--b", "4", "--n", "3", "--p", "3/2"],
     "eigenvalues,1,1/4,1/16,1/64\nleft\ndim,4\n1,93/8,15/2,1/8\n1,9/4,-3,-1/4\n"
     "1,-3/2,0,1/2\n1,-3,3,-1\nright\ndim,4\n4/81,8/27,13/27,14/81\n"
     "4/81,2/27,-2/27,-4/81\n4/81,-4/27,1/27,5/81\n4/81,-10/27,22/27,-40/81\n"),
    (["moments", "--sign", "+", "--b", "4", "--n", "3", "--p", "3/2",
      "--i", "1", "--r", "2", "--s", "1"], _MOMENTS_JSON),
    (["eigen", "--sign", "+", "--b", "4", "--n", "5", "--p", "3/2"], _EIGEN_P32_JSON),
    (["--float", "moments", "--stationary", "--sign", "+", "--b", "5", "--n", "3",
      "--p", "4/3", "--r", "1"], _MOMENTS_FLOAT_JSON),
    (["matrix", "--sign", "-", "--b", "3", "--n", "3", "--p", "1"], _MATRIX_MINUS_JSON),
    # b = 1000: binomials of large arguments m b + n.
    (["--format", "csv", "matrix", "--sign", "+", "--b", "1000", "--n", "2", "--p", "999"],
     "dim,3\n3/1000000,251247/500000,497503/1000000\n"
     "1/1000000,250749/500000,498501/1000000\n0,1001/2000,999/2000\n"),
    (["shuffle", "--sign", "-", "--b", "5", "--n", "3", "--p", "3", "--N", "6", "--seed", "7"],
     _SHUFFLE_MINUS_JSON),
    (["shuffle", "--sign", "-", "--b", "3", "--n", "3", "--p", "1", "--N", "4", "--seed", "11"],
     _SHUFFLE_ONE_COLOR_JSON),
    (["--format", "csv",
      "shuffle", "--sign", "+", "--b", "4", "--n", "3", "--p", "3", "--N", "3", "--seed", "2"],
     "step,descent,word,element\n1,0,0 0 0,(1,0)(2,0)(3,0)\n"
     "2,2,2 1 2,(2,2)(1,1)(3,2)\n3,1,2 1 0,(2,0)(3,0)(1,2)\n"),
]


@pytest.mark.parametrize("argv, expected", PINNED_OUTPUTS)
def test_output_bytes_are_pinned(capsys, argv, expected):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (0, expected, "")


# sha256 of the JSON of long default-seed `shuffle` traces, where words repeat many times:
# high and low reuse, exactly 256 letters, sign -, and letters past 256 (pairs).
PINNED_SHUFFLE_DIGESTS = [
    (["--b", "4", "--n", "4", "--p", "3", "--N", "2000"],
     "c1f9b2c89cf44981a13fede02e3079d6ad097c921fdf7bbe88343d56b7bb7040"),
    (["--b", "17", "--n", "4", "--p", "16", "--N", "2000"],
     "149e4de33e1a677e47f2ad2198c0bd69260a2bba3f2633a923e4c25bd1882aaa"),
    (["--b", "129", "--n", "2", "--p", "128", "--N", "2000"],
     "151f4a9c049451f89e99bb5097880769f3298a55a258591191ae22aecdd15018"),
    (["--sign", "-", "--b", "5", "--n", "3", "--p", "3", "--N", "2000"],
     "49fc5adf888e3d0f2dd712aa7a433963c11572f6f3dfc621afe65d1a0d3a282c"),
    (["--b", "3000", "--n", "2", "--p", "2999", "--N", "500"],
     "456c36ac145d2b8b26ce8dc63836517ecd61ee41ac4b75a5a1cf3d61a801f9fd"),
]


@pytest.mark.parametrize("argv, digest", PINNED_SHUFFLE_DIGESTS)
def test_long_shuffle_traces_are_pinned(capsys, argv, digest):
    code, out, err = run(capsys, "shuffle", *argv)
    assert (code, hashlib.sha256(out.encode()).hexdigest(), err) == (0, digest, "")


def json_dumps_text(obj, as_float=False, digits=12):
    """The oracle for the renderer: what ``json.dumps`` writes at a two-space indent."""
    def rational(value):
        return cli._decimal_string(value, digits) if as_float else str(value)
    return json.dumps(obj, indent=2, default=rational) + "\n"


def rendered(argv):
    """The result object of a subcommand and the JSON text the CLI renders for it."""
    args = cli.build_parser().parse_args(argv)
    result = getattr(cli, f"cmd_{args.command}")(args)
    return result[0], "".join(cli._render(result, args))


class Colour(IntEnum):
    RED = 1
    BLUE = 2


RENDER_SHAPES = {
    "empties": [[], (), {}, [[], ()], {"a": [], "b": {}, "c": ()}, [[[]]], [{}], ((), (1,))],
    "bools-and-ints": [True, 1, 0, False],
    "bool-rows": ((True, 1), (0, False)),
    "none": None,
    "top-level-int": 7,
    "big-and-negative-ints": [-1, -(10**300) - 7, 10**299, 0, (-5, 7), {"x": -3}],
    "floats": [0.0, 1e-05, 12.345, -2.5, {"wall_time_s": 0.125}],
    "strings": ["é", '"', "\n", "\\", "", {"é\"\n\\": "ß"}],
    "fractions": [Fraction(1, 3), Fraction(-7, 2), (Fraction(0), Fraction(5)), {"v": Fraction(2)}],
    "int-tuples": ((1, 2), (3, 4, 5), (6,)),
    "int-rows-with-an-empty-one": [(1, 2), ()],
    "nested-int-rows": [((1, 0), (2, 1)), ((2, 2),), []],
    "window-rows": [((1, 0), (2, 1)), ((2, 2),), ((0, -3), (10**40, 0))],
    "four-level-rows": [[[[1], [2, 3]]], ([(4, 0)],)],
    "deep-rows-with-an-empty-one": [[[1, 2], [3]], [[4], []]],
    "deep-rows-with-a-bool": [[(1, 0), (2, True)], [(3, 4)]],
    "mixed-rows": [(1, "a"), [2, None], (Fraction(1, 2), 3)],
    "int-rows-with-a-float": [(1, 2.5), (3, 4)],
    "int-enum-row": [(Colour.RED, Colour.BLUE), (1, 2)],
    "list-and-tuple-rows": [[1, 2], (3, 4), [5]],
    "uniform-depth-three": [[[1, 2], [3, 4]], [[5, 6], [7, 8]], [[9, 10], [11, -12]]],
    "a-300-int-row": [list(range(-150, 150))],
    "rows-of-lengths-one-to-six": [tuple(range(k, 2 * k)) for k in (3, 1, 6, 2, 5, 4)],
    "deep": {"a": {"b": [{"c": [[1, [2, [3]]]]}]}},
    "ints-then-equal-non-ints": {"ints": [(1, 0), (2, 1)], "bools": [(1, True), (0, False)],
                                 "floats": [(2, 2.0)], "enums": [(1, Colour.RED)]},
    "one-value-at-every-length-and-depth": [[[10**20], [10**20, 10**20, 10**20]], [[10**20]],
                                            [10**20, [10**20]], 10**20],
}


@pytest.mark.parametrize("as_float", (False, True), ids=("num-den", "float"))
@pytest.mark.parametrize("obj", RENDER_SHAPES.values(), ids=RENDER_SHAPES.keys())
def test_renderer_writes_what_json_dumps_writes(obj, as_float):
    args = argparse.Namespace(format="json", as_float=as_float, digits=12, command="test")
    assert "".join(cli._render((obj, ()), args)) == json_dumps_text(obj, as_float)


def _subcommand_argvs(sign):
    b = {"+": "7", "-": "8"}[sign]
    chain = ("--sign", sign, "--b", b, "--p", "3")
    yield "matrix", *chain, "--n", "3"
    yield "eigen", *chain, "--n", "4"
    yield "moments", *chain, "--n", "3", "--i", "1", "--r", "2", "--s", "1"
    yield "moments", *chain, "--n", "3", "--stationary", "--r", "2"
    yield "moments", *chain, "--n", "1", "--r", "3", "--s", "2"
    yield "simulate", *chain, "--n", "3", "--N", "25", "--seed", "5"
    yield "shuffle", *chain, "--n", "3", "--N", "25", "--seed", "5"
    yield "digits", "--x", "12345", "--sign", sign, "--b", "3", "--d", "-1"


@pytest.mark.parametrize("sign", ("+", "-"))
def test_every_subcommand_renders_what_json_dumps_writes(sign):
    verify_argvs = [("verify", suite) for suite in ("duality", "sf-numbers", "examples-golden")]
    verify_argvs.append(("verify", "transition", "--b", "3", "--n", "2"))
    for argv in (*_subcommand_argvs(sign), *verify_argvs):
        for flags in ((), ("--float", "--digits", "5")):
            obj, text = rendered([*flags, *argv])
            assert text == json_dumps_text(obj, bool(flags), 5), (flags, argv)


def test_calls_at_the_digit_caps_render_what_json_dumps_writes():
    obj, text = rendered(["simulate", "--sign", "+", "--b", "7", "--n", "10", "--p", "3",
                          "--N", str(SIMULATE_LIMIT // 10)])
    assert len(obj["summand_digits"]) * 10 == SIMULATE_LIMIT
    assert text == json_dumps_text(obj)
    obj, text = rendered(["shuffle", "--sign", "+", "--b", "4", "--n", "4", "--p", "3",
                          "--N", str(SHUFFLE_LIMIT // 4), "--seed", "2"])
    assert len(obj["words"]) * 4 == SHUFFLE_LIMIT
    assert text == json_dumps_text(obj)


def test_rendering_never_reaches_the_pure_python_encoder(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("json fell back to its pure-Python encoder")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    with pytest.raises(AssertionError, match="pure-Python"):
        json.dumps([1], indent=2)
    code, out, err = run(capsys, "simulate", "--sign", "+", "--b", "7", "--n", "10", "--p", "3",
                         "--N", str(SIMULATE_LIMIT // 10))
    assert (code, len(out), err) == (0, 11_600_181, "")
    for argv, expected in PINNED_OUTPUTS:
        assert run(capsys, *argv) == (0, expected, "")


def python_frames(result, args):
    """Python frames entered while ``result`` renders: a fixed count at every size means
    every row, however many, is laid out by C code alone.  The collector stays off, so no
    finalizer of an earlier test's garbage runs in between."""
    calls = []
    previous = sys.getprofile()
    gc.collect()
    gc.disable()
    sys.setprofile(lambda frame, event, arg: event == "call" and calls.append(None))
    try:
        cli._render(result, args)
    finally:
        sys.setprofile(previous)
        gc.enable()
    return len(calls)


def test_rendering_makes_no_python_call_per_row():
    def python_calls(argv):
        args = cli.build_parser().parse_args(argv)
        return python_frames(getattr(cli, f"cmd_{args.command}")(args), args)

    chain = ("--sign", "+", "--b", "7", "--n", "10", "--p", "3", "--seed", "5")
    cards = ("--sign", "+", "--b", "4", "--n", "4", "--p", "3", "--seed", "5")
    for command, flags in (("simulate", chain), ("shuffle", cards)):
        counts = [python_calls([command, *flags, "--N", size]) for size in ("10", "10000")]
        assert counts[0] == counts[1] > 0, (command, counts)


def test_int_rows_render_with_a_fixed_number_of_python_frames():
    # Every digit 0..6 turns up at both sizes, so a table of int texts that a Python
    # frame filled once per distinct value would also keep the count fixed.
    def int_rows(size):
        return {"flat": [k % 7 for k in range(size)],
                "rows": [[(k + j) % 7 for j in range(10)] for k in range(size)],
                "deep": [[[k % 7, (k + 1) % 7], [(k + 2) % 7]] for k in range(size)]}

    args = argparse.Namespace(format="json", as_float=False, digits=12, command="test")
    counts = [python_frames((int_rows(size), ()), args) for size in (10**3, 10**4)]
    assert counts[0] == counts[1] > 0, counts
