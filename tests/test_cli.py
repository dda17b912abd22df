import json
import math
import os
import subprocess
import sys
import time
from unittest import mock

import numpy as np
import pytest

import aperiodica as ap
from aperiodica import cli
from aperiodica.cli import main

PAPERFOLDING_RULE = "a: ab\nb: cb\nc: ad\nd: cd\n"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def validation_error(capsys, *argv) -> str:
    """stderr of a call that exits 2 with an "error: " line and no stdout."""
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "") and err.startswith("error: ")
    return err


class TestDispatch:
    def test_unknown_subcommand_exits_64(self, capsys):
        code, _, err = run_cli(capsys, "frobnicate")
        assert code == 64
        assert "unknown subcommand" in err

    def test_no_arguments_prints_usage(self, capsys):
        code, _, _ = run_cli(capsys)
        assert code == 64

    def test_help_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "--help")
        assert code == 0
        assert "commands:" in out

    def test_bad_flag_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "coincide", "--no-such-flag")
        assert code == 2

    def test_missing_input_file_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "autocorr", "--input",
                               str(tmp_path / "none.csv"), "--max-diff", "2")
        assert code == 2
        assert "not found" in err


def fresh_python(*args):
    """A new interpreter run on args, this aperiodica first on its path."""
    src = os.path.dirname(os.path.dirname(ap.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


def test_import_leaves_out_scipy_signal():
    # numpy is the one runtime dependency: scipy would add ~0.4 s and ~25 MB
    # to every CLI process
    code = ("import sys, aperiodica.cli, aperiodica.paperfolding; "
            "print(any(m.partition('.')[0] == 'scipy' for m in sys.modules))")
    result = fresh_python("-c", code)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


def test_complement_check_leaves_out_numpy_ma():
    # np.setdiff1d's np.unique imported numpy.ma, 11.5 ms on first use
    code = ("import sys, numpy as np, aperiodica as ap; "
            "ap.complement_check(np.arange(-100, 101, 2.0), ap.LatticeBasis(np.eye(1)), 100); "
            "print('numpy.ma' in sys.modules)")
    result = fresh_python("-c", code)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


def test_iterate_mfs_leaves_out_numpy_ma():
    # len(np.unique(...)) tested for repeats, and np.unique imported
    # numpy.ma on first use (16 ms)
    code = ("import sys, aperiodica as ap; "
            "ap.iterate_mfs(ap.mfs_from_substitution(ap.PAPERFOLDING), [[0], [], [], []], steps=3); "
            "print('numpy.ma' in sys.modules)")
    result = fresh_python("-c", code)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


class TestParsersOncePerProcess:
    """The subcommand parsers are built once per process and reused: each
    call prints what the same call prints in a fresh process."""

    @staticmethod
    def fresh(*argv):
        result = fresh_python("-m", "aperiodica.cli", *argv)
        return result.returncode, result.stdout, result.stderr

    def test_calls_after_a_failed_parse_match_fresh_processes(self, capsys, tmp_path,
                                                              monkeypatch):
        # help and usage text wrap at COLUMNS, here and in the fresh process
        monkeypatch.setenv("COLUMNS", "80")
        rule = tmp_path / "paperfolding.rule"
        rule.write_text(PAPERFOLDING_RULE)
        # the failed parse reads --max-power 1 before it meets the unknown
        # flag: a parser that kept it would cut the next search short
        calls = [("coincide", "--rule", str(rule), "--max-power", "1", "--bogus"),  # exit 2
                 ("coincide", "--rule", str(rule)),
                 ("spectrum", "--help"),                                 # exit 0
                 ("frobnicate",)]                                        # exit 64
        codes = []
        for argv in calls:
            here = run_cli(capsys, *argv)
            assert here == self.fresh(*argv)
            codes.append(here[0])
        assert codes == [2, 0, 0, 64]
        assert cli._build_parsers() is cli._build_parsers()


class TestCoincide:
    def test_paperfolding_output(self, capsys, tmp_path):
        rule = tmp_path / "paperfolding.rule"
        rule.write_text(PAPERFOLDING_RULE)
        code, out, _ = run_cli(capsys, "coincide", "--rule", str(rule))
        assert code == 0
        assert "coincidence at power 2" in out

    def test_thue_morse_never(self, capsys, tmp_path):
        rule = tmp_path / "tm.rule"
        rule.write_text("a: ab\nb: ba\n")
        code, out, _ = run_cli(capsys, "coincide", "--rule", str(rule))
        assert code == 0
        assert "proven never" in out

    def test_search_cut_below_the_coincidence(self, capsys, tmp_path):
        # the paperfolding rule coincides at power 2
        rule = tmp_path / "paperfolding.rule"
        rule.write_text(PAPERFOLDING_RULE)
        code, out, _ = run_cli(capsys, "coincide", "--rule", str(rule), "--max-power", "1")
        assert code == 0
        assert out == "no coincidence found up to power 1\n"

    @pytest.mark.parametrize("power", ["0", "-1"])
    def test_max_power_below_one_exits_2(self, capsys, tmp_path, power):
        rule = tmp_path / "paperfolding.rule"
        rule.write_text(PAPERFOLDING_RULE)
        err = validation_error(capsys, "coincide", "--rule", str(rule),
                               "--max-power", power)
        assert "max_power" in err


class TestGenerate:
    def scheme_file(self, tmp_path):
        path = tmp_path / "scheme.json"
        path.write_text(json.dumps({
            "kind": "qadic", "q": 2,
            "paperfolding": {"fixed_point": "w1", "letters": ["a", "b"]},
        }))
        return path

    def test_generate_comb_csv(self, capsys, tmp_path):
        out = tmp_path / "comb.csv"
        code, _, _ = run_cli(capsys, "generate", "--scheme",
                             str(self.scheme_file(tmp_path)),
                             "--region", "0,10", "--output", str(out))
        assert code == 0
        comb = ap.read_comb_csv(out)
        assert comb.positions.tolist() == [0, 1, 3, 4, 7, 8, 9]

    def test_q_may_be_omitted(self, capsys, tmp_path):
        outputs = []
        for q in ({"q": 2}, {}):
            path = tmp_path / "scheme.json"
            path.write_text(json.dumps({"kind": "qadic", "classes": [[1, 4]], **q}))
            code, out, _ = run_cli(capsys, "generate", "--scheme", str(path),
                                   "--region", "-20,20")
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]
        assert len(outputs[0].splitlines()) == 11

    def test_euclidean_scheme(self, capsys, tmp_path):
        path = tmp_path / "fib.json"
        path.write_text(json.dumps({
            "kind": "euclidean", "theta": "tau",
            "window": [[-0.3, 0.7]],
        }))
        out = tmp_path / "fib.csv"
        code, _, _ = run_cli(capsys, "generate", "--scheme", str(path),
                             "--region", "0,30", "--output", str(out))
        assert code == 0
        scheme = ap.fibonacci_scheme()
        window = ap.EuclideanWindow(((-0.3, 0.7),))
        in_memory = tmp_path / "in_memory.csv"
        ap.write_comb_csv(ap.generate_model_set(scheme, window, (0, 30)), in_memory)
        assert out.read_bytes() == in_memory.read_bytes()

    def test_negative_region_as_separate_token(self, capsys, tmp_path):
        path = tmp_path / "fib.json"
        path.write_text(json.dumps({"kind": "euclidean", "theta": "tau",
                                    "window": [[-0.3, 0.7]]}))
        code, spaced, _ = run_cli(capsys, "generate", "--scheme", str(path),
                                  "--region", "-50,50")
        assert code == 0
        code, joined, _ = run_cli(capsys, "generate", "--scheme", str(path),
                                  "--region=-50,50")
        assert code == 0
        assert spaced == joined

    @pytest.mark.parametrize("scheme, region", [
        ({"kind": "euclidean", "theta": "tau", "window": [[-0.3, 0.7]]}, "5"),
        ({"kind": "euclidean", "theta": "tau", "window": [[-0.3, 0.7]]}, "a,b"),
        ({"kind": "euclidean", "theta": "tau"}, "0,10"),
        ({"kind": "euclidean", "theta": "sqrt2", "window": [[-0.3, 0.7]]}, "0,10"),
        ({"kind": "euclidean", "theta": "tau", "window": [[-0.3, 0.7]]}, "0,inf"),
        ({"kind": "euclidean", "theta": "tau", "window": [[-0.3, 0.7]]}, "nan,5"),
        ({"kind": "qadic", "classes": [[0, 4]]}, "0,nan"),
        ({"kind": "qadic", "classes": [[0, 4]]}, "0,inf"),
    ], ids=["one-number-region", "non-numeric-region", "no-window", "theta-sqrt2",
            "infinite-region", "nan-region", "2-adic-nan-region", "2-adic-infinite-region"])
    def test_bad_input_exits_2(self, capsys, tmp_path, scheme, region):
        path = tmp_path / "scheme.json"
        path.write_text(json.dumps(scheme))
        code, out, err = run_cli(capsys, "generate", "--scheme", str(path),
                                 "--region", region)
        assert (code, out) == (2, "") and err


class TestMalformedInput:
    @pytest.mark.parametrize("argv", [
        ("paperfolding-spectrum", "--weights", "1,x,0,0"),
        ("randomtiling", "--u", "abc", "--v", "1", "--p", "0.5"),
        ("randomtiling", "--u", "1", "--v", "tau", "--p", "0.5", "--spectrum",
         "--dk", "0"),
        ("randomtiling", "--u", "2", "--v", "1", "--p", "0.5", "--spectrum",
         "--kmax", "nan"),
        ("paperfolding-spectrum", "--weights", "1,1,0,0", "--kmax", "inf"),
        ("compare", "--model", "rational-pp", "--tolerance", "1", "--seeds", "0"),
        ("compare", "--model", "fibonacci-ac", "--tolerance", "1", "--seeds", "0"),
        ("compare", "--model", "fibonacci-ac", "--tolerance", "1", "--kpoints", "0"),
        ("compare", "--model", "paperfolding-binary", "--tolerance", "1",
         "--log2n", "-1"),
        # tau and tau used to print the irrational closed form's single atom
        ("randomtiling", "--u", "tau", "--v", "tau", "--p", "0.5", "--spectrum"),
    ], ids=["weights-not-complex", "length-not-a-number", "dk-zero", "tiling-kmax-nan",
            "paperfolding-kmax-inf", "rational-no-seeds", "fibonacci-no-seeds",
            "no-kpoints", "negative-log2n", "module-lengths-rational-ratio"])
    def test_exits_2_with_message(self, capsys, argv):
        validation_error(capsys, *argv)

    @pytest.mark.parametrize("argv, message", [
        (("randomtiling", "--u", "2", "--v", "1", "--p", "half"),
         "probability must be a number; got 'half'"),
        (("randomtiling", "--u", "2", "--v", "1", "--p", "0.5", "--heights"),
         "heights need module interval lengths"),
        (("paperfolding-spectrum", "--weights", "1,1,0"), "exactly four weights"),
    ], ids=["probability-not-a-number", "heights-rational", "three-weights"])
    def test_exits_2_naming_the_fault(self, capsys, argv, message):
        err = validation_error(capsys, *argv)
        assert message in err

    # without their size checks these run for minutes
    @pytest.mark.parametrize("argv", [
        ("paperfolding-spectrum", "--weights", "1,1,0,0", "--kmax", "1e9"),
        ("randomtiling", "--u", "2", "--v", "1", "--p", "0.5", "--spectrum",
         "--kmax", "1e12", "--dk", "1e-3"),
        ("compare", "--model", "paperfolding-binary", "--tolerance", "1",
         "--log2n", "80"),
        # these two used to fail in numpy on a 14.6 TiB array, with a traceback
        ("randomtiling", "--u", "2", "--v", "1", "--p", "0.5",
         "--intervals", "1000000000000"),
        ("compare", "--model", "rational-pp", "--tolerance", "1",
         "--intervals", "1000000000000"),
        # a numpy MemoryError traceback on a linspace of 1e15 k
        ("compare", "--model", "fibonacci-ac", "--tolerance", "1",
         "--kpoints", "1000000000000000"),
    ], ids=["paperfolding-atoms", "tiling-k-grid", "paperfolding-comb", "tiling-sample",
            "rational-pp-sample", "fibonacci-kpoints"])
    def test_over_budget_exits_2_at_once(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "budget" in err

    def test_tiling_spectrum_writes_nothing_on_a_bad_grid(self, capsys, tmp_path):
        # the grid is built before either table is written
        base = tmp_path / "rt"
        code, _, err = run_cli(capsys, "randomtiling", "--u", "2", "--v", "1",
                               "--p", "0.5", "--spectrum", "--kmax", "nan",
                               "--output", str(base))
        assert code == 2 and err.startswith("error: ")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("scheme, message", [
        ({"kind": "qadic", "classes": [[1]]}, '"classes" must be'),
        ({"kind": "qadic", "classes": [[1, 4]], "added": 5}, '"added" must be'),
        ({"kind": "qadic", "classes": [[1, 4]], "removed": 5}, '"removed" must be'),
        ({"kind": "qadic", "paperfolding": {"letters": ["z"]}}, '"letters" must be'),
        ({"kind": "qadic", "classes": [[1, 4]], "complete_below": "x"},
         '"complete_below" must be'),
        ([1, 2], "JSON object"),
        ({"kind": "qadic", "q": "x", "classes": [[1, 4]]}, "unsupported q"),
        ({"kind": "qadic", "q": 3, "classes": [[1, 4]]}, "unsupported q"),
        ({"kind": "qadic", "paperfolding": 3}, '"paperfolding" must be an object; got 3'),
        ({"kind": "hyperbolic"}, "unknown scheme kind 'hyperbolic'"),
        ('{"kind": "qadic",', "scheme file is not valid JSON"),  # written as it is
    ], ids=["class-not-a-pair", "added-not-a-list", "removed-not-a-list",
            "unknown-letter", "complete-below-not-an-integer", "not-an-object",
            "q-not-a-number", "q-3", "paperfolding-not-an-object", "unknown-kind",
            "not-json"])
    def test_qadic_scheme_file_exits_2(self, capsys, tmp_path, scheme, message):
        path = tmp_path / "scheme.json"
        path.write_text(scheme if isinstance(scheme, str) else json.dumps(scheme))
        err = validation_error(capsys, "generate", "--scheme", str(path),
                               "--region", "0,10")
        assert message in err

    @pytest.mark.parametrize("flag", ["--kmax", "--dk"])
    def test_spectrum_non_finite_k_exits_2(self, capsys, tmp_path, flag):
        path = tmp_path / "comb.csv"
        ap.write_comb_csv(ap.WeightedComb.from_integers(np.arange(-8, 9), np.ones(17), 8.0),
                          path)
        argv = {"--kmax": "1", "--dk": "0.01", flag: "nan"}
        validation_error(capsys, "spectrum", "--input", str(path),
                         *[t for kv in argv.items() for t in kv])

    def test_spectrum_grid_over_budget_exits_2(self, capsys, tmp_path):
        # 1e15 k values: numpy used to fail on a 7.1 PiB array with a traceback
        path = tmp_path / "comb.csv"
        ap.write_comb_csv(ap.WeightedComb.from_integers(np.arange(-8, 9), np.ones(17), 8.0),
                          path)
        err = validation_error(capsys, "spectrum", "--input", str(path),
                               "--kmax", "1e12", "--dk", "1e-3")
        assert "budget" in err

    @pytest.mark.parametrize("region", [("--region", "1e19,1e19"),
                                        ("--region=-1e19,-1e19",),
                                        ("--region", "0,1e19")])
    def test_2adic_region_beyond_int64_exits_2(self, capsys, tmp_path, region):
        path = tmp_path / "q.json"
        path.write_text(json.dumps({"kind": "qadic", "classes": [[0, 4]]}))
        err = validation_error(capsys, "generate", "--scheme", str(path), *region)
        assert "int64" in err

    @pytest.mark.parametrize("argv", [
        ("autocorr", "--radius", "inf", "--max-diff", "3"),
        ("autocorr", "--radius", "0", "--max-diff", "3"),
        ("spectrum", "--radius", "inf", "--kmax", "0.01", "--dk", "0.005"),
        ("spectrum", "--radius", "0", "--kmax", "0.01", "--dk", "0.005"),
    ], ids=["autocorr-inf", "autocorr-zero", "spectrum-inf", "spectrum-zero"])
    def test_comb_radius_not_finite_positive_exits_2(self, capsys, tmp_path, argv):
        # unchecked, radius inf makes every eta and periodogram value 0
        path = tmp_path / "c.csv"
        path.write_text("x,re_weight,im_weight\n0,1,0\n")
        err = validation_error(capsys, argv[0], "--input", str(path), *argv[1:])
        assert "finite and positive" in err

    @pytest.mark.parametrize("argv", [
        ("autocorr", "--max-diff", "3"),
        ("spectrum", "--kmax", "0.01", "--dk", "0.005"),
    ], ids=["autocorr", "spectrum"])
    def test_comb_radius_that_cannot_be_inferred_exits_2(self, capsys, tmp_path, argv):
        # read as "comb radius must be finite and positive; got 0.0", a
        # radius that no option gave
        path = tmp_path / "c.csv"
        path.write_text("x,re_weight,im_weight\n0,1,0\n")
        err = validation_error(capsys, argv[0], "--input", str(path), *argv[1:])
        assert "cannot be inferred" in err and "--radius" in err

    def test_autocorr_float_points_on_one_key_exits_2(self, capsys, tmp_path):
        path = tmp_path / "comb.csv"
        path.write_text("x,re_weight,im_weight\n0,1,0\n3e-10,2,0\n1,3,0\n")
        err = validation_error(capsys, "autocorr", "--input", str(path),
                               "--radius", "2", "--max-diff", "1.5")
        assert "grid" in err

    @pytest.mark.parametrize("command", [
        ("autocorr", "--max-diff", "3"),
        ("spectrum", "--kmax", "1", "--dk", "0.25"),
    ], ids=["autocorr", "spectrum"])
    @pytest.mark.parametrize("row", ["1,abc,0", "1,1", "1,1,0,0"],
                             ids=["not-a-number", "two-values", "four-values"])
    def test_malformed_comb_row_exits_2(self, capsys, tmp_path, command, row):
        path = tmp_path / "c.csv"
        path.write_text(f"x,re_weight,im_weight\n0,1,0\n{row}\n")
        err = validation_error(capsys, command[0], "--input", str(path), *command[1:])
        assert "line 3" in err and str(path) in err

    @pytest.mark.parametrize("row", ["1_0,1,0", '"1.5",1,0'], ids=["underscore", "quoted"])
    def test_rows_float_took_but_loadtxt_does_not_exit_2(self, capsys, tmp_path, row):
        # csv and float() read 1_0 as 10 and "1.5" as 1.5; the comb file
        # format has neither, so they are malformed rows
        path = tmp_path / "c.csv"
        path.write_text(f"x,re_weight,im_weight\n0,1,0\n{row}\n")
        code, out, err = run_cli(capsys, "autocorr", "--input", str(path), "--max-diff", "3")
        assert (code, out) == (2, "")
        assert err == f"error: malformed comb row on line 3 of {path}: {row!r}\n"

    def test_non_finite_comb_weight_exits_2(self, capsys, tmp_path):
        # read "error: weights must be finite", with no file or line
        path = tmp_path / "c.csv"
        path.write_text("x,re_weight,im_weight\n0,1,0\n1,nan,0\n")
        code, out, err = run_cli(capsys, "autocorr", "--input", str(path), "--max-diff", "3")
        assert (code, out) == (2, "")
        assert err == f"error: non-finite comb weight on line 3 of {path}: '1,nan,0'\n"

    @pytest.mark.parametrize("threshold", ["nan", "inf"])
    def test_spectrum_bragg_not_finite_exits_2(self, capsys, tmp_path, threshold):
        # --bragg nan used to print an empty atom table with exit 0
        path = tmp_path / "c.csv"
        path.write_text("x,re_weight,im_weight\n-1,1,0\n0,1,0\n1,1,0\n")
        err = validation_error(capsys, "spectrum", "--input", str(path), "--kmax", "1",
                               "--dk", "0.25", "--bragg", threshold)
        assert "finite" in err

    def test_window_entry_not_a_pair_exits_2(self, capsys, tmp_path):
        path = tmp_path / "scheme.json"
        path.write_text(json.dumps({"kind": "euclidean", "window": [[1]]}))
        code, out, err = run_cli(capsys, "generate", "--scheme", str(path),
                                 "--region", "0,10")
        assert code == 2
        assert out == ""
        assert "[lo, hi]" in err


class TestErrorBoundary:
    """cli.main turns every file, decoding and validation error into one
    `error: ` line and exit 2."""

    @pytest.fixture
    def paths(self, tmp_path):
        (tmp_path / "fib.json").write_text(json.dumps(
            {"kind": "euclidean", "theta": "tau", "window": [[-0.3, 0.7]]}))
        (tmp_path / "latin1.txt").write_bytes(b"x,re_weight,im_weight\n\xe9\n")
        (tmp_path / "dir").mkdir()
        return {name: str(tmp_path / name) for name in ("fib.json", "latin1.txt", "dir")}

    @pytest.mark.parametrize("argv", [
        ("generate", "--scheme", "dir", "--region", "0,10"),
        ("generate", "--scheme", "fib.json", "--region", "0,10", "--output", "dir"),
        ("paperfolding-spectrum", "--weights", "1,1,0,0", "--output", "dir"),
        ("autocorr", "--input", "latin1.txt", "--max-diff", "2"),
        ("coincide", "--rule", "latin1.txt"),
        ("generate", "--scheme", "latin1.txt", "--region", "0,10"),
    ], ids=["scheme-is-a-directory", "generate-output-is-a-directory",
            "table-output-is-a-directory", "input-not-utf8", "rule-not-utf8",
            "scheme-not-utf8"])
    def test_file_error_exits_2(self, capsys, paths, argv):
        # each of these used to end in a traceback with exit 1
        err = validation_error(capsys, *[paths.get(a, a) for a in argv])
        assert err.count("\n") == 1

    @pytest.mark.parametrize("bound", ["NaN", "-Infinity"])
    def test_window_bound_not_finite_exits_2(self, capsys, tmp_path, bound):
        # Python's json reads both; they used to end in a traceback
        path = tmp_path / "scheme.json"
        path.write_text('{"kind": "euclidean", "window": [[%s, 0.7]]}' % bound)
        err = validation_error(capsys, "generate", "--scheme", str(path),
                               "--region", "0,10")
        assert err.startswith('error: "window" must be') and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ("autocorr", "--input", "{}", "--max-diff", "2"),
        ("spectrum", "--input", "{}", "--kmax", "1"),
        ("coincide", "--rule", "{}"),
        ("generate", "--scheme", "{}", "--region", "0,10"),
    ], ids=["autocorr", "spectrum", "coincide", "generate"])
    def test_missing_file_named(self, capsys, tmp_path, argv):
        missing = str(tmp_path / "none")
        err = validation_error(capsys, *[a.format(missing) for a in argv])
        assert err == f"error: file not found: {missing}\n"

    @pytest.mark.parametrize("argv", [
        ("autocorr", "--input", "{}", "--max-diff", "2"),
        ("coincide", "--rule", "{}"),
        ("generate", "--scheme", "{}", "--region", "0,10"),
    ], ids=["input", "rule", "scheme"])
    @pytest.mark.parametrize("rows", [0, 20_000], ids=["second-line", "deep-in-the-file"])
    def test_decode_error_names_the_file(self, capsys, tmp_path, argv, rows):
        # the message used to be the codec's alone, naming neither the file
        # nor the option
        path = tmp_path / "latin1.txt"
        body = "".join(f"{i},1,0\n" for i in range(rows))
        path.write_bytes(b"x,re_weight,im_weight\n" + body.encode() + b"\xe9,1,0\n")
        code, out, err = run_cli(capsys, *[a.format(path) for a in argv])
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {path} is not UTF-8 text: 'utf-8' codec can't "
                              "decode byte 0xe9") and err.count("\n") == 1


class TestPipelines:
    def comb_file(self, tmp_path):
        comb = ap.WeightedComb.from_integers(np.arange(-64, 65),
                                             np.ones(129), 64.0)
        path = tmp_path / "z.csv"
        ap.write_comb_csv(comb, path)
        return path

    def test_autocorr_csv(self, capsys, tmp_path):
        out = tmp_path / "eta.csv"
        code, _, _ = run_cli(capsys, "autocorr", "--input",
                             str(self.comb_file(tmp_path)),
                             "--max-diff", "5", "--output", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "z,re_eta,im_eta"
        rows = {float(r.split(",")[0]): float(r.split(",")[1]) for r in lines[1:]}
        assert abs(rows[1.0] - 1.0) < 1e-12

    def test_spectrum_and_bragg(self, capsys, tmp_path):
        out = tmp_path / "atoms.csv"
        code, _, _ = run_cli(capsys, "spectrum", "--input",
                             str(self.comb_file(tmp_path)), "--kmax", "1.5",
                             "--bragg", "0.5", "--output", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "k,intensity"
        ks = [float(r.split(",")[0]) for r in lines[1:]]
        assert any(abs(k - 1.0) < 1e-6 for k in ks)

    def test_json_format(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "spectrum", "--input",
                               str(self.comb_file(tmp_path)), "--kmax", "0.1",
                               "--dk", "0.05", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["columns"] == ["k", "value"]
        assert len(payload["rows"]) == 3


class TestRandomTiling:
    def test_sample_deterministic_bytes(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            code, _, _ = run_cli(capsys, "randomtiling", "--u", "tau", "--v", "1",
                                 "--p", "1/tau", "--intervals", "200",
                                 "--seed", "7", "--output", str(path))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_probability_token_tau_squared(self, capsys, tmp_path):
        assert cli._parse_probability("1/tau^2") == 1.0 / ap.TAU ** 2
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path, p in ((a, "1/tau^2"), (b, repr(1.0 / ap.TAU ** 2))):
            code, _, _ = run_cli(capsys, "randomtiling", "--u", "tau", "--v", "1",
                                 "--p", p, "--intervals", "200",
                                 "--seed", "7", "--output", str(path))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_heights_output(self, capsys, tmp_path):
        out = tmp_path / "heights.csv"
        code, _, _ = run_cli(capsys, "randomtiling", "--u", "tau", "--v", "1",
                             "--p", "1/tau", "--intervals", "50", "--seed", "3",
                             "--heights", "--output", str(out))
        assert code == 0
        assert out.read_text().splitlines()[0] == "x,height"

    def test_closed_form_spectrum_files(self, capsys, tmp_path):
        base = tmp_path / "spec"
        code, _, _ = run_cli(capsys, "randomtiling", "--u", "2", "--v", "1",
                             "--p", "0.5", "--spectrum", "--kmax", "2",
                             "--output", str(base))
        assert code == 0
        pp = (tmp_path / "spec.pp.csv").read_text().splitlines()
        ac = (tmp_path / "spec.ac.csv").read_text().splitlines()
        assert pp[0] == "k,intensity"
        assert ac[0] == "k,g"
        intensities = {float(r.split(",")[1]) for r in pp[1:]}
        assert all(abs(v - 4.0 / 9.0) < 1e-12 for v in intensities)

    def test_closed_form_grid_stops_at_kmax(self, capsys, tmp_path):
        base = tmp_path / "spec"
        code, _, _ = run_cli(capsys, "randomtiling", "--u", "2", "--v", "1",
                             "--p", "0.5", "--spectrum", "--kmax", "2.007",
                             "--output", str(base))
        assert code == 0
        ks = [float(r.split(",")[0])
              for r in (tmp_path / "spec.ac.csv").read_text().splitlines()[1:]]
        assert ks == ap.spectrum.uniform_grid(0.0, 2.007, 0.01).tolist()
        assert len(ks) == 201 and ks[-1] == 2.0


class TestPaperfoldingSpectrumCommand:
    def test_binary_weights(self, capsys):
        code, out, _ = run_cli(capsys, "paperfolding-spectrum", "--weights",
                               "1,1,0,0", "--rmax", "4", "--kmax", "1")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "k,intensity"
        rows = {float(r.split(",")[0]): float(r.split(",")[1]) for r in lines[1:]}
        assert rows[1.0] == 0.25
        assert rows[0.25] == 1.0 / 16.0


class TestCompare:
    def test_paperfolding_passes(self, capsys):
        code, out, _ = run_cli(capsys, "compare", "--model",
                               "paperfolding-binary", "--tolerance", "0.005",
                               "--log2n", "12")
        assert code == 0
        assert "comparison passed" in out

    def test_impossible_tolerance_fails_with_3(self, capsys):
        code, out, _ = run_cli(capsys, "compare", "--model",
                               "paperfolding-binary", "--tolerance", "1e-12",
                               "--log2n", "10")
        assert code == 3
        assert "FAILED" in out

    def test_rational_pp_model(self, capsys):
        code, out, _ = run_cli(capsys, "compare", "--model", "rational-pp",
                               "--tolerance", "0.02", "--seeds", "5",
                               "--intervals", "20000")
        assert code == 0

    def test_fibonacci_ac_model_matches_library(self, capsys):
        code, out, _ = run_cli(capsys, "compare", "--model", "fibonacci-ac",
                               "--tolerance", "0.25", "--seeds", "4",
                               "--intervals", "2000", "--kpoints", "20")
        spec = ap.fibonacci_spec()
        ks = np.linspace(0.1, 2.0, 20)
        keep = ap.needle_free(spec, ks)
        g = ap.ac_density_grid(spec, ks)[keep]
        rel = np.abs(ap.mean_ac_periodogram(spec, ks, 2000, 4, 0)[keep] - g) / g
        assert code == 0
        assert (f"max relative deviation {np.max(rel):.17g}, "
                f"mean {np.mean(rel):.17g}, tolerance 0.25 on the mean") in out

    def test_nan_deviation_fails_with_3(self, capsys):
        nan_model = lambda opts: (math.nan, math.nan, "absolute", "max")
        with mock.patch.dict(cli._COMPARE_MODELS, {"rational-pp": nan_model}):
            code, out, _ = run_cli(capsys, "compare", "--model", "rational-pp",
                                   "--tolerance", "1")
        assert code == 3
        assert "deviation nan" in out and "FAILED" in out

    def test_unknown_model_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "compare", "--model", "nope",
                               "--tolerance", "0.1")
        assert code == 2
