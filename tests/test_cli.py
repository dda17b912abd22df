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


def test_import_leaves_out_scipy_signal():
    # numpy is the one runtime dependency: scipy would add ~0.4 s and ~25 MB
    # to every CLI process
    code = ("import sys, aperiodica.cli, aperiodica.paperfolding; "
            "print(any(m.partition('.')[0] == 'scipy' for m in sys.modules))")
    src = os.path.dirname(os.path.dirname(ap.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, env={**os.environ, "PYTHONPATH": path})
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


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


    @pytest.mark.parametrize("power", ["0", "-1"])
    def test_max_power_below_one_exits_2(self, capsys, tmp_path, power):
        rule = tmp_path / "paperfolding.rule"
        rule.write_text(PAPERFOLDING_RULE)
        code, out, err = run_cli(capsys, "coincide", "--rule", str(rule),
                                 "--max-power", power)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "max_power" in err


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
        assert code == 2
        assert out == ""
        assert err


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
    ], ids=["weights-not-complex", "length-not-a-number", "dk-zero", "tiling-kmax-nan",
            "paperfolding-kmax-inf", "rational-no-seeds", "fibonacci-no-seeds",
            "no-kpoints", "negative-log2n"])
    def test_exits_2_with_message(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    # without their size checks these run for minutes
    @pytest.mark.parametrize("argv", [
        ("paperfolding-spectrum", "--weights", "1,1,0,0", "--kmax", "1e9"),
        ("randomtiling", "--u", "2", "--v", "1", "--p", "0.5", "--spectrum",
         "--kmax", "1e12", "--dk", "1e-3"),
        ("compare", "--model", "paperfolding-binary", "--tolerance", "1",
         "--log2n", "80"),
    ], ids=["paperfolding-atoms", "tiling-k-grid", "paperfolding-comb"])
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
    ], ids=["class-not-a-pair", "added-not-a-list", "removed-not-a-list",
            "unknown-letter", "complete-below-not-an-integer", "not-an-object",
            "q-not-a-number", "q-3"])
    def test_qadic_scheme_file_exits_2(self, capsys, tmp_path, scheme, message):
        path = tmp_path / "scheme.json"
        path.write_text(json.dumps(scheme))
        code, out, err = run_cli(capsys, "generate", "--scheme", str(path),
                                 "--region", "0,10")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize("flag", ["--kmax", "--dk"])
    def test_spectrum_non_finite_k_exits_2(self, capsys, tmp_path, flag):
        path = tmp_path / "comb.csv"
        ap.write_comb_csv(ap.WeightedComb.from_integers(np.arange(-8, 9), np.ones(17), 8.0),
                          path)
        argv = {"--kmax": "1", "--dk": "0.01", flag: "nan"}
        code, out, err = run_cli(capsys, "spectrum", "--input", str(path),
                                 *[t for kv in argv.items() for t in kv])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    def test_spectrum_grid_over_budget_exits_2(self, capsys, tmp_path):
        # 1e15 k values: numpy used to fail on a 7.1 PiB array with a traceback
        path = tmp_path / "comb.csv"
        ap.write_comb_csv(ap.WeightedComb.from_integers(np.arange(-8, 9), np.ones(17), 8.0),
                          path)
        code, out, err = run_cli(capsys, "spectrum", "--input", str(path),
                                 "--kmax", "1e12", "--dk", "1e-3")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "budget" in err

    @pytest.mark.parametrize("region", [("--region", "1e19,1e19"),
                                        ("--region=-1e19,-1e19",),
                                        ("--region", "0,1e19")])
    def test_2adic_region_beyond_int64_exits_2(self, capsys, tmp_path, region):
        path = tmp_path / "q.json"
        path.write_text(json.dumps({"kind": "qadic", "classes": [[0, 4]]}))
        code, out, err = run_cli(capsys, "generate", "--scheme", str(path), *region)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "int64" in err

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
        code, out, err = run_cli(capsys, argv[0], "--input", str(path), *argv[1:])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "finite and positive" in err

    def test_autocorr_float_points_on_one_key_exits_2(self, capsys, tmp_path):
        path = tmp_path / "comb.csv"
        path.write_text("x,re_weight,im_weight\n0,1,0\n3e-10,2,0\n1,3,0\n")
        code, out, err = run_cli(capsys, "autocorr", "--input", str(path),
                                 "--radius", "2", "--max-diff", "1.5")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "grid" in err

    def test_window_entry_not_a_pair_exits_2(self, capsys, tmp_path):
        path = tmp_path / "scheme.json"
        path.write_text(json.dumps({"kind": "euclidean", "window": [[1]]}))
        code, out, err = run_cli(capsys, "generate", "--scheme", str(path),
                                 "--region", "0,10")
        assert code == 2
        assert out == ""
        assert "[lo, hi]" in err


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
