"""Command-line interface: point-set generation, autocorrelation and
spectrum estimation, coincidence checks, random tilings, and closed-form
versus estimated spectrum comparisons.

Exit codes: 0 success, 2 validation error (bad arguments, unreadable files),
3 numeric-check failure in `compare`, 64 unknown subcommand.  Identical
configuration and seed produce byte-identical output files; floats are
written with 17 significant digits.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from fractions import Fraction

import numpy as np

from . import autocorr as ac
from . import cps, randomtiling as rt, spectrum as sp
from .core import (
    TAU,
    AperiodicaError,
    ModuleElement,
    check_size,
    read_comb_csv,
    read_text,
    write_comb,
    write_table,
)
from .paperfolding import binary_comb
from .substitution import (
    SubstitutionRule,
    mfs_from_substitution,
    modular_coincidence,
)

USAGE = """\
usage: aperiodica <command> [options]

commands:
  generate               model set from a scheme/window file
  autocorr               autocorrelation coefficients of a comb
  spectrum               periodogram (and Bragg peaks) of a comb
  coincide               Dekking / modular coincidence of a rule file
  randomtiling           sample, spectrum or heights of a 1D random tiling
  paperfolding-spectrum  closed-form paperfolding diffraction
  compare                closed form vs estimate, exit 3 on failure
"""

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3
EXIT_USAGE = 64


def _parse_length(token: str):
    """Interval length: a number, or the golden-ratio token `tau`."""
    if token == "tau":
        return ModuleElement(1, 0)
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise AperiodicaError(f"length must be a number or tau; got {token!r}") from None


def _parse_probability(token: str) -> float:
    if token == "1/tau":
        return 1.0 / TAU
    if token == "1/tau^2":
        return 1.0 / TAU ** 2
    try:
        return float(token)
    except ValueError:
        raise AperiodicaError(f"probability must be a number; got {token!r}") from None


def _load_scheme(path):
    try:
        spec = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise AperiodicaError(f"scheme file is not valid JSON: {exc}")
    if not isinstance(spec, dict):
        raise AperiodicaError(f"scheme file must hold a JSON object; got {spec!r}")
    kind = spec.get("kind")
    if kind == "euclidean":
        if spec.get("theta", "tau") != "tau":
            raise AperiodicaError(f"unsupported theta {spec['theta']!r}; only \"tau\"")
        if "window" not in spec:
            raise AperiodicaError("euclidean scheme file needs a \"window\"")
        return cps.fibonacci_scheme(), cps.EuclideanWindow(spec["window"])
    if kind == "qadic":
        if spec.get("q", 2) != 2:
            raise AperiodicaError(f"unsupported q {spec['q']!r}; only 2")
        if "paperfolding" in spec:
            return cps.qadic_scheme(), _paperfolding_window(spec["paperfolding"])
        return cps.qadic_scheme(), cps.QAdicWindow(
            spec.get("classes", ()), added=spec.get("added", ()),
            removed=spec.get("removed", ()), complete_below=spec.get("complete_below"))
    raise AperiodicaError(f"unknown scheme kind {kind!r}")


def _paperfolding_window(pf):
    """Union of the 2-adic paperfolding letter windows a scheme file names."""
    if not isinstance(pf, dict):
        raise AperiodicaError(f"\"paperfolding\" must be an object; got {pf!r}")
    windows = cps.paperfolding_windows(pf.get("fixed_point", "w1"))
    letters = pf.get("letters", ["a", "b"])
    if (not isinstance(letters, list) or not letters
            or any(letter not in tuple(windows) for letter in letters)):
        raise AperiodicaError(
            f"\"letters\" must be a non-empty list of a, b, c, d; got {letters!r}")
    window = windows[letters[0]]
    for letter in letters[1:]:
        window = window.union(windows[letter])
    return window


# -- subcommands ---------------------------------------------------------------

def _write(opts, header, columns) -> None:
    write_table(opts.get("output"), header, columns, opts["format"])


def _write_comb(opts, comb) -> None:
    write_comb(comb, opts.get("output"), opts["format"])


def _cmd_generate(opts) -> int:
    scheme, window = _load_scheme(opts["scheme"])
    _write_comb(opts, cps.generate_model_set(scheme, window, opts["region"]))
    return EXIT_OK


def _cmd_autocorr(opts) -> int:
    comb = read_comb_csv(opts["input"], radius=opts.get("radius"))
    est = ac.estimate_autocorrelation(comb, opts["max_diff"])
    _write(opts, ["z", "re_eta", "im_eta"], (est.diffs, est.eta.real, est.eta.imag))
    return EXIT_OK


def _cmd_spectrum(opts) -> int:
    comb = read_comb_csv(opts["input"], radius=opts.get("radius"))
    pgram = sp.periodogram(comb, opts["kmin"], opts["kmax"], opts.get("dk"))
    if opts.get("bragg") is not None:
        atoms = sp.bragg_extract(pgram, opts["bragg"])
        _write(opts, ["k", "intensity"], np.reshape(atoms, (-1, 2)).T)
    else:
        _write(opts, ["k", "value"], (pgram.ks, pgram.values))
    return EXIT_OK


def _cmd_coincide(opts) -> int:
    rule = SubstitutionRule.from_text(read_text(opts["rule"]))
    verdict = modular_coincidence(mfs_from_substitution(rule),
                                  max_power=opts["max_power"])
    print(str(verdict))
    return EXIT_OK


def _cmd_randomtiling(opts) -> int:
    spec = rt.RandomTilingSpec(_parse_length(opts["u"]), _parse_length(opts["v"]),
                               _parse_probability(opts["p"]))
    if opts.get("spectrum"):
        ks = sp.uniform_grid(0.0, opts["kmax"], opts["dk"])
        out, fmt = opts.get("output"), opts["format"]
        write_table(f"{out}.pp.csv" if out else None, ["k", "intensity"],
                    rt.pp_part(spec, opts["kmax"]).pp_atoms.T, fmt)
        write_table(f"{out}.ac.csv" if out else None, ["k", "g"],
                    (ks, rt.ac_density_grid(spec, ks)), fmt)
        return EXIT_OK
    samp = rt.sample(spec, opts["intervals"], opts["seed"])
    if opts.get("heights"):
        if samp.heights is None:
            raise AperiodicaError("heights need module interval lengths (u = tau)")
        _write(opts, ["x", "height"], (samp.endpoints, samp.heights))
    else:
        _write_comb(opts, samp.comb)
    return EXIT_OK


def _cmd_paperfolding_spectrum(opts) -> int:
    try:
        weights = [complex(t) for t in opts["weights"].split(",")]
    except ValueError:
        raise AperiodicaError(
            f"weights must be complex numbers A,B,C,D; got {opts['weights']!r}") from None
    if len(weights) != 4:
        raise AperiodicaError("exactly four weights A,B,C,D are required")
    measure = sp.paperfolding_spectrum(*weights, r_max=opts["rmax"],
                                       k_range=(opts["kmin"], opts["kmax"]))
    _write(opts, ["k", "intensity"], measure.pp_atoms.T)
    return EXIT_OK


def _compare_paperfolding(opts):
    log2n = opts.get("log2n", 12)
    if log2n < 0:
        raise AperiodicaError(f"--log2n must be non-negative; got {log2n}")
    comb = binary_comb(1 << log2n)
    ks = np.array([1.0, 0.25, 0.125, 0.0625])
    est = sp.bragg_amplitudes(comb, ks, taper="boxcar")
    ref = np.array([sp.paperfolding_intensity(1, 1, 0, 0, k) for k in ks])
    dev = np.abs(est - ref)
    return float(np.max(dev)), float(np.mean(dev)), "absolute", "max"


def _compare_fibonacci(opts):
    """Seed-averaged periodogram against the closed-form ac density at
    needle-free k points; the gate is the mean relative deviation."""
    spec = rt.fibonacci_spec()
    kpoints = opts.get("kpoints", 40)
    if kpoints < 1:
        raise AperiodicaError(f"--kpoints must be at least 1; got {kpoints}")
    check_size(kpoints, "the --kpoints grid")
    ks = np.linspace(0.1, 2.0, kpoints)
    keep = rt.needle_free(spec, ks)
    g = rt.ac_density_grid(spec, ks)[keep]
    est = rt.mean_ac_periodogram(spec, ks, opts.get("intervals", 2000),
                                 opts.get("seeds", 20), opts["seed"])
    rel = np.abs(est[keep] - g) / g
    return float(np.max(rel)), float(np.mean(rel)), "relative", "mean"


def _compare_rational(opts):
    spec = rt.RandomTilingSpec(Fraction(2), Fraction(1), 0.5)
    est = rt.mean_bragg_amplitudes(spec, [0.0, 1.0, 2.0],
                                   opts.get("intervals", 20000),
                                   opts.get("seeds", 10), opts["seed"])
    dev = np.abs(est - rt.density(spec) ** 2)
    return float(np.max(dev)), float(np.mean(dev)), "absolute", "max"


_COMPARE_MODELS = {
    "paperfolding-binary": _compare_paperfolding,
    "fibonacci-ac": _compare_fibonacci,
    "rational-pp": _compare_rational,
}


def _cmd_compare(opts) -> int:
    model = opts["model"]
    if model not in _COMPARE_MODELS:
        raise AperiodicaError(
            f"unknown model {model!r}; choose from {sorted(_COMPARE_MODELS)}")
    max_dev, mean_dev, kind, gate = _COMPARE_MODELS[model](opts)
    tol = opts["tolerance"]
    print(f"model {model}: max {kind} deviation {max_dev:.17g}, "
          f"mean {mean_dev:.17g}, tolerance {tol:.17g} on the {gate}")
    gated = max_dev if gate == "max" else mean_dev
    if not gated <= tol:  # a NaN deviation fails too
        print("comparison FAILED")
        return EXIT_NUMERIC
    print("comparison passed")
    return EXIT_OK


# -- argument parsing -----------------------------------------------------------

def _parse_region(text: str) -> tuple[float, float]:
    try:
        lo, hi = (float(t) for t in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a,b; got {text!r}") from None
    return lo, hi


def _bind_negative_values(args: list) -> list:
    """Join a flag and a following value such as -5000,5000 into
    flag=value: argparse takes a leading minus for another flag unless the
    whole token reads as one negative number."""
    out = []
    for token in args:
        if (out and out[-1].startswith("--") and "=" not in out[-1]
                and re.match(r"-\.?\d", token)):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


@functools.cache
def _build_parsers():
    """The parser of each subcommand, built once per process: parse_args
    leaves a parser as it found it, so later calls reuse them."""
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--output")
    output.add_argument("--format", choices=("csv", "json"), default="csv")
    comb_input = argparse.ArgumentParser(add_help=False)
    comb_input.add_argument("--input", required=True)
    comb_input.add_argument("--radius", type=float)
    parsers = {}

    p = argparse.ArgumentParser(prog="aperiodica generate", parents=[output])
    p.add_argument("--scheme", required=True)
    p.add_argument("--region", required=True, type=_parse_region, help="a,b")
    parsers["generate"] = p

    p = argparse.ArgumentParser(prog="aperiodica autocorr", parents=[comb_input, output])
    p.add_argument("--max-diff", dest="max_diff", type=float, required=True)
    parsers["autocorr"] = p

    p = argparse.ArgumentParser(prog="aperiodica spectrum", parents=[comb_input, output])
    p.add_argument("--kmin", type=float, default=0.0)
    p.add_argument("--kmax", type=float, required=True)
    p.add_argument("--dk", type=float)
    p.add_argument("--bragg", type=float, help="threshold; emit atoms instead")
    parsers["spectrum"] = p

    p = argparse.ArgumentParser(prog="aperiodica coincide")
    p.add_argument("--rule", required=True)
    p.add_argument("--max-power", dest="max_power", type=int, default=20)
    parsers["coincide"] = p

    p = argparse.ArgumentParser(prog="aperiodica randomtiling", parents=[output])
    p.add_argument("--u", required=True, help="length or `tau`")
    p.add_argument("--v", required=True)
    p.add_argument("--p", required=True, help="probability, `1/tau` accepted")
    p.add_argument("--intervals", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--spectrum", action="store_true",
                   help="emit closed-form pp and ac spectra")
    p.add_argument("--heights", action="store_true")
    p.add_argument("--kmax", type=float, default=2.0)
    p.add_argument("--dk", type=float, default=0.01)
    parsers["randomtiling"] = p

    p = argparse.ArgumentParser(prog="aperiodica paperfolding-spectrum", parents=[output])
    p.add_argument("--weights", required=True, help="A,B,C,D (complex accepted)")
    p.add_argument("--rmax", type=int, default=8)
    p.add_argument("--kmin", type=float, default=0.0)
    p.add_argument("--kmax", type=float, default=2.0)
    parsers["paperfolding-spectrum"] = p

    p = argparse.ArgumentParser(prog="aperiodica compare")
    p.add_argument("--model", required=True)
    p.add_argument("--tolerance", type=float, required=True)
    p.add_argument("--seeds", type=int)
    p.add_argument("--intervals", type=int)
    p.add_argument("--kpoints", type=int)
    p.add_argument("--log2n", type=int)
    p.add_argument("--seed", type=int, default=0)
    parsers["compare"] = p
    return parsers


_HANDLERS = {
    "generate": _cmd_generate,
    "autocorr": _cmd_autocorr,
    "spectrum": _cmd_spectrum,
    "coincide": _cmd_coincide,
    "randomtiling": _cmd_randomtiling,
    "paperfolding-spectrum": _cmd_paperfolding_spectrum,
    "compare": _cmd_compare,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        sys.stdout.write(USAGE)
        return EXIT_OK if argv else EXIT_USAGE
    sub, rest = argv[0], argv[1:]
    parsers = _build_parsers()
    if sub not in parsers:
        sys.stderr.write(f"unknown subcommand: {sub}\n")
        sys.stderr.write(USAGE)
        return EXIT_USAGE
    try:
        ns = parsers[sub].parse_args(_bind_negative_values(rest))
    except SystemExit as exc:
        return EXIT_VALIDATION if exc.code not in (0, None) else EXIT_OK
    options = {k: v for k, v in vars(ns).items() if v is not None}
    try:
        return _HANDLERS[sub](options)
    except FileNotFoundError as exc:
        sys.stderr.write(f"error: file not found: {exc.filename}\n")
    except (AperiodicaError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
    return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
