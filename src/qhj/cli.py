"""Command-line interface: list models, solve spectra, verify, sample ψ.

Exit codes: 0 success, 1 bad invocation/parameters, 2 no admissible residue
assignment for the requested potential, 3 verification failure.

JSON output is canonical: keys in fixed insertion order, floats rendered
with %.17g, complex numbers as {"re": ..., "im": ...} — identical inputs
produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from fractions import Fraction
from functools import lru_cache

from .errors import (InvalidStateError, NoAdmissibleAssignmentError,
                     ParameterError, QhjError, UnknownModelError)
from .exactmath import as_exact, real_or_complex, to_complex
from .potential_catalog import MODEL_CLASSES, MODEL_IDS, PARAM_SCHEMAS, get_model

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NO_ASSIGNMENT = 2
EXIT_VERIFY_FAILED = 3

class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped onto exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, "%s: error: %s\n" % (self.prog, message))


# ---------------------------------------------------------------------------
# canonical serialization
# ---------------------------------------------------------------------------

def _canon(obj):
    if obj is None or isinstance(obj, (bool, int, str)):
        return json.dumps(obj)
    if isinstance(obj, float):
        return "%.17g" % obj
    if isinstance(obj, Fraction):
        return json.dumps(str(obj))
    if isinstance(obj, complex):
        return '{"re": %s, "im": %s}' % ("%.17g" % obj.real, "%.17g" % obj.imag)
    if isinstance(obj, dict):
        inner = ", ".join("%s: %s" % (json.dumps(str(k)), _canon(v))
                          for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_canon(v) for v in obj) + "]"
    return json.dumps(str(obj))


def canonical_json(obj):
    """Deterministic JSON text (stable key order and float formatting)."""
    return _canon(obj) + "\n"


def _rows(result):
    rows = []
    for sol in result.solutions:
        e = to_complex(sol.energy)
        a = sol.assignment
        rows.append({
            "set": a.set_label,
            "n": int(a.n),
            "energy_re": float(e.real),
            "energy_im": float(e.imag),
            "energy_exact": None if as_exact(sol.energy) is None else str(sol.energy),
            "degeneracy": int(sol.degeneracy),
            "multiplicity": int(sol.multiplicity),
            "bc_class": sol.bc_class,
            "residues": {label: real_or_complex(v)
                         for label, v in a.pole_residues.items()},
            "leading_exponent": real_or_complex(a.lambda1) if a.lambda1 is not None else None,
            "qes_relation": a.qes_relation,
            "wavefunction_form": sol.recipe.form,
        })
    return rows


def _print_table(result, stream):
    rows = _rows(result)
    header = "%-5s %-3s %-22s %-22s %-4s %-19s" % (
        "set", "n", "energy_re", "energy_im", "deg", "bc_class")
    print(header, file=stream)
    print("-" * len(header), file=stream)
    for r in rows:
        print("%-5s %-3d %-22.12g %-22.12g %-4d %-19s" % (
            r["set"], r["n"], r["energy_re"], r["energy_im"],
            r["degeneracy"], r["bc_class"] or "-"), file=stream)
    formula = result.outcome.energy_formula
    if formula:
        print("energy formula: %s" % formula, file=stream)
    for note in result.outcome.notes:
        print("note: %s" % note, file=stream)


def _print_csv(result, stream):
    print("set,n,energy_re,energy_im,degeneracy,bc_class,wavefunction_form",
          file=stream)
    for r in _rows(result):
        print("%s,%d,%.17g,%.17g,%d,%s,%s" % (
            r["set"], r["n"], r["energy_re"], r["energy_im"], r["degeneracy"],
            r["bc_class"] or "", '"%s"' % r["wavefunction_form"]), file=stream)


# ---------------------------------------------------------------------------
# parameter handling
# ---------------------------------------------------------------------------

def _parse_param(text):
    if "=" not in text:
        raise ParameterError("parameters take the form name=value, got %r" % text)
    name, value = (part.strip() for part in text.split("=", 1))
    try:
        frac = Fraction(value)
    except (ValueError, ZeroDivisionError):
        raise ParameterError("cannot parse value %r for parameter %r"
                             % (value, name))
    return name, int(frac) if frac.denominator == 1 else frac


def _read_config(path):
    """The JSON object in a config file; anything else is a ParameterError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ParameterError("cannot read config %s: %s" % (path, exc.strerror or exc))
    except ValueError as exc:
        raise ParameterError("config %s is not valid JSON: %s" % (path, exc))
    if not isinstance(cfg, dict) or not isinstance(cfg.get("params", {}), dict):
        raise ParameterError("config %s must be a JSON object whose params "
                             "is an object" % path)
    return cfg


def _collect_params(args):
    params = {}
    if getattr(args, "config", None):
        cfg = _read_config(args.config)
        for name, value in cfg.get("params", {}).items():
            if isinstance(value, str):
                _, parsed = _parse_param("%s=%s" % (name, value))
            elif isinstance(value, bool):
                raise ParameterError("boolean is not a valid parameter value")
            elif isinstance(value, (int, float)):
                parsed = value     # the catalog makes floats rational
            else:
                raise ParameterError("unsupported config value for %r" % name)
            params[name] = parsed
        if not getattr(args, "model", None):
            args.model = cfg.get("model")
        if getattr(args, "levels", None) is None and "levels" in cfg:
            levels = cfg["levels"]
            try:
                # int() would truncate 2.5 and accept true as 1
                if isinstance(levels, bool) or (isinstance(levels, float)
                                                and not levels.is_integer()):
                    raise ValueError(levels)
                args.levels = int(levels)
            except (TypeError, ValueError, OverflowError):
                raise ParameterError("config levels must be an integer, got %r" % (levels,))
    flags = {}
    for text in args.param or []:
        name, value = _parse_param(text)
        if name in flags:
            raise ParameterError("parameter %r given twice" % name)
        flags[name] = value
    params.update(flags)     # flags win over the config
    return params


def _build_model(args):
    params = _collect_params(args)
    if not getattr(args, "model", None):
        raise ParameterError("no model given (positional argument or config)")
    return get_model(args.model, **params)


def _levels(args):
    """--levels (or the config's levels), default 4; 1 to 100, as solve time grows steeply."""
    levels = args.levels if args.levels is not None else 4
    if not 1 <= levels <= 100:
        raise ParameterError("levels must lie in [1, 100], got %d" % levels)
    return levels


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_list(args, stream):
    if args.model:
        if args.model not in MODEL_IDS:
            raise UnknownModelError("unknown model %r; known: %s"
                                    % (args.model, ", ".join(MODEL_IDS)))
        schema = PARAM_SCHEMAS[args.model]
        if args.json:
            stream.write(canonical_json({"model": args.model,
                                         "summary": MODEL_CLASSES[args.model].summary,
                                         "parameters": schema}))
        else:
            print("%s — %s" % (args.model, MODEL_CLASSES[args.model].summary), file=stream)
            for name, doc in schema.items():
                print("  %-8s %s" % (name, doc), file=stream)
        return EXIT_OK
    if args.json:
        stream.write(canonical_json(
            {"models": [{"id": mid, "summary": cls.summary}
                        for mid, cls in MODEL_CLASSES.items()]}))
    else:
        for mid, cls in MODEL_CLASSES.items():
            print("%-16s %s" % (mid, cls.summary), file=stream)
    return EXIT_OK


def _cmd_solve(args, stream):
    from .polynomial_system import solve_spectrum     # only a pencil solve loads numpy (and scipy)
    model = _build_model(args)
    result = solve_spectrum(model, levels=_levels(args))
    if args.format == "json":
        payload = {
            "model": model.id,
            "params": model.describe_params(),
            "spectrum_kind": result.outcome.kind,
            "energy_formula": result.outcome.energy_formula,
            "qes_relations": list(result.outcome.qes_relations or []) or None,
            "levels": _rows(result),
            "notes": list(result.outcome.notes),
        }
        stream.write(canonical_json(payload))
    elif args.format == "csv":
        _print_csv(result, stream)
    else:
        _print_table(result, stream)
    return EXIT_OK


def _cmd_verify(args, stream):
    from .wavefunction_assembly import verify     # loads the oracle, and with it scipy
    model = _build_model(args)
    outcome = verify(model, levels=_levels(args), tol=args.tol)
    for check in outcome.checks:
        e = to_complex(check.solution.energy)
        detail = " overlap=%.8f" % check.report.overlap
        if check.report.predicted_nodes is not None:
            detail += " nodes=%d/%d" % (check.report.predicted_nodes,
                                        check.report.oracle_nodes)
        print("set=%s n=%d E=%.10g%+.10gj oracle=%.10g%+.10gj |dE|=%.3e tol=%.1e%s %s"
              % (check.solution.assignment.set_label, int(check.solution.assignment.n),
                 e.real, e.imag, check.oracle_energy.real, check.oracle_energy.imag,
                 check.gap, outcome.tol, detail, "PASS" if check.passed else "FAIL"),
              file=stream)
    print("verification %s for %s" % ("PASSED" if outcome.passed else "FAILED", model.id),
          file=stream)
    return EXIT_OK if outcome.passed else EXIT_VERIFY_FAILED


def _cmd_wavefunction(args, stream):
    import numpy as np

    from .polynomial_system import solve_spectrum
    from .wavefunction_assembly import assemble
    model = _build_model(args)
    levels = _levels(args)
    if not 1 <= args.samples <= 100000:     # the samples are held in memory
        raise ParameterError("samples must lie in [1, 100000], got %d" % args.samples)
    result = solve_spectrum(model, levels=levels)
    if not (0 <= args.state < len(result.solutions)):
        raise InvalidStateError(
            "state %d out of range; model has %d solved levels"
            % (args.state, len(result.solutions)))
    sol = result.solutions[args.state]
    lo, hi = model.x_window()
    margin = 0.02 * (hi - lo)
    xs = np.linspace(lo + margin, hi - margin, args.samples)
    values = assemble(sol.recipe, xs)
    print("x,psi_re,psi_im", file=stream)
    for x, v in zip(xs, values):
        print("%.17g,%.17g,%.17g" % (x, v.real, v.imag), file=stream)
    return EXIT_OK


# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)     # built in ~1 ms; an in-process caller may run main() many times
def build_parser():
    parser = _Parser(prog="qhj",
                     description="residue-based spectra for a catalog of "
                                 "exactly and quasi-exactly solvable potentials")
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list models or one model's parameters")
    p_list.add_argument("model", nargs="?", default=None)
    p_list.add_argument("--json", action="store_true")

    def add_model_args(p):
        p.add_argument("model", nargs="?", default=None,
                       help="model id (see `qhj list`)")
        p.add_argument("--param", action="append", default=[],
                       metavar="NAME=VALUE",
                       help="model parameter; fractions like 1/2 are exact")
        p.add_argument("--config", default=None,
                       help="JSON file with model/params/levels; flags win")
        p.add_argument("--levels", type=int, default=None,
                       help="number of levels per admissible set (default 4)")

    p_solve = sub.add_parser("solve", help="quantize and solve the spectrum")
    add_model_args(p_solve)
    p_solve.add_argument("--format", choices=("table", "json", "csv"),
                         default="table")

    p_verify = sub.add_parser("verify", help="cross-check against a grid solver")
    add_model_args(p_verify)
    p_verify.add_argument("--tol", type=float, default=None,
                          help="energy tolerance (default per model family)")

    p_wf = sub.add_parser("wavefunction", help="sample one eigenfunction as CSV")
    add_model_args(p_wf)
    p_wf.add_argument("--state", type=int, default=0,
                      help="index into the solved level list")
    p_wf.add_argument("--samples", type=int, default=512)

    return parser


def _print_warning(message, *_args, **_kwargs):
    print("warning: %s" % message, file=sys.stderr)


def main(argv=None):
    args = build_parser().parse_args(argv)
    commands = {"list": _cmd_list, "solve": _cmd_solve, "verify": _cmd_verify,
                "wavefunction": _cmd_wavefunction}
    # warnings print as one line each; the caller's handler is restored on return
    with warnings.catch_warnings():
        warnings.showwarning = _print_warning
        try:
            return commands[args.command](args, sys.stdout)
        except NoAdmissibleAssignmentError as exc:
            print("no admissible residue assignment: %s" % exc, file=sys.stderr)
            return EXIT_NO_ASSIGNMENT
        except QhjError as exc:
            print("error: %s" % exc, file=sys.stderr)
            return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
