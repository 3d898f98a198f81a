"""Command-line surface: named verification suites with machine-readable
reports.

Exit codes: 0 when every check passes, 1 on a check failure, 2 on usage
errors, including unknown config keys and non-finite numbers. Flags mirror
an optional key=value config file (flags win), and the HKT4_OUT_DIR
environment variable supplies a default output directory for bare report
filenames.
"""

from __future__ import annotations

import cmath
import math
import os
import re
import sys
from fractions import Fraction

import click

from . import __version__, suites
from .report import VerificationReport, emit_report

DEFAULT_SEED = 314159


def _parse_fraction(ctx, param, value):
    if value is None:
        return None
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError):
        raise click.UsageError(f"not a rational number: {value!r}")


def _check_q(q: Fraction):
    if q is None or q <= 1:
        raise click.UsageError("the multiplier must satisfy q > 1")
    return q


def _check_numbers(tol: float, flow_eps):
    if not (math.isfinite(tol) and tol > 0):
        raise click.UsageError(f"tol must be positive and finite, got {tol!r}")
    if flow_eps is not None and not math.isfinite(flow_eps):
        raise click.UsageError(f"flow must be finite, got {flow_eps!r}")


def _load_config(path):
    values = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise click.UsageError(f"bad config line: {line!r}")
            key, val = line.split("=", 1)
            values[key.strip().replace("-", "_")] = val.strip()
    return values


def _apply_config(ctx: click.Context, config):
    """Fill parameters that were not given on the command line."""
    if not config:
        return
    values = _load_config(config)
    keys_of = {param: {param.name} | {opt.lstrip("-").replace("-", "_")
                                      for opt in param.opts}
               for param in ctx.command.params if param.name != "config"}
    unknown = values.keys() - set().union(*keys_of.values())
    if unknown:
        raise click.UsageError(f"unknown config key: {', '.join(sorted(unknown))}")
    for param, keys in keys_of.items():
        hits = keys & values.keys()
        if not hits:
            continue
        raw = values[hits.pop()]
        src = ctx.get_parameter_source(param.name)
        if src is not None and src.name != "COMMANDLINE":
            if param.callback is not None:
                ctx.params[param.name] = param.callback(ctx, param, raw)
            else:
                ctx.params[param.name] = param.type.convert(raw, param, ctx)


def _resolve_out(out):
    if out is None:
        return None
    base = os.environ.get("HKT4_OUT_DIR")
    if base and not os.path.dirname(out):
        os.makedirs(base, exist_ok=True)
        return os.path.join(base, out)
    return out


def _finish(checks, fmt, out, seed) -> int:
    report = VerificationReport(checks=checks, seed=seed)
    try:
        doc = emit_report(report, fmt, _resolve_out(out))
    except OSError as exc:
        raise click.ClickException(f"cannot write report: {exc}")
    click.echo(doc)
    return 0 if report.passed else 1


_common = [
    click.option("--out", type=click.Path(), default=None,
                 help="Write the report to this path as well as stdout."),
    click.option("--format", "fmt", type=click.Choice(["json", "markdown"]),
                 default="json", show_default=True, help="Report format."),
    click.option("--seed", type=int, default=DEFAULT_SEED, show_default=True,
                 help="Seed for randomized spot checks (recorded in the report)."),
    click.option("--config", type=click.Path(exists=True), default=None,
                 help="key=value file mirrored to flags; flags win."),
]


def common_options(fn):
    for opt in reversed(_common):
        fn = opt(fn)
    return fn


@click.group()
@click.version_option(version=__version__)
def main():
    """Exact and numerical checks for hypercomplex geometry on 4-manifolds:
    Hopf-surface strong-HKT identities and the instanton-moduli tangent
    space on the flat 4-torus."""


@main.command("verify-hopf")
@click.option("--q", callback=_parse_fraction, default="2", show_default=True,
              help="Rational multiplier of the quotient, q > 1.")
@common_options
@click.pass_context
def verify_hopf(ctx, q, out, fmt, seed, config):
    """Certify the Hopf-chart identities with exact arithmetic."""
    _apply_config(ctx, config)
    q = _check_q(ctx.params["q"])
    checks = suites.hopf_suite(q, seed=ctx.params["seed"])
    ctx.exit(_finish(checks, ctx.params["fmt"], ctx.params["out"], ctx.params["seed"]))


@main.command("verify-flat")
@common_options
@click.pass_context
def verify_flat(ctx, out, fmt, seed, config):
    """Flat control run: Euclidean metric, both frames, zero torsion."""
    _apply_config(ctx, config)
    checks = suites.flat_suite()
    ctx.exit(_finish(checks, ctx.params["fmt"], ctx.params["out"], ctx.params["seed"]))


@main.command("moduli")
@click.option("--grid", type=int, default=4, show_default=True,
              help="Lattice points per axis (>= 3).")
@click.option("--rank", type=int, default=2, show_default=True,
              help="Bundle rank (>= 2).")
@click.option("--tol", type=float, default=1e-10, show_default=True,
              help="Tolerance for the slice and structure identities.")
@click.option("--flow", "flow_eps", type=float, default=None,
              help="Also run the descent flow from flat + eps * random.")
@common_options
@click.pass_context
def moduli_cmd(ctx, grid, rank, tol, flow_eps, out, fmt, seed, config):
    """Tangent-space model at the flat connection on the N^4 torus."""
    _apply_config(ctx, config)
    grid, rank = ctx.params["grid"], ctx.params["rank"]
    if grid < 3:
        raise click.UsageError("grid must be >= 3")
    if rank < 2:
        raise click.UsageError("rank must be >= 2")
    _check_numbers(ctx.params["tol"], ctx.params["flow_eps"])
    checks = suites.moduli_suite(grid, rank, ctx.params["tol"],
                                 seed=ctx.params["seed"],
                                 flow_eps=ctx.params["flow_eps"])
    ctx.exit(_finish(checks, ctx.params["fmt"], ctx.params["out"], ctx.params["seed"]))


_TERM_BASIS = re.compile(r"dx(\d)\^dx(\d)$")


def parse_form_spec(spec: str):
    """Constant 2-form spec: terms like '-2*pi*i*dx0^dx1 + dx2^dx3'.

    Coefficient factors are floats, 'pi', and 'i', joined by '*'. Returns a
    dict from sorted index pairs to complex coefficients.
    """
    compact = spec.replace(" ", "")
    if not compact:
        raise ValueError("empty form spec")
    out = {}
    for term in re.findall(r"[+-]?[^+-]+", compact):
        sign = 1.0
        if term[0] == "+":
            term = term[1:]
        elif term[0] == "-":
            sign, term = -1.0, term[1:]
        coeff = complex(sign)
        indices = None
        for factor in term.split("*"):
            if factor == "pi":
                coeff *= math.pi
            elif factor == "i":
                coeff *= 1j
            elif factor.startswith("dx"):
                m = _TERM_BASIS.fullmatch(factor)
                if not m:
                    raise ValueError(f"bad basis factor {factor!r}; want dxA^dxB")
                a, b = int(m.group(1)), int(m.group(2))
                if not (0 <= a <= 3 and 0 <= b <= 3) or a == b:
                    raise ValueError(f"bad indices in {factor!r}")
                if a > b:
                    a, b = b, a
                    coeff = -coeff
                indices = (a, b)
            else:
                coeff *= float(factor)
        if not cmath.isfinite(coeff):
            raise ValueError(f"term {term!r} has a non-finite coefficient")
        if indices is None:
            raise ValueError(f"term {term!r} has no basis factor dxA^dxB")
        out[indices] = out.get(indices, 0j) + coeff
    return out


@main.command("degree")
@click.option("--f", "f_spec", required=True,
              help="Curvature 2-form, e.g. '-2*pi*i*dx0^dx1'.")
@click.option("--omega", "omega_spec", required=True,
              help="Gauduchon Hermitian form, e.g. 'dx0^dx1+dx2^dx3'.")
@click.option("--out", type=click.Path(), default=None)
@click.pass_context
def degree_cmd(ctx, f_spec, omega_spec, out):
    """Degree (i/2pi) integral of F ^ omega on the unit torus."""
    import json

    import numpy as np

    from .exact import ScalarField
    from .forms import RationalForm
    from .invariants import degree
    from .lattice import LatticeField

    try:
        f_terms = parse_form_spec(f_spec)
        w_terms = parse_form_spec(omega_spec)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    N = 3
    comps = {t: np.full((N, N, N, N, 1, 1), c) for t, c in f_terms.items()}
    F = LatticeField(2, N, 1, comps, project=False)
    w_coeffs = {}
    for t, c in w_terms.items():
        if abs(c.imag) > 1e-15:
            raise click.UsageError("omega must be real")
        w_coeffs[t] = ScalarField.const(Fraction(c.real))
    omega = RationalForm(2, w_coeffs)
    try:
        value = degree(F, omega)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    doc = json.dumps({"degree": value}, allow_nan=False)
    click.echo(doc)
    path = _resolve_out(out)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(doc)
    ctx.exit(0)


@main.command("report")
@click.option("--q", callback=_parse_fraction, default="2", show_default=True)
@click.option("--grid", type=int, default=3, show_default=True)
@click.option("--rank", type=int, default=2, show_default=True)
@click.option("--tol", type=float, default=1e-10, show_default=True)
@click.option("--flow", "flow_eps", type=float, default=None)
@common_options
@click.pass_context
def report_cmd(ctx, q, grid, rank, tol, flow_eps, out, fmt, seed, config):
    """Run the composite suite (Hopf + flat control + moduli) and report."""
    _apply_config(ctx, config)
    q = _check_q(ctx.params["q"])
    _check_numbers(ctx.params["tol"], ctx.params["flow_eps"])
    rep = suites.full_report(q=q, grid=ctx.params["grid"], rank=ctx.params["rank"],
                             tol=ctx.params["tol"], seed=ctx.params["seed"],
                             flow_eps=ctx.params["flow_eps"])
    doc = emit_report(rep, ctx.params["fmt"], _resolve_out(ctx.params["out"]))
    click.echo(doc)
    ctx.exit(0 if rep.passed else 1)


if __name__ == "__main__":
    sys.exit(main())
