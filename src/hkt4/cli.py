"""Command-line surface: named verification suites with machine-readable
reports.

Exit codes: 0 when every check passes, 1 on a check failure or an --out
path that cannot be written, 2 on usage errors, and 3 on an internal error:
any other exception, reported as one line on stderr without a traceback;
when ``moduli`` or ``report`` runs out of memory, that line names the grid
and rank.
Each input has one click type: q rational > 1, grid >= 3, rank >= 2, tol
positive and finite, flow finite and nonzero, seed in [0, 2^64), form specs
with finite coefficients, omega real and nondegenerate (omega ^ omega != 0).
A key=value --config file is read, before any other option, into click's
default map: each key (a parameter or option name, - read as _) is its
flag's default, so the flag's own type checks it and a flag on the command
line wins; an unknown key or a line without = is a usage error. The
HKT4_OUT_DIR environment variable supplies a default output directory for
bare report filenames.
"""

from __future__ import annotations

import cmath
import contextlib
import json
import math
import os
import re
import sys
from fractions import Fraction

import click
import numpy as np

from . import __version__, suites
from .exact import ScalarField
from .forms import RationalForm
from .invariants import degree
from .lattice import LatticeField
from .report import VerificationReport, emit_report

DEFAULT_SEED = 314159


class _Domain(click.ParamType):
    """A value read by ``parse`` and kept when ``ok`` holds; a parse error
    or a value outside ``domain`` is a usage error (exit 2)."""

    def __init__(self, name, parse, ok=lambda value: True, domain=""):
        self.name, self.parse, self.ok, self.domain = name, parse, ok, domain

    def convert(self, value, param, ctx):
        try:
            parsed = self.parse(value)
        except (ValueError, ZeroDivisionError) as exc:
            self.fail(f"{value!r}: {exc}", param, ctx)
        if not self.ok(parsed):
            self.fail(f"{value!r} is not {self.domain}", param, ctx)
        return parsed


Q = _Domain("rational", Fraction, lambda q: q > 1, "a rational number > 1")
GRID, RANK = click.IntRange(min=3), click.IntRange(min=2)
TOL = _Domain("float", float, lambda t: math.isfinite(t) and t > 0,
              "positive and finite")
FLOW = _Domain("float", float, lambda e: math.isfinite(e) and e != 0,
               "finite and nonzero")
SEED = click.IntRange(0, 2**64 - 1)


def _read_config(ctx: click.Context, _param, path):
    """Read the --config file into ``ctx.default_map`` under parameter
    names. Eager, so it runs before every other option, which click then
    converts from the command line or else from this map. A file that is
    not UTF-8 is a usage error (exit 2)."""
    if path is None:
        return
    name_of = {key: param.name for param in ctx.command.params if param.name != "config"
               for key in [param.name, *(opt.lstrip("-").replace("-", "_")
                                         for opt in param.opts)]}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise click.UsageError(f"config file is not UTF-8: {exc}")
    values = {}
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise click.UsageError(f"bad config line: {line!r}")
        key, val = line.split("=", 1)
        values[key.strip().replace("-", "_")] = val.strip()
    unknown = values.keys() - name_of.keys()
    if unknown:
        raise click.UsageError(f"unknown config key: {', '.join(sorted(unknown))}")
    ctx.default_map = {name_of[key]: val for key, val in values.items()}


def _resolve_out(out):
    if out is None:
        return None
    base = os.environ.get("HKT4_OUT_DIR")
    if base and not os.path.dirname(out):
        os.makedirs(base, exist_ok=True)
        return os.path.join(base, out)
    return out


def _emit(doc: str, out) -> None:
    """Write ``doc`` to ``out`` when given, then echo it. A path that cannot
    be written is an error (exit 1) for every command."""
    try:
        path = _resolve_out(out)
        if path is not None:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(doc)
    except OSError as exc:
        raise click.ClickException(f"cannot write report: {exc}")
    click.echo(doc)


def _finish(report: VerificationReport, fmt, out):
    """Emit the report in the format ``fmt``; exit 0 if it passed, else 1."""
    _emit(emit_report(report, fmt), out)
    click.get_current_context().exit(0 if report.passed else 1)


@contextlib.contextmanager
def _naming_grid_and_rank(grid, rank):
    """Re-raise a MemoryError with the grid and rank that ran out of memory,
    so that the internal error (exit 3) names them."""
    try:
        yield
    except MemoryError as exc:
        raise MemoryError(f"out of memory at grid {grid}, rank {rank}: {exc}") from exc


_common = [
    click.option("--out", type=click.Path(), default=None,
                 help="Write the report to this path as well as stdout."),
    click.option("--format", "fmt", type=click.Choice(["json", "markdown"]),
                 default="json", show_default=True, help="Report format."),
    click.option("--seed", type=SEED, default=DEFAULT_SEED, show_default=True,
                 help="Seed for randomized spot checks (recorded in the report)."),
    click.option("--config", type=click.Path(exists=True, dir_okay=False), default=None,
                 is_eager=True, expose_value=False, callback=_read_config,
                 help="key=value file of flag defaults; flags win."),
]


def common_options(fn):
    for opt in reversed(_common):
        fn = opt(fn)
    return fn


class _Main(click.Group):
    """The command group; an exception that is not click's own (usage,
    --out write error, exit) is an internal error: one line, exit 3."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (click.ClickException, click.exceptions.Exit, click.Abort):
            raise
        except Exception as exc:  # noqa: BLE001 - told apart from a failed check
            click.echo(f"Error: internal error: {type(exc).__name__}: {exc}", err=True)
            ctx.exit(3)


@click.group(cls=_Main)
@click.version_option(version=__version__)
def main():
    """Exact and numerical checks for hypercomplex geometry on 4-manifolds:
    Hopf-surface strong-HKT identities and the instanton-moduli tangent
    space on the flat 4-torus."""


@main.command("verify-hopf")
@click.option("--q", type=Q, default="2", show_default=True,
              help="Rational multiplier of the quotient, q > 1.")
@common_options
def verify_hopf(q, out, fmt, seed):
    """Certify the Hopf-chart identities with exact arithmetic."""
    _finish(VerificationReport(checks=suites.hopf_suite(q, seed=seed), seed=seed), fmt, out)


@main.command("verify-flat")
@common_options
def verify_flat(out, fmt, seed):
    """Flat control run: Euclidean metric, both frames, zero torsion."""
    _finish(VerificationReport(checks=suites.flat_suite(), seed=seed), fmt, out)


@main.command("moduli")
@click.option("--grid", type=GRID, default=4, show_default=True,
              help="Lattice points per axis.")
@click.option("--rank", type=RANK, default=2, show_default=True,
              help="Bundle rank.")
@click.option("--tol", type=TOL, default=1e-10, show_default=True,
              help="Tolerance for the slice and structure identities.")
@click.option("--flow", "flow_eps", type=FLOW, default=None,
              help="Also run the descent flow from flat + eps * random.")
@common_options
def moduli_cmd(grid, rank, tol, flow_eps, out, fmt, seed):
    """Tangent-space model at the flat connection on the N^4 torus."""
    with _naming_grid_and_rank(grid, rank):
        checks = suites.moduli_suite(grid, rank, tol, seed=seed, flow_eps=flow_eps)
    _finish(VerificationReport(checks=checks, seed=seed), fmt, out)


_TERM_BASIS = re.compile(r"dx(\d)\^dx(\d)$")


def parse_form_spec(spec: str):
    """Constant 2-form spec: terms like '-2*pi*i*dx0^dx1 + dx2^dx3'.

    Each term is one dxA^dxB and coefficient factors (floats, 'pi', 'i'), joined
    by '*'. Returns a dict from sorted index pairs to complex coefficients.
    """
    compact = spec.replace(" ", "")
    if not compact:
        raise ValueError("empty form spec")
    out = {}
    # a sign after an exponent's e or E belongs to its float
    terms = re.findall(r"[+-]?(?:[^+-]|(?<=[eE])[+-])+", compact)
    if "".join(terms) != compact:
        raise ValueError(f"stray sign in form spec {spec!r}: every sign needs a term")
    for term in terms:
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
                if indices is not None:
                    raise ValueError(f"term {term!r} has more than one basis factor")
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


def _hermitian_spec(spec: str):
    """omega's terms as exact rationals, refused when a coefficient is not
    real or when omega ^ omega = 2 Pf(omega) dx0123 vanishes."""
    terms = parse_form_spec(spec)
    if any(abs(c.imag) > 1e-15 for c in terms.values()):
        raise ValueError("omega must be real")
    w = {t: Fraction(c.real) for t, c in terms.items()}
    w01, w23, w02, w13, w03, w12 = (w.get(t, 0) for t in
                                    ((0, 1), (2, 3), (0, 2), (1, 3), (0, 3), (1, 2)))
    if w01 * w23 - w02 * w13 + w03 * w12 == 0:
        raise ValueError("omega is degenerate: omega ^ omega = 0")
    return w


@main.command("degree")
@click.option("--f", "f_terms", type=_Domain("form", parse_form_spec), required=True,
              help="Curvature 2-form, e.g. '-2*pi*i*dx0^dx1'.")
@click.option("--omega", "w_terms", type=_Domain("form", _hermitian_spec), required=True,
              help="Gauduchon Hermitian form, e.g. 'dx0^dx1+dx2^dx3'.")
@click.option("--out", type=click.Path(), default=None)
@click.pass_context
def degree_cmd(ctx, f_terms, w_terms, out):
    """Degree (i/2pi) integral of F ^ omega on the unit torus."""
    N = 3
    comps = {t: np.full((N, N, N, N, 1, 1), c) for t, c in f_terms.items()}
    F = LatticeField(2, N, 1, comps)
    omega = RationalForm(2, {t: ScalarField.const(c) for t, c in w_terms.items()})
    try:
        value = degree(F, omega)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    _emit(json.dumps({"degree": value}, allow_nan=False), out)
    ctx.exit(0)


@main.command("report")
@click.option("--q", type=Q, default="2", show_default=True)
@click.option("--grid", type=GRID, default=3, show_default=True)
@click.option("--rank", type=RANK, default=2, show_default=True)
@click.option("--tol", type=TOL, default=1e-10, show_default=True)
@click.option("--flow", "flow_eps", type=FLOW, default=None)
@common_options
def report_cmd(q, grid, rank, tol, flow_eps, out, fmt, seed):
    """Run the composite suite (Hopf + flat control + moduli) and report."""
    with _naming_grid_and_rank(grid, rank):
        rep = suites.full_report(q=q, grid=grid, rank=rank, tol=tol, seed=seed,
                                 flow_eps=flow_eps)
    _finish(rep, fmt, out)


if __name__ == "__main__":
    sys.exit(main())
