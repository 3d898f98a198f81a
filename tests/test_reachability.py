"""Every def of ``src/hkt4`` runs on a path that a user or the benchmark
takes, or says why not; and every layer the benchmark traces still exists.

The scan runs this file as a script in a fresh interpreter, so that the
``lru_cache``d builders other tests filled are called again. Under
``sys.setprofile`` it records every def of ``src/hkt4`` called while it
runs three things:

* the commands of ``CLI_RUNS``, through click's ``CliRunner``;
* the cold request and one unit of each benchmark workload at
  ``WORKLOAD_SEED``, each output passing the workload's own check;
* the README's "Library entry points" block, as written.

A def passes if the scan called it, if it is an operator or protocol method
(``__x__``), or if ``ALLOWED`` gives it a reason tagged ``oracle:``,
``documented:``, ``bench:`` or ``failure:``. A def on ``ALLOWED`` that the
scan calls fails too, so the list cannot outlive its reasons.
"""

import ast
import contextlib
import io
import json
import re
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "hkt4"

CLI_RUNS = (
    (0, ["verify-hopf"]),
    (0, ["verify-hopf", "--format", "markdown", "--out", "{tmp}/hopf.md"]),
    (0, ["verify-flat"]),
    (0, ["report"]),
    (0, ["moduli", "--grid", "4", "--rank", "2"]),
    (0, ["moduli", "--grid", "4", "--rank", "2", "--flow", "1e-2"]),
    (0, ["moduli", "--grid", "4", "--rank", "3"]),
    (0, ["moduli", "--grid", "4", "--rank", "3", "--flow", "1e-2", "--seed", "8"]),
    (0, ["moduli", "--grid", "5", "--rank", "2"]),
    (0, ["moduli", "--grid", "5", "--rank", "2", "--flow", "1e-2"]),
    (0, ["moduli", "--grid", "6", "--rank", "2", "--flow", "1e-2", "--seed", "3"]),
    (0, ["moduli", "--config", "{tmp}/moduli.cfg"]),
    (0, ["degree", "--f", "-2*pi*i*dx0^dx1", "--omega", "dx0^dx1+dx2^dx3"]),
    (2, ["moduli", "--grid", "2"]),
)
CONFIG = "# the flags of moduli, one per line\ngrid = 4\nrank = 2\nseed = 7\n"
WORKLOAD_SEED = 5

TAGS = ("oracle:", "documented:", "bench:", "failure:")
# "module:qualname" of each def the scan does not call, with why it stays
ALLOWED = {
    "moduli.py:_dense_slice_basis":
        "oracle: the dense null space the per-mode slice is tested against "
        "(tests/test_moduli.py), and the path of non-Cartan connections",
    "moduli.py:_dense_kernel":
        "oracle: the SVD of the dense slice operator, under _dense_slice_basis",
    "moduli.py:_unit_fields":
        "oracle: the complex unit fields the dense slice operator acts on",
    "moduli.py:subspace_distance":
        "oracle: the distance of two slices in the tests, and of a dense "
        "re-cut whose operator differs from the slice's",
    "moduli.py:subspace_distance.<locals>.to_matrix":
        "oracle: under subspace_distance",
    "moduli.py:_real_matrix":
        "oracle: the real matrix of a stack, under subspace_distance and in the tests",
    "lattice.py:LatticeField.save":
        "documented: the LATF1 snapshot format of the README's Field snapshots",
    "lattice.py:LatticeField.load":
        "documented: the LATF1 snapshot format of the README's Field snapshots",
    "exact.py:Poly.coeffs":
        "documented: a polynomial's coefficients by exponent 4-tuples, named in "
        "the exact module docstring; the SymPy oracle tests read it",
    "exact.py:Poly.divmod_poly":
        "bench: a target of bench/layers.py; div_exact's general division",
    "exact.py:Poly._leading": "bench: under Poly.divmod_poly",
    "exact.py:Poly.is_zero":
        "bench: under Poly.divmod_poly and the general division of div_exact",
    "exact.py:_mono_divides": "bench: under Poly.divmod_poly",
    "exact.py:ScalarField.partial": "bench: a target of bench/layers.py",
    "hermitian.py:gauduchon_defect": "bench: a target of bench/layers.py",
    "moduli.py:moduli_hermitian_form": "bench: a target of bench/layers.py",
    "moduli.py:TangentBasis.projection_defect":
        "bench: under moduli_hermitian_form",
    "forms.py:RationalForm.max_abs_coeff":
        "failure: the defect CheckRecorder.exact reports for a nonzero form",
    "exact.py:ScalarField.max_abs_coeff":
        "failure: under RationalForm.max_abs_coeff",
    "exact.py:QI.abs2":
        "failure: under ScalarField.max_abs_coeff; QI.__truediv__ reads it too",
    "hopf.py:_matrix_size":
        "failure: the defect of a failing hopf.axis-family.*.metric check",
}


def _src_defs():
    """"module:qualname" of every def in ``src/hkt4``, as ``co_qualname``
    spells it."""
    defs = set()

    def walk(node, prefix, module):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs.add(f"{module}:{prefix}{child.name}")
                walk(child, f"{prefix}{child.name}.<locals>.", module)
            elif isinstance(child, ast.ClassDef):
                walk(child, f"{prefix}{child.name}.", module)
            else:
                walk(child, prefix, module)

    for path in sorted(SRC.glob("*.py")):
        walk(ast.parse(path.read_text()), "", path.name)
    return defs


def _is_protocol(name):
    return re.fullmatch(r"__\w+__", name.rsplit(".", 1)[-1]) is not None


def _readme_example():
    text = (ROOT / "README.md").read_text()
    return re.search(r"## Library entry points\n.*?```python\n(.*?)```", text, re.S).group(1)


def _scan(tmp: Path):
    """Run the CLI list, the workloads and the README example under a
    profiler; the sorted "module:qualname" of each def of ``src/hkt4``
    called."""
    calls = set()

    def profile(frame, event, arg):
        if event == "call":
            calls.add(frame.f_code)

    sys.setprofile(profile)
    try:
        from click.testing import CliRunner

        import hkt4
        from hkt4.cli import main

        assert Path(hkt4.__file__).resolve().parent == SRC, hkt4.__file__
        (tmp / "moduli.cfg").write_text(CONFIG)
        for code, args in CLI_RUNS:
            result = CliRunner().invoke(main, [a.format(tmp=tmp) for a in args])
            assert result.exit_code == code, (args, result.output)

        from bench.workloads import WORKLOADS, attempt

        for name, make in WORKLOADS.items():
            wl = make()
            cold, units = wl.plan(WORKLOAD_SEED)
            for req in [cold, *next(units)]:
                out = attempt(wl.execute, wl.check, req, time.perf_counter)
                assert out.ok, (name, req.kind, out.failures)

        with contextlib.redirect_stdout(io.StringIO()):
            exec(compile(_readme_example(), "<README: Library entry points>", "exec"), {})
    finally:
        sys.setprofile(None)
    return sorted({f"{path.name}:{c.co_qualname}" for c in calls
                   if (path := Path(c.co_filename).resolve()).parent == SRC})


def test_every_src_def_is_called_or_allowed(tmp_path):
    proc = subprocess.run([sys.executable, __file__, str(tmp_path)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-4000:]
    called = set(json.loads((tmp_path / "called.json").read_text()))
    defs = _src_defs()
    assert sorted(d for d in defs - called - ALLOWED.keys() if not _is_protocol(d)) == []
    assert sorted(called & ALLOWED.keys()) == []
    assert sorted(ALLOWED.keys() - defs) == []
    assert [k for k, why in ALLOWED.items() if not why.startswith(TAGS)] == []


def test_every_benchmark_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    from bench.layers import TARGETS
    from bench.spans import _resolve

    missing = []
    for target in TARGETS:
        try:
            _resolve(target)
        except (AttributeError, KeyError, ImportError) as exc:
            missing.append(f"{target.name}: {exc!r}")
    assert missing == []


if __name__ == "__main__":
    sys.path[:0] = [str(SRC.parent), str(ROOT)]
    out = Path(sys.argv[1])
    (out / "called.json").write_text(json.dumps(_scan(out)))
