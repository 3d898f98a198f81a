"""Every part of ``src/hkt4`` is reached by something other than the tests,
and every layer the benchmark traces still exists.

A module-level function or class counts as reached when another part of
the package uses it, when a file under ``bench/`` names it, or when the
README's library example does; click commands are reached from the CLI.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "hkt4"


def _is_click_command(node):
    """Decorated with ``@<group>.command(...)`` or ``@click.group()``."""
    for dec in node.decorator_list:
        func = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(func, ast.Attribute) and func.attr in ("command", "group"):
            return True
    return False


def _used_names(node):
    """Names loaded and attributes read anywhere in ``node``."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            or isinstance(n, ast.Attribute)}


def _unreached():
    text = "\n".join(p.read_text() for p in sorted((ROOT / "bench").glob("*.py")))
    text += (ROOT / "README.md").read_text()
    named = set(re.findall(r"\w+", text))
    # where each name is used: (module, top-level statement) pairs, so a
    # definition's own body does not count as reaching it
    uses = {}
    defs = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for k, node in enumerate(ast.parse(path.read_text()).body):
            for name in _used_names(node):
                uses.setdefault(name, set()).add((path.name, k))
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.append((path.name, k, node))
    return [f"{mod}:{node.lineno} {node.name}" for mod, k, node in defs
            if node.name not in named and not _is_click_command(node)
            and not uses.get(node.name, set()) - {(mod, k)}]


def test_every_src_function_and_class_is_reached():
    assert _unreached() == []


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
