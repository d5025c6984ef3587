"""The library's surface is no wider than its traffic.

Every defaulted parameter of a ``def`` in ``src/hralign`` must be set by
some call in the programs that use the library: ``src/hralign`` itself,
``scripts`` and ``perfbench/*.py``. A default that no program overrides is
a configuration nothing runs; it belongs inlined as a constant. Calls are
matched by the called name only (``x.f(...)`` and ``f(...)`` both call
every ``def f``; ``Cls(...)`` calls ``Cls.__init__``), ``ledger.call(label,
fn, *args, **kwargs)`` counts as a call of ``fn``, and a call passing
``*`` or ``**`` sets every parameter.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Defaults no program sets, each kept for a stated reason.
ALLOWED = {
    "cli_main.argv": "the console entry point reads sys.argv; tests pass argv",
    "count_learnable.backbone": "the acceptance tests read the adapter-to-backbone ratio",
    "pretext_pretrain.batch_size": "tests drive partial batches through pre-training",
}


def _parse(paths):
    return [ast.parse(p.read_text(encoding="utf-8"), str(p)) for p in paths]


def _definitions(root: Path):
    """(qualified name, called name, positional params, defaulted params)
    of every def in the library; a method's self/cls is dropped."""
    out = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                a = child.args
                positional = [p.arg for p in a.posonlyargs + a.args]
                defaulted = positional[len(positional) - len(a.defaults):]
                defaulted += [p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
                if owner is not None:  # self or cls; the library has no staticmethod
                    positional = positional[1:]
                called = owner.name if child.name == "__init__" and owner else child.name
                qual = f"{owner.name}.{child.name}" if owner else child.name
                out.append((qual, called, positional, defaulted))
                visit(child, None)
            elif isinstance(child, ast.ClassDef):
                visit(child, child)
            else:
                visit(child, owner)

    for tree in _parse(sorted((root / "src" / "hralign").glob("*.py"))):
        visit(tree, None)
    return out


def _name(func) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _calls(root: Path):
    """called name -> list of (positional count, keyword names, splat)."""
    paths = sorted((root / "src" / "hralign").glob("*.py"))
    paths += sorted((root / "scripts").glob("*.py")) + sorted((root / "perfbench").glob("*.py"))
    out: dict[str, list] = {}
    for tree in _parse(paths):
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func, args = node.func, node.args
            if _name(func) == "call" and getattr(func.value, "id", None) == "ledger":
                func, args = args[1], args[2:]
            splat = any(isinstance(a, ast.Starred) for a in args) or any(
                k.arg is None for k in node.keywords
            )
            keywords = {k.arg for k in node.keywords if k.arg is not None}
            out.setdefault(_name(func), []).append((len(args), keywords, splat))
    return out


def unset_defaults(root: Path = ROOT) -> set[str]:
    calls = _calls(root)
    unset = set()
    for qual, called, positional, defaulted in _definitions(root):
        for param in defaulted:
            index = positional.index(param) if param in positional else None
            if not any(
                splat or param in keywords or (index is not None and n_pos > index)
                for n_pos, keywords, splat in calls.get(called, [])
            ):
                unset.add(f"{qual}.{param}")
    return unset


def test_every_default_is_set_by_a_program_or_allowed():
    unset = unset_defaults()
    assert not unset - set(ALLOWED), (
        "defaulted parameters no program sets (inline the value or drop the "
        f"parameter): {sorted(unset - set(ALLOWED))}"
    )
    assert not set(ALLOWED) - unset, (
        f"allowlisted parameters that a program now sets: {sorted(set(ALLOWED) - unset)}"
    )


def test_checker_sees_an_unset_default(tmp_path):
    """The walk finds a default that only its own definition mentions."""
    src = tmp_path / "src" / "hralign"
    src.mkdir(parents=True)
    (src / "m.py").write_text(
        "def f(a, b=1, *, c=2):\n    return a\n\n"
        "class K:\n    def __init__(self, x=0):\n        pass\n\n"
        "    def g(self, y=3):\n        return f(1, 2)\n\n"
        "K(5).g(**{})\n",
        encoding="utf-8",
    )
    assert unset_defaults(tmp_path) == {"f.c"}
