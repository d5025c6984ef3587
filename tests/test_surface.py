"""The library's surface is no wider than its traffic.

The programs that use the library are ``src/hralign`` itself,
``scripts`` and ``perfbench/*.py``.

Every defaulted parameter of a ``def`` in ``src/hralign`` must be set by
some call in the programs. A default that no program overrides is
a configuration nothing runs; it belongs inlined as a constant. Calls are
matched by the called name only (``x.f(...)`` and ``f(...)`` both call
every ``def f``; ``Cls(...)`` calls ``Cls.__init__``), ``ledger.call(label,
fn, *args, **kwargs)`` counts as a call of ``fn``, and a call passing
``*`` or ``**`` sets every parameter.

Every ``TrainConfig`` field must be set by a program: passed as a keyword
to ``TrainConfig(...)`` or ``replace(...)``, or named as a key of an
``ARMS`` entry. A field no program sets is a constant in disguise, and each
one doubles the configurations a sweep over arms and seeds has to cover.

Every name the library defines must be reached by a program. A
module-level ``def`` or ``class`` is reached by a load of its name in its
own module outside its own body, by an import of it into another program,
or by ``<alias of its module>.<name>``; a method or property is reached by
a ``.<name>`` load anywhere (dunders are exempt). A name only tests reach
is an API that exists for tests; it belongs in the tests or nowhere.

Every annotated field of a library class must be read by an attribute
load (``x.<field>``) in a program. A field only tests read is state that
exists for tests; what a program needs of it can be read off the others.

Every ``functools.lru_cache`` or ``cache`` on a ``def`` in ``src/hralign``
must be allowlisted with its reason. A cache outlives the run that filled
it, so one that holds a run's state (a seed's shuffles, say) makes what a
run computes depend on what ran before it in the process; only a pure
function of its arguments whose result no caller writes may be cached.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
from pathlib import Path

import numpy as np

from hralign.evaluation import ARMS
from hralign.trainer import TrainConfig

ROOT = Path(__file__).resolve().parent.parent

# Defaults no program sets, each kept for a stated reason.
ALLOWED = {
    "cli_main.argv": "the console entry point reads sys.argv; tests pass argv",
    "pretext_pretrain.batch_size": "tests drive partial batches through pre-training",
}


# Names no program reaches, each kept for a stated reason.
UNREACHED_ALLOWED: dict[str, str] = {}


# Annotated class fields no program reads, each kept for a stated reason.
UNREAD_FIELDS_ALLOWED: dict[str, str] = {}


# TrainConfig fields no program sets, each kept for a stated reason.
UNSET_FIELDS_ALLOWED = {
    "batch_size": "tests and small CLI manifests need a batch below 16, and the batch "
    "changes results, so it cannot be derived from the data",
}


# Cached defs, each a pure function of its arguments whose result no
# caller writes, kept for a stated reason, with sample arguments to call it on.
CACHED_ALLOWED = {
    "tensor._patch_index": ("conv2d's gather offsets for one padded frame shape, built per "
                            "call otherwise", (18, 18, 3, 3, 1)),
    "dataset._grids": ("the frame's constant coordinate grids", ()),
    "dataset._warm_background": ("the human domain's constant backdrop", ()),
    "dataset._cool_background": ("the robot domain's constant backdrop", ()),
    "task_query.build_table": ("the constant bucket table, 65,536 normals drawn again for each "
                               "language checkpoint built, saved or loaded otherwise", ()),
    "task_query.bag_of_tokens": ("one description's mean bucket vector, a pure function of its "
                                 "text, hashed per training step otherwise", ("Push the block",)),
}


def _parse(paths):
    return [ast.parse(p.read_text(encoding="utf-8"), str(p)) for p in paths]


def _library(root: Path) -> list[Path]:
    return sorted((root / "src" / "hralign").glob("*.py"))


def _programs(root: Path) -> list[Path]:
    return _library(root) + sorted((root / "scripts").glob("*.py")) + sorted(
        (root / "perfbench").glob("*.py")
    )


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

    for tree in _parse(_library(root)):
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
    out: dict[str, list] = {}
    for tree in _parse(_programs(root)):
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


def config_fields_set(root: Path = ROOT) -> set[str]:
    """Keywords of every ``TrainConfig(...)`` and ``replace(...)`` call in the
    programs, and the keys of every entry of a dict assigned to ``ARMS``."""
    out = set()
    for tree in _parse(_programs(root)):
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _name(node.func) in ("TrainConfig", "replace"):
                out.update(k.arg for k in node.keywords if k.arg is not None)
            elif (
                isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "ARMS" for t in node.targets)
                and isinstance(node.value, ast.Dict)
            ):
                for entry in node.value.values:
                    if isinstance(entry, ast.Dict):
                        out.update(k.value for k in entry.keys if isinstance(k, ast.Constant))
    return out


def unreached_names(root: Path = ROOT) -> set[str]:
    """``module.name`` of each module-level def or class and ``Class.name``
    of each method or property that no program reaches."""
    modules = {p.stem for p in _library(root)}
    imported, via_alias, attributes = set(), set(), set()
    for tree in _parse(_programs(root)):
        aliases = {}  # local name -> library module
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                source = (node.module or "").rsplit(".", 1)[-1]
                for a in node.names:
                    if source in ("", "hralign") and a.name in modules:
                        aliases[a.asname or a.name] = a.name
                    imported.add((source, a.name))
            elif isinstance(node, ast.Import):
                for a in node.names:
                    if a.name.startswith("hralign.") and a.asname:
                        aliases[a.asname] = a.name.rsplit(".", 1)[-1]
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attributes.add(node.attr)
                if isinstance(node.value, ast.Name) and node.value.id in aliases:
                    via_alias.add((aliases[node.value.id], node.attr))
    unreached = set()
    for path, tree in zip(_library(root), _parse(_library(root))):
        module = path.stem
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            loaded_elsewhere = any(
                isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) and n.id == node.name
                for other in tree.body
                if other is not node
                for n in ast.walk(other)
            )
            if not (
                loaded_elsewhere
                or (module, node.name) in imported
                or (module, node.name) in via_alias
            ):
                unreached.add(f"{module}.{node.name}")
            if isinstance(node, ast.ClassDef):
                for method in node.body:
                    if (
                        isinstance(method, ast.FunctionDef)
                        and not (method.name.startswith("__") and method.name.endswith("__"))
                        and method.name not in attributes
                    ):
                        unreached.add(f"{node.name}.{method.name}")
    return unreached


def unread_fields(root: Path = ROOT) -> set[str]:
    """``Class.field`` of each annotated field in the body of a library class
    that no attribute load in the programs reads."""
    loaded = {
        node.attr
        for tree in _parse(_programs(root))
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    return {
        f"{cls.name}.{stmt.target.id}"
        for tree in _parse(_library(root))
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for stmt in cls.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name) and stmt.target.id not in loaded
    }


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


def test_every_name_is_reached_by_a_program_or_allowed():
    unreached = unreached_names()
    assert not unreached - set(UNREACHED_ALLOWED), (
        "library names no program reaches (move them to the tests or delete "
        f"them): {sorted(unreached - set(UNREACHED_ALLOWED))}"
    )
    assert not set(UNREACHED_ALLOWED) - unreached, (
        f"allowlisted names that a program now reaches: {sorted(set(UNREACHED_ALLOWED) - unreached)}"
    )


def test_name_checker_sees_an_unreached_name(tmp_path):
    """Each way of reaching a name counts, and only those do."""
    src = tmp_path / "src" / "hralign"
    src.mkdir(parents=True)
    (src / "m.py").write_text(
        "def used():\n    return 1\n\n"
        "def recursive(n):\n    return recursive(n - 1)\n\n"
        "def imported():\n    pass\n\n"
        "def via_alias():\n    pass\n\n"
        "class K:\n    def __repr__(self):\n        return ''\n\n"
        "    def called(self):\n        return used()\n\n"
        "    def unused(self):\n        pass\n\n"
        "K().called()\n",
        encoding="utf-8",
    )
    (src / "__init__.py").write_text("def orphan():\n    pass\n", encoding="utf-8")
    (tmp_path / "scripts").mkdir()
    (tmp_path / "scripts" / "s.py").write_text(
        "from hralign.m import imported\nfrom hralign import m as mm\n\nmm.via_alias()\n",
        encoding="utf-8",
    )
    assert unreached_names(tmp_path) == {"m.recursive", "K.unused", "__init__.orphan"}


def test_package_init_imports_nothing():
    """``__init__.py`` is audited like every module, so an import there
    would count as a program reaching the name; it once re-exported 30
    names no program, test or README line imported."""
    (init,) = _parse([ROOT / "src" / "hralign" / "__init__.py"])
    assert not [n for n in ast.walk(init) if isinstance(n, (ast.Import, ast.ImportFrom))]


def test_every_field_is_read_by_a_program_or_allowed():
    """A field no program reads once kept an adapter's bottleneck width,
    which the shape of its tensors already holds."""
    unread = unread_fields()
    assert not unread - set(UNREAD_FIELDS_ALLOWED), (
        "class fields no program reads (derive them or drop them): "
        f"{sorted(unread - set(UNREAD_FIELDS_ALLOWED))}"
    )
    assert not set(UNREAD_FIELDS_ALLOWED) - unread, (
        f"allowlisted fields that a program now reads: {sorted(set(UNREAD_FIELDS_ALLOWED) - unread)}"
    )


def test_field_checker_sees_an_unread_field(tmp_path):
    """Only an attribute load reads a field: a store, a bare name, a string
    and a load in the tests do not."""
    src = tmp_path / "src" / "hralign"
    src.mkdir(parents=True)
    (src / "m.py").write_text(
        "class K:\n    read: int\n    stored: int\n    named: int\n    quoted: int\n    plain = 1\n\n"
        "k = K()\nk.stored = named = 2\nprint(k.read, getattr(k, 'quoted'))\n",
        encoding="utf-8",
    )
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "t.py").write_text("print(k.stored, k.named, k.quoted)\n", encoding="utf-8")
    assert unread_fields(tmp_path) == {"K.stored", "K.named", "K.quoted"}


def test_every_config_field_is_set_by_a_program_or_allowed():
    unset = {f.name for f in dataclasses.fields(TrainConfig)} - config_fields_set()
    assert not unset - set(UNSET_FIELDS_ALLOWED), (
        "TrainConfig fields no program sets (make them module constants): "
        f"{sorted(unset - set(UNSET_FIELDS_ALLOWED))}"
    )
    assert not set(UNSET_FIELDS_ALLOWED) - unset, (
        f"allowlisted fields that a program now sets: {sorted(set(UNSET_FIELDS_ALLOWED) - unset)}"
    )


def test_every_arm_names_what_it_trains():
    """An ``ARMS`` entry is a complete config of what trains: an arm that
    left its method, adapter positions or query projection to the base
    config once saved a checkpoint whose header claimed the base's L
    adapters and projection, which it did not hold."""
    for arm, spec in ARMS.items():
        assert {"method", "adapter_positions", "use_language"} <= spec.keys(), arm


def test_config_field_checker_sees_each_way_of_setting_a_field(tmp_path):
    """Keywords of the two calls and ARMS entry keys count; a splat, a
    positional argument and another dict's keys do not."""
    src = tmp_path / "src" / "hralign"
    src.mkdir(parents=True)
    (src / "m.py").write_text(
        "ARMS = {'a': {'by_arm': 1}}\n"
        "OTHER = {'a': {'by_other_dict': 1}}\n"
        "TrainConfig(by_call=1, **{'by_splat': 2})\n"
        "replace(config, by_replace=1)\n"
        "TrainConfig('positional')\n",
        encoding="utf-8",
    )
    assert config_fields_set(tmp_path) == {"by_arm", "by_call", "by_replace"}


def cached_defs(root: Path = ROOT) -> set[str]:
    """``module.name`` of every def in the library under an ``lru_cache`` or
    ``cache`` decorator, called or bare, by name or through ``functools.``."""
    out = set()
    for path, tree in zip(_library(root), _parse(_library(root))):
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and any(
                _name(d.func if isinstance(d, ast.Call) else d) in ("lru_cache", "cache")
                for d in node.decorator_list
            ):
                out.add(f"{path.stem}.{node.name}")
    return out


def test_every_cached_def_is_allowed():
    cached = cached_defs()
    assert not cached - set(CACHED_ALLOWED), (
        "cached defs not allowlisted (a cache must not hold a run's state): "
        f"{sorted(cached - set(CACHED_ALLOWED))}"
    )
    assert not set(CACHED_ALLOWED) - cached, (
        f"allowlisted cached defs that are gone or no longer cached: {sorted(set(CACHED_ALLOWED) - cached)}"
    )


def test_every_cached_def_returns_read_only_arrays():
    """A cached result is shared by every later caller, so no caller may
    write it: each array a cached def returns is read-only."""
    for name, (_, args) in CACHED_ALLOWED.items():
        module, attr = name.split(".")
        result = getattr(importlib.import_module(f"hralign.{module}"), attr)(*args)
        arrays = result if isinstance(result, tuple) else (result,)
        assert arrays and all(isinstance(a, np.ndarray) for a in arrays), name
        assert not [a for a in arrays if a.flags.writeable], f"{name} returns a writable array"


def test_cached_def_checker_sees_each_form_of_the_decorator(tmp_path):
    src = tmp_path / "src" / "hralign"
    src.mkdir(parents=True)
    (src / "m.py").write_text(
        "import functools\nfrom functools import cache, lru_cache, wraps\n\n"
        "@lru_cache(maxsize=1)\ndef a():\n    pass\n\n"
        "@functools.lru_cache\ndef b():\n    pass\n\n"
        "@cache\ndef c():\n    pass\n\n"
        "@wraps(a)\ndef plain():\n    pass\n\n"
        "class K:\n    @functools.cache\n    def d(self):\n        pass\n",
        encoding="utf-8",
    )
    assert cached_defs(tmp_path) == {"m.a", "m.b", "m.c", "m.d"}


def checkpoint_builders(root: Path = ROOT) -> set[str]:
    """``file:function`` of every call in the programs that builds a
    ``ModelCheckpoint``: a call of that name, or of ``cls`` in one of the
    class's own methods."""
    out = set()

    def visit(node, path: str, where: str, in_class: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, path, child.name, child.name == "ModelCheckpoint")
            elif isinstance(child, ast.FunctionDef):
                visit(child, path, f"{where}.{child.name}" if where else child.name, in_class)
            else:
                if isinstance(child, ast.Call) and (
                    _name(child.func) == "ModelCheckpoint"
                    or (in_class and getattr(child.func, "id", None) == "cls")
                ):
                    out.add(f"{path}:{where or '<module>'}")
                visit(child, path, where, in_class)

    for path, tree in zip(_programs(root), _parse(_programs(root))):
        visit(tree, path.relative_to(root).as_posix(), "", False)
    return out


def test_only_start_builds_a_checkpoint():
    """A run's config decides what its checkpoint holds: training, resume,
    ``load`` and ``pretrain`` all build through ``ModelCheckpoint.start``.
    Four places once each decided which parts a checkpoint held, and the
    pretrain header claimed adapters it did not hold."""
    assert checkpoint_builders() == {"src/hralign/trainer.py:ModelCheckpoint.start"}


def test_builder_checker_sees_each_way_of_building(tmp_path):
    src = tmp_path / "src" / "hralign"
    src.mkdir(parents=True)
    (src / "m.py").write_text(
        "class ModelCheckpoint:\n"
        "    @classmethod\n    def start(cls):\n        return cls()\n\n"
        "    @classmethod\n    def load(cls):\n        def inner():\n            return cls()\n        return inner()\n\n"
        "class Other:\n    @classmethod\n    def make(cls):\n        return cls()\n\n"
        "def build():\n    return ModelCheckpoint()\n\n"
        "x = m.ModelCheckpoint.start()\n",
        encoding="utf-8",
    )
    (tmp_path / "scripts").mkdir()
    (tmp_path / "scripts" / "s.py").write_text("from m import ModelCheckpoint\nModelCheckpoint()\n", encoding="utf-8")
    assert checkpoint_builders(tmp_path) == {
        "src/hralign/m.py:ModelCheckpoint.start",
        "src/hralign/m.py:ModelCheckpoint.load.inner",
        "src/hralign/m.py:build",
        "scripts/s.py:<module>",
    }
