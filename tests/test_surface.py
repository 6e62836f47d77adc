"""Every name the library defines has a caller.

Each top-level function and class in ``src/sdlab``, and each public method
of a top-level class, must be referenced by name somewhere other than its own
definition and the package re-exports in ``__init__.py``: in the library
itself or in the decode benchmark's own code (``perfbench/*.py``, its tests
left out).  A helper that only tests use, or an entry point nothing calls,
fails here; the tests keep a local copy of what they need instead.

A method counts as referenced only through an attribute (``x.method``),
never through a bare name, so a local variable of its name keeps nothing
alive.  Owners are not matched, so a method named like one of dict, list,
str, set or np.ndarray (``values``, ``take``, ...) counts every call of
theirs as its own.  No count of references proves such a method called,
so each one must be named in ``SHADOWED`` with the reason it is kept.
"""

import ast
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "sdlab"
# save_target is the only writer of the checkpoint format load_target reads
ALLOWED = {"save_target"}
SHADOWING = set().union(*map(dir, (dict, list, str, set, np.ndarray)))
# "Class.method" of each public method named like a method of SHADOWING's
# types, and why it is kept
SHADOWED = {
    "TrainBatch.take": "train_draft draws each training batch with corpus.take(idx)",
}


def library_files():
    return [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]


def caller_files():
    return library_files() + [p for p in sorted((ROOT / "perfbench").glob("*.py"))
                              if not p.name.startswith("test_")]


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def definitions(path):
    """(name, node) of every top-level function and class of a module and of
    every public method of its top-level classes, named "Class.method"."""
    for node in parse(path).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def references(paths):
    """name -> [(path, line, attribute)] of every use of the name as a
    variable (attribute False) or as an attribute (True)."""
    refs = {}
    for path in paths:
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.Name):
                refs.setdefault(node.id, []).append((path, node.lineno, False))
            elif isinstance(node, ast.Attribute):
                refs.setdefault(node.attr, []).append((path, node.lineno, True))
    return refs


def uncalled(paths, callers):
    """Names defined in paths that no code in callers references outside
    their own definition, a method only as an attribute, as "file:line
    name"."""
    refs = references(callers)
    out = []
    for path in paths:
        for name, node in definitions(path):
            method = "." in name
            outside = [(p, line) for p, line, attr in refs.get(name.split(".")[-1], [])
                       if (attr or not method)
                       and (p != path or not node.lineno <= line <= node.end_lineno)]
            if not outside:
                out.append(f"{path.name}:{node.lineno} {name}")
    return out


def shadowed(paths):
    """"Class.method" of every public method defined in paths whose name one
    of SHADOWING's types also defines."""
    return sorted(name for path in paths for name, _ in definitions(path)
                  if "." in name and name.split(".")[1] in SHADOWING)


def test_every_library_name_has_a_caller():
    names = uncalled(library_files(), caller_files())
    # and the allowlist holds nothing that has gained a caller
    assert sorted(n.split()[1] for n in names) == sorted(ALLOWED), names


def test_every_shadowed_method_is_allowlisted():
    # both ways: a new shadowed method fails, and so does a stale entry
    assert shadowed(library_files()) == sorted(SHADOWED)


def test_the_guard_sees_a_test_only_helper(tmp_path):
    # smooth_l1 as the kernels once defined it: nothing but tests called it
    mod = tmp_path / "extra.py"
    mod.write_text("def smooth_l1(pred, target, beta=1.0):\n"
                   "    return smooth_l1_elem(pred, target, beta).mean()\n"
                   "\n\n"
                   "def smooth_l1_elem(pred, target, beta):\n"
                   "    return abs(pred - target)\n", encoding="utf-8")
    assert uncalled([mod], [*caller_files(), mod]) == ["extra.py:1 smooth_l1"]


def test_the_guard_sees_an_unused_method_named_like_a_local_variable(tmp_path):
    # a local variable row, as verify.py and tree.py have, is no call of
    # a method row that only tests call
    mod = tmp_path / "extra.py"
    mod.write_text("class Step:\n"
                   "    def row(self, i):\n"
                   "        return i\n"
                   "\n\n"
                   "def first(steps):\n"
                   "    row = steps[0]\n"
                   "    return row\n"
                   "\n\n"
                   "first([Step()])\n", encoding="utf-8")
    assert uncalled([mod], [*caller_files(), mod]) == ["extra.py:2 Step.row"]


def test_the_guard_sees_an_unused_method_named_like_a_dict_method(tmp_path):
    # KvCache as target.py defines it, plus a values() nothing calls: the
    # caller check counts model.params.values() in draft.py as its call
    path = SRC / "target.py"
    cls = next(node for node in parse(path).body
               if isinstance(node, ast.ClassDef) and node.name == "KvCache")
    mod = tmp_path / "extra.py"
    mod.write_text(ast.get_source_segment(path.read_text(encoding="utf-8"), cls)
                   + "\n\n    def values(self):\n        return self._v\n", encoding="utf-8")
    assert not any(n.endswith(" KvCache.values") for n in uncalled([mod], [*caller_files(), mod]))
    assert [n for n in shadowed([mod]) if n not in SHADOWED] == ["KvCache.values"]
