"""Dead-code guard: every module-level function and class of the package
must be reachable from somewhere other than its own body.

References are resolved through imports with ``ast`` (no code is run):
``from m import f``, ``import m as M`` then ``M.f``, and bare names
inside ``f``'s own module. A reference counts from the package,
``tests/``, ``scripts/``, ``perfbench/``, ``bench.py`` and
``__ray_entry__.py``. A definition only tests reach is allowed when it
is on ``TEST_ONLY_KEEP``, with the reason it stays.
"""

from __future__ import annotations

import ast
import os
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PKG = "associationabacminer_ray"

# (module, name) -> why a definition that only tests reach is kept.
TEST_ONLY_KEEP = {
    ("pipelines.universe", "count_allowed_universe_pyset"):
        "python-set reference the exact universe count is tested against",
    ("stages.dedup", "_winnow_select"):
        "scalar reference the vectorised winnowing is tested against",
    ("pipelines.rules", "greedy_cover"):
        "driver-side reference greedy_cover_ray is tested against",
    ("stages.sketch_update", "SketchUpdater"):
        "bit-for-bit reference for CategoricalItemSketchUpdater",
    ("stages.multimodal", "encode_bmp"):
        "round-trip partner that decode_bmp's tests need",
    ("pipelines.evaluate", "rbac_policy"):
        "reference counterpart of the reference miner's RBAC baseline",
    ("pipelines.evaluate", "merge_policy"):
        "reference counterpart of the reference miner's policy merge",
    ("pipelines.evaluate", "roc_table"):
        "reference counterpart of the reference miner's ROC table",
    ("pipelines.evaluate", "auc_points"):
        "reference counterpart of the reference miner's AUC points",
    ("pipelines.text_pipelines", "minhash_near_dups"):
        "natural-pair near-dup search; its tests check recall of "
        "unplanted pairs, which q_minhash_dups filters out",
}


def _py_files(rel: str) -> list[str]:
    top = os.path.join(ROOT, rel)
    if os.path.isfile(top):
        return [top]
    out = []
    for dirpath, _, names in os.walk(top):
        out += [os.path.join(dirpath, n) for n in names if n.endswith(".py")]
    return sorted(out)


def _module_of(path: str) -> str:
    rel = os.path.relpath(path, ROOT)[:-3].replace(os.sep, ".")
    return rel[:-len(".__init__")] if rel.endswith(".__init__") else rel


def _scan():
    """Return ``(defs, refs)``: ``defs`` maps ``(module, name)`` to the
    definition's ``(path, first_line, last_line)``; ``refs`` maps it to
    the ``(origin, path, line)`` of each reference, ``origin`` being
    ``"tests"`` or ``"other"``."""
    sources = {"other": _py_files(PKG) + _py_files("scripts")
               + _py_files("perfbench") + _py_files("bench.py")
               + _py_files("__ray_entry__.py"),
               "tests": _py_files("tests")}
    trees = {p: ast.parse(open(p).read(), p)
             for files in sources.values() for p in files}
    modules = {_module_of(p) for p in sources["other"]
               if p.startswith(os.path.join(ROOT, PKG))}
    defs = {}
    for p in sources["other"]:
        mod = _module_of(p)
        if mod in modules:
            for node in trees[p].body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                    defs[(mod, node.name)] = (p, node.lineno, node.end_lineno)

    refs = defaultdict(list)
    for origin, files in sources.items():
        for p in files:
            mod = _module_of(p)
            package = mod if p.endswith("__init__.py") else mod.rpartition(".")[0]
            bound = {}  # local name -> module it stands for
            for node in ast.walk(trees[p]):
                if isinstance(node, ast.ImportFrom):
                    base = node.module or ""
                    if node.level:
                        parts = package.split(".")
                        parts = parts[:len(parts) - node.level + 1]
                        base = ".".join(parts + ([base] if base else []))
                    for a in node.names:
                        if f"{base}.{a.name}" in modules:
                            bound[a.asname or a.name] = f"{base}.{a.name}"
                        else:
                            refs[(base, a.name)].append((origin, p, node.lineno))
                elif isinstance(node, ast.Import):
                    for a in node.names:
                        bound[a.asname or a.name] = a.name
            for node in ast.walk(trees[p]):
                if isinstance(node, ast.Attribute):
                    chain, head = [node.attr], node.value
                    while isinstance(head, ast.Attribute):
                        chain.append(head.attr)
                        head = head.value
                    if isinstance(head, ast.Name) and head.id in bound:
                        owner = ".".join([bound[head.id]] + chain[:0:-1])
                        refs[(owner, node.attr)].append(
                            (origin, p, node.lineno))
                elif (isinstance(node, ast.Name) and mod in modules
                      and isinstance(node.ctx, ast.Load)):
                    refs[(mod, node.id)].append((origin, p, node.lineno))

    own = {}
    for key, (path, lo, hi) in defs.items():
        own[key] = [r for r in refs.get(key, [])
                    if not (r[1] == path and lo <= r[2] <= hi)]
    return defs, own


def _short(key):
    mod, name = key
    return (mod[len(PKG) + 1:], name)


def test_every_definition_is_referenced():
    defs, refs = _scan()
    dead = sorted(_short(k) for k in defs if not refs[k])
    assert not dead, f"definitions nothing references: {dead}"


def test_test_only_definitions_match_keep_list():
    defs, refs = _scan()
    test_only = {_short(k) for k in defs
                 if refs[k] and all(r[0] == "tests" for r in refs[k])}
    assert test_only == set(TEST_ONLY_KEEP), (
        f"only tests reach, not on the keep-list: "
        f"{sorted(test_only - set(TEST_ONLY_KEEP))}; "
        f"on the keep-list but not test-only: "
        f"{sorted(set(TEST_ONLY_KEEP) - test_only)}")
