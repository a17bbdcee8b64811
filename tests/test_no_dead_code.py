"""Dead-code guard: every module-level function and class of the package
must be reachable from somewhere other than its own body, and every
defaulted parameter of the core modules must be set by some call
outside ``tests/``.

References are resolved through imports with ``ast`` (no code is run):
``from m import f``, ``import m as M`` then ``M.f``, and bare names
inside ``f``'s own module. A reference counts from the package,
``tests/``, ``scripts/``, ``perfbench/``, ``bench.py`` and
``__ray_entry__.py``. A definition only tests reach is allowed when it
is on ``TEST_ONLY_KEEP``, with the reason it stays.

Parameter calls are matched by name (``f(...)``, ``x.f(...)``,
``Cls(...)`` for ``Cls.__init__``, ``cls(...)`` inside ``Cls``,
``super().__init__(...)`` for the bases, ``partial(f, ...)``, Ray's
``map_batches(f, fn_args=..., fn_kwargs=...)`` and its constructor
twins): a call sets the parameters it names, the first
positional ones, and all of them through ``*``/``**``. Two definitions
of one name share their calls, so the match may miss an unused
parameter but never fails on a used one.
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


# the modules on the mining, scoring and store path
CORE_MODULES = [f"{PKG}.{m}" for m in (
    "pipelines.itemsets", "pipelines.rules", "pipelines.mining",
    "pipelines.jobs", "pipelines.evaluate", "stages.transactionize",
    "state.checkpoint", "state.incremental", "functions.windows",
    "functions.scoring", "functions.hashing", "sketches.base",
    "sketches.cms", "sketches.hll", "sketches.topk", "runtime",
    "sources.transcripts")]

# (module, definition, parameter) -> why a defaulted parameter that no
# call outside the tests sets is kept
PARAM_KEEP = {
    ("pipelines.itemsets", "sketched_itemset_supports", "itemset_hash"):
        "shuffle-path reference the daily store's poly itemset-hash "
        "builds are tested against",
    ("pipelines.itemsets", "sketched_itemset_supports", "conv_hash"):
        "shuffle-path reference the daily store's poly conv-hash "
        "builds are tested against",
}


def _defaulted(fn: ast.FunctionDef, is_method: bool):
    """``(name, positional index or None)`` of each defaulted parameter;
    a method's index skips ``self``/``cls``."""
    pos = fn.args.posonlyargs + fn.args.args
    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                 for d in fn.decorator_list)
    skip = 1 if is_method and not static else 0
    first = len(pos) - len(fn.args.defaults)
    out = [(a.arg, i - skip) for i, a in enumerate(pos) if i >= first]
    out += [(a.arg, None) for a, d in zip(fn.args.kwonlyargs,
                                          fn.args.kw_defaults) if d is not None]
    return out


def _param_defs():
    """``(module, definition, callee name) -> [(param, index)]`` of every
    function and class in ``CORE_MODULES``; a class counts its
    constructor (``__init__``, else its dataclass fields) and methods."""
    out = {}
    for mod in CORE_MODULES:
        path = os.path.join(ROOT, *mod.split(".")) + ".py"
        for node in ast.parse(open(path).read(), path).body:
            short = mod[len(PKG) + 1:]
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out[(short, node.name, node.name)] = _defaulted(node, False)
            elif isinstance(node, ast.ClassDef):
                fields, has_init = [], False
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        name = f"{node.name}.{item.name}"
                        callee = item.name
                        if item.name == "__init__":
                            has_init, callee = True, node.name
                        out[(short, name, callee)] = _defaulted(item, True)
                    elif (isinstance(item, ast.AnnAssign)
                          and isinstance(item.target, ast.Name)):
                        fields.append((item.target.id, item.value is not None))
                dataclass = any(
                    "dataclass" in ast.unparse(d) for d in node.decorator_list)
                if dataclass and not has_init and fields:
                    out[(short, node.name, node.name)] = [
                        (f, i) for i, (f, has_default) in enumerate(fields)
                        if has_default]
    return out


def _name(expr):
    """The name a ``Name`` or ``Attribute`` expression ends in, else None."""
    return (expr.id if isinstance(expr, ast.Name)
            else expr.attr if isinstance(expr, ast.Attribute) else None)


def _calls():
    """callee name -> ``(keywords, most positionals, any *, any **)`` over
    every call outside ``tests/``."""
    files = (_py_files(PKG) + _py_files("scripts") + _py_files("perfbench")
             + _py_files("bench.py") + _py_files("__ray_entry__.py"))
    seen = defaultdict(lambda: [set(), 0, False, False])

    def record(name, args, keywords):
        rec = seen[name]
        rec[0].update(k.arg for k in keywords if k.arg is not None)
        rec[1] = max(rec[1], sum(not isinstance(a, ast.Starred) for a in args))
        rec[2] |= any(isinstance(a, ast.Starred) for a in args)
        rec[3] |= any(k.arg is None for k in keywords)

    def visit(node, cls):
        if isinstance(node, ast.ClassDef):
            cls = node
        if isinstance(node, ast.Call):
            name = _name(node.func)
            if name == "cls" and cls:
                name = cls.name
            if name == "__init__" and cls:
                for base in filter(None, map(_name, cls.bases)):
                    record(base, node.args, node.keywords)
            target = node.args and _name(node.args[0])
            if name == "partial" and target:
                record(target, node.args[1:], node.keywords)
            for kw in node.keywords if target else []:
                v = kw.value
                if kw.arg in ("fn_args", "fn_constructor_args"):
                    # fn_args follow the batch, the first argument
                    batch = [v] if kw.arg == "fn_args" else []
                    record(target, batch + (
                        v.elts if isinstance(v, (ast.Tuple, ast.List))
                        else [ast.Starred(v)]), [])
                elif kw.arg in ("fn_kwargs", "fn_constructor_kwargs"):
                    keys = v.keys if isinstance(v, ast.Dict) else [None]
                    record(target, [], [ast.keyword(getattr(k, "value", None))
                                        for k in keys])
            if name:
                record(name, node.args, node.keywords)
        for child in ast.iter_child_nodes(node):
            visit(child, cls)

    for p in files:
        visit(ast.parse(open(p).read(), p), None)
    return seen


def _unset_params():
    calls = _calls()
    unset = set()
    for (mod, name, callee), params in _param_defs().items():
        if (mod, name.partition(".")[0]) in TEST_ONLY_KEEP:
            continue
        kws, n_pos, star, dstar = calls.get(callee, (set(), 0, False, False))
        for param, idx in params:
            by_pos = idx is not None and (idx < n_pos or star)
            if not (dstar or by_pos or param in kws):
                unset.add((mod, name, param))
    return unset


def test_every_core_parameter_has_a_caller():
    unset = _unset_params()
    assert unset <= set(PARAM_KEEP), (
        f"defaulted parameters no call outside tests sets: "
        f"{sorted(unset - set(PARAM_KEEP))}")
    assert set(PARAM_KEEP) <= unset, (
        f"on PARAM_KEEP but set by a call outside tests: "
        f"{sorted(set(PARAM_KEEP) - unset)}")
