"""Census guard: every module, class and function in ``src/repro`` has a
caller outside ``tests/``.

The walk parses each module of the package and collects its definitions:
the module itself, every top-level class and function, and every method.
A definition counts as used when its name appears as a whole word in the
code of some shipped file (``src/``, ``benchmarks/``, ``examples/``,
``perfbench/``, ``scripts/``) outside the definition's own body.  Only
code counts: identifiers, attribute names, import targets and the words of
non-docstring string literals (lazy ``importlib`` tables name modules by
string).  These do not count:

* comments and docstrings, so a name that only the docs mention is
  flagged;
* ``__all__`` lists and a package ``__init__``'s relative imports, which
  only re-export a name;
* attributes of a module from outside the package, so ``np.tanh`` is no
  use of ``ops.tanh``.

A module is used when its name is, or when one of its definitions is.

Code that only tests reach is code to delete.  The allowlist holds only
the names that a test keeps as its reference implementation, each with
the tests that compare against it, and the hooks the standard library
calls by name.

A second walk checks imports: a name that a module imports and no code in
that module reads is flagged too.

A third walk checks options, since a name-based definition census cannot
see a parameter or a config field that no shipped caller sets.  A field
with a default of a ``*Config`` dataclass, and a parameter with a default
of any function or method, is an option.  It is set when some shipped file
passes its name as a keyword (``f(seed=...)``, ``replace(cfg, seed=...)``)
or as a string key of a dict literal (``{"seed": ...}`` overrides); a
parameter is also set when a shipped call of a function of that name
passes it positionally, or passes ``*args``/``**kwargs``.  An option that
nothing shipped sets has one value in every shipped run: make it a
constant.  ``KEPT_OPTIONS`` holds the exceptions, each with its reason.
"""

from __future__ import annotations

import ast
import functools
import re
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parents[2]
PACKAGE = ROOT / "src" / "repro"
SHIPPED = ("src", "benchmarks", "examples", "perfbench", "scripts")

#: Kept although no shipped code calls them: ``name -> why``.
ALLOWED = {
    # Reference implementations the tests compare the shipped paths against.
    "SuperNet.forward_arch":
        "tests/proxy/test_supernet.py::test_matches_forward_arch, "
        "tests/nn/test_conv_fast_paths.py, "
        "tests/integration/test_equality_principle.py",
    "SuperNet.path_parameters":
        "tests/integration/test_equality_principle.py",
    "Module.num_parameters": "tests/hardware/test_flops.py",
    "Tensor.clone": "tests/nn/test_tensor.py",
    "dominates": "tests/eval/test_pareto.py (the definition pareto_front "
                 "is checked against)",
    # Hooks that the standard library calls by name.
    "_Handler.do_GET": "http.server dispatches on the request method",
    "_Handler.do_POST": "http.server dispatches on the request method",
    "_Handler.log_message": "http.server's logging hook",
    "_ReusePortHTTPServer.server_bind": "socketserver's bind hook",
}

#: Options that no shipped caller sets, kept on purpose: ``name -> why``.
KEPT_OPTIONS = {
    # nn numerics and layer structure
    "Adam.__init__(betas)": "nn numerics: Adam's moment decay rates",
    "Adam.__init__(eps)": "nn numerics: Adam's denominator guard",
    "BatchNorm2d.__init__(eps)": "nn numerics: the variance guard",
    "Linear.__init__(bias)": "nn layer structure (tests/nn/test_modules.py, "
                             "tests/nn/test_plan.py build bias-free layers)",
    "Conv2d.__init__(bias)": "nn layer structure",
    # inputs a test substitutes
    "Tensor.backward(grad)": "the seed gradient of a non-scalar output "
                             "(tests/nn gradient checks)",
    "gumbel_softmax(rng)": "the noise source, when no noise tensor is given "
                           "(tests/nn/test_functional.py)",
    # test reference paths
    "SuperNet.forward_weighted(threshold)":
        "the multi-path reference regime's pruning "
        "(tests/proxy/test_supernet.py)",
}

_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _module_name(path: Path) -> str:
    parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
    return ".".join(parts)


def _docstring_ids(tree: ast.AST) -> Set[int]:
    """ids of the string constants that are docstrings."""
    ids = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                ids.add(id(body[0].value))
    return ids


def _external_aliases(tree: ast.Module) -> Set[str]:
    """Names a file binds to modules outside the package (``np``, ``os``):
    ``np.tanh`` is no use of ``ops.tanh``."""
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if not alias.name.startswith("repro"):
                    aliases.add(alias.asname or alias.name.partition(".")[0])
        elif (isinstance(node, ast.ImportFrom) and not node.level
              and not (node.module or "").startswith("repro")):
            aliases.update(alias.asname or alias.name for alias in node.names)
    return aliases


def _is_reexport(node: ast.AST, package_init: bool) -> bool:
    """``__all__`` lists, and an ``__init__``'s relative imports, only
    re-export names: they are no use."""
    if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target])
        return any(isinstance(t, ast.Name) and t.id == "__all__"
                   for t in targets)
    return package_init and isinstance(node, ast.ImportFrom) and node.level > 0


def _words(node: ast.AST, docstrings: Set[int], external: Set[str],
           package_init: bool = False) -> Iterator[str]:
    """The words a piece of code uses (not the names it defines)."""
    stack = [node]
    while stack:
        sub = stack.pop()
        if _is_reexport(sub, package_init):
            continue
        stack.extend(ast.iter_child_nodes(sub))
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            if not (isinstance(sub.value, ast.Name)
                    and sub.value.id in external):
                yield sub.attr
        elif isinstance(sub, ast.alias):
            yield from _WORD.findall(sub.name)
            if sub.asname:
                yield sub.asname
        elif isinstance(sub, ast.ImportFrom) and sub.module:
            yield from _WORD.findall(sub.module)
        elif isinstance(sub, ast.keyword) and sub.arg:
            yield sub.arg
        elif (isinstance(sub, ast.Constant) and isinstance(sub.value, str)
              and id(sub) not in docstrings):
            yield from _WORD.findall(sub.value)


def _definitions(tree: ast.Module) -> Iterator[Tuple[str, str, ast.AST]]:
    """(qualified name, bare name, node) for each class, function, method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node.name, node
        elif isinstance(node, ast.ClassDef):
            yield node.name, node.name, node
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{item.name}", item.name, item


def _shipped_files() -> List[Path]:
    files = []
    for top in SHIPPED:
        files.extend(sorted((ROOT / top).rglob("*.py")))
    return files


@functools.lru_cache(maxsize=None)
def _census() -> Tuple[str, ...]:
    """Every definition in the package with no use outside its own body."""
    parsed = {}
    file_words: Dict[Path, Dict[str, int]] = {}
    for path in _shipped_files():
        tree = ast.parse(path.read_text(), filename=str(path))
        context = (_docstring_ids(tree), _external_aliases(tree))
        parsed[path] = (tree, context)
        counts: Dict[str, int] = {}
        for word in _words(tree, *context, path.name == "__init__.py"):
            counts[word] = counts.get(word, 0) + 1
        file_words[path] = counts

    def uses(word: str, skip: Path = None) -> int:
        return sum(counts.get(word, 0) for path, counts in file_words.items()
                   if path != skip)

    unused = []
    for path in sorted(PACKAGE.rglob("*.py")):
        module = _module_name(path)
        tree, context = parsed[path]
        unused_here = []
        definitions = [(qualname, name, node)
                       for qualname, name, node in _definitions(tree)
                       # dunders are called by the language
                       if not (name.startswith("__") and name.endswith("__"))]
        for qualname, name, node in definitions:
            inside = sum(word == name for word in _words(node, *context))
            if uses(name) - inside <= 0:
                unused_here.append(f"{module}:{qualname}")
        # a module reached only through its package's re-exports is used
        # when one of its definitions is
        if (path.stem not in ("__init__", "__main__")
                and not uses(path.stem, skip=path)
                and len(unused_here) == len(definitions)):
            unused.append(module)
        unused.extend(unused_here)
    return tuple(unused)


def _allowed(entry: str) -> bool:
    return entry.partition(":")[2] in ALLOWED


def test_no_definition_is_reached_only_by_tests():
    unreached = [entry for entry in _census() if not _allowed(entry)]
    assert not unreached, (
        "defined in src/repro but used by no shipped code (only tests reach "
        "them); delete them, or add the test that keeps one as a reference "
        "to ALLOWED:\n  " + "\n  ".join(unreached))


def test_allowlist_is_current():
    """An allowlisted name that gains a shipped caller, or is deleted,
    leaves the list."""
    flagged = {entry.partition(":")[2] for entry in _census()}
    stale = sorted(set(ALLOWED) - flagged)
    assert not stale, f"no longer need an allowlist entry: {stale}"


def _annotation_names(tree: ast.Module) -> Iterator[str]:
    """Names read inside string annotations (``-> "PredictorDataset"``)."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for annotation in filter(None, annotations):
        for sub in ast.walk(annotation):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                yield from _WORD.findall(sub.value)


def _unused_imports(path: Path) -> List[str]:
    """``line: name`` for each name the module imports and never reads.

    A read is a bare name anywhere in the module's code, a name in a
    string annotation, or an entry of ``__all__`` (a deliberate
    re-export).  An import line marked ``# noqa: F401`` is kept on
    purpose.
    """
    text = path.read_text()
    tree = ast.parse(text, filename=str(path))
    lines = text.splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    read.update(_annotation_names(tree))
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            read.update(elt.value for elt in ast.walk(node.value)
                        if isinstance(elt, ast.Constant))
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.partition(".")[0]
            marked = {node.lineno, getattr(alias, "lineno", node.lineno)}
            if bound in read or any("noqa: F401" in lines[line - 1]
                                    for line in marked):
                continue
            unused.append(f"{alias.lineno}: {bound}")
    return unused


def test_no_unused_imports():
    """Package ``__init__`` files only re-export, so they are skipped."""
    flagged = [f"{path.relative_to(ROOT)}:{entry}"
               for path in sorted(PACKAGE.rglob("*.py"))
               if path.name != "__init__.py"
               for entry in _unused_imports(path)]
    assert not flagged, ("imported but never read; delete the import, or "
                         "mark a deliberate one `# noqa: F401`:\n  "
                         + "\n  ".join(flagged))


# ----------------------------------------------------------------------
# Options: config fields and parameters that no shipped caller sets
# ----------------------------------------------------------------------

def _call_name(call: ast.Call) -> str:
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    return func.id if isinstance(func, ast.Name) else ""


@functools.lru_cache(maxsize=None)
def _shipped_settings() -> Tuple[frozenset, Dict[str, int], frozenset]:
    """What shipped code sets: keyword and dict-key names, the most
    positional arguments any call of each name passes, and the names of
    the functions some call passes ``*args``/``**kwargs`` to."""
    names: Set[str] = set()
    positional: Dict[str, int] = {}
    splatted: Set[str] = set()
    for path in _shipped_files():
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.keyword) and node.arg:
                names.add(node.arg)
            elif isinstance(node, ast.Dict):
                names.update(key.value for key in node.keys
                             if isinstance(key, ast.Constant)
                             and isinstance(key.value, str))
            elif isinstance(node, ast.Call):
                callee = _call_name(node)
                positional[callee] = max(positional.get(callee, 0),
                                         len(node.args))
                if (any(isinstance(a, ast.Starred) for a in node.args)
                        or any(k.arg is None for k in node.keywords)):
                    splatted.add(callee)
    return frozenset(names), positional, frozenset(splatted)


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) \
            else decorator
        name = target.attr if isinstance(target, ast.Attribute) \
            else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def _unset_config_fields() -> List[str]:
    """``module:Config.field`` for each defaulted field of a ``*Config``
    dataclass that no shipped file sets by keyword or dict key."""
    names = _shipped_settings()[0]
    unset = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if not (isinstance(node, ast.ClassDef)
                    and node.name.endswith("Config") and _is_dataclass(node)):
                continue
            for item in node.body:
                if (isinstance(item, ast.AnnAssign)
                        and isinstance(item.target, ast.Name)
                        and item.value is not None
                        and item.target.id not in names):
                    unset.append(f"{_module_name(path)}:{node.name}."
                                 f"{item.target.id}")
    return unset


def _functions(tree: ast.Module) -> Iterator[Tuple[str, str, ast.AST]]:
    """(qualified name, name its callers use, node) per function/method;
    a constructor is called by its class's name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    callee = node.name if item.name == "__init__" \
                        else item.name
                    yield f"{node.name}.{item.name}", callee, item


def _unset_parameters() -> List[str]:
    """``module:function(param)`` for each defaulted parameter that no
    shipped call sets."""
    names, positional, splatted = _shipped_settings()
    unset = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for qualname, callee, node in _functions(tree):
            if callee in splatted:
                continue
            args = node.args
            params = args.posonlyargs + args.args
            # a method's callers pass no ``self``/``cls``
            offset = int("." in qualname and bool(params)
                         and params[0].arg in ("self", "cls"))
            first_default = len(params) - len(args.defaults)
            options = [(arg.arg, i - offset)
                       for i, arg in enumerate(params) if i >= first_default]
            options += [(arg.arg, None) for arg, default
                        in zip(args.kwonlyargs, args.kw_defaults)
                        if default is not None]
            for param, position in options:
                if param in names:
                    continue
                if (position is not None
                        and positional.get(callee, 0) > position):
                    continue
                unset.append(f"{_module_name(path)}:{qualname}({param})")
    return unset


def test_every_config_field_is_set_by_shipped_code():
    unset = _unset_config_fields()
    assert not unset, (
        "config fields that no shipped file sets (by keyword or dict key) "
        "hold one value in every shipped run; make each a module constant:"
        "\n  " + "\n  ".join(unset))


def test_every_parameter_is_set_by_shipped_code():
    unset = [entry for entry in _unset_parameters()
             if entry.partition(":")[2] not in KEPT_OPTIONS]
    assert not unset, (
        "parameters that no shipped call sets hold one value in every "
        "shipped run; make each a constant, or add the reason to keep it "
        "to KEPT_OPTIONS:\n  " + "\n  ".join(unset))


def test_kept_options_are_current():
    """A kept option that gains a shipped caller, or is deleted, leaves
    the list."""
    flagged = {entry.partition(":")[2] for entry in _unset_parameters()}
    stale = sorted(set(KEPT_OPTIONS) - flagged)
    assert not stale, f"no longer need a KEPT_OPTIONS entry: {stale}"
