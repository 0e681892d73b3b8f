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
