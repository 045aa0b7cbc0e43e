"""Guards on the shape of the package source."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "ksblow"


def unused_public_names(src_dir):
    """The module-level public functions and classes of the modules in
    ``src_dir`` (``__init__.py`` aside) whose name no module uses, as a
    ``Name`` or an ``Attribute``, outside the name's own definition.

    Methods are out of scope: an attribute use of a method name anywhere
    counts for every method of that name, so the scan cannot tell them apart.
    """
    trees = [ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in sorted(src_dir.glob("*.py")) if path.name != "__init__.py"]

    def uses(node):
        counts = {}
        for sub in ast.walk(node):
            name = sub.id if isinstance(sub, ast.Name) else \
                sub.attr if isinstance(sub, ast.Attribute) else None
            if name is not None:
                counts[name] = counts.get(name, 0) + 1
        return counts

    total = {}
    for tree in trees:
        for name, count in uses(tree).items():
            total[name] = total.get(name, 0) + count
    unused = []
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
                    and not node.name.startswith("_") \
                    and total.get(node.name, 0) == uses(node).get(node.name, 0):
                unused.append(node.name)
    return sorted(unused)


def test_every_public_name_has_a_caller_in_the_package():
    assert unused_public_names(SRC) == []


def test_solver_settings_are_declared_once():
    # the config's solver section is what the solver runs: no other class
    # declares a stepping setting that would have to be kept in step with it
    settings = {"t_end", "cfl_safety", "max_dt"}
    declaring = sorted(
        (path.name, node.name) for path in SRC.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ClassDef) and any(
            isinstance(item, ast.AnnAssign) and getattr(item.target, "id", None) in settings
            for item in node.body))
    assert declaring == [("config.py", "SolverSection")]


def test_manifest_is_written_by_main_alone():
    # one place turns an outcome into its manifest, so every failure record
    # and exit code is decided there
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    sites = [getattr(node, "name", None) for node in tree.body for sub in ast.walk(node)
             if isinstance(sub, ast.Call) and getattr(sub.func, "id", None) == "_manifest"]
    assert sites == ["main"]


def unread_parameters(src_dir):
    """(module, function, parameter) for each parameter of a function in
    ``src_dir`` that its body never reads; ``self`` and ``cls`` are exempt.
    A read in a nested function or lambda counts for the enclosing one."""
    unread = []
    for path in sorted(src_dir.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            a = node.args
            params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs,
                                      *filter(None, (a.vararg, a.kwarg)))]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {sub.id for stmt in body for sub in ast.walk(stmt)
                    if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
            unread += [(path.name, getattr(node, "name", "<lambda>"), p) for p in params
                       if p not in read and p not in ("self", "cls")]
    return unread


def test_every_parameter_is_read():
    # a parameter no body reads is an argument every caller passes for nothing
    assert unread_parameters(SRC) == []
