"""Every top-level function and class in ``crawler_ray/`` is reached by the
system: a definition that only tests call is code the engine carries for
nothing. Reference oracles and test helpers live in ``tests/_refs.py``."""

import ast
import collections
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent

# the code that runs the system: the package, the benchmark harness, the
# tools, the bench script and the query entry point
SCOPE = ("crawler_ray", "perfbench", "tools", "bench.py", "__ray_entry__.py")

# reached only by tests, kept on purpose
ALLOWED = {
    "crawler_ray/sources/io.py:read_local_images":
        "the reference's local-file image source; COVERAGE.md S5 cites it",
    "crawler_ray/pipelines/reports.py:recrawl_priority":
        "the recrawl-priority operator COVERAGE.md O1 cites",
    "crawler_ray/vendor/minilance.py:write_dataset":
        "part of the Lance API subset the vendored store keeps",
}


def _refs(node):
    """Names a node refers to: Name and Attribute uses and imported names.
    String mentions do not count."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.alias):
            yield n.name.rpartition(".")[2]


def test_every_definition_is_reached():
    files = []
    for entry in SCOPE:
        path = ROOT / entry
        files += sorted(path.rglob("*.py")) if path.is_dir() else [path]
    total = collections.Counter()
    defs = []  # ("<file>:<name>", name, references made inside the body)
    for path in files:
        tree = ast.parse(path.read_text())
        total.update(_refs(tree))
        rel = path.relative_to(ROOT).as_posix()
        if rel.startswith("crawler_ray/"):
            defs += [
                (f"{rel}:{node.name}", node.name, collections.Counter(_refs(node)))
                for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef))
            ]
    # a definition is unreached when no reference outside its own body
    # names it; its own references then stop counting, so a helper that
    # only unreached code calls is unreached too
    unreached = set()
    changed = True
    while changed:
        changed = False
        for key, name, own in defs:
            if key in unreached or key in ALLOWED:
                continue
            if total[name] <= own[name]:
                unreached.add(key)
                total.subtract(own)
                changed = True
    assert not unreached, "unreached: " + ", ".join(sorted(unreached))
    # a listed definition that the system reaches must leave the list
    reached = [key for key, name, own in defs
               if key in ALLOWED and total[name] > own[name]]
    assert reached == []
    assert set(ALLOWED) <= {key for key, _, _ in defs}
