"""Every module-level function and method of the package is used by the
package itself: its name is referenced somewhere in src/axia outside its
own body.  Names are read off the syntax tree (Name and Attribute nodes),
so docstrings and comments do not count.  Special methods (__init__,
__add__, ...) are called by the language, not by name, and are left out.
"""

import ast
from importlib import import_module
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "axia"

# the definitions kept although nothing in the package names them, each
# with its reason (ROADMAP items 1, 2 and 7 say where each is headed)
ALLOWED = {
    "algebra.miyamoto": "tests/test_acceptance.py imports it",
    "linalg.reconstruct_ldlt": "tests/test_acceptance.py imports it",
    "m4.specialize_m4a": "tests/test_acceptance.py imports it",
    "certify.verify_eigenspace_orthogonality":
        "tests/test_acceptance.py calls it",
    "serialize.algebra_from_json": "kept for ROADMAP item 1's checker",
    "serialize.load_json": "kept for ROADMAP item 1's checker",
    "cli.main": "the entry point, the axia script of pyproject.toml",
}


def unreferenced(sources):
    """The "module.qualname" of each module-level function and method,
    special methods aside, of the sources ({module: source text}) whose
    name no Name or Attribute node references outside its own body."""
    defs, refs = [], {}

    def walk(node, module, stack, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                if (isinstance(child, ast.FunctionDef)
                        and all(isinstance(s, ast.ClassDef) for s in stack)):
                    defs.append((f"{module}.{prefix}{child.name}", child))
                walk(child, module, stack + [child],
                     f"{prefix}{child.name}.")
                continue
            name = (child.id if isinstance(child, ast.Name) else
                    child.attr if isinstance(child, ast.Attribute) else None)
            if name is not None:
                # the defs around this reference
                refs.setdefault(name, []).append(set(stack))
            walk(child, module, stack, prefix)

    for module, source in sources.items():
        walk(ast.parse(source), module, [], "")
    return [qualname for qualname, node in defs
            if not (node.name.startswith("__") and node.name.endswith("__"))
            and all(node in enclosing
                    for enclosing in refs.get(node.name, ()))]


def test_every_definition_is_referenced_in_the_package():
    sources = {path.stem: path.read_text() for path in SRC.glob("*.py")}
    assert sorted(set(unreferenced(sources)) - set(ALLOWED)) == []
    # each allowed entry still names a definition
    for qualname in ALLOWED:
        module, name = qualname.split(".")
        assert callable(getattr(import_module(f"axia.{module}"), name))


def test_the_scan_reads_references_not_docstrings_or_self_calls():
    source = ('''"""used, loop and method are only named here."""\n'''
              "def used():\n    pass\n\n"
              "def loop(n):\n    return loop(n - 1)\n\n"
              "class C:\n"
              "    def __init__(self):\n        pass\n\n"
              "    def method(self):\n        used()\n")
    assert unreferenced({"m": source}) == ["m.loop", "m.C.method"]
