"""Every public function, class, method and property of ppgsim has a use inside the package.

The engine runs each rule of a slot through one batched kernel. A scalar
function that restates a rule, reached only from tests, is a second
statement of it that can drift from the first. So each public module-level
``def`` or ``class`` in src/ppgsim must be referenced outside its own
definition somewhere in src/ppgsim (the package ``__init__`` does not
count), or be allowed below: a target the benchmark's tracer wraps, a name
tests/test_acceptance.py uses, or an entry of KEPT with its reason.

The same holds one level down. Each public method or property of a public
class must be read as an attribute of that name somewhere in src/ppgsim,
outside its own body, or be a tracer target, or carry a name that
tests/test_acceptance.py reads as an attribute. The acceptance allowance
counts only for a name one class alone defines: ``grid.hop_count`` there
could be any class's hop_count, so it allows none. Dunder methods are
called by the language, so they are not checked; dataclass fields are
data, not methods, and are not checked either.
"""

import ast
import collections
from pathlib import Path

from test_bench_contract import worker

REPO_ROOT = Path(__file__).resolve().parent.parent
PACKAGE = REPO_ROOT / "src" / "ppgsim"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
MODULE_NAMES = {p.stem for p in MODULES}

# (module, name) -> one line on why it stays without a use in the package
KEPT = {
    ("engine", "SlotSink"): "the Protocol every sink meets; a type, so it is named only in annotations",
}


def tracer_targets() -> list[tuple[str, str]]:
    """(module, qualname) of every target the benchmark's tracer wraps."""
    targets = [t for group in (worker.LAYERS, worker.COUNTERS) for ts in group.values() for t in ts]
    return [(module, qualname) for module, _, qualname in (t.partition(".") for t in targets)]


def tracer_allowed() -> set[tuple[str, str]]:
    """The module-level object behind every target the benchmark's tracer wraps."""
    return {(module, qualname.split(".")[0]) for module, qualname in tracer_targets()}


def acceptance_allowed() -> set[tuple[str, str]]:
    """(module, name) of every ppgsim symbol tests/test_acceptance.py imports or reads."""
    tree = ast.parse((REPO_ROOT / "tests" / "test_acceptance.py").read_text())
    modules: dict[str, str] = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "ppgsim":
            modules.update((alias.asname or alias.name, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("ppgsim."):
            used.update((node.module.split(".")[1], alias.name) for alias in node.names)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            used.add((modules[node.value.id], node.attr))
    return used


def annotation_nodes(tree: ast.AST) -> set[int]:
    """ids of the nodes inside the tree's annotations."""
    roots = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            roots.append(node.returns)
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            roots.append(node.annotation)
    return {id(sub) for root in roots if root is not None for sub in ast.walk(root)}


def references() -> dict[str, list[tuple[str, int]]]:
    """name -> (module, line) of each use in the package, as a bare name or as module.name.

    Annotations are never evaluated (every module has postponed
    annotations), so a name that appears only there, or only in an import,
    has no use.
    """
    found: dict[str, list[tuple[str, int]]] = {}
    for path in MODULES:
        tree = ast.parse(path.read_text())
        skip = annotation_nodes(tree)
        for node in ast.walk(tree):
            if id(node) in skip:
                continue
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in MODULE_NAMES:
                name = node.attr
            else:
                continue
            found.setdefault(name, []).append((path.stem, node.lineno))
    return found


def unreferenced() -> list[str]:
    """module.name of each public module-level def or class with no use outside its own body."""
    uses = references()
    allowed = tracer_allowed() | acceptance_allowed() | set(KEPT)
    orphans = []
    for path in MODULES:
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            if (path.stem, node.name) in allowed:
                continue
            outside = [
                (module, line) for module, line in uses.get(node.name, [])
                if module != path.stem or not node.lineno <= line <= node.end_lineno
            ]
            if not outside:
                orphans.append(f"{path.stem}.{node.name}")
    return orphans


def test_every_public_definition_has_a_use_in_the_package():
    assert unreferenced() == []


def tracer_members() -> set[tuple[str, str, str]]:
    """(module, class, member) of every method target the benchmark's tracer wraps."""
    return {(module, *qualname.split(".")) for module, qualname in tracer_targets() if "." in qualname}


def acceptance_attributes() -> set[str]:
    """Every attribute name tests/test_acceptance.py reads, on any object."""
    tree = ast.parse((REPO_ROOT / "tests" / "test_acceptance.py").read_text())
    return {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def attribute_reads(sources: dict[str, str]) -> dict[str, list[tuple[str, int]]]:
    """attribute name -> (module, line) of each read of it as obj.name in the given sources."""
    found: dict[str, list[tuple[str, int]]] = {}
    for stem, text in sources.items():
        tree = ast.parse(text)
        skip = annotation_nodes(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and id(node) not in skip:
                found.setdefault(node.attr, []).append((stem, node.lineno))
    return found


def public_members(sources: dict[str, str]):
    """(module, class, def node) of each public method or property of a public class."""
    for stem, text in sources.items():
        for cls in ast.parse(text).body:
            if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
                continue
            for node in cls.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("_"):
                    yield stem, cls.name, node


def unused_members(sources: dict[str, str]) -> list[str]:
    """module.Class.member of each public method or property of a public class with no use."""
    reads = attribute_reads(sources)
    traced = tracer_members()
    members = list(public_members(sources))
    defined = collections.Counter(node.name for _, _, node in members)
    accepted = {name for name in acceptance_attributes() if defined[name] == 1}
    orphans = []
    for stem, cls_name, node in members:
        if (stem, cls_name, node.name) in traced or node.name in accepted:
            continue
        outside = [
            (module, line) for module, line in reads.get(node.name, [])
            if module != stem or not node.lineno <= line <= node.end_lineno
        ]
        if not outside:
            orphans.append(f"{stem}.{cls_name}.{node.name}")
    return orphans


def package_sources() -> dict[str, str]:
    return {path.stem: path.read_text() for path in MODULES}


def test_every_public_method_has_a_use_in_the_package():
    assert unused_members(package_sources()) == []


def test_an_unused_method_is_flagged():
    sources = package_sources()
    planted = "\n\n\nclass Planted:\n    def unread_method_of_planted(self):\n        return 1\n"
    sources["engine"] += planted
    assert unused_members(sources) == ["engine.Planted.unread_method_of_planted"]
    # a property counts as a method, and a use inside its own body is no use
    sources["engine"] += (
        "\n    @property\n    def unread_property_of_planted(self):\n"
        "        return self.unread_property_of_planted\n"
    )
    assert unused_members(sources) == [
        "engine.Planted.unread_method_of_planted", "engine.Planted.unread_property_of_planted",
    ]

