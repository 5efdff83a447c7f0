"""Every module-level function and class of `mexp` is reached from the
library itself or from the scripts, somewhere other than its own
definition. Code that only tests call is dead weight; the few exceptions
are public reference implementations that the tests use as oracles for the
fast paths. A private helper that a refactor leaves orphaned fails too."""

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mexp"

# straightforward definitions kept to check the optimized code against;
# PairFeature and laplacian_scores are the sample-list interface of the
# Laplacian score that acceptance criterion 04 checks
TEST_ORACLES = {
    "onedlbp_code", "lbp2d_code", "parse_confusion_csv", "weight_matrix",
    "PairFeature", "laplacian_scores",
}


def _trees(*dirs):
    return {
        path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for d in dirs
        for path in sorted(d.rglob("*.py"))
    }


def _references(trees) -> dict:
    """Name -> the (file, top-level statement number) places that use it as
    a variable, an attribute or an imported name."""
    places = defaultdict(set)
    for path, tree in trees.items():
        for k, statement in enumerate(tree.body):
            for node in ast.walk(statement):
                if isinstance(node, ast.Name):
                    places[node.id].add((path, k))
                elif isinstance(node, ast.Attribute):
                    places[node.attr].add((path, k))
                elif isinstance(node, ast.alias):
                    places[node.name.rsplit(".", 1)[-1]].add((path, k))
    return places


def _definitions(private: bool) -> dict:
    """`module.name` -> (name, reached) of the private or the public
    module-level functions and classes; reached means used in `src/` or
    `scripts/` outside the definition itself."""
    package = _trees(PACKAGE)
    places = _references({**package, **_trees(ROOT / "scripts")})
    return {
        f"{path.stem}.{node.name}": (node.name, bool(places[node.name] - {(path, k)}))
        for path, tree in package.items()
        for k, node in enumerate(tree.body)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_") == private
    }


def test_every_public_definition_is_reached():
    defined = _definitions(private=False)
    unreached = sorted(
        k for k, (name, reached) in defined.items()
        if not reached and name not in TEST_ORACLES
    )
    assert not unreached, f"defined but not reached from src/ or scripts/: {unreached}"
    names = {name for name, _ in defined.values()}
    assert TEST_ORACLES <= names, "an allowlisted oracle is gone"


def test_every_private_definition_is_reached():
    defined = _definitions(private=True)
    unreached = sorted(k for k, (_, reached) in defined.items() if not reached)
    assert not unreached, f"private, and not reached from src/ or scripts/: {unreached}"
