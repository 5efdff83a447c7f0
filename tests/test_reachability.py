"""Every public module-level function and class of `mexp` is reached from
the library itself or from the scripts. Code that only tests call is dead
weight; the few exceptions are reference implementations that the tests
use as oracles for the fast paths."""

import ast
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


def _referenced(trees) -> set:
    """Names used as a variable, an attribute or an imported name anywhere."""
    names = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rsplit(".", 1)[-1])
    return names


def test_every_public_definition_is_reached():
    package = _trees(PACKAGE)
    used = _referenced({**package, **_trees(ROOT / "scripts")})
    defined = {
        f"{path.stem}.{node.name}": node.name
        for path, tree in package.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    }
    allowed = used | TEST_ORACLES
    unreached = sorted(k for k, name in defined.items() if name not in allowed)
    assert not unreached, f"defined but not reached from src/ or scripts/: {unreached}"
    assert TEST_ORACLES <= set(defined.values()), "an allowlisted oracle is gone"
