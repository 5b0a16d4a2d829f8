"""Source-level rules for the package."""

import ast
from pathlib import Path

import pytest

SRC = sorted((Path(__file__).parent.parent / "src" / "schurstream").glob("*.py"))


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_no_assert_statements(path):
    # `python -O` strips assert statements, so a run-time check must raise
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert statements on lines {lines}"


def test_sampler_does_not_read_the_transform_formats():
    """cg owns the two transform formats, and each type applies itself:
    the sampler reads none of their storage, tests no transform's type and
    imports from cg only the lookup and the annotation alias.  Nor does cg
    test a type; cg_transform picks the format by d."""
    def tree(name):
        path = SRC[0].parent / name
        return ast.parse(path.read_text(), filename=str(path))

    sampler, cg = tree("sampler.py"), tree("cg.py")
    storage = {"coef", "rotations", "cols", "vals"}
    reads = [(node.lineno, node.attr) for node in ast.walk(sampler)
             if isinstance(node, ast.Attribute) and node.attr in storage]
    assert reads == [], f"sampler.py reads transform storage: {reads}"
    imported = {alias.name for node in ast.walk(sampler)
                if isinstance(node, ast.ImportFrom) and node.module == "cg"
                for alias in node.names}
    assert imported <= {"cg_transform", "Transform"}, imported
    for name, module in (("sampler.py", sampler), ("cg.py", cg)):
        checks = [node.lineno for node in ast.walk(module)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id in ("isinstance", "type")]
        assert checks == [], f"{name}: type tests on lines {checks}"


def test_register_mode_stays_in_the_tests():
    """Register mode (Algorithm 2 on an explicit qubit register) is a test
    harness, tests/register_mode.py: the sampler imports nothing from
    resources, and no name in the package starts with register_."""
    sampler = ast.parse((SRC[0].parent / "sampler.py").read_text())
    edges = [node.lineno for node in ast.walk(sampler)
             if isinstance(node, ast.ImportFrom)
             and (node.module or "").split(".")[-1] == "resources"
             or isinstance(node, ast.alias) and node.name.split(".")[-1] == "resources"]
    assert edges == [], f"sampler.py imports from resources on lines {edges}"
    for path in SRC:
        names = []
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.append((node.lineno, node.name))
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                names.append((node.lineno, node.id))
            elif isinstance(node, ast.alias):
                names.append((node.lineno, node.asname or node.name))
        found = [(line, name) for line, name in names if name.startswith("register_")]
        assert found == [], f"{path.name}: register-mode names {found}"


def test_the_oracle_stays_off_the_cg_layer():
    """The oracle, the sampler's ground truth, imports nothing from cg or
    gt_basis; the Schur transform and its two routes are the tests'
    cross-check (tests/cg_reference.py), defined nowhere in the package."""
    oracle = ast.parse((SRC[0].parent / "oracle.py").read_text())
    imported = [(node.lineno, node.module) for node in ast.walk(oracle)
                if isinstance(node, ast.ImportFrom)
                and (node.module or "").split(".")[-1] in ("cg", "gt_basis")]
    assert imported == [], f"oracle.py imports from the CG layer: {imported}"
    moved = {"schur_transform", "SchurUnitary", "Sector", "weight_blocks",
             "_pattern_weights", "_schur_diagonal"}
    for path in SRC:
        found = [(node.lineno, node.name)
                 for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
                 if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in moved]
        assert found == [], f"{path.name}: Schur-transform names {found}"


def test_one_density_matrix_kernel_in_the_sampler():
    """The level walk's `_expand` is the sampler's one density-matrix
    kernel, and `step` runs it on one column: in sampler.py only `_expand`
    couples a density matrix (`_couple`) or rotates a second axis
    (`_apply` given an axis), so a second density-matrix kernel cannot
    come back beside it."""
    sampler = ast.parse((SRC[0].parent / "sampler.py").read_text())

    def kernel_calls(tree):
        return [node for node in ast.walk(tree) if isinstance(node, ast.Call) and (
            isinstance(node.func, ast.Name) and node.func.id == "_couple"
            or isinstance(node.func, ast.Attribute) and node.func.attr == "_apply"
            and (len(node.args) > 1 or any(k.arg == "axis" for k in node.keywords)))]

    expand, = [node for node in ast.walk(sampler)
               if isinstance(node, ast.FunctionDef) and node.name == "_expand"]
    inside = kernel_calls(expand)
    kinds = {getattr(node.func, "id", None) or node.func.attr for node in inside}
    assert kinds == {"_couple", "_apply"}, kinds
    outside = [node.lineno for node in kernel_calls(sampler) if node not in inside]
    assert outside == [], f"sampler.py: density-matrix kernel calls on lines {outside}"
