"""Public-API hygiene: docstrings everywhere, exports consistent.

Production-quality guardrails: every public module, class and function in
``repro`` carries a docstring, every name each ``__all__`` promises
actually exists, worker processes have one owner, and nothing calls
into BLAS.
"""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import repro

MODULES = [
    name
    for _, name, __ in pkgutil.walk_packages(repro.__path__, prefix="repro.")
]


def _public_members(module):
    for name, member in vars(module).items():
        if name.startswith("_"):
            continue
        if inspect.getmodule(member) is not module:
            continue  # re-exports are documented at their definition site
        if inspect.isclass(member) or inspect.isfunction(member):
            yield name, member


@pytest.mark.parametrize("module_name", MODULES)
def test_module_has_docstring(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__, f"{module_name} lacks a module docstring"


def _class_member_undocumented(method):
    """True when a public class attribute needs but lacks a docstring.

    Covers plain and ``async`` methods, properties (their getter's
    docstring is the documented surface) and static/class methods —
    the full docstring-coverage check over every public symbol.
    """
    if inspect.isfunction(method):
        return not inspect.getdoc(method)
    if isinstance(method, property):
        return method.fget is not None and not inspect.getdoc(method.fget)
    if isinstance(method, (staticmethod, classmethod)):
        return not inspect.getdoc(method.__func__)
    return False


@pytest.mark.parametrize("module_name", MODULES)
def test_public_members_have_docstrings(module_name):
    module = importlib.import_module(module_name)
    undocumented = []
    for name, member in _public_members(module):
        if not inspect.getdoc(member):
            undocumented.append(name)
        if inspect.isclass(member):
            for method_name, method in vars(member).items():
                if method_name.startswith("_"):
                    continue
                if _class_member_undocumented(method):
                    undocumented.append(f"{name}.{method_name}")
    assert not undocumented, (
        f"{module_name}: missing docstrings on {undocumented}"
    )


@pytest.mark.parametrize(
    "module_name",
    [name for name in MODULES] + ["repro"],
)
def test_all_exports_exist(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", None)
    if exported is None:
        return
    missing = [name for name in exported if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ lists missing names {missing}"


def test_top_level_analyses_registered():
    """Every analysis class is exported top-level and CLI-selectable."""
    from repro.__main__ import _ANALYSES

    for cls_name in (
        "Kim98Analysis", "SBAnalysis", "XLW16Analysis",
        "XLWXAnalysis", "IBNAnalysis",
    ):
        assert hasattr(repro, cls_name)
    assert set(_ANALYSES) == {"kim98", "sb", "xlw16", "xlwx", "ibn"}


def test_process_pools_are_built_only_by_resilient_pool():
    """``ResilientPool`` is the one owner of worker processes: no other
    module under ``src/repro`` constructs a ``ProcessPoolExecutor``."""
    root = Path(repro.__file__).parent
    owner = root / "campaigns" / "pool.py"
    calls = []
    for path in sorted(root.rglob("*.py")):
        if path == owner:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func  # a bare name or a ``module.attr`` call
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            if name == "ProcessPoolExecutor":
                calls.append(f"{path.relative_to(root)}:{node.lineno}")
    assert not calls, f"ProcessPoolExecutor outside ResilientPool: {calls}"


_BLAS_CALLS = {"dot", "matmul", "einsum", "tensordot", "inner", "vdot"}


def test_no_blas_calls():
    """No module under ``src/repro`` calls into BLAS: no ``@`` operator,
    no ``dot``/``matmul``/``einsum``/``tensordot``/``inner``/``vdot`` and
    no ``linalg.*`` call.  A BLAS call wakes one OpenBLAS thread per core
    in its process, and the idle threads spin, which doubles the CPU of a
    worker pool that already fills the cores."""
    root = Path(repro.__file__).parent
    found = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.BinOp, ast.AugAssign)):
                blas = isinstance(node.op, ast.MatMult)
            elif isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                owner = getattr(func, "value", None)
                blas = name in _BLAS_CALLS or (
                    getattr(owner, "id", None) or getattr(owner, "attr", None)
                ) == "linalg"
            else:
                continue
            if blas:
                found.append(f"{path.relative_to(root)}:{node.lineno}")
    assert not found, f"BLAS calls under src/repro: {found}"
