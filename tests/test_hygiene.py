"""Source hygiene of src/nichewave, checked on the syntax tree.

- Every name a module imports is used in that module. ``__init__`` is
  skipped (it only re-exports), and so is ``from __future__``. A dotted
  ``import a.b`` counts as used only where ``a.b`` itself is used.
- No handler catches ``Exception``/``BaseException`` or everything (bare
  ``except:``); each one names the errors it expects.
- Every config key in ``config.DEFAULTS`` is read: its name appears as a
  string subscript (``section["key"]``) somewhere in the package.
- No ``.matrix(...)`` or ``.conv_matrix(...)`` call appears outside
  ``operators`` and ``spectral.dense_lambda_p_oracle``: the assembled CSR
  forms are oracles, and no solve path builds one.
- ``SpectralEstimate(...)`` is built only in ``spectral._certified_iteration``:
  every eigenvalue estimate carries a bracket that routine certified.
- ``dimension`` is a parameter or a dataclass field only of
  ``grids.build_grid``, ``kernels.Kernel`` and ``kernels._sphere_measure``:
  the space dimension N is set on the kernel, and every grid built for a
  kernel reads ``kernel.dimension``.
- ``kernels.Kernel`` is the one kernel dataclass (no other dataclass in the
  package has a name ending in ``Kernel``), no ``isinstance`` names a kernel
  type and no ``.base`` attribute is read: a kernel carries its own scale
  (epsilon, m, alpha0), so no code branches on, or reaches through, a
  wrapper of it.
- ``a_values`` is compared with ``None`` only in ``operators.build_operator``:
  every operator carries a(x) as an array (zeros for pure dispersal), so no
  solve path branches on a missing growth linearization.
- No module imports ``concurrent.futures``, ``threading`` or
  ``multiprocessing``: every schedule runs in order in one thread.
- ``scipy.integrate`` is imported only inside functions of ``kernels``,
  never at module level: quadrature lives in one module, and only the
  families that need it load it.
- No module imports ``scipy.fft``: the convolution uses numpy's FFT, so the
  import does not pull in ``scipy.special``.
- ``scipy.sparse`` is imported only inside functions of ``operators`` (the
  CSR test oracles), ``spectral`` (ARPACK) and ``stationary`` (CG), never at
  module level: only off-band solves and the oracles load it.
- Every field and property of a dataclass in the package is read
  somewhere in ``src/``, ``tests/`` or ``perfbench/``: as an attribute
  (``x.name`` in a load) or through ``getattr`` with a constant name. A
  result field that nothing reads is work and memory for nothing.
- A fresh ``import nichewave.cli`` loads none of ``scipy.integrate``,
  ``scipy.optimize``, ``scipy.fft``, ``scipy.special`` and ``scipy.sparse``,
  and a banded 1-D eigenvalue and ball solve leave ``scipy.sparse`` unloaded
  where a 2-D ball solve loads it (both checked in a subprocess).
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from nichewave.config import DEFAULTS

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "nichewave"
MODULES = sorted(SRC.glob("*.py"))
# every file whose code may read a result of the package
READERS = sorted(p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py"))


def _dotted(node):
    """'a.b.c' for a Name/Attribute chain, None for anything else."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def unused_imports(tree: ast.Module) -> list[str]:
    imported = {}  # what the code must reference -> how it was imported
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name] = f"import {alias.name}"
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            source = "." * node.level + (node.module or "")
            for alias in node.names:
                imported[alias.asname or alias.name] = f"from {source} import {alias.name}"
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Name, ast.Attribute)):
            chain = _dotted(node)
            if chain is not None:
                parts = chain.split(".")
                used.update(".".join(parts[:k]) for k in range(1, len(parts) + 1))
    return sorted(how for name, how in imported.items() if name not in used)


def blanket_handlers(tree: ast.Module) -> list[int]:
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
        if any(c is None or _dotted(c) in ("Exception", "BaseException") for c in caught):
            lines.append(node.lineno)
    return lines


def string_subscripts(tree: ast.Module) -> set[str]:
    return {node.slice.value for node in ast.walk(tree)
            if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant)
            and isinstance(node.slice.value, str)}


def assembly_calls(tree: ast.Module) -> list[int]:
    """Lines of every ``<expr>.matrix(...)`` or ``<expr>.conv_matrix(...)`` call."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr in ("matrix", "conv_matrix"))


def estimate_constructions(tree: ast.Module) -> list[int]:
    """Lines of every ``SpectralEstimate(...)`` or ``<expr>.SpectralEstimate(...)`` call."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and (_dotted(node.func) or "").split(".")[-1] == "SpectralEstimate")


def lines_outside(filename: str, tree: ast.Module, lines, allowed) -> list[str]:
    """'file:line' for each of ``lines`` outside the functions (file, name) in ``allowed``."""
    inside = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and (filename, node.name) in allowed:
            inside.update(range(node.lineno, node.end_lineno + 1))
    return [f"{filename}:{line}" for line in lines if line not in inside]


def dimension_knobs(tree: ast.Module) -> list[str]:
    """Names of the functions (``<lambda>`` for a lambda) that take a
    ``dimension`` parameter and of the classes with a ``dimension`` field,
    a class-level annotated name."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs + [
                p for p in (args.vararg, args.kwarg) if p is not None]
            if any(p.arg == "dimension" for p in params):
                found.append(getattr(node, "name", "<lambda>"))
        elif isinstance(node, ast.ClassDef):
            if any(isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                   and stmt.target.id == "dimension" for stmt in node.body):
                found.append(node.name)
    return sorted(found)


def a_values_none_tests(tree: ast.Module) -> list[int]:
    """Lines of every comparison of ``a_values`` (a name or an attribute)
    with ``None``, by ``is``, ``is not``, ``==`` or ``!=``."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare) or not all(
                isinstance(op, (ast.Is, ast.IsNot, ast.Eq, ast.NotEq)) for op in node.ops):
            continue
        operands = [node.left, *node.comparators]
        if any((_dotted(o) or "").split(".")[-1] == "a_values" for o in operands) and any(
                isinstance(o, ast.Constant) and o.value is None for o in operands):
            found.append(node.lineno)
    return sorted(found)


def kernel_type_branches(tree: ast.Module) -> list[int]:
    """Lines of every ``isinstance(x, T)`` whose T, or a member of a tuple T,
    names a kernel type (a name ending in ``Kernel``), and of every read of a
    ``.base`` attribute."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _dotted(node.func) == "isinstance" and len(node.args) == 2:
            kinds = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
            if any((_dotted(k) or "").endswith("Kernel") for k in kinds):
                found.append(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr == "base" and isinstance(node.ctx, ast.Load):
            found.append(node.lineno)
    return sorted(found)


def _is_dataclass(node) -> bool:
    """A class decorated ``@dataclass``, called or not."""
    return isinstance(node, ast.ClassDef) and any(
        (_dotted(d.func if isinstance(d, ast.Call) else d) or "").split(".")[-1] == "dataclass"
        for d in node.decorator_list)


def kernel_dataclasses(tree: ast.Module) -> list[str]:
    """Names of the dataclasses whose name ends in ``Kernel``."""
    return sorted(node.name for node in ast.walk(tree)
                  if _is_dataclass(node) and node.name.endswith("Kernel"))


def dataclass_members(tree: ast.Module) -> list[str]:
    """'Class.name' for each field (a class-level annotated name) and each
    ``@property`` of every dataclass."""
    found = []
    for node in ast.walk(tree):
        if not _is_dataclass(node):
            continue
        for stmt in node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                found.append(f"{node.name}.{stmt.target.id}")
            elif isinstance(stmt, ast.FunctionDef) and any(
                    _dotted(d) == "property" for d in stmt.decorator_list):
                found.append(f"{node.name}.{stmt.name}")
    return found


def attribute_reads(tree: ast.Module) -> set[str]:
    """Names read as an attribute, ``x.name`` in a load, or by ``getattr(x, "name"[, default])``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.add(node.attr)
        elif (isinstance(node, ast.Call) and _dotted(node.func) == "getattr"
              and len(node.args) >= 2 and isinstance(node.args[1], ast.Constant)):
            found.add(node.args[1].value)
    return found


def unread_members(modules: dict[str, ast.Module], readers) -> list[str]:
    """'file:Class.name' for each dataclass member of ``modules`` (file name ->
    tree) whose name no tree of ``readers`` reads as an attribute."""
    read = set().union(*(attribute_reads(tree) for tree in readers))
    return [f"{name}:{member}" for name, tree in modules.items()
            for member in dataclass_members(tree) if member.split(".")[1] not in read]


# imported module -> the files of src/nichewave whose functions may import it;
# no file may import one of these at module level
RESTRICTED_IMPORTS = {
    "concurrent.futures": set(),
    "threading": set(),
    "multiprocessing": set(),
    "scipy.integrate": {"kernels.py"},
    "scipy.fft": set(),
    "scipy.sparse": {"operators.py", "spectral.py", "stationary.py"},
}


def restricted_imports(tree: ast.Module, filename: str) -> list[str]:
    """The modules of RESTRICTED_IMPORTS that ``filename`` imports but may not,
    also through a submodule (``import multiprocessing.pool``) or a
    from-import (``from scipy import integrate``). An import inside a
    function (or method) is allowed in the files RESTRICTED_IMPORTS names
    for that module; a module-level import never is."""
    local = {id(inner) for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
             for inner in ast.walk(node)}
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        prefixes = {".".join(name.split(".")[:k]) for name in names
                    for k in range(1, name.count(".") + 2)}
        found.update(m for m in prefixes & RESTRICTED_IMPORTS.keys()
                     if not (id(node) in local and filename in RESTRICTED_IMPORTS[m]))
    return sorted(found)


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"], ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(_tree(path)) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_blanket_except(path):
    assert blanket_handlers(_tree(path)) == []


def test_checks_catch_what_they_name():
    tree = ast.parse(
        "import os\nimport scipy.linalg\nimport scipy.sparse\nfrom x import y as z\n"
        "scipy.sparse.eye(2)\n"
        "try:\n    pass\nexcept:\n    pass\n"
        "try:\n    pass\nexcept (ValueError, Exception):\n    pass\n"
        "try:\n    pass\nexcept KeyError:\n    pass\n"
        'cfg["grid"]["r"]\nrows[0]\nd[key]\n'
    )
    assert unused_imports(tree) == ["from x import y", "import os", "import scipy.linalg"]
    assert blanket_handlers(tree) == [8, 12]
    assert string_subscripts(tree) == {"grid", "r"}


# [run] seed is accepted and read by no code: no computation draws random
# numbers, but perfbench writes it into every config it runs so that a run
# records its seed.
UNREAD_BY_DESIGN = {("run", "seed")}


def test_every_config_key_is_read():
    read = set().union(*(string_subscripts(_tree(p)) for p in MODULES))
    unread = [(section, key) for section, keys in DEFAULTS.items() for key in keys
              if key not in read and (section, key) not in UNREAD_BY_DESIGN]
    assert unread == []



# (module, function) that may assemble: the dense eigenvalue oracle
ASSEMBLY_ALLOWED = {("spectral.py", "dense_lambda_p_oracle")}


def test_no_assembly_outside_operators():
    found = []
    for path in MODULES:
        if path.name == "operators.py":
            continue
        tree = _tree(path)
        found += lines_outside(path.name, tree, assembly_calls(tree), ASSEMBLY_ALLOWED)
    assert found == []


def test_assembly_check_catches_what_it_names():
    tree = ast.parse("op.matrix(shift=1.0)\nop.conv_matrix()\nbuild_invasion_matrix(k)\n"
                     "matrix.entries\nf = op.matrix\n")
    assert assembly_calls(tree) == [1, 2]


# (module, function) that may build a SpectralEstimate: the certification engine
ESTIMATE_ALLOWED = {("spectral.py", "_certified_iteration")}


def test_estimates_come_only_from_the_certified_iteration():
    found = []
    for path in MODULES:
        tree = _tree(path)
        found += lines_outside(path.name, tree, estimate_constructions(tree), ESTIMATE_ALLOWED)
    assert found == []


def test_estimate_check_catches_what_it_names():
    source = ("def _certified_iteration():\n    return SpectralEstimate(1.0)\n"
              "def local():\n    return spectral.SpectralEstimate(2.0)\n"
              "est: SpectralEstimate = f()\nMySpectralEstimate(3.0)\nSpectralEstimate\n")
    tree = ast.parse(source)
    assert estimate_constructions(tree) == [2, 4]
    assert lines_outside("spectral.py", tree, [2, 4], ESTIMATE_ALLOWED) == ["spectral.py:4"]
    assert lines_outside("experiments.py", tree, [2, 4], ESTIMATE_ALLOWED) == [
        "experiments.py:2", "experiments.py:4"]


# (module, function or class) that may take N as a parameter or field: the
# kernel carries N, and build_grid is told it by the caller that holds the kernel
DIMENSION_ALLOWED = {("grids.py", "build_grid"), ("kernels.py", "Kernel"),
                     ("kernels.py", "_sphere_measure")}


def test_only_the_kernel_and_build_grid_take_a_dimension():
    found = {(path.name, name) for path in MODULES for name in dimension_knobs(_tree(path))}
    assert found == DIMENSION_ALLOWED


def test_dimension_check_catches_what_it_names():
    tree = ast.parse(
        "@dataclass\nclass Policy:\n    dimension: int = 1\n"
        "class Plain:\n    dimension = 1\n    other: int = 2\n"
        "def walk(kernel, dimension=1):\n    pass\n"
        "def solve(kernel, *, dimension):\n    pass\n"
        "class Grid:\n    @property\n    def dimension(self):\n        return 2\n"
        "f = lambda dimension: dimension\n"
        "n = grid.dimension\nbuild_grid(dimension=2)\n"
    )
    assert dimension_knobs(tree) == ["<lambda>", "Policy", "solve", "walk"]


# (module, function) that may meet a missing a(x): the one place that fills it in
A_VALUES_NONE_ALLOWED = {("operators.py", "build_operator")}


def test_a_values_is_never_none_past_build_operator():
    found = []
    for path in MODULES:
        tree = _tree(path)
        found += lines_outside(path.name, tree, a_values_none_tests(tree), A_VALUES_NONE_ALLOWED)
    assert found == []


def test_a_values_check_catches_what_it_names():
    source = ("def build_operator(a_values=None):\n    if a_values is None:\n        pass\n"
              "def _shift_constant(op):\n    return 0.0 if op.a_values is None else 1.0\n"
              "ok = self.a_values is not None\nok = None == growth.a_values\n"
              "ok = a_values == 0.0\nok = a is None\nok = op.a_values < None\n")
    tree = ast.parse(source)
    assert a_values_none_tests(tree) == [2, 5, 6, 7]
    assert lines_outside("operators.py", tree, [2, 5, 6, 7], A_VALUES_NONE_ALLOWED) == [
        "operators.py:5", "operators.py:6", "operators.py:7"]
    assert lines_outside("spectral.py", tree, [2], A_VALUES_NONE_ALLOWED) == ["spectral.py:2"]


def test_one_kernel_type():
    assert [f"{p.name}:{line}" for p in MODULES for line in kernel_type_branches(_tree(p))] == []
    assert [(p.name, name) for p in MODULES for name in kernel_dataclasses(_tree(p))] == [
        ("kernels.py", "Kernel")]


def test_kernel_type_check_catches_what_it_names():
    tree = ast.parse(
        "@dataclass(frozen=True)\nclass Kernel:\n    family: str\n"
        "@dataclasses.dataclass\nclass ScaledKernel:\n    base: Kernel\n"
        "class PlainKernel:\n    pass\n"
        "def build_operator(kernel):\n"
        "    if isinstance(kernel, Kernel):\n        pass\n"
        "    if isinstance(kernel, (kernels.ScaledKernel, float)):\n        pass\n"
        "    r = kernel.base.support_radius\n"
        "    isinstance(x, dict)\n    policy.base_radius\n    obj.base = 1\n"
    )
    assert kernel_type_branches(tree) == [10, 12, 14]
    assert kernel_dataclasses(tree) == ["Kernel", "ScaledKernel"]
    # the two-type design planted back into the real modules fails the check
    ops = (SRC / "operators.py").read_text()
    anchor = "    taps, tail_mass, reach = sample_taps("
    branched = ops.replace(anchor, "    if isinstance(kernel, Kernel):\n"
                           "        kernel = rescale_kernel(kernel, 1.0, 0.0, 1.0)\n" + anchor)
    assert branched != ops and len(kernel_type_branches(ast.parse(branched))) == 1
    wrapped = (SRC / "kernels.py").read_text() + (
        "\n\n@dataclass(frozen=True)\nclass ScaledKernel:\n    base: Kernel\n    epsilon: float\n\n"
        "    @property\n    def dimension(self) -> int:\n        return self.base.dimension\n")
    assert kernel_dataclasses(ast.parse(wrapped)) == ["Kernel", "ScaledKernel"]
    assert len(kernel_type_branches(ast.parse(wrapped))) == 1


def test_every_dataclass_member_is_read():
    modules = {p.name: _tree(p) for p in MODULES}
    assert unread_members(modules, [_tree(p) for p in READERS]) == []


def test_member_check_catches_what_it_names():
    tree = ast.parse(
        "@dataclass\nclass Result:\n    value: float\n    unread: float\n    stored: int = 0\n"
        "    built: int = 0\n    by_name: int = 0\n    NOTE = 'plain'\n\n"
        "    @property\n    def width(self):\n        return 1.0\n\n"
        "    @property\n    def hidden(self):\n        return self.value\n\n"
        "    def method(self):\n        return 2.0\n"
        "class Plain:\n    other: int = 1\n"
        "r = Result(value=1.0, unread=2.0, built=3)\nr.stored = 4\nr.width\n"
        "getattr(r, 'by_name')\ngetattr(r, name)\n"
    )
    assert dataclass_members(tree) == ["Result.value", "Result.unread", "Result.stored",
                                       "Result.built", "Result.by_name", "Result.width",
                                       "Result.hidden"]
    assert unread_members({"m.py": tree}, [tree]) == [
        "m.py:Result.unread", "m.py:Result.stored", "m.py:Result.built", "m.py:Result.hidden"]
    # a result field planted back into a real module, and set by its one
    # constructor, is unread everywhere
    src = (SRC / "experiments.py").read_text()
    planted = src.replace("    lam: SpectralEstimate\n    verdict: str",
                          "    lam: SpectralEstimate\n    resident_sup: float\n    verdict: str")
    planted = planted.replace("lam=lam, verdict=verdict)",
                              "lam=lam, resident_sup=float(np.max(u_star)), verdict=verdict)")
    assert planted.count("resident_sup") == 2
    modules = {p.name: _tree(p) for p in MODULES} | {"experiments.py": ast.parse(planted)}
    readers = [modules[p.name] if p.parent == SRC else _tree(p) for p in READERS]
    assert unread_members(modules, readers) == ["experiments.py:InvasionEntry.resident_sup"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_restricted_imports(path):
    assert restricted_imports(_tree(path), path.name) == []


def test_import_check_catches_what_it_names():
    tree = ast.parse("from concurrent.futures import ThreadPoolExecutor\nimport threading\n"
                     "import multiprocessing.pool\nfrom scipy import integrate\n"
                     "from . import threads\nimport scipy.linalg\n")
    assert restricted_imports(tree, "experiments.py") == [
        "concurrent.futures", "multiprocessing", "scipy.integrate", "threading"]
    local = "class K:\n    def mass(self):\n        from scipy.integrate import quad\n"
    assert restricted_imports(ast.parse(local), "kernels.py") == []
    assert restricted_imports(ast.parse("def f():\n    import scipy.integrate\n"), "kernels.py") == []
    assert restricted_imports(ast.parse("from scipy.integrate import quad\n"), "kernels.py") == [
        "scipy.integrate"]
    assert restricted_imports(ast.parse(local), "stationary.py") == ["scipy.integrate"]
    assert restricted_imports(ast.parse("import scipy.integrate\n"), "stationary.py") == [
        "scipy.integrate"]
    fft = "from scipy.fft import rfftn\ndef f():\n    from scipy import fft\n"
    assert restricted_imports(ast.parse(fft), "operators.py") == ["scipy.fft"]
    assert restricted_imports(ast.parse("import numpy.fft\n"), "operators.py") == []
    cg = "def f():\n    from scipy.sparse.linalg import cg\n"
    assert restricted_imports(ast.parse(cg), "stationary.py") == []
    assert restricted_imports(ast.parse(cg), "experiments.py") == ["scipy.sparse"]
    assert restricted_imports(ast.parse("import scipy.sparse.linalg\n"), "spectral.py") == [
        "scipy.sparse"]
    assert restricted_imports(ast.parse("def f():\n    from scipy import sparse\n"),
                              "cli.py") == ["scipy.sparse"]


def _fresh_python(code: str) -> str:
    """stdout of ``code`` run in a new interpreter that imports this nichewave."""
    path = os.pathsep.join(p for p in (str(SRC.parent), os.environ.get("PYTHONPATH")) if p)
    run = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, check=True)
    return run.stdout.strip()


def test_cli_import_loads_no_quadrature():
    code = ("import sys, nichewave.cli\n"
            "print(sorted(m for m in ('scipy.integrate', 'scipy.optimize', 'scipy.fft',\n"
            "                         'scipy.special', 'scipy.sparse') if m in sys.modules))")
    assert _fresh_python(code) == "[]"


def test_only_off_band_solves_load_sparse():
    code = ("import sys\n"
            "from nichewave import Kernel, build_grid, build_operator, bump_growth, rescale_kernel\n"
            "from nichewave.stationary import solve_stationary_ball\n"
            "for N in (1, 2):\n"
            "    op = build_operator(build_grid(N, 2.0, 0.25, 'ball-truncated'),\n"
            "                        rescale_kernel(Kernel('tent', dimension=N), 1.0, 0.0),\n"
            "                        bump_growth(2.0, 1.0, -1.0))\n"
            "    banded = op.band_stencil() is not None\n"
            "    verdict = solve_stationary_ball(op).verdict\n"
            "    print(N, banded, verdict, 'scipy.sparse' in sys.modules)\n")
    assert _fresh_python(code).splitlines() == ["1 True persistent False",
                                                "2 False persistent True"]
