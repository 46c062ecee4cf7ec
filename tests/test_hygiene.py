"""Source hygiene of src/nichewave, checked on the syntax tree.

- Every name a module imports is used in that module. ``__init__`` is
  skipped (it only re-exports), and so is ``from __future__``. A dotted
  ``import a.b`` counts as used only where ``a.b`` itself is used.
- No handler catches ``Exception``/``BaseException`` or everything (bare
  ``except:``); each one names the errors it expects.
- Every config key in ``config.DEFAULTS`` is read: its name appears as a
  string subscript (``section["key"]``) somewhere in the package.
- No ``.matrix(...)`` or ``.conv_matrix(...)`` call appears outside
  ``operators``: the assembled CSR forms are oracles, and no solve path
  builds one.
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
- No module imports ``scipy.integrate``: every radial integral of a kernel
  (moments, tail mass) is a closed form, so no quadrature runs.
- No module imports ``scipy.fft``: the convolution uses numpy's FFT, so the
  import does not pull in ``scipy.special``.
- ``scipy.sparse`` is imported only inside functions of ``operators`` (the
  CSR test oracles), never at module level: no solve loads it.
- ``scipy.linalg`` is imported only inside functions of ``operators`` (the
  LAPACK fallback for a numpy that ships no OpenBLAS), never at module
  level: the band solves call the LAPACK numpy already loaded.
- Every field and property of a dataclass in the package is read
  somewhere in ``src/``, ``tests/`` or ``perfbench/``: as an attribute
  (``x.name`` in a load) or through ``getattr`` with a constant name. A
  result field that nothing reads is work and memory for nothing. Every
  public function and method is read so, or as a name, in ``src/`` outside
  ``__init__`` or in ``perfbench/``: a check only tests call is test code.
- Every parameter with a default, of a function or method in ``src/``, is
  passed by some call in ``src/``, ``tests/`` or ``perfbench/``: by name,
  by position, or through ``*args``/``**kwargs``; a class's ``__init__`` is
  called by the class name. A default that no call changes is a constant.
  No such parameter is passed by every call of its function there: a
  default that no call uses is a value nothing reads.
- A fresh ``import nichewave.cli`` loads none of ``scipy.integrate``,
  ``scipy.optimize``, ``scipy.fft``, ``scipy.special`` and ``scipy.sparse``,
  and a banded 1-D and an off-band 2-D eigenvalue and ball solve leave
  ``scipy.sparse`` unloaded. Where numpy's wheel ships its OpenBLAS, neither
  the import nor those solves load any ``scipy`` module, and ``spectrum`` and
  ``fat-tail`` on an exponential-tail kernel and ``validate`` on a
  truncated-gaussian and an algebraic-tail kernel leave ``scipy.integrate``
  unloaded (all checked in a subprocess).
"""

import ast
import functools
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
# every file whose code runs outside the tests: the package, or the benchmark
CALLERS = [p for p in MODULES if p.name != "__init__.py"] + sorted((ROOT / "perfbench").rglob("*.py"))


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


def public_functions(tree: ast.Module) -> list[str]:
    """Each public module-level function, then 'Class.name' for each public
    method (a property too) of a module-level class."""
    members = [(f"{c.name}.", node) for c in tree.body if isinstance(c, ast.ClassDef) for node in c.body]
    return [prefix + node.name for prefix, node in [("", node) for node in tree.body] + members
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]


def uncalled_functions(modules: dict[str, ast.Module], callers) -> list[str]:
    """'file:name' for each public function of ``modules`` (file name -> tree)
    whose name no tree of ``callers`` reads, as a name or an attribute."""
    read = set().union(*(attribute_reads(tree) | {node.id for node in ast.walk(tree)
                                                  if isinstance(node, ast.Name)} for tree in callers))
    return [f"{name}:{function}" for name, tree in modules.items()
            for function in public_functions(tree) if function.split(".")[-1] not in read]


def defaulted_params(tree: ast.Module) -> list[tuple[str, str, int | None]]:
    """(called name, parameter, position or None) for each parameter with a
    default of every module-level function and method in ``tree``. The
    position counts the call's positional arguments (a method's after self);
    keyword-only ones have none. A class's ``__init__`` is called by the
    class name."""
    found = []
    for node in ast.walk(tree):
        for inner in getattr(node, "body", []) if isinstance(node, (ast.Module, ast.ClassDef)) else []:
            if not isinstance(inner, ast.FunctionDef):
                continue
            args = inner.args
            positional = args.posonlyargs + args.args
            offset = int(isinstance(node, ast.ClassDef)
                         and "staticmethod" not in [_dotted(d) for d in inner.decorator_list])
            name = node.name if inner.name == "__init__" else inner.name
            first = len(positional) - len(args.defaults)
            found += [(name, p.arg, i - offset) for i, p in enumerate(positional) if i >= first]
            found += [(name, p.arg, None) for p, d in zip(args.kwonlyargs, args.kw_defaults)
                      if d is not None]
    return found


def default_passes(modules: dict[str, ast.Module], callers) -> list[tuple[str, list[bool]]]:
    """('file:function(parameter)', whether each call of that function in
    ``callers`` passes the parameter) for each defaulted parameter of
    ``modules`` (file name -> tree). A name read outside a call's ``func``
    (``solve = f``, ``[f, g]``) may be called elsewhere with anything, so it
    counts as a call that passes no default."""
    calls: dict[str, list] = {}
    funcs = set()
    nodes = [n for tree in callers for n in ast.walk(tree)]
    for node in (n for n in nodes if isinstance(n, ast.Call)):
        calls.setdefault((_dotted(node.func) or "").split(".")[-1], []).append(node)
        funcs.update(id(n) for n in ast.walk(node.func))
    for node in nodes:
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        if isinstance(getattr(node, "ctx", None), ast.Load) and name in calls \
                and id(node) not in funcs:
            calls[name].append(None)

    def passes(call, param, position):
        if call is None:  # a reference, not a call
            return False
        if any(k.arg in (param, None) for k in call.keywords):  # by name, or **kwargs
            return True
        return position is not None and (len(call.args) > position or any(
            isinstance(a, ast.Starred) for a in call.args))

    return [(f"{file}:{name}({param})", [passes(call, param, position) for call in calls.get(name, [])])
            for file, tree in modules.items() for name, param, position in defaulted_params(tree)]


def unpassed_defaults(modules: dict[str, ast.Module], callers) -> list[str]:
    """Each defaulted parameter of ``modules`` that no call in ``callers`` passes."""
    return [param for param, passed in default_passes(modules, callers) if not any(passed)]


def overridden_defaults(modules: dict[str, ast.Module], callers) -> list[str]:
    """Each defaulted parameter of ``modules`` that every call in ``callers``
    of its function passes (there is at least one)."""
    return [param for param, passed in default_passes(modules, callers) if passed and all(passed)]


# imported module -> the files of src/nichewave whose functions may import it;
# no file may import one of these at module level
RESTRICTED_IMPORTS = {
    "concurrent.futures": set(),
    "threading": set(),
    "multiprocessing": set(),
    "scipy.integrate": set(),
    "scipy.fft": set(),
    "scipy.sparse": {"operators.py"},
    "scipy.linalg": {"operators.py"},
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


@functools.lru_cache(maxsize=None)
def _tree(path: Path) -> ast.Module:
    """The parsed file, once per run: no check mutates a tree, and a test that
    plants code parses its own."""
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



def test_no_assembly_outside_operators():
    found = []
    for path in MODULES:
        if path.name == "operators.py":
            continue
        tree = _tree(path)
        found += [f"{path.name}:{line}" for line in assembly_calls(tree)]
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
    anchor = "    taps, reach = sample_taps("
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


# public functions that only the tests call: constant_growth is the
# package-level twin of bump_growth, which perfbench calls
CALLED_BY_TESTS_ONLY = {"growth.py:constant_growth"}


def test_every_public_function_runs_outside_the_tests():
    modules = {p.name: _tree(p) for p in MODULES}
    assert set(uncalled_functions(modules, [_tree(p) for p in CALLERS])) == CALLED_BY_TESTS_ONLY


def test_function_check_catches_what_it_names():
    tree = ast.parse("def used():\n    pass\ndef unused():\n    pass\ndef _private():\n    pass\n"
                     "class Op:\n    @property\n    def prop(self):\n        return 1\n"
                     "    def _hidden(self):\n        return getattr(self, 'by_name')()\n"
                     "    def by_name(self):\n        pass\n__all__ = ['unused', 'prop']\nused()\n")
    assert public_functions(tree) == ["used", "unused", "Op.prop", "Op.by_name"]
    assert uncalled_functions({"m.py": tree}, [tree]) == ["m.py:unused", "m.py:Op.prop"]
    # a test-only check planted back into a real module is flagged
    ops = (SRC / "operators.py").read_text()
    anchor = "    def energy(self, u: np.ndarray) -> float:\n"
    planted = ops.replace(anchor, "    def perron_window(self):\n        return 0.0, 1.0\n\n" + anchor)
    modules = {p.name: _tree(p) for p in MODULES} | {"operators.py": ast.parse(planted)}
    callers = [modules[p.name] if p.parent == SRC else _tree(p) for p in CALLERS]
    assert set(uncalled_functions(modules, callers)) - CALLED_BY_TESTS_ONLY == {
        "operators.py:DiscreteOperator.perron_window"}


def test_every_default_is_passed_somewhere():
    modules = {p.name: _tree(p) for p in MODULES}
    assert unpassed_defaults(modules, [_tree(p) for p in READERS]) == []


def test_default_check_catches_what_it_names():
    tree = ast.parse(
        "def solve(op, tol=1e-10, maxiter=10, *, seed=0, quiet=False):\n    pass\n"
        "class Walk:\n    def __init__(self, radii, pad=1.0, cap=None):\n        pass\n"
        "    def step(self, h, scale=2.0):\n        pass\n"
        "    @staticmethod\n    def make(n, width=3):\n        pass\n"
        "def run(x, verbose=False, *, log=None):\n    pass\n"
        "solve(op, 1e-8, quiet=True)\nWalk(radii, 2.0)\nw.step(0.1)\nmodule.Walk.make(4, 5)\n"
        "run(x, **options)\n"
    )
    assert defaulted_params(tree) == [
        ("solve", "tol", 1), ("solve", "maxiter", 2), ("solve", "seed", None), ("solve", "quiet", None),
        ("run", "verbose", 1), ("run", "log", None),
        ("Walk", "pad", 1), ("Walk", "cap", 2), ("step", "scale", 1), ("make", "width", 1)]
    assert unpassed_defaults({"m.py": tree}, [tree]) == [
        "m.py:solve(maxiter)", "m.py:solve(seed)", "m.py:Walk(cap)", "m.py:step(scale)"]
    # a default planted back into a real function, and passed by no caller, is flagged
    src = (SRC / "growth.py").read_text()
    planted = src.replace("def bump_growth(a0: float, b: float, a_min: float)",
                          "def bump_growth(a0: float, b: float, a_min: float, floor: float = 0.0)")
    assert planted != src
    modules = {p.name: _tree(p) for p in MODULES} | {"growth.py": ast.parse(planted)}
    readers = [modules[p.name] if p.parent == SRC else _tree(p) for p in READERS]
    assert unpassed_defaults(modules, readers) == ["growth.py:bump_growth(floor)"]


def test_no_default_is_passed_by_every_call():
    modules = {p.name: _tree(p) for p in MODULES}
    assert overridden_defaults(modules, [_tree(p) for p in READERS]) == []


def test_overridden_default_check_catches_what_it_names():
    tree = ast.parse(
        "def solve(op, tol=1e-10, maxiter=10, *, seed=0):\n    pass\n"
        "class Walk:\n    def __init__(self, radii, pad=1.0):\n        pass\n"
        "def uncalled(x, scale=2.0):\n    pass\n"
        "def shrink(x, factor=0.5):\n    pass\n"
        "solve(op, 1e-8, seed=1)\nsolve(op, tol=1e-9, **options)\nWalk(radii, 2.0)\nWalk(*args)\n"
        "shrink(x, 0.25)\nfor step in [module.shrink]:\n    step(x)\n"
    )
    # shrink's factor is passed by its one call by name, but the list hands
    # shrink on to a call that passes nothing
    assert overridden_defaults({"m.py": tree}, [tree]) == [
        "m.py:solve(tol)", "m.py:solve(seed)", "m.py:Walk(pad)"]
    # a default planted back into a real function, and passed by every caller, is flagged
    src = (SRC / "experiments.py").read_text()
    planted = src.replace("    solver_tol: float,\n    spectral_tol: float = 1e-10,\n) -> EnergySlopeFit:",
                          "    solver_tol: float = 1e-10,\n    spectral_tol: float = 1e-10,\n"
                          ") -> EnergySlopeFit:")
    assert planted != src
    modules = {p.name: _tree(p) for p in MODULES} | {"experiments.py": ast.parse(planted)}
    readers = [modules[p.name] if p.parent == SRC else _tree(p) for p in READERS]
    assert overridden_defaults(modules, readers) == ["experiments.py:energy_slope_audit(solver_tol)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_restricted_imports(path):
    assert restricted_imports(_tree(path), path.name) == []


def test_import_check_catches_what_it_names():
    tree = ast.parse("from concurrent.futures import ThreadPoolExecutor\nimport threading\n"
                     "import multiprocessing.pool\nfrom scipy import integrate\n"
                     "from . import threads\nimport scipy.linalg\n")
    assert restricted_imports(tree, "experiments.py") == [
        "concurrent.futures", "multiprocessing", "scipy.integrate", "scipy.linalg", "threading"]
    local = "class K:\n    def mass(self):\n        from scipy.integrate import quad\n"
    assert restricted_imports(ast.parse(local), "kernels.py") == ["scipy.integrate"]
    assert restricted_imports(ast.parse("def f():\n    import scipy.integrate\n"), "kernels.py") == [
        "scipy.integrate"]
    assert restricted_imports(ast.parse("from scipy.integrate import quad\n"), "kernels.py") == [
        "scipy.integrate"]
    assert restricted_imports(ast.parse(local), "stationary.py") == ["scipy.integrate"]
    assert restricted_imports(ast.parse("import scipy.integrate\n"), "stationary.py") == [
        "scipy.integrate"]
    fft = "from scipy.fft import rfftn\ndef f():\n    from scipy import fft\n"
    assert restricted_imports(ast.parse(fft), "operators.py") == ["scipy.fft"]
    assert restricted_imports(ast.parse("import numpy.fft\n"), "operators.py") == []
    cg = "def f():\n    from scipy.sparse.linalg import cg\n"
    assert restricted_imports(ast.parse(cg), "operators.py") == []
    assert restricted_imports(ast.parse(cg), "stationary.py") == ["scipy.sparse"]
    assert restricted_imports(ast.parse(cg), "spectral.py") == ["scipy.sparse"]
    assert restricted_imports(ast.parse(cg), "experiments.py") == ["scipy.sparse"]
    assert restricted_imports(ast.parse("import scipy.sparse.linalg\n"), "spectral.py") == [
        "scipy.sparse"]
    assert restricted_imports(ast.parse("def f():\n    from scipy import sparse\n"),
                              "cli.py") == ["scipy.sparse"]
    lapack = "def f():\n    from scipy.linalg.lapack import dgbsv\n"
    assert restricted_imports(ast.parse(lapack), "operators.py") == []
    assert restricted_imports(ast.parse(lapack), "spectral.py") == ["scipy.linalg"]
    assert restricted_imports(ast.parse("from scipy.linalg import solve_banded\n"),
                              "operators.py") == ["scipy.linalg"]


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


def test_no_solve_loads_sparse():
    code = ("import sys\n"
            "import nichewave.cli\n"
            "from nichewave import (Kernel, build_grid, build_operator, bump_growth,\n"
            "                       principal_eigenvalue, rescale_kernel)\n"
            "from nichewave.operators import _openblas_gbsv\n"
            "from nichewave.stationary import solve_stationary_ball\n"
            "def scipy_modules():\n"
            "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "print(_openblas_gbsv() is not None, scipy_modules())\n"
            "for N in (1, 2):\n"
            "    op = build_operator(build_grid(N, 2.0, 0.25),\n"
            "                        rescale_kernel(Kernel('tent', dimension=N), 1.0, 0.0),\n"
            "                        bump_growth(2.0, 1.0, -1.0))\n"
            "    banded = op.band_stencil() is not None\n"
            "    lam = principal_eigenvalue(op)\n"
            "    verdict = solve_stationary_ball(op, lam=lam).verdict\n"
            "    print(N, banded, verdict, 'scipy.sparse' in sys.modules, scipy_modules())\n")
    first, *solves = _fresh_python(code).splitlines()
    assert [line.split(" [")[0] for line in solves] == ["1 True persistent False",
                                                        "2 False persistent False"]
    if first.startswith("True"):  # numpy's own OpenBLAS serves the band solves
        assert first == "True []"
        assert all(line.endswith(" []") for line in solves)


def test_spectrum_on_a_tail_kernel_loads_no_quadrature(tmp_path):
    # spectrum samples a non-compact kernel without its tail mass; validate's
    # moments and fat-tail's tail mass are closed forms on every family
    runs = [("spectrum", "exponential-tail", "beta=1", "[grid]\nR = 2\nh = 0.1\n"),
            ("validate", "truncated-gaussian", "sigma=0.4, cutoff=1", ""),
            ("validate", "algebraic-tail", "power=4", ""),
            ("fat-tail", "exponential-tail", "beta=1",
             "[growth]\nfamily = bump\nparams = a0=1.5, b=1, a_min=-1\n\n"
             "[grid]\nh = 0.1\n\n[fat_tail]\nR_schedule = 2 4\n")]
    code = "import sys\nfrom nichewave.cli import main\n"
    for i, (command, family, params, rest) in enumerate(runs):
        config = tmp_path / f"tail{i}.ini"
        config.write_text(f"[run]\nlabel = t{i}\noutput_dir = {tmp_path}\n\n[kernel]\n"
                          f"family = {family}\nparams = {params}\n\n{rest}")
        code += (f"print({command!r}, main([{command!r}, {str(config)!r}]),\n"
                 "      'scipy.integrate' in sys.modules)\n")
    lines = [line for line in _fresh_python(code).splitlines() if line.endswith(("True", "False"))]
    assert lines == [f"{command} 0 False" for command, *_ in runs]
