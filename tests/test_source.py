"""Rules on the package source, checked on its syntax trees."""

import ast
from collections import Counter
from functools import cache
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "athermal_markov"
MODULES = sorted(PACKAGE.glob("*.py"))
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _declared_names(node) -> list[str]:
    """Parameter names of a function, or annotated field names of a class."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        a = node.args
        return [x.arg for x in a.posonlyargs + a.args + a.kwonlyargs]
    if isinstance(node, ast.ClassDef):
        return [s.target.id for s in node.body
                if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)]
    return []


def test_tolerances_are_not_parameters_or_fields():
    # tolerances are module constants; only mat_equal takes one, as a required argument
    found = [f"{path.name}:{node.lineno} {name}"
             for path in MODULES for node in ast.walk(_tree(path))
             if not (path.name == "linalg.py" and getattr(node, "name", None) == "mat_equal")
             for name in _declared_names(node) if name in ("tol", "cutoff")]
    assert found == []


def _imports(tree: ast.Module):
    """(bound name, line) for every import in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _unused_imports(tree: ast.Module) -> list[str]:
    """``line name`` of every import in a module that no bare name uses."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{line} {name}" for name, line in _imports(tree) if name not in used]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"] + TESTS,
                         ids=lambda p: p.name if p.parent == PACKAGE else f"tests/{p.name}")
def test_no_unused_imports(path):
    # __init__.py is exempt: its imports are the package's re-exports
    assert _unused_imports(_tree(path)) == []


def test_unused_import_rule_catches_each_spelling():
    source = ("import os\nimport numpy as np\nfrom a import b, c as d\n"
              "def f():\n    from e import g\n    return np.pi + b\n")
    assert _unused_imports(ast.parse(source)) == ["1 os", "3 d", "5 g"]


def _export_faults(package) -> list[str]:
    """Names in ``package.__all__`` that the package lacks or that appear more than once."""
    names = package.__all__
    return sorted({f"{name}: missing" for name in names if not hasattr(package, name)}
                  | {f"{name}: repeated" for name in names if names.count(name) > 1})


def test_package_exports_resolve():
    import athermal_markov

    imported = [alias.asname or alias.name for node in _tree(PACKAGE / "__init__.py").body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert _export_faults(athermal_markov) == []
    assert sorted(athermal_markov.__all__) == sorted(imported + ["__version__"])


def test_export_rule_catches_a_stale_or_repeated_name():
    import types

    stale = types.SimpleNamespace(__all__=["apply", "gone", "apply"], apply=len)
    assert _export_faults(stale) == ["apply: repeated", "gone: missing"]


# Where the unchecked constructor may be called: only DensityMatrix keeps one,
# ``_derived``, for the CPTP maps that derive a state from checked states.
DERIVING = {("thermal.py", "apply"), ("linalg.py", "partial_trace")}


def _scopes(tree: ast.Module, hit) -> set[str | None]:
    """Qualified names of the scopes holding a node for which ``hit`` is true
    (None: module level)."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if hit(child):
                found.add(scope)
            visit(child, scope)

    visit(tree, None)
    return found


def _unchecked_uses(tree: ast.Module) -> set[str | None]:
    """The scopes that reference ``._derived``."""
    return _scopes(tree, lambda node: isinstance(node, ast.Attribute) and node.attr == "_derived")


def test_unchecked_values_come_only_from_derivations():
    # every state or unitary entering from outside goes through its checking public constructor
    uses = {(path.name, scope) for path in MODULES for scope in _unchecked_uses(_tree(path))}
    assert uses == DERIVING


def test_unchecked_state_rule_catches_a_boundary():
    source = (PACKAGE / "thermal.py").read_text(encoding="utf-8")
    boundary = "return DensityMatrix(v @ p @ dagger(v), (h_sys.dim,))"
    start = source.index("def state_from_level_coeffs")
    routed = source[:start] + source[start:].replace(
        boundary, boundary.replace("DensityMatrix(", "DensityMatrix._derived("), 1)
    assert routed != source
    uses = {("thermal.py", func) for func in _unchecked_uses(ast.parse(routed))}
    assert uses - DERIVING == {("thermal.py", "state_from_level_coeffs")}


def test_only_the_claim_checkers_set_a_deviation_status():
    # a study states its claims in CLAIMS, so none grows a private claim loop
    found = {(path.name, scope) for path in MODULES for scope in _scopes(
        _tree(path), lambda node: isinstance(node, ast.Constant) and node.value == "deviation")}
    assert found == {("experiments.py", "_check_claims")}


def _names(node: ast.AST, names: set[str]) -> bool:
    """Whether ``node`` names one of ``names``: an attribute, a bare name or an import."""
    return ((isinstance(node, ast.Attribute) and node.attr in names)
            or (isinstance(node, ast.Name) and node.id in names)
            or (isinstance(node, ast.alias) and node.name in names))


def _uses(tree: ast.Module, names: set[str]) -> list[int]:
    """Lines that name one of ``names``."""
    return [node.lineno for node in ast.walk(tree) if _names(node, names)]


def _uses_under_src(names: set[str]) -> list[str]:
    return [f"{path.name}:{line}" for path in sorted(PACKAGE.parent.rglob("*.py"))
            for line in _uses(_tree(path), names)]


def test_no_ndenumerate_under_src():
    # the package computes on whole arrays; an entry-by-entry walk does not come back
    assert _uses_under_src({"ndenumerate"}) == []


def test_ndenumerate_rule_catches_each_spelling():
    for source in ("for k, v in np.ndenumerate(a): pass", "from numpy import ndenumerate",
                   "f = ndenumerate"):
        assert _uses(ast.parse(source), {"ndenumerate"}) == [1], source


def _kron_scopes(tree: ast.Module) -> set[str | None]:
    return _scopes(tree, lambda node: _names(node, {"kron"}))


def test_kron_forms_only_the_ppt_sweep_input():
    # the unitary and the joint states live in the product eigenbasis, so no module
    # conjugates by kron(V_S, V_B); the one Kronecker product left is the input
    # rho (x) tau of _ppt_spectra_sweep
    found = [(name, scope, len(_uses(tree, {"kron"})))
             for name, tree in _source_modules().items() for scope in _kron_scopes(tree)]
    assert found == [("experiments.py", "_ppt_spectra_sweep", 1)]


def test_kron_rule_catches_a_basis_round_trip():
    source = ("class EnergyBlockUnitary:\n"
              "    def product_basis_matrix(self):\n"
              "        v = np.kron(*(h.eigvecs for h in self.hamiltonian.parts))\n"
              "        return dagger(v) @ self.matrix @ v\n"
              "from numpy import kron\n")
    assert _kron_scopes(ast.parse(source)) == {"EnergyBlockUnitary.product_basis_matrix", None}


# np.allclose and np.isclose add rtol * |b| to the absolute tolerance they are given,
# so every tolerance in the package goes through mat_equal or an explicit comparison
RELATIVE_CHECKS = {"allclose", "isclose"}


def test_no_allclose_or_isclose_under_src():
    assert _uses_under_src(RELATIVE_CHECKS) == []


def test_relative_check_rule_catches_each_spelling():
    for source in ("ok = np.allclose(a, b, atol=1e-10)", "ok = numpy.isclose(a, b)",
                   "from numpy import allclose", "from numpy import isclose as near",
                   "f = isclose"):
        assert _uses(ast.parse(source), RELATIVE_CHECKS) == [1], source


BENCH = PACKAGE.parent.parent / "bench"

# bench/setup_probe.py reaches this one as getattr(experiments, f"builtin_{arg}")
REACHED_BY_NAME = {"experiments.py:builtin_distance"}


def _referenced(tree: ast.AST) -> Counter:
    """How often each bare name and attribute name occurs in ``tree``."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(tree)
                   if isinstance(node, (ast.Name, ast.Attribute)))


def _getattr_strings(tree: ast.AST) -> set[str]:
    """The attribute names that ``getattr`` calls in ``tree`` spell as string constants."""
    return {node.args[1].value for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "getattr" and len(node.args) > 1
            and isinstance(node.args[1], ast.Constant) and isinstance(node.args[1].value, str)}


def _public_defs(tree: ast.Module):
    """(qualified name, node) of each public module-level function and each
    public method or property of a module-level class."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            members = [(f"{node.name}.{m.name}", m) for m in node.body if isinstance(m, functions)]
        else:
            members = [(node.name, node)] if isinstance(node, functions) else []
        yield from ((q, m) for q, m in members if not m.name.startswith("_"))


def _unreached(modules: dict[str, ast.Module], bench) -> list[str]:
    """Public functions, methods and properties of ``modules`` (file name:
    tree) that no other module but ``__init__.py``, no code of their own module
    outside their own body, and no bench script references, by name or by a
    ``getattr`` string."""
    counts = {name: _referenced(tree) for name, tree in modules.items()}
    bench_names = set().union(*map(_referenced, bench), *map(_getattr_strings, bench))
    found = []
    for name, tree in modules.items():
        others = set().union(*(c for key, c in counts.items() if key not in (name, "__init__.py")))
        for qualified, node in _public_defs(tree):
            if (node.name not in others | bench_names
                    and counts[name][node.name] == _referenced(node)[node.name]):
                found.append(f"{name}:{qualified}")
    return found


@cache
def _source_modules() -> dict[str, ast.Module]:
    return {path.name: _tree(path) for path in MODULES}


@cache
def _bench_scripts() -> tuple[ast.Module, ...]:
    return tuple(_tree(path) for path in sorted(BENCH.glob("*.py")))


def test_every_public_function_has_a_caller_besides_the_tests():
    assert set(_unreached(_source_modules(), _bench_scripts())) == REACHED_BY_NAME


def test_caller_rule_catches_a_function_only_tests_call():
    toy = {"__init__.py": ast.parse("from .a import kept, lonely, recursive\nPUBLIC = (lonely,)"),
           "a.py": ast.parse("def kept(): pass\ndef lonely(): pass\n"
                             "def recursive(n): return recursive(n - 1)\n"
                             "def local(): pass\nLOCAL = local\n"),
           "b.py": ast.parse("from . import a\na.kept()")}
    assert _unreached(toy, []) == ["a.py:lonely", "a.py:recursive"]
    assert _unreached(toy, [ast.parse("a.lonely()")]) == ["a.py:recursive"]
    modules = dict(_source_modules())
    source = (PACKAGE / "measures.py").read_text(encoding="utf-8")
    modules["measures.py"] = ast.parse(source + "\n\ndef choi_state(op):\n    return op\n")
    assert "measures.py:choi_state" in _unreached(modules, _bench_scripts())


def test_caller_rule_catches_a_method_only_tests_call():
    toy = {"__init__.py": ast.parse("from .a import Box"),
           "a.py": ast.parse("class Box:\n    def kept(self): pass\n    def lonely(self): pass\n"
                             "    def recursive(self, n): return self.recursive(n - 1)\n"
                             "    @property\n    def size(self): return 1\n"
                             "    @property\n    def read(self): return self.size\n"
                             "    def _private(self): pass\n"),
           "b.py": ast.parse("from . import a\na.Box().kept()")}
    assert _unreached(toy, []) == ["a.py:Box.lonely", "a.py:Box.recursive", "a.py:Box.read"]
    assert _unreached(toy, [ast.parse("getattr(box, 'read', None)\nbox.lonely()")]) == [
        "a.py:Box.recursive"]
    # the bench alone calls these
    assert set(_unreached(_source_modules(), [])) >= {"experiments.py:ExperimentConfig.build_system",
                                                      "experiments.py:ExperimentConfig.level_coeffs"}
    modules = dict(_source_modules())
    source = (PACKAGE / "experiments.py").read_text(encoding="utf-8")
    assert source.count("cfg.config_hash()") == 1
    modules["experiments.py"] = ast.parse(source.replace("cfg.config_hash()", "None"))
    assert set(_unreached(modules, _bench_scripts())) - REACHED_BY_NAME == {
        "experiments.py:ExperimentConfig.config_hash"}


def _private_defs(tree: ast.Module):
    """(name, node) of each private module-level function, class and constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            names = []
        yield from ((name, node) for name in names
                    if name.startswith("_") and not name.startswith("__"))


def _dead_privates(modules: dict[str, ast.Module]) -> list[str]:
    """``file:name`` of each private module-level definition of ``modules`` that
    no code of ``modules`` references outside its own definition."""
    total = sum(map(_referenced, modules.values()), Counter())
    return [f"{name}:{private}" for name, tree in modules.items()
            for private, node in _private_defs(tree)
            if total[private] == _referenced(node)[private]]


def test_every_private_definition_is_used():
    # a private helper only tests reach, or none, is a dead layer
    assert _dead_privates(_source_modules()) == []


def test_dead_private_rule_catches_a_leftover():
    toy = {"a.py": ast.parse("_USED = 1\n_DEAD: int = 2\ndef _helper(): return _USED\n"
                             "def _recursive(n): return _recursive(n - 1)\n"
                             "class _Gone: pass\ndef run(): return _helper() + b._shared()\n"),
           "b.py": ast.parse("def _shared(): pass\n")}
    assert _dead_privates(toy) == ["a.py:_DEAD", "a.py:_recursive", "a.py:_Gone"]
    modules = dict(_source_modules())
    source = (PACKAGE / "linalg.py").read_text(encoding="utf-8")
    modules["linalg.py"] = ast.parse(source + "\n\ndef _unused_indices(n):\n    return list(range(n))\n")
    assert _dead_privates(modules) == ["linalg.py:_unused_indices"]
