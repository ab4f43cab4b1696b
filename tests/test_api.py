"""One definition per public name: each module exports only what it defines,
and the package itself re-exports nothing. The curve module's private
arithmetic runs on (q, a) and integer pairs, and only its public functions
handle Points and parameter sets."""

import ast
import importlib
import inspect
import json
import pkgutil
import typing
from pathlib import Path

import pytest

import hlslab
from hlslab import curve, hls, pki

MODULES = sorted(m.name for m in pkgutil.iter_modules(hlslab.__path__))


def _top_level_definitions(path: Path) -> set[str]:
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


@pytest.mark.parametrize("name", MODULES)
def test_all_lists_only_names_defined_in_the_module(name):
    module = importlib.import_module(f"hlslab.{name}")
    defined = _top_level_definitions(Path(module.__file__))
    imported = [n for n in getattr(module, "__all__", ()) if n not in defined]
    assert imported == [], f"hlslab.{name}.__all__ lists names it does not define"


def test_package_binds_no_function_or_class():
    bound = [
        n for n, v in vars(hlslab).items() if inspect.isfunction(v) or inspect.isclass(v)
    ]
    assert bound == []


def test_package_has_no_assert_statement():
    # python -O strips asserts, so a check in the package must raise instead
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(hlslab.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


# The private arithmetic of hlslab.curve runs on (q, a) and integer pairs;
# Points and CurveParams are wrapped and unwrapped only at the public
# boundary, by the two converters, and by the proof and the table of G that
# are made once per parameter set. Every other private function is checked,
# so a new one is checked without being listed.
NOT_PAIR_LEVEL = {"_pair", "_from_pair", "_group", "_fixed_base_table"}
PRIVATE_FUNCTIONS = sorted(
    name
    for name, value in vars(curve).items()
    if name.startswith("_")
    and inspect.isfunction(inspect.unwrap(value))
    and inspect.unwrap(value).__module__ == curve.__name__
)
PAIR_LEVEL = [name for name in PRIVATE_FUNCTIONS if name not in NOT_PAIR_LEVEL]


def test_pair_level_list_is_derived_from_the_module():
    assert NOT_PAIR_LEVEL <= set(PRIVATE_FUNCTIONS)
    scan = {"_companion_orders", "_companion_point", "_point_of_order", "_probe"}
    assert scan | {"_affine_add", "_double_and_add", "_group_order"} <= set(PAIR_LEVEL)


def _types_in(hint):
    yield hint
    for arg in typing.get_args(hint):
        yield from _types_in(arg)


@pytest.mark.parametrize("name", PAIR_LEVEL)
def test_private_curve_arithmetic_takes_no_point_or_parameter_set(name):
    fn = inspect.unwrap(getattr(curve, name))
    hints = typing.get_type_hints(fn)
    assert set(hints) == set(inspect.signature(fn).parameters) | {"return"}
    found = [
        (arg, t) for arg, hint in hints.items() for t in _types_in(hint)
        if t in (curve.Point, curve.CurveParams)
    ]
    assert found == []


def _callers(tree: ast.Module, callee: str) -> set[str]:
    # the top-level definitions whose bodies call callee by name
    return {
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        for call in ast.walk(node)
        if isinstance(call, ast.Call)
        and isinstance(call.func, ast.Name)
        and call.func.id == callee
    }


def test_only_the_public_boundary_builds_a_parameter_set():
    tree = ast.parse(Path(curve.__file__).read_text())
    assert _callers(tree, "CurveParams") == {"curve_from_dict", "search_prime_order_curve"}


def test_no_private_curve_function_calls_the_public_multiplications():
    # the scan's points lie off e, so it multiplies them by double-and-add
    # directly; the public functions only wrap the private ones
    tree = ast.parse(Path(curve.__file__).read_text())
    for callee in ("scalar_mul", "scalar_mul_sum", "point_add"):
        assert {name for name in _callers(tree, callee) if name.startswith("_")} == set(), callee


def test_one_definition_of_a_valid_public_key():
    # the four conditions are tested only by hls.public_key_checks; the
    # hardened refusals and the pki report read it and test nothing of their own
    hls_tree = ast.parse(Path(hls.__file__).read_text())
    pki_tree = ast.parse(Path(pki.__file__).read_text())
    assert _callers(hls_tree, "is_on_curve") == {"public_key_checks"}
    readers = {"_require_subgroup_point", "validate_public_key"}
    for tree in (hls_tree, pki_tree):
        for callee in ("is_on_curve", "scalar_mul"):
            assert _callers(tree, callee) & readers == set(), callee
    assert _callers(pki_tree, "is_on_curve") == {"validate_domain_params"}


# The benchmark's per-layer metrics <layer>.<name>.<stat> read the spans of
# hlslab.<layer>.<name>, and its tracer wraps only plain public module-level
# functions; a traced name rebound to a cache or decorator object would
# silently drop its span
TRACED = sorted({
    metric["name"].rsplit(".", 1)[0]
    for metric in json.loads((Path(__file__).parents[1] / "BENCHMARK.json").read_text())[
        "per_layer"
    ]
    if metric["name"].count(".") == 2
})


@pytest.mark.parametrize("name", TRACED)
def test_traced_names_are_plain_module_functions(name):
    layer, attr = name.split(".")
    module = importlib.import_module(f"hlslab.{layer}")
    fn = getattr(module, attr)
    assert inspect.isfunction(fn) and fn.__module__ == module.__name__


# Every cache in the package decorates a private module-level function, is
# bounded, and is keyed by no private key or session secret: a cache keeps
# only verdicts and tables computed from public values
CACHE_DECORATORS = {"lru_cache", "cache"}
SECRET_PARAMETERS = {"d", "d_sender", "d_recipient", "key", "shared", "forced_r"}


def _cache_reference(node: ast.AST) -> bool:
    if isinstance(node, ast.Name):
        return node.id in CACHE_DECORATORS
    return isinstance(node, ast.Attribute) and node.attr in CACHE_DECORATORS


def _cached_functions() -> tuple[int, list]:
    # (every reference to a cache decorator, the module-level functions it decorates)
    references, cached = 0, []
    for path in sorted(Path(hlslab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        references += sum(_cache_reference(node) for node in ast.walk(tree))
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                for decorator in node.decorator_list:
                    target = decorator.func if isinstance(decorator, ast.Call) else decorator
                    if _cache_reference(target):
                        cached.append((f"{path.stem}.{node.name}", node, decorator))
    return references, cached


def test_every_cache_is_private_bounded_and_keyed_by_public_values():
    references, cached = _cached_functions()
    assert {"hls._hls_verdict", "pki._schnorr_verdict"} <= {name for name, _, _ in cached}
    assert references == len(cached), "a cache outside a module-level decorator"
    for name, fn, decorator in cached:
        assert fn.name.startswith("_"), name
        assert isinstance(decorator, ast.Call), name
        sizes = [kw.value for kw in decorator.keywords if kw.arg == "maxsize"]
        sizes += decorator.args[:1]
        assert len(sizes) == 1 and isinstance(sizes[0], ast.Constant), name
        assert type(sizes[0].value) is int, name
        args = fn.args
        parameters = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
        parameters |= {a.arg for a in (args.vararg, args.kwarg) if a is not None}
        assert parameters & SECRET_PARAMETERS == set(), name
