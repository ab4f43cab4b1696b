"""Mutation probe: which one-edit mutants of a module does a test subset miss?

    python3 tools/mutation_probe.py src/hlslab/pki.py [TEST ...]

Each mutant makes one edit to the module's syntax tree: it swaps one
comparison (< and <=, > and >=, == and !=, is and is not, in and not in),
turns one raise into pass, drops one not, or adds 1 to one int literal.
The mutated module is written into a copy of src/ in a temporary directory
(the checkout is never edited), and the test subset runs against it with
pytest -x. A mutant that fails, errors or times out is killed; one that
passes survived and is printed as such. Without TEST arguments the subset
is the module's own test file plus the acceptance, golden, scenario, API
and CLI tests. Stdlib only; the tests need pytest, like tier-1.
"""

from __future__ import annotations

import argparse
import ast
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In,
}
SHARED_TESTS = ["test_acceptance", "test_golden", "test_scenarios", "test_api", "test_cli"]
MEMORY_MIB = 2048  # address-space cap of each test run


def sites(tree: ast.Module) -> list[tuple[int, int, int, int, str]]:
    """(node index in ast.walk order, operand index, line, column, description)
    per mutant, in source order."""
    found = []
    for index, node in enumerate(ast.walk(tree)):
        at = getattr(node, "lineno", 0), getattr(node, "col_offset", 0)
        if isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                found.append((index, i, *at, f"{type(op).__name__} -> {SWAPS[type(op)].__name__}"))
        elif isinstance(node, ast.Raise):
            found.append((index, 0, *at, "raise -> pass"))
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            found.append((index, 0, *at, "drop not"))
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            found.append((index, 0, *at, f"{node.value} -> {node.value + 1}"))
    return sorted(found, key=lambda site: site[2:4])


def mutate(source: str, index: int, operand: int) -> str:
    """The module's source with the one edit of sites() entry (index, operand)."""
    tree = ast.parse(source)
    nodes = list(ast.walk(tree))
    node = nodes[index]
    if isinstance(node, ast.Compare):
        node.ops[operand] = SWAPS[type(node.ops[operand])]()
    elif isinstance(node, ast.Constant):
        node.value += 1
    else:
        new = ast.Pass() if isinstance(node, ast.Raise) else node.operand
        for parent in nodes:
            for name, value in ast.iter_fields(parent):
                if value is node:
                    setattr(parent, name, new)
                elif isinstance(value, list) and node in value:
                    value[value.index(node)] = new
    return ast.unparse(ast.fix_missing_locations(tree))


def run_tests(src: Path, tests: list[str], timeout: float) -> tuple[str, float]:
    def limit_memory() -> None:
        size = MEMORY_MIB * 1024 * 1024
        resource.setrlimit(resource.RLIMIT_AS, (size, size))

    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, timeout=timeout,
                              preexec_fn=limit_memory)
    except subprocess.TimeoutExpired:
        return "killed (timeout)", time.perf_counter() - start
    outcome = "survived" if proc.returncode == 0 else "killed"
    return outcome, time.perf_counter() - start


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("module", type=Path, help="a module under src/, e.g. src/hlslab/pki.py")
    parser.add_argument("tests", nargs="*", help="test files or node ids (default: see above)")
    args = parser.parse_args()
    module = args.module.resolve()
    relative = module.relative_to(ROOT / "src")
    tests = args.tests or [f"tests/{name}.py" for name in [f"test_{module.stem}", *SHARED_TESTS]]
    source = module.read_text()
    todo = sites(ast.parse(source))
    work = Path(tempfile.mkdtemp(prefix="mutation-probe-"))
    try:
        src = work / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        # the baseline is the unmutated module as ast.unparse writes it
        (src / relative).write_text(ast.unparse(ast.parse(source)))
        outcome, seconds = run_tests(src, tests, None)
        if outcome != "survived":
            print(f"baseline fails: {' '.join(tests)}", file=sys.stderr)
            return 2
        timeout = 5 * seconds + 30
        survivors = 0
        for index, operand, line, column, description in todo:
            (src / relative).write_text(mutate(source, index, operand))
            outcome, seconds = run_tests(src, tests, timeout)
            survivors += outcome == "survived"
            print(f"{relative}:{line}:{column}: {description}: {outcome} ({seconds:.1f} s)",
                  flush=True)
        print(f"{len(todo)} mutants, {survivors} survived")
        return 0
    finally:
        shutil.rmtree(work)


if __name__ == "__main__":
    sys.exit(main())
