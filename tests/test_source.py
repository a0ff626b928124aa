"""Structural checks on the package source."""

import ast
import dataclasses
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "holobrace"

# modules that start worker processes
POOL_MODULES = ("multiprocessing", "concurrent.futures")


def _imported_names(tree: ast.AST):
    """Every module an import statement names, at any depth; for `from m
    import a` both m and m.a, so `from concurrent import futures` counts."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            yield node.module
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


def _is_pool_module(name: str) -> bool:
    return any(name == m or name.startswith(m + ".") for m in POOL_MODULES)


def test_no_module_imports_a_process_pool():
    paths = sorted(SRC.rglob("*.py"))
    assert any(p.name == "kernel.py" for p in paths)
    found = {
        p.name: hits
        for p in paths
        if (hits := sorted(filter(_is_pool_module, _imported_names(ast.parse(p.read_text())))))
    }
    assert found == {}


def _names(tree: ast.AST):
    """Every identifier the tree binds or reads, imported names included."""
    for node in ast.walk(tree):
        for field in ("id", "attr", "name"):
            value = getattr(node, field, None)
            if isinstance(value, str):
                yield value


def test_brute_force_recognition_stays_off_the_count_and_lift_paths():
    # `_classify_kernel` walks element orders until a witness turns up; it
    # is a validation surface, so only its own module may name it
    paths = sorted(SRC.rglob("*.py"))
    assert any(p.name == "presentations.py" for p in paths)
    found = sorted(
        p.name
        for p in paths
        if p.name != "presentations.py" and "_classify_kernel" in set(_names(ast.parse(p.read_text())))
    )
    assert found == []


def _is_unbounded_lru_cache(dec: ast.expr) -> bool:
    """`lru_cache(maxsize=None)` or `lru_cache(None)`, plain or as `functools.lru_cache`."""
    if not isinstance(dec, ast.Call):
        return False
    func = dec.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    if name != "lru_cache":
        return False
    sizes = [kw.value for kw in dec.keywords if kw.arg == "maxsize"] + dec.args[:1]
    return any(isinstance(v, ast.Constant) and v.value is None for v in sizes)


def _unbounded_memos():
    """`module.function` for each function under an unbounded lru_cache."""
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if any(map(_is_unbounded_lru_cache, node.decorator_list)):
                    yield f"{path.stem}.{node.name}"


def _readme_memo_table() -> set[str]:
    """The names in the first column of README's memo table."""
    lines = (ROOT / "README.md").read_text().splitlines()
    start = lines.index("| memo | MB |")
    names = set()
    for line in lines[start + 2 :]:
        if not line.startswith("|"):
            break
        names.update(re.findall(r"`([\w.]+)`", line.split("|")[1]))
    return names


def test_every_unbounded_memo_is_in_the_readme_memo_table():
    # an lru_cache without a bound grows with every input a process touches,
    # so each one is listed with its measured size
    memos = list(_unbounded_memos())
    assert "regular._search_cached" in memos and "regular._x_scan" in memos
    listed = _readme_memo_table()
    assert [m for m in memos if m not in listed] == []


def _constructor_sites(name: str, where=lambda call: True):
    """`module.function` for each call of `name` in `src/` that `where`
    accepts, by the innermost enclosing function (`module.<module>` at top
    level)."""
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {}
        for node in ast.walk(tree):  # breadth first: an inner function overwrites its outer one
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update(dict.fromkeys(ast.walk(node), node.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if called == name and where(node):
                    yield f"{path.stem}.{owner.get(node, '<module>')}"


def test_only_subgroup_builds_a_regular_subgroup():
    # `_subgroup` sorts the element codes into the key; a subgroup built
    # anywhere else could carry a key that is not its sorted codes
    assert list(_constructor_sites("RegularSubgroup")) == ["regular._subgroup"]


def _lists_a_power_of_two(call: ast.Call) -> bool:
    """An argument is a list or tuple display with an entry `1 << k` or `2 ** k`."""
    return any(
        isinstance(e, ast.BinOp) and isinstance(e.op, (ast.LShift, ast.Pow))
        for arg in call.args
        if isinstance(arg, (ast.List, ast.Tuple))
        for e in arg.elts
    )


def test_only_family_types_builds_the_two_family_groups():
    # C_{2^n} and C_2 x C_{2^(n-1)} built in two places could drift apart,
    # and a pair would then reach the wrong family solver; `admissible_types`
    # lists every type of order 2^n from its own rows and is not counted
    sites = list(_constructor_sites("make_group", _lists_a_power_of_two))
    assert sites == ["presentations.family_types"] * 2


def _dataclass_fields():
    """(module.Class, its annotated field names) for each dataclass in `src/`."""
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and any(
                "dataclass" in ast.unparse(dec) for dec in node.decorator_list
            ):
                names = {f.target.id for f in node.body if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name)}
                yield f"{path.stem}.{node.name}", names


def test_only_search_result_carries_a_census():
    # a census is r and its Aut(N)-classes, whichever path computes it; a
    # second type holding both would need an adapter into `SearchResult`
    classes = dict(_dataclass_fields())
    assert "regular.SearchResult" in classes and "brace.YbeSolution" in classes
    assert [name for name, fields in classes.items() if {"r", "class_sizes"} <= fields] == ["regular.SearchResult"]


def _trace_entry_points():
    """The (module, attribute, span) triples of `ENTRY_POINTS` in the
    benchmark's tracer, read from its source without importing it."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "ENTRY_POINTS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py has no ENTRY_POINTS")


def _resolves(module_name: str, dotted: str) -> bool:
    *path, last = dotted.split(".")
    obj = importlib.import_module(module_name)
    for part in path:
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    # a dataclass field without a default is no class attribute
    fields = {f.name for f in dataclasses.fields(obj)} if dataclasses.is_dataclass(obj) else set()
    return hasattr(obj, last) or last in fields


def test_every_benchmark_trace_entry_point_resolves():
    # traced benchmark passes wrap each entry point and read these
    # attributes off the results: a deleted or renamed one fails them
    entries = _trace_entry_points()
    assert ("holobrace.brace", "verify_brace", "brace.verify") in entries
    read = [
        ("holobrace.brace", "BraceTable.size"),
        ("holobrace.regular", "SearchResult.r"),
        ("holobrace.regular", "SearchResult.c"),
        ("holobrace.endo", "AutGroup.order"),
        ("holobrace.kernel", "Pool.__len__"),
    ]
    names = [(module, attr) for module, attr, _ in entries] + read
    assert [name for name in names if not _resolves(*name)] == []


def _exports() -> dict[str, str]:
    """Each name `holobrace/__init__.py` imports, by the module it comes from."""
    tree = ast.parse((SRC / "__init__.py").read_text())
    return {
        alias.asname or alias.name: node.module
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }


def _readme_public_surface() -> list[tuple[str, str]]:
    """(name, module) for each name of README's "Public surface" list: the
    first run of `- `module`: `name`, ...` lines under that heading."""
    lines = (ROOT / "README.md").read_text().splitlines()
    i = lines.index("## Public surface") + 1
    while not lines[i].startswith("- "):
        i += 1
    listed = []
    while lines[i].startswith("- "):
        module, _, names = lines[i][2:].partition(": ")
        listed += [(name, module.strip("`")) for name in re.findall(r"`(\w+)`", names)]
        i += 1
    return listed


def test_readme_lists_the_public_surface():
    # a name added to or dropped from `holobrace/__init__.py` must be added
    # to or dropped from README's list, under the module it comes from
    listed = _readme_public_surface()
    exports = _exports()
    assert "census" in exports and "SearchResult" in exports
    assert len(listed) == len(dict(listed))
    assert dict(listed) == exports


# test oracles that no command runs, and what each was called in `src/`
MOVED_TO_TESTS = {
    "subgroup_oracles.py": {
        "classify_subgroup": "classify_subgroup",
        "classify_kernel": "_classify_kernel",
        "TauMap": "TauMap",
        "cyclic_halves": "_cyclic_halves",
        "semidirect_subgroup": "semidirect_subgroup",
        "tau_set": "tau_set",
        "to_kernel": "to_kernel",
        "from_kernel": "from_kernel",
        "kernel_invert": "HolKernel.invert",
        "hol_elements": "RegularSubgroup.hol_elements",
        "witnesses": "RegularSubgroup.witnesses",
        "hol_from_translation": "hol_from_translation",
        "hol_power": "hol_power",
        "pool_elements": "Pool.__iter__",
        "zero_endo": "zero_endo",
        "endo_from_json": "from_json",
    },
    "family_oracles.py": {
        "StructuredGeneratorPair": "StructuredGeneratorPair",
        "element_from_encoding": "_element_from_encoding",
        "in_cyclic": "_in_cyclic",
        "cyclic_normal_form_pairs": "_solve_cyclic",
        "rank2_alpha_loop_pairs": "_solve_rank2",
    },
    "test_brace.py": {
        "ybe_violation": "ybe_violation",
        "is_trivial": "BraceTable.is_trivial",
    },
}


def _defined(tree: ast.Module) -> set[str]:
    """The functions and classes a module defines at top level, and the
    methods of its top-level classes as `Class.method`."""
    out = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.add(node.name)
        if isinstance(node, ast.ClassDef):
            out.update(f"{node.name}.{m.name}" for m in node.body if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef)))
    return out


def test_oracles_no_command_runs_live_in_the_tests():
    # the census answer has one type, and code that only tests run stays
    # out of the package
    in_src = set().union(*(_defined(ast.parse(p.read_text())) for p in SRC.rglob("*.py")))
    gone = {
        "CensusResult",
        "_from_search",
        "_result",
        "HolKernel.from_parts",
        "HolKernel.to_parts",
        "PrimeSpace.hol_elements",  # folded into `pool_elements` with `Pool.__iter__`
        "is_exceptional",
        "HolKernel.aut_perm_tuple",
    }
    for module, names in MOVED_TO_TESTS.items():
        assert set(names) <= _defined(ast.parse((ROOT / "tests" / module).read_text())), module
        gone.update(names.values())
    assert sorted(in_src & gone) == []
    assert "SearchResult.from_orbits" in in_src and "SearchResult.h" in in_src


def test_ci_runs_the_roadmap_tier1_command():
    # the workflow's test step and ROADMAP's Tier-1 command must not drift apart
    tier1 = re.search(r"\*\*Tier-1 verify:\*\* `([^`]+)`", (ROOT / "ROADMAP.md").read_text()).group(1)
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    runs = [line.split("run:", 1)[1].strip() for line in workflow.splitlines() if line.strip().startswith("run:")]
    assert tier1 in runs
    # derandomized Hypothesis examples can change across releases, so the
    # versions the suite passes with are pinned
    assert "python-version: \"3.11\"" in workflow and "pytest==9.0.3 hypothesis==6.155.2" in workflow


def test_ci_checks_the_benchmark_outputs():
    # every push runs each benchmark workload briefly and fails unless every
    # output still matches `perfbench/fixtures/expected.json`
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    assert "python3 perfbench/run.py --seconds 1 |" in workflow
    assert '["correct"] is True' in workflow
