"""Static checks on the package source, with the standard library only."""

import ast
import importlib
from pathlib import Path

import pytest

import lepski

SRC = Path(lepski.__file__).resolve().parent
ROOT = Path(__file__).resolve().parents[1]
# __init__.py imports only to re-export the public API
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names a module imports but never reads, with their line numbers."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_checker_flags_an_unused_name():
    source = "import os\nimport numpy as np\nfrom .rates import a, b\nprint(np.pi, b)\n"
    assert unused_imports(source) == [(1, "os"), (3, "a")]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((SRC / module).read_text(encoding="utf-8")) == []


def calls_to(name: str) -> list:
    """The package's modules, __init__.py included, once per call they make to
    a function or method called name."""
    return [module for module in sorted(p.name for p in SRC.glob("*.py"))
            for node in ast.walk(ast.parse((SRC / module).read_text(encoding="utf-8")))
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == name]


def private_uses(source: str) -> list:
    """Private names (a leading underscore, not a dunder) of another module of
    the package that a module imports, or reads as attributes of a package
    module it imported (`from . import dgp` then `dgp._name`), with their line
    numbers."""
    tree = ast.parse(source)
    relative = [node for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level > 0]
    modules = {alias.asname or alias.name for node in relative if node.module is None
               for alias in node.names}
    imported = [(node.lineno, alias.name) for node in relative for alias in node.names]
    read = [(node.lineno, f"{node.value.id}.{node.attr}") for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules]
    return sorted((line, name) for line, name in imported + read
                  if name.rpartition(".")[2].startswith("_")
                  and not name.rpartition(".")[2].startswith("__"))


def test_checker_flags_a_private_import():
    source = "from .model_core import a, _b\nfrom numpy import _c\nimport _d\n"
    assert private_uses(source) == [(1, "_b")]


def test_checker_flags_a_private_module_attribute():
    source = ("import numpy as np\nfrom . import dgp, stability as stab\n"
              "from .rates import psi\n"
              "dgp._rng(0)\nstab.check_a\nnp._x\npsi._y\nstab.__name__\n"
              "x = stab._check_lambda\n")
    assert private_uses(source) == [(4, "dgp._rng"), (9, "stab._check_lambda")]


def test_no_private_cross_module_import():
    # a module's private helpers are its own: others reach them through its API
    found = {p.name: private_uses(p.read_text(encoding="utf-8")) for p in SRC.glob("*.py")}
    assert {name: names for name, names in found.items() if names} == {}


def test_one_process_pool():
    # every worker pool of the package is the one that stability.pool_map opens
    assert calls_to("ProcessPoolExecutor") == ["stability.py"]


def test_one_writer():
    # files are opened where the documents are read and the rows written
    assert set(calls_to("open")) == {"campaign.py"}


def test_one_number_rule():
    # what counts as a number is decided once: errors.py alone reads `numbers`
    # and defines the three checks that every document number goes through
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in SRC.glob("*.py")}
    nodes = [(module, node) for module, tree in sorted(trees.items()) for node in ast.walk(tree)]
    importers = {module for module, node in nodes
                 if isinstance(node, ast.ImportFrom) and node.module == "numbers"
                 or isinstance(node, ast.Import) and "numbers" in [a.name for a in node.names]}
    checks = [(module, node.name) for module, node in nodes if isinstance(node, ast.FunctionDef)
              and node.name in ("check_finite", "check_positive", "check_count")]
    assert importers == {"errors.py"}
    assert checks == [("errors.py", "check_finite"), ("errors.py", "check_positive"),
                      ("errors.py", "check_count")]


def test_one_shell_reader():
    # the view's shell codes are read in model_core alone, by GridStats.ball_sums;
    # the grid searches go through last_feasible_index, not a method of the view
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in SRC.glob("*.py")}
    readers = {module for module, tree in trees.items() for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and node.attr == "bins"
               and isinstance(node.ctx, ast.Load)}
    (grid_stats,) = [node for node in ast.walk(trees["model_core.py"])
                     if isinstance(node, ast.ClassDef) and node.name == "GridStats"]
    assert readers == {"model_core.py"}
    assert "last_feasible" not in {node.name for node in grid_stats.body
                                   if isinstance(node, ast.FunctionDef)}


def test_one_weight_rule():
    # sigma is raised to a power in model_core alone, where the sample forms its
    # weights sigma^-2 once: no module rebuilds L from sigma beside the view
    raisers = [p.name for p in sorted(SRC.glob("*.py"))
               for node in ast.walk(ast.parse(p.read_text(encoding="utf-8")))
               if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
               and "sigma" in (getattr(node.left, "id", None), getattr(node.left, "attr", None))]
    assert raisers == ["model_core.py"]


def test_one_occupation_rule():
    # E L(h) is formed where the process kinds live: dgp alone reads a design
    # law's interval probability, and rates takes a kind's map, not its design
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in SRC.glob("*.py")}
    readers = {module for module, tree in trees.items() for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and node.attr == "interval_prob"
               and isinstance(node.ctx, ast.Load)}
    from_dgp = [node.lineno for node in ast.walk(trees["rates.py"])
                if isinstance(node, ast.ImportFrom) and node.level > 0
                and (node.module == "dgp" or "dgp" in [alias.name for alias in node.names])]
    assert readers == {"dgp.py"}
    assert from_dgp == []


def test_one_view_builder():
    # GridStats is constructed by one builder, behind the slot that grid_statistics
    # keeps on the sample, so no second path builds an uncached view
    tree = ast.parse((SRC / "model_core.py").read_text(encoding="utf-8"))
    builders = [fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
                for node in ast.walk(fn) if isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "GridStats"]
    assert calls_to("GridStats") == ["model_core.py"]
    assert builders == ["_build_view"]


def test_one_sample_length():
    # a budget rung is a FixedN counted at load, so FixedN is the one stopping
    # class of dgp, every stopping field holds one, and no covariate path steps
    # one observation at a time: the one loop is the autoregressive recursion,
    # whose noise drives its covariates
    tree = ast.parse((SRC / "dgp.py").read_text(encoding="utf-8"))
    classes = [node for node in tree.body if isinstance(node, ast.ClassDef)]
    kinds = set()
    for cls in classes:  # a process kind samples, or derives from a kind that does
        if {node.name for node in cls.body if isinstance(node, ast.FunctionDef)} & {
                "sample", "covariates"} or {getattr(b, "id", None) for b in cls.bases} & kinds:
            kinds.add(cls.name)
    fields = {ast.unparse(node.annotation) for node in ast.walk(tree)
              if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", "") == "stopping"}
    loops = [(cls.name, fn.name) for cls in classes for fn in cls.body
             if isinstance(fn, ast.FunctionDef) and fn.name in ("sample", "covariates")
             for node in ast.walk(fn) if isinstance(node, (ast.For, ast.While, ast.comprehension))]
    assert [cls.name for cls in classes if cls.name not in kinds] == ["DesignLaw", "FixedN",
                                                                      "AffineAbsScale"]
    assert fields == {"FixedN"}
    assert loops == [("Autoregressive", "sample")]
    assert not [node for node in ast.walk(tree) if isinstance(node, ast.While)]


def environment_reads(source: str) -> list:
    """Line numbers where a module names `environ` or `getenv`, as an attribute
    (`os.environ`), a bare name or an import."""
    names = {"environ", "getenv"}
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and node.attr in names
                  or isinstance(node, ast.Name) and node.id in names
                  or isinstance(node, ast.ImportFrom) and names & {a.name for a in node.names})


def test_checker_flags_an_environment_read():
    source = ("import os\nfrom os import getenv\nx = os.environ.get('A')\n"
              "y = getenv('B')\nz = os.path.sep\n")
    assert environment_reads(source) == [2, 3, 4]


def test_no_module_reads_the_environment():
    # click reads LEPSKI_SEED and LEPSKI_JOBS for the options that name them
    found = {p.name: environment_reads(p.read_text(encoding="utf-8")) for p in SRC.glob("*.py")}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_no_sort_of_the_sample():
    # grid statistics and H_w index distances by grid shell, so nothing argsorts
    assert calls_to("argsort") == []


def names_read(tree, outside=()) -> set:
    """Names a tree reads, bare or as an attribute, outside annotations (with
    postponed evaluation an annotation is never read at run time) and outside
    the subtrees `outside`."""
    notes = [node.annotation for node in ast.walk(tree)
             if isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation]
    notes += [node.returns for node in ast.walk(tree)
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns]
    skip = {id(sub) for note in notes + list(outside) for sub in ast.walk(note)}
    return {node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
            and id(node) not in skip}


def reached(modules: list, users: list) -> set:
    """Names read by the users' trees, or by module code that runs when it is
    reached: import-time statements, decorated (registered) functions and
    dunder methods always, any other function or method once its name is read."""
    live = set().union(*(names_read(tree) for tree in users))
    callees = []
    for tree in modules:
        defs = [node for node in tree.body
                if isinstance(node, ast.FunctionDef) and not node.decorator_list]
        defs += [node for cls in tree.body if isinstance(cls, ast.ClassDef)
                 for node in cls.body
                 if isinstance(node, ast.FunctionDef) and not node.name.startswith("__")]
        callees += [(node.name, names_read(node)) for node in defs]
        live |= names_read(tree, defs)
    while new := set().union(*(reads for name, reads in callees if name in live)) - live:
        live |= new
    return live


def test_checker_reads_names_outside_annotations():
    source = "from m import a\nb = c.d\ne(f)\ndef g(h: i) -> j:\n    k: l = 1\n"
    assert names_read(ast.parse(source)) == {"c", "d", "e", "f"}


def test_checker_follows_reads_from_the_users():
    module = ast.parse("def a(): b()\ndef b(): pass\ndef c(): d()\ndef d(): pass\n"
                       "@e\ndef f(): g()\ndef g(): pass\n"
                       "class K:\n    def __init__(self): m()\n    def n(self): o()\n"
                       "def m(): pass\ndef o(): pass\n")
    assert reached([module], [ast.parse("a()")]) == {"a", "b", "e", "g", "m"}


def test_claims_run_the_commands():
    # the stability and rate claims (A1-A3, A5-A8) read what the commands
    # compute, not a second, hand-built copy of a matrix, a cell, the
    # containment band or the rate fit
    tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))
    assert names_read(tree) & {"rate_report", "deterministic_hw", "oracle_bandwidth",
                               "grid_statistics", "tail_table", "fit_loglog_slope",
                               "stability_matrix"} == set()


def test_every_export_is_used():
    # the package exports what its commands, the claims (A1-A10) and the
    # benchmark reach; a name only its own unit tests reach belongs in the tests
    init = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    exported = {alias.asname or alias.name for node in init.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    users = [ROOT / "tests" / "test_acceptance.py"] + sorted((ROOT / "perfbench").glob("*.py"))
    live = reached([ast.parse((SRC / m).read_text(encoding="utf-8")) for m in MODULES],
                   [ast.parse(p.read_text(encoding="utf-8")) for p in users])
    assert sorted(exported - live) == []


PERFBENCH = ROOT / "perfbench"
# names the benchmark reads as attributes of a package module: the tracer
# wraps make_noise, child.py calls load_campaign, the selftest checks that
# the tracer rebound stability's grid_statistics
PERFBENCH_ATTRIBUTES = {("lepski.campaign", "make_noise"), ("lepski.campaign", "load_campaign"),
                        ("lepski.stability", "grid_statistics")}


def benchmark_names() -> set:
    """(module, name) pairs the benchmark reads from the package, by reading
    its source: the SPANS of tracer.py, and what checks.py and child.py import."""
    tracer = ast.parse((PERFBENCH / "tracer.py").read_text(encoding="utf-8"))
    (spans,) = [ast.literal_eval(node.value) for node in tracer.body
                if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", "") == "SPANS"]
    names = {(f"lepski.{module}", name) for module, name in spans}
    for script in ("checks.py", "child.py"):
        for node in ast.walk(ast.parse((PERFBENCH / script).read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "lepski":
                names |= {(node.module, alias.name) for alias in node.names}
            elif isinstance(node, ast.Import):
                names |= {tuple(alias.name.rsplit(".", 1)) for alias in node.names
                          if alias.name.startswith("lepski.")}
    return names


def test_the_names_the_benchmark_reads_exist():
    # a renamed span or import passes every other test and fails only the benchmark
    names = benchmark_names()
    assert {("lepski.rates", "oracle_bandwidth"), ("lepski", "brute_force_select"),
            ("lepski", "cli")} <= names
    for module in MODULES:  # a submodule is an attribute of the package once imported
        importlib.import_module(f"lepski.{module.removesuffix('.py')}")
    missing = [f"{m}.{n}" for m, n in names | PERFBENCH_ATTRIBUTES
               if not hasattr(importlib.import_module(m), n)]
    assert sorted(missing) == []
