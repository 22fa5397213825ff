"""The package namespace: every name in ``__all__`` and the lazily loaded submodules."""

import ast
import collections
import re
import sys
from pathlib import Path

import pytest

import meanineq

from conftest import run_fresh

# How the package gives out each module's names: star-imported by ``import
# meanineq`` from the module's __all__; or, for a lazily loaded module, listed
# in _LAZY_NAMES and bound in the package when the module's body runs.
IMPORTED = ("errors", "thresholds")
LAZY = ("means", "inequalities", "proof_aux", "search")
# The public names a module offers that the package does not re-export: the batch forms.
MODULE_ONLY = {
    "means": ("ConfigurationBatch",),
    "inequalities": ("resolve_params", "relative_residuals"),
}


def exported(module_name: str) -> list[str]:
    """The names the package re-exports from a module, without running its body."""
    module = getattr(meanineq, module_name)
    if module_name in IMPORTED:
        return list(module.__all__)
    return [name for name, owner in meanineq._LAZY_NAMES.items() if owner is module]


def defining_module(value):
    """The meanineq module that defines ``value``; the plain float constants live in means."""
    name = getattr(value, "__module__", "")
    return sys.modules[name] if name.startswith("meanineq.") else meanineq.means


@pytest.mark.parametrize("name", meanineq.__all__)
def test_public_name_resolves_to_its_definition(name):
    value = getattr(meanineq, name)
    star: dict = {}
    exec("from meanineq import *", star)
    assert star[name] is value
    assert getattr(defining_module(value), name) is value
    assert name in dir(meanineq)


def test_unknown_attribute_is_the_standard_error():
    with pytest.raises(AttributeError) as info:
        meanineq.no_such_name
    assert str(info.value) == "module 'meanineq' has no attribute 'no_such_name'"
    assert not hasattr(meanineq, "no_such_name")


def test_unknown_names_run_no_body():
    # importlib probes hasattr(meanineq, "cli") before it imports the
    # submodule; none of these reads may run numpy or a lazily loaded body
    script = (
        "import sys, types\n"
        "def executed(name):  # a registered module whose body has not run reads False\n"
        "    return type(sys.modules.get(name)) is types.ModuleType\n"
        "watched = ('numpy', 'meanineq.means', 'meanineq.inequalities',\n"
        "           'meanineq.proof_aux', 'meanineq.search')\n"
        "import meanineq\n"
        "from meanineq import cli\n"
        "print(cli.__name__, [name for name in watched if executed(name)])\n"
        "print(hasattr(meanineq, 'nope'), [name for name in watched if executed(name)])\n"
        "print(len(dir(meanineq)) > len(meanineq.__all__),\n"
        "      [name for name in watched if executed(name)])\n"
        "meanineq.Configuration\n"
        "print([name for name in watched if executed(name)])\n"
    )
    proc = run_fresh(["-c", script], timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "meanineq.cli []",
        "False []",
        "True []",
        "['numpy', 'meanineq.means']",
    ]


@pytest.mark.parametrize("module_name, statement", [
    ("means", "from meanineq.means import Configuration"),
    ("inequalities", "from meanineq.inequalities import check"),
    ("proof_aux", "from meanineq.proof_aux import aux_sign_check"),
    ("search", "from meanineq.search import SearchBudget"),
])
def test_a_body_run_binds_its_table_names(module_name, statement):
    # a body run from outside the package binds every name of the module's
    # table as a plain package attribute, the module's own object
    script = (
        "import sys\n"
        "import meanineq\n"
        f"module = sys.modules['meanineq.{module_name}']\n"
        "names = [name for name, owner in meanineq._LAZY_NAMES.items() if owner is module]\n"
        "print(len(names), [name for name in names if name in vars(meanineq)])\n"
        f"{statement}\n"
        "print([name for name in names if vars(meanineq).get(name) is not vars(module)[name]])\n"
    )
    proc = run_fresh(["-c", script], timeout=60)
    assert proc.returncode == 0, proc.stderr
    count = sum(owner is getattr(meanineq, module_name) for owner in meanineq._LAZY_NAMES.values())
    assert proc.stdout.splitlines() == [f"{count} []", "[]"]


def test_bare_import_runs_neither_means_nor_numpy():
    script = (
        "import sys, types\n"
        "def executed(name):  # a registered module whose body has not run reads False\n"
        "    return type(sys.modules.get(name)) is types.ModuleType\n"
        "import meanineq\n"
        "watched = ('numpy', 'meanineq.means', 'meanineq.inequalities')\n"
        "print([name for name in watched if executed(name)], 'check' in vars(meanineq))\n"
        "from meanineq.means import Configuration\n"
        "print([name for name in watched if executed(name)], 'Configuration' in vars(meanineq))\n"
        "print(meanineq.check.__module__, 'check' in vars(meanineq))\n"
    )
    proc = run_fresh(["-c", script], timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "[] False",
        # a body run from outside the package binds its names all the same
        "['numpy', 'meanineq.means'] True",
        "meanineq.inequalities True",
    ]


def test_a_second_thread_waits_for_the_first_use():
    # the first read of search runs its body, slowed down here; a read from
    # another thread meanwhile must wait for the whole body
    script = (
        "import sys, threading, time\n"
        "import meanineq\n"
        "loader = object.__getattribute__(sys.modules['meanineq.search'], '__spec__').loader\n"
        "run_body, started = loader.exec_module, threading.Event()\n"
        "def slow_body(module):\n"
        "    started.set()\n"
        "    time.sleep(0.2)\n"
        "    run_body(module)\n"
        "loader.exec_module = slow_body\n"
        "out = []\n"
        "def read(who, get):\n"
        "    try:\n"
        "        out.append((who, get().__name__))\n"
        "    except AttributeError as exc:\n"
        "        out.append((who, str(exc)))\n"
        "def second():  # the package binds the names before the first read returns\n"
        "    started.wait(10)\n"
        "    read('second', lambda: meanineq.SearchBudget)\n"
        "    read('second', lambda: meanineq.search.SearchBudget)\n"
        "    out.append(('second', str('SearchBudget' in vars(meanineq))))\n"
        "threads = [threading.Thread(target=second),\n"
        "           threading.Thread(target=read,\n"
        "                            args=('first', lambda: meanineq.search.SearchBudget))]\n"
        "for t in threads:\n"
        "    t.start()\n"
        "for t in threads:\n"
        "    t.join(10)\n"
        "print(sorted(out))\n"
    )
    proc = run_fresh(["-c", script], timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ("[('first', 'SearchBudget'), ('second', 'SearchBudget'), "
                           "('second', 'SearchBudget'), ('second', 'True')]\n")


class TestDeclarations:
    """Each public name is declared once, where it is defined, and none goes undeclared."""

    @pytest.mark.parametrize("module_name", IMPORTED + LAZY)
    def test_all_names_are_defined_in_their_module(self, module_name):
        module = getattr(meanineq, module_name)
        for name in exported(module_name):
            assert name in vars(module), name
            assert getattr(vars(module)[name], "__module__", module.__name__) == module.__name__

    def test_no_name_is_declared_twice(self):
        declared = [name for module_name in (*IMPORTED, *LAZY)
                    for name in exported(module_name)]
        assert [n for n, k in collections.Counter(declared).items() if k > 1] == []
        assert sorted(meanineq.__all__) == sorted(declared)

    @pytest.mark.parametrize("module_name", IMPORTED + LAZY)
    def test_public_classes_and_functions_are_declared(self, module_name):
        module = sys.modules[f"meanineq.{module_name}"]
        public = {name for name, value in vars(module).items()
                  if not name.startswith("_") and callable(value)
                  and getattr(value, "__module__", None) == module.__name__}
        assert public - set(exported(module_name)) == set(MODULE_ONLY.get(module_name, ()))


def test_readme_module_table():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = {}
    for line in readme.splitlines():
        match = re.fullmatch(r"\| `meanineq\.(\w+)` \|(.*)\|(.*)\|", line)
        if match and match[1] != "cli":
            cells = match.group(2, 3)
            rows[match[1]] = tuple(sorted(re.findall(r"`(\w+)`", cell)) for cell in cells)
    assert rows == {module_name: (sorted(exported(module_name)),
                                  sorted(MODULE_ONLY.get(module_name, ())))
                    for module_name in IMPORTED + LAZY}



def test_pyproject_declares_the_packages_version():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    assert tomllib.loads(pyproject.read_text())["project"]["version"] == meanineq.__version__

def test_every_private_module_name_is_used():
    # A helper left behind by a refactor is dead code: every private function,
    # method, class and constant of the package, at module level or in a class
    # body, is referenced in it somewhere besides its definition (a use, not an
    # import alone).
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(Path(meanineq.__file__).parent.glob("*.py"))}
    defined = []
    for module, tree in trees.items():
        bodies = [tree.body, *(node.body for node in ast.walk(tree)
                               if isinstance(node, ast.ClassDef))]
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)) and any(
                    node in body for body in bodies):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            defined += [(module, name) for name in names
                        if name.startswith("_") and not name.startswith("__")]
    used = collections.Counter()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used[node.id] += 1
            elif isinstance(node, ast.Attribute):
                used[node.attr] += 1
    assert [f"{module}: {name}" for module, name in defined if not used[name]] == []


def test_only_errors_knows_what_a_number_is():
    # The argument rule lives in meanineq.errors alone: no other module
    # imports ``numbers`` to test a value's type on its own.
    importers = []
    for path in sorted(Path(meanineq.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) else [])
            if "numbers" in names:
                importers.append(path.name)
    assert importers == ["errors.py"]
