"""Weighted power-mean inequalities: evaluation, sharp thresholds, search.

The library evaluates weighted power means and the three-mean difference
ratio, checks a catalog of named mean inequalities with residuals
relative to max(|lhs|, |rhs|, 1) (so a verdict can depend on the unit of
x: ROADMAP direction 13), solves the sharp parameter thresholds behind
them by bracketed root-finding and 1-D minimization, sweeps the scalar
certificate functions of the underlying proofs over their claimed
domains, and searches configuration space to confirm sharpness and
locate counterexamples beyond the proven validity frontiers.

Each exported name is declared once: in the ``__all__`` of ``errors`` and
``thresholds``, which ``import meanineq`` star-imports, or in the package's
``_LAZY_NAMES`` for the other four submodules; the package's ``__all__``
joins them.

``import meanineq`` runs ``errors`` and ``thresholds`` only, and neither
imports numpy.  The other four submodules (``means``, ``inequalities``,
``proof_aux`` and ``search``) load on first use: the package registers each
in ``sys.modules`` and binds it as a package attribute, but its body runs
only when one of its attributes is first read.  When a body runs, from
wherever it is read, the module's names in ``_LAZY_NAMES`` are bound in the
package namespace, so ``meanineq.check`` and ``meanineq.SearchBudget`` are
plain attribute reads from then on.  Before that, ``__getattr__`` serves a
name of the table by reading it from its module, which runs that body
alone; any other name is an ``AttributeError`` at once, so ``hasattr``,
``dir(meanineq)`` and ``from meanineq import cli`` run no body.

A CLI command then runs only what it uses: ``threshold`` and the
alpha-threshold ``sweep`` import no numpy, ``mean`` runs ``means`` alone,
and only ``hunt`` and ``sharpness`` run ``search``.  The submodules are
registered, not imported on demand, so that code which looks them up in
``sys.modules`` right after ``import meanineq``, such as a tracer that
wraps their functions, finds them.  The names a body binds in the package
when it runs are what a tracer built afterwards patches there, so binding
them on first read would hide them from it.  Until a body has run, the
module's type is a subclass of ``types.ModuleType``; the first read runs it
under a lock, so a second thread waits instead of reading a half-run module.
"""

import importlib.util
import sys
import threading
import types

from . import errors, thresholds
from .errors import *
from .thresholds import *

__version__ = "0.1.0"


# Held while a lazily registered submodule's body runs.  Reentrant: reads
# of the module by the body's own thread pass through while it runs.
_LOAD_LOCK = threading.RLock()
_running: set[int] = set()  # ids of the modules whose body is running


class _Unloaded(types.ModuleType):
    """A registered submodule whose body has not run; the first attribute read runs it.

    ``importlib.util.LazyLoader`` does the same, but in Python 3.11 without
    a lock: a second thread can read the module while its body runs and
    miss the names it has not defined yet.
    """

    def __getattribute__(self, attr):
        with _LOAD_LOCK:
            if type(self) is _Unloaded and id(self) not in _running:
                _running.add(id(self))
                try:
                    types.ModuleType.__getattribute__(self, "__spec__").loader.exec_module(self)
                    namespace = types.ModuleType.__getattribute__(self, "__dict__")
                    globals().update((name, namespace[name])
                                     for name, module in _LAZY_NAMES.items() if module is self)
                finally:
                    _running.discard(id(self))
                self.__class__ = types.ModuleType
        return types.ModuleType.__getattribute__(self, attr)


def _register_lazily(name: str) -> types.ModuleType:
    """Submodule ``name``, registered and bound now, run on its first attribute read."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    module = importlib.util.module_from_spec(spec)
    module.__class__ = _Unloaded
    sys.modules[spec.name] = module
    return module


means = _register_lazily("means")
inequalities = _register_lazily("inequalities")
proof_aux = _register_lazily("proof_aux")
search = _register_lazily("search")

# The names each lazily loaded submodule exports, bound here when its body runs.
_LAZY_NAMES = {
    **dict.fromkeys(("DEFAULT_ABS_FLOOR", "DEFAULT_REL_TOL", "Configuration", "DeltaParams",
                     "MeanValue", "c_constant", "delta", "log_power_mean", "mean_value",
                     "order_triple", "power_mean", "variance_sigma"), means),
    **dict.fromkeys(("CheckReport", "CheckStatus", "InequalityId", "check",
                     "equality_witness"), inequalities),
    **dict.fromkeys(("AuxFunctionId", "GridAxis", "SignCheckReport", "aux_eval",
                     "aux_sign_check", "claimed_bound"), proof_aux),
    **dict.fromkeys(("ProbeClaim", "SearchBudget", "SearchReport", "counterexample_hunt",
                     "finite_difference_probe", "sharpness_probe"), search),
}

__all__ = [*errors.__all__,
           *[name for name, module in _LAZY_NAMES.items() if module in (means, inequalities)],
           *thresholds.__all__,
           *[name for name, module in _LAZY_NAMES.items() if module in (proof_aux, search)]]


def __getattr__(name: str):
    if name not in _LAZY_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_LAZY_NAMES[name], name)  # runs the body, which binds the name here


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
