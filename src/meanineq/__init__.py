"""Weighted power-mean inequalities: evaluation, sharp thresholds, search.

The library evaluates weighted power means and the three-mean difference
ratio, checks a catalog of named mean inequalities with scale-free
residuals, solves the sharp parameter thresholds behind them by bracketed
root-finding and 1-D minimization, sweeps the scalar certificate
functions of the underlying proofs over their claimed domains, and
searches configuration space to confirm sharpness and locate
counterexamples beyond the proven validity frontiers.

Each exported name is declared once, in the ``__all__`` of the module that
defines it (``errors``, ``means``, ``inequalities``, ``thresholds``) or in
``_LAZY_NAMES`` (``proof_aux``, ``search``); the package's ``__all__`` joins them.

``import meanineq`` runs ``errors`` and ``thresholds`` only, and neither
imports numpy.  The other four submodules load on first use: the package
registers each in ``sys.modules`` and binds it as a package attribute, but
its body runs only when one of its attributes is first read.  They differ
in how the package gives out their names:

* ``means`` and ``inequalities`` (numpy and the catalog) are *bound on
  first use*: when one of their bodies runs, the names of its ``__all__``
  are bound in the package namespace, so ``meanineq.check`` and
  ``meanineq.Configuration`` are plain attribute reads from then on.  A
  package attribute not bound yet (``__all__`` included) is served by
  ``__getattr__``, which first runs both bodies.
* ``proof_aux`` (the certificate sweeps) and ``search`` (the sharpness
  probe and the counterexample hunts) are *forwarded*: ``__getattr__``
  reads each of their names from the submodule on every access, as
  ``meanineq.aux_sign_check`` or ``meanineq.counterexample_hunt``.

A CLI command then runs only what it uses: ``threshold`` and the
alpha-threshold ``sweep`` import no numpy, ``mean`` runs ``means`` alone,
and only ``hunt`` and ``sharpness`` run ``search``.  The submodules are
registered, not imported on demand, so that code which looks them up in
``sys.modules`` right after ``import meanineq``, such as a tracer that
wraps their functions, finds them.  Until a body has run, the module's
type is a subclass of ``types.ModuleType``; the first read runs it under a
lock, so a second thread waits for it instead of reading a half-run module.
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
                    if self in (means, inequalities):  # bound on first use
                        namespace = types.ModuleType.__getattribute__(self, "__dict__")
                        globals().update((name, namespace[name]) for name in namespace["__all__"])
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

# The names re-exported from the forwarded submodules.  They are read from
# the submodule on every access and never cached here, so whatever the
# submodule binds at that moment (a test's or a tracer's stand-in, say)
# is what the package gives out.
_LAZY_NAMES = {
    **dict.fromkeys(("AuxFunctionId", "GridAxis", "SignCheckReport", "aux_eval",
                     "aux_sign_check", "claimed_bound"), proof_aux),
    **dict.fromkeys(("ProbeClaim", "SearchBudget", "SearchReport", "counterexample_hunt",
                     "finite_difference_probe", "sharpness_probe"), search),
}


def __getattr__(name: str):
    module = _LAZY_NAMES.get(name)
    if module is not None:
        return getattr(module, name)
    # Not bound yet: reading the two __all__ runs means and inequalities,
    # whose bodies bind their names here.
    namespace = globals()
    namespace.setdefault("__all__", [*errors.__all__, *means.__all__, *inequalities.__all__,
                                     *thresholds.__all__, *_LAZY_NAMES])
    if name not in namespace:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return namespace[name]


def __dir__() -> list[str]:
    __getattr__("__all__")  # runs means and inequalities, which bind their names
    return sorted({*globals(), *_LAZY_NAMES})
