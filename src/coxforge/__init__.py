"""Exact Cox ring computations for du Val (ADE) surface singularity resolutions.

The package builds resolution dual graphs, computes their multigraded
invariant rings by exact Hilbert-basis methods, assembles candidate Cox ring
presentations, and audits the divisor-reduction equivalences step by step
with exact cokernel dimensions.

Every library module but ``errors`` loads lazily: ``linalg``,
``diophantine``, ``rings``, ``graphs``, ``invariants``, ``cox``,
``reduction`` and ``sections`` are put in ``sys.modules`` and on the
package here, through ``importlib.util.LazyLoader``, and each body runs
on the module's first attribute access. A process without bytecode
caches (a fresh checkout, or ``PYTHONDONTWRITEBYTECODE``) compiles every
module it runs, and for a short command that was most of what it spent
past interpreter start-up; now ``coxforge graph`` runs only ``cli``,
``errors``, ``graphs`` and ``rings``, and only ``verify`` and ``report``
run ``sections``, which holds the sweep, the base case and the section
assembly that a ``reduce`` command never runs. ``cli`` keeps to the
same rule for the standard library: it reads the command line from a
table of its own, not with ``argparse``, and imports ``json`` only to
read or write JSON. The package ships no
data file: the E6-E8 reference tables are the literals of ``_golden_e``,
which is not registered and which ``invariants`` imports on an E graph
only. The public names of ``__all__`` but the eagerly imported ones
resolve through the module ``__getattr__`` below.

``cli`` is not registered, so that ``python -m coxforge.cli`` runs its body
once, as ``__main__``. Since every other module is in ``sys.modules`` once
``coxforge.cli`` is imported, a caller that walks them (the benchmark's
``Tracer.install`` does) still finds each one; reading a module's attribute
or its ``vars()`` runs its body.

Two consequences: an error in a module body surfaces at the module's first
use, not at ``import coxforge``; and a lazy module is not safe against two
threads using it first at once, which a single-threaded package never does.
"""

import importlib.util
import sys

__version__ = "0.1.0"

# the defaults of the step cap, the grid and its seed, which ``cli``,
# ``reduction`` and ``sections`` import from here: every command runs
# this module, and only some run reduction or sections
DEFAULT_STEP_CAP = 10000
DEFAULT_GRID = 2000
DEFAULT_SEED = 20240

from .errors import (
    CoxforgeError,
    HypothesisViolationError,
    ParameterError,
    UnsupportedGraphError,
)


def _lazy(name):
    """Register ``coxforge.<name>`` so that its body runs on first use."""
    spec = importlib.util.find_spec(__name__ + "." + name)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    loader.exec_module(module)
    return module


linalg = _lazy("linalg")
diophantine = _lazy("diophantine")
rings = _lazy("rings")
graphs = _lazy("graphs")
invariants = _lazy("invariants")
cox = _lazy("cox")
reduction = _lazy("reduction")
sections = _lazy("sections")

# public name -> the module that defines it
_EXPORTS = {
    "ResolutionGraph": graphs,
    "audit_add_curve": sections,
    "build_custom_tree": graphs,
    "build_singularity": graphs,
    "full_equivalence_audit": sections,
    "presentation_from_graph": cox,
    "reduce_nef_to_basic": reduction,
    "reduce_to_nef": reduction,
    "solve_degree_system": rings,
    "verify_invariant_table": invariants,
    "verify_presentation": cox,
}


def __getattr__(name):
    if name in _EXPORTS:
        return getattr(_EXPORTS[name], name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


# the eagerly imported names and the lazy exports
__all__ = sorted([
    "CoxforgeError",
    "HypothesisViolationError",
    "ParameterError",
    "UnsupportedGraphError",
    "__version__",
    *_EXPORTS,
])
