"""killingcalc: exact verification of Killing-operator prolongation complexes.

Everything is computed over the rationals with no floating point and no
numerical tolerances.  The package realizes symmetry-constrained tensor
spaces explicitly, prolongs the (higher) Killing operator on flat space
into a connection on a finite-rank bundle, builds the associated flat
cochain complexes, and cross-checks their cohomology against hook
content dimensions and against the matching Lie algebra cohomology of a
graded special linear algebra.  A polynomial field layer carries the
operators themselves: symmetrized gradients, their kernels, the range
obstruction with its potential solver, and the exact curvature of flat,
stereographic, and sampled metrics.
"""

from importlib import import_module

__version__ = "0.1.0"

# Public names resolve on first access (PEP 562), so importing the package
# or one of its modules loads only what the caller uses.
_SOURCES = {
    "ChainComplex": "chain",
    "cohomology_dims": "chain",
    "MetricField": "metric",
    "PolyTensorField": "poly",
    "killing_kernel": "killing",
    "killing_operator": "killing",
    "branching_check": "kostant",
    "lie_algebra_cohomology": "kostant",
    "ExactMatrix": "matrix",
    "integrability_operator": "potential",
    "killing_potential_solve": "potential",
    "complex_cohomology": "prolong",
    "graded_diagonal_complex": "prolong",
    "key_isomorphism_check": "prolong",
    "Fraction": "poly",
    "tractor_curvature": "tractor",
    "YoungDiagram": "young",
    "gl_dimension": "young",
    "realize_irreducible": "young",
}

__all__ = [*sorted(_SOURCES), "__version__"]


def __getattr__(name: str):
    module = _SOURCES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_SOURCES))
