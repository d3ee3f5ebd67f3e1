"""Hypergraph Lagrangians: solvers, compression, named families,
freeness checks, symmetrization, and desk-scale verification suites.

Every public name is importable from the package (``from hlag import
maximize``); its submodule loads on first access, so a process pays only
for the modules it uses (numpy loads with ``hlag.solver``).
"""

import os

# Every BLAS call here is a tiny Newton system (at most about 30 unknowns),
# too small for a second thread, yet OpenBLAS starts a spinning worker pool
# when numpy loads.  Pin it to one thread before any submodule imports numpy.
# A value already in the environment wins; if numpy was imported before hlag,
# its pool already exists and this changes nothing.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import importlib
import sys
import types


def _lazy(namespace, table):
    """A PEP 562 module ``__getattr__`` for the module whose globals are
    ``namespace``: a name in ``table`` (name -> submodule of hlag) is
    imported on first access and then stays bound in ``namespace``."""

    def __getattr__(name):
        try:
            submodule = table[name]
        except KeyError:
            raise AttributeError(
                f"module {namespace['__name__']!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(f"{__name__}.{submodule}"), name)
        namespace[name] = value
        return value

    return __getattr__


def _bind(module_name, *names):
    """Bind each of ``names`` on the module, loading it if it is not bound
    yet.  The module's functions read these names as globals, so they call
    whatever object is bound there, a wrapper or a patch included."""
    module = sys.modules[module_name]
    for name in names:
        getattr(module, name)


_EXPORTS = {
    name: submodule
    for submodule, names in (
        ("compression", (
            "CompressionStep", "CompressionTrace", "compress_pair",
            "dense_and_compress", "potential",
        )),
        ("core", (
            "Hypergraph", "blowup", "covers_pairs", "degree", "equivalent",
            "induced", "is_left_compressed", "link", "link_diff", "min_degree",
            "same_links", "uncovered_pairs",
        )),
        ("errors", (
            "HgParseError", "HlagError", "NotFreeError", "UnsupportedSizeError",
        )),
        ("families", (
            "FamilySpec", "case_family", "complete", "complete_lambda",
            "extension", "k53minus2", "matching", "split", "split_part_size",
            "star", "star_lambda",
        )),
        ("freeness", (
            "FreenessReport", "SearchResult", "enumerate_left_compressed_free",
            "extremal_lambda_search", "hom_search", "is_core_free",
            "is_matching_free", "matching_number",
        )),
        ("hgio", (
            "emit_hg", "emit_json", "load_graph", "parse_graph", "parse_hg",
            "parse_json",
        )),
        ("partition", (
            "MinSigmaResult", "PartitionScore", "classify_edges",
            "min_sigma_partition", "sigma_score",
        )),
        ("solver", (
            "KktReport", "LagrangianResult", "SolverConfig", "evaluate",
            "gradient", "kkt_report", "kkt_residual", "maximize",
            "uncovered_reduce",
        )),
        ("symmetrize", (
            "AuditCheck", "AuditReport", "PointedHypergraph", "SymStep",
            "SymTrace", "audit", "clean", "initial_pointed", "merge",
            "symmetrize",
        )),
        ("verify", (
            "TheoremRow", "TheoremSummary", "VerificationRow", "golden_max",
            "verify_cases", "verify_theorem",
        )),
    )
    for name in names
}

__version__ = "0.1.0"

__all__ = list(_EXPORTS)

__getattr__ = _lazy(globals(), _EXPORTS)


class _Package(types.ModuleType):
    def __setattr__(self, name, value):
        # Importing the submodule hlag.symmetrize binds it on the package
        # under the name of the function re-exported from it; keep the
        # function there, as `from hlag import symmetrize` promises.
        if name in _EXPORTS and isinstance(value, types.ModuleType):
            value = getattr(value, name)
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
