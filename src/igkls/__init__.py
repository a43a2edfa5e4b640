"""Structural normal forms of CP maps and GKLS generators that leave a
finite-dimensional weakly closed *-algebra invariant.

The package is organized bottom-up:

* :mod:`igkls.linalg` — numerics conventions (row-major vec, SVD-backed rank
  decisions, system-first tensor slots) and small helpers;
* :mod:`igkls.algebra` — *-algebra closure, atomic decomposition into a null
  block plus factors M_A ⊗ 1_B, commutants, twirls, intertwiner splitting;
* :mod:`igkls.cpmaps` — Stinespring/Kraus plumbing and the block
  factorization of CP maps respecting an invariant algebra;
* :mod:`igkls.gkls` — generator normal forms: the V/K split, reconstruction,
  minimality reduction, and gauge comparison;
* :mod:`igkls.applications` — semicausal generators, decoherence-free
  subalgebra certificates, maximal abelian commutator coefficients, and the
  Koashi–Imoto channel decomposition;
* :mod:`igkls.io` / :mod:`igkls.cli` — JSON bundles, deterministic random
  instances, and the ``igkls`` verification-report command line.

Names load on first access: ``import igkls`` imports no submodule, and the
first lookup of a name in ``__all__`` (or ``dir(igkls)``, or ``from igkls
import *``) imports every module above but ``cli`` and binds all of
``__all__``, so each ``igkls.<name>`` is the object its module defines.
``import igkls.cli`` loads only what the command line needs; each command
imports the rest of what it runs.
"""

__version__ = "0.1.0"

# public names by defining module, in dependency order
_EXPORTS = {
    "errors": (
        "AlgebraClosureFailed",
        "DecompositionFailed",
        "FactorizationResidual",
        "IgklsError",
        "InvariantError",
        "NoFixedState",
        "NotClosed",
        "NotDecoherenceFree",
        "NotDiagonal",
        "NotEquivalent",
        "NotIntertwiner",
        "NotInvariant",
        "NotMaximalAbelian",
        "NotMinimal",
        "NotSameGenerator",
        "NotSameMap",
        "NotTracePreserving",
        "ParseError",
        "SchemaError",
    ),
    "linalg": (
        "TOL_RANK",
        "TOL_VERIFY",
        "SubspaceBasis",
        "dag",
        "embed_support",
        "eye",
        "frob",
        "herm",
        "im_part",
        "kron",
        "nearest_isometry",
        "orthonormalize_span",
        "partial_trace",
        "subspace_residual",
        "svd_rank",
        "unvec",
        "vec",
    ),
    "rng": ("CounterRng",),
    "algebra": (
        "AlgebraBasis",
        "AtomicDecomposition",
        "algebra_from_decomposition",
        "algebra_pattern_basis",
        "algebra_project",
        "atomic_decompose",
        "close_star_algebra",
        "closure_residuals",
        "commutant",
        "commutant_project",
        "intertwiner_decompose",
        "membership_residual",
        "pattern_residual",
        "twirl_intertwiner",
        "twirl_to_commutant",
    ),
    "cpmaps": (
        "BlockFactorization",
        "KrausSet",
        "StinespringRep",
        "atomic_block_factorize",
        "choi",
        "cp_apply",
        "cp_invariance_check",
        "kraus_to_stinespring",
        "minimal_stinespring",
        "orthogonality_check",
        "reassemble_factorization",
        "stinespring_gauge",
        "stinespring_minimal_rank",
        "stinespring_to_kraus",
    ),
    "gkls": (
        "AtomicNormalForm",
        "GaugeData",
        "GKLSRep",
        "GklsGauge",
        "InvariantSplit",
        "KOnlySplit",
        "atomic_normal_form",
        "generator_superoperator",
        "gkls_apply",
        "gkls_gauge",
        "gkls_minimal_rank",
        "gkls_minimalize",
        "invariant_split",
        "k_only_split",
        "normal_form_gauge",
        "normal_form_minimality",
        "normal_form_residuals",
        "reconstruct_from_normal_form",
        "reduce_normal_form_minimal",
    ),
    "applications": (
        "AbelianCoefficients",
        "DfsCertificate",
        "KoashiImotoResult",
        "ProbeReport",
        "SemicausalReport",
        "dfs_verify_normal_form",
        "fixed_point_state",
        "koashi_imoto_decompose",
        "maximal_abelian_coefficients",
        "semicausal_build",
        "semicausal_check",
        "semigroup_invariance_probe",
    ),
    "io": (
        "KINDS",
        "CpMapRecord",
        "InstanceBundle",
        "decode",
        "decode_text",
        "encode_bundle",
        "encode_cmatrix",
        "kraus_picture_adjoint",
        "random_instance",
        "write_bundle",
    ),
}

# the submodules themselves are public names too
__all__ = sorted([*_EXPORTS, *(name for names in _EXPORTS.values() for name in names)])


def _load() -> None:
    """Import every module in ``_EXPORTS`` and bind its public names here."""
    from importlib import import_module

    namespace = globals()
    for module_name, names in _EXPORTS.items():
        module = import_module(f"{__name__}.{module_name}")
        for name in names:
            namespace[name] = getattr(module, name)


def __getattr__(name: str):
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _load()
    return globals()[name]


def __dir__() -> list[str]:
    _load()
    return sorted(globals())
