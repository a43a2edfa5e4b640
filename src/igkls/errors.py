"""Exception taxonomy shared by all igkls modules, and the one check.

Every mathematically meaningful failure carries the offending residual (and,
where it exists, the worst offending block/basis index) so that CLI reports can
surface it without re-running the computation.

Every residual-against-limit check of the library goes through
:func:`verify`, which raises the typed error unless ``residual <= limit`` (so
a NaN fails) and, while a recording is open (:func:`_recording`, opened by
the CLI around one command), hands (name, residual, limit) to its sink.  A
report therefore lists each check made, by the library or by the command,
with its limit; there is no other way into it.

Tolerance policy: every limit is :func:`limit`, max(tol, VERIFY_FLOOR) times
the scale of the residual times a per-check factor.  The scales are
max(1, ‖V‖_F) for residuals linear in V, max(1, ‖v‖_F)² for those of Φ(X),
and max(1, ‖V‖_F², ‖K‖_F) for those of L, of K and of superoperator
distances.  Every rank decision is ``linalg._rank``: tol floored at
RANK_FLOOR, relative to max(σ_max, the scale of the check that follows).
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar

TOL_RANK = 1e-9  # default relative tolerance of rank decisions
TOL_VERIFY = 1e-9  # default tolerance of residual checks
TOL_PROBE = 1e-6  # default tolerance of the semigroup probe's relative residuals
VERIFY_FLOOR = 1e-10  # the least tolerance a residual limit is computed from
RANK_FLOOR = 1e-12  # the least tolerance of a rank decision

# the sink of the open recording: called as sink(name, residual, limit)
_SINK: ContextVar = ContextVar("igkls_check_sink", default=None)


def verify(name: str, residual: float, limit: float, error: type, message: str) -> None:
    """Raise ``error(message, residual=residual)`` unless residual <= limit
    (NaN fails); record (name, residual, limit) while a recording is open."""
    residual, limit = float(residual), float(limit)
    sink = _SINK.get()
    if sink is not None:
        sink(name, residual, limit)
    if not residual <= limit:
        raise error(message, residual=residual)


def limit(tol: float, scale: float = 1.0, factor: float = 10) -> float:
    """The limit of a residual of size ``scale``: max(tol, VERIFY_FLOOR)·scale·factor."""
    return max(tol, VERIFY_FLOOR) * scale * factor


def _isometry_limit(tol: float, n: int) -> float:
    """The load-time limit of ‖M†M − 1‖_F for an isometry M of n rows."""
    return limit(tol, max(1.0, math.sqrt(n)), 100)


@contextmanager
def _recording(sink):
    """Hand every :func:`verify` made inside the block to ``sink``."""
    token = _SINK.set(sink)
    try:
        yield
    finally:
        _SINK.reset(token)


class IgklsError(Exception):
    """Base class for all igkls errors."""

    def __init__(self, message: str, residual: float | None = None):
        if residual is not None:
            message = f"{message} (residual={residual:.3e})"
        super().__init__(message)
        self.residual = residual


# --- star-algebra -----------------------------------------------------------

class NotClosed(IgklsError):
    """An alleged *-algebra basis is not closed under adjoint/product."""


class DecompositionFailed(IgklsError):
    """atomic_decompose ran out of retries (tolerance/genericity breakdown)."""


class NotIntertwiner(IgklsError):
    """Input does not satisfy the half-commutation intertwiner relation."""


# --- cp-maps ----------------------------------------------------------------

class NotSameMap(IgklsError):
    """Two representations do not define the same CP map."""


class NotMinimal(IgklsError):
    """A representation required to be minimal is not."""


class NotInvariant(IgklsError):
    """The map/generator does not leave the algebra invariant."""


class FactorizationResidual(IgklsError):
    """Block factorization failed to reproduce the input within tolerance."""


# --- gkls-forms -------------------------------------------------------------

class NotSameGenerator(IgklsError):
    """Two GKLS representations do not define the same generator."""


class NotEquivalent(IgklsError):
    """Normal forms are not equivalent in the requested mode."""


# --- applications -----------------------------------------------------------

class NotDecoherenceFree(IgklsError):
    """Dissipation does not vanish on the candidate algebra."""


class NotMaximalAbelian(IgklsError):
    """The decomposition is not maximal abelian (d0 = 0, all factors (1,1))."""


class NotDiagonal(IgklsError):
    """Operator is not diagonal in the decomposition frame."""


class NotTracePreserving(IgklsError):
    """Kraus set is not trace preserving in the declared picture."""


class AlgebraClosureFailed(IgklsError):
    """A fixed-point set failed to close into a *-algebra."""


class NoFixedState(IgklsError):
    """No PSD unit-trace fixed point could be certified numerically."""


# --- cli-io -----------------------------------------------------------------

class ParseError(IgklsError):
    """Malformed JSON input."""


class SchemaError(IgklsError):
    """JSON does not match the expected record layout."""


class InvariantError(IgklsError):
    """A loaded record violates one of its declared invariants."""
