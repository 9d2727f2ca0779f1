"""Exception types shared across the toolkit."""

from __future__ import annotations


class VortexEqError(Exception):
    """Base class for all toolkit errors."""


class InvalidN(VortexEqError):
    """Vortex count outside the supported range."""


class AngularCollision(VortexEqError):
    """Two ring angles coincide (or nearly coincide)."""


class NotCritical(VortexEqError):
    """Configuration fails the criticality (zero-gradient) precondition."""


class SingularBlock(VortexEqError):
    """Block matrix factor is singular or too ill-conditioned to invert."""


class NoConvergence(VortexEqError):
    """A solver stopped short of its tolerance.

    Newton hit its iteration cap, its line search stalled or its Newton
    system was singular, a sweep failed at one of its eps values, or
    LAPACK's symmetric eigensolver did not converge.

    ``partial`` optionally carries results accumulated before the failure.
    """

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial


class DegenerateSeed(VortexEqError):
    """Seed critical point has more than one zero Hessian eigenvalue."""


class InvalidEpsilon(VortexEqError):
    """Circulation ratio is zero or beyond the continuation ceiling."""


class InsufficientFamily(VortexEqError):
    """Not enough family members for a scaling check."""


class VortexCollision(VortexEqError):
    """Two vortices in the plane are closer than the collision guard."""


class CollisionAbort(VortexEqError):
    """Integration stopped early because vortices approached collision.

    ``trajectory`` carries the partial trajectory up to the abort step.
    """

    def __init__(self, message: str, trajectory=None):
        super().__init__(message)
        self.trajectory = trajectory

