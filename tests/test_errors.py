"""One error class per failure, whichever entry point finds it."""

import numpy as np
import pytest

from vortexeq import (
    AngularCollision,
    CriticalPoint,
    PlanarConfiguration,
    RelativeEquilibrium,
    VortexCollision,
    VortexEqError,
    canonicalize,
    continue_equilibrium,
    gradient,
    hessian,
    newton_refine,
    potential,
    reduced_field,
    rotating_frame_residual,
)


def test_colliding_angles_raise_angular_collision_everywhere():
    theta = np.array([0.0, 1e-11, 2.0, 4.0])
    entry_points = (newton_refine, CriticalPoint, canonicalize, gradient, hessian, potential)
    messages = set()
    for fn in entry_points:
        with pytest.raises(AngularCollision) as raised:
            fn(theta)
        messages.add(str(raised.value))
    assert messages == {"two angles closer than the collision guard (1-cos < 1e-10)"}


def test_colliding_vortices_raise_vortex_collision_everywhere(min3_point):
    # weak vortices 1 and 2 coincide on the unit circle
    r, theta, eps = np.ones(3), np.array([0.0, 0.0, 2.0]), 1e-3
    z = r * np.exp(1j * theta)
    calls = (
        lambda: continue_equilibrium(min3_point, eps, _warm_start=np.concatenate((r, theta))),
        lambda: RelativeEquilibrium(r=r, theta=theta, epsilon=eps),
        lambda: rotating_frame_residual(r, theta, eps),
        lambda: reduced_field(r, theta, eps),
        lambda: PlanarConfiguration(np.concatenate(([-eps * z.sum()], z)), eps),
    )
    messages = set()
    for call in calls:
        with pytest.raises(VortexCollision) as raised:
            call()
        messages.add(str(raised.value))
    assert messages == {"two vortices are closer than the collision guard"}


def test_ten_error_classes():
    assert len(VortexEqError.__subclasses__()) == 10


# One malformed input each for the public field functions, and the words of
# the ValueError it raises; eps = 0 stays a valid field.
BAD_FIELD_INPUTS = {
    "nan_r": ((np.array([np.nan, 1.0, 1.0]), np.array([0.0, 2.0, 4.0]), 1e-3),
              "r and theta must be finite 1-d"),
    "nan_eps": ((np.ones(3), np.array([0.0, 2.0, 4.0]), np.nan), "epsilon must be finite"),
    "inf_theta": ((np.ones(3), np.array([0.0, np.inf, 4.0]), 1e-3),
                  "r and theta must be finite 1-d"),
    "unequal_lengths": ((np.ones(3), np.array([0.0, 2.0]), 1e-3),
                        "r and theta must be finite 1-d"),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("fn", [reduced_field, rotating_frame_residual])
@pytest.mark.parametrize("case", BAD_FIELD_INPUTS)
def test_field_functions_reject_malformed_input(fn, case):
    args, words = BAD_FIELD_INPUTS[case]
    with pytest.raises(ValueError, match=words):
        fn(*args)
    assert np.abs(fn(np.ones(3), np.array([0.0, 2.0, 4.0]), 0.0)).max() == 0.0
