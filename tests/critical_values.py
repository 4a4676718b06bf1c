"""The oracle of acceptance criterion 8: sample a critical subspace and
test whether a value lies on a discriminant component.

The program never needs either: `analyze` derives the discriminant
exactly.  The tests use them to check that the paper's critical values
lie on the rays and lines `analyze` reports.
"""

import math

import numpy as np

ANGLE_TOL = 1e-9


def sample_critical_subspace(psi, subspace, count: int, rng: np.random.Generator) -> np.ndarray:
    """Random complex points on a critical subspace (free coords with |Re|, |Im| < 2)."""
    Z = np.zeros((count, psi.n), dtype=complex)
    for j in subspace.free_indices:
        re = rng.uniform(-2.0, 2.0, size=count)
        im = rng.uniform(-2.0, 2.0, size=count)
        Z[:, j - 1] = re + 1j * im
    return Z


def contains_value(component, w: complex) -> bool:
    """Whether w lies on a DiscriminantComponent up to the angle ANGLE_TOL; w must be finite."""
    if not (math.isfinite(w.real) and math.isfinite(w.imag)):
        raise ValueError(f"value must be finite, got {w!r}")
    d = complex(float(component.direction.re), float(component.direction.im))
    r = abs(w) * abs(d)
    if r == 0:
        return True
    cross = w.real * d.imag - w.imag * d.real
    dot = w.real * d.real + w.imag * d.imag
    if abs(cross) > ANGLE_TOL * r:
        return False
    return component.kind == "full_line" or dot >= -ANGLE_TOL * r
