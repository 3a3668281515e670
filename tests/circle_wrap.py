"""``wrap_angle`` written as one ``np.mod`` and two ``np.where`` over every
entry: the form that wraps only out-of-range entries replaces, kept as a
test reference."""

import numpy as np


def wrap_angle(theta):
    theta = np.asarray(theta, dtype=np.float64)
    out = np.mod(theta + np.pi, 2.0 * np.pi) - np.pi
    out = np.where(out == -np.pi, np.pi, out)
    return np.where((theta > -np.pi) & (theta <= np.pi), theta, out)
