"""Reference implementations that tests compare the package against."""

import numpy as np


def direct_synthesis(spec, x) -> np.ndarray:
    """sum_n c_n exp(2*pi*i*n*x) at arbitrary points, term by term in one outer product."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return np.exp(2j * np.pi * np.outer(x, spec.frequencies)) @ spec.coefficients
