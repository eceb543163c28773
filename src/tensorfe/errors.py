"""Exception types shared across the package."""

import numpy as np


class TensorShapeError(ValueError):
    """A tensor argument has the wrong order, shape, or non-finite entries."""


class RankError(ValueError):
    """A requested rank, dimension index, or lag is out of range."""


class EstimationError(RuntimeError):
    """An estimator cannot produce a usable answer (singularity, degeneracy)."""


class DegenerateWeightsError(EstimationError):
    """Every unit in some dimension is isolated under the kernel weights."""


class PanelFormatError(ValueError):
    """A panel CSV is malformed: bad values, duplicate or missing cells."""


# The errors by which an estimator reports that it cannot estimate a panel:
# a Monte-Carlo round records them as a failure and the CLI prints them.
ESTIMATION_ERRORS = (EstimationError, RankError, TensorShapeError, np.linalg.LinAlgError)
