"""Simulation designs for the Monte-Carlo harness.

:func:`draw` builds both designs from one skeleton: a CP-form
interactive-effect component, a regressor that co-moves with it through a
lag-shifted copy of the factor structure, and an error that is
heteroskedastic conditional on the regressor's idiosyncratic part and
autocorrelated along every dimension through a short moving-average window.
The two designs differ only in how the loadings are drawn and how the
regressor is mixed; :func:`draw` describes both.

Randomness is fully determined by the supplied seed: draws happen in a fixed
order (per-dimension loadings with one presample row each — in the fixed
design the unit effects, then the component effects, then the other
dimensions — then the idiosyncratic regressor part over the lag-extended
grid, then the error innovations, then the cross-section relabelings).  The
relabelings are drawn last but applied before any composition: they permute
the rows of the first two loading matrices and gather the idiosyncratic part
and the error once each, so every delivered tensor is built already
relabelled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import TensorShapeError
from .tensor_ops import cp_compose

DESIGNS = ("growing", "fixed")


@dataclass(frozen=True)
class DgpConfig:
    """Which design to draw from, at what size (:func:`draw` describes both).

    ``n_components`` overrides the design's component count (default: 2 for
    ``growing``, the size of dimension 1 for ``fixed``).  ``rho`` scales the
    lagged factor term of the growing design's regressor and is ignored by
    the fixed design.  ``permute_cross_sections`` relabels the units of the
    first two dimensions (jointly across all delivered tensors), hiding the
    cross-section correlation structure from adjacency-based variance
    estimators without changing any estimator's point distribution.
    """

    design: str = "growing"
    dims: tuple[int, ...] = (30, 30, 30)
    rho: float = 1.0
    n_components: int | None = None
    beta_true: float = 1.0
    permute_cross_sections: bool = True

    def __post_init__(self):
        if self.design not in DESIGNS:
            raise ValueError(f"unknown design {self.design!r}; choose from {DESIGNS}")
        dims = tuple(int(n) for n in self.dims)
        object.__setattr__(self, "dims", dims)
        if len(dims) < 2 or any(n < 2 for n in dims):
            raise TensorShapeError(f"need at least two dimensions of size >= 2, got {dims}")
        if self.design == "growing" and len(dims) != 3:
            raise TensorShapeError("the growing design is specified for 3-D panels only")
        if self.n_components is not None and self.n_components < 1:
            raise ValueError(f"n_components must be >= 1, got {self.n_components}")

    @property
    def resolved_components(self) -> int:
        if self.n_components is not None:
            return int(self.n_components)
        return 2 if self.design == "growing" else self.dims[0]


@dataclass
class DgpDraw:
    """One simulated panel: outcome, regressors, and the true components."""

    outcome: np.ndarray
    regressors: list[np.ndarray]
    effects: np.ndarray
    noise: np.ndarray
    beta_true: np.ndarray

    @property
    def shape(self) -> tuple[int, ...]:
        return self.outcome.shape


def _rng_from(seed) -> np.random.Generator:
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence([int(seed)])
    return np.random.default_rng(ss)


def _moving_average_error(rng: np.random.Generator, dims: tuple[int, ...]) -> np.ndarray:
    """Heteroskedastic, multi-dimensionally autocorrelated error.

    Innovations live on the lag-extended grid with standard deviation
    ``min(2, |idiosyncratic regressor part|)`` cell by cell (variance
    ``min(4, .^2)``); the error sums the innovations over every 0/1 lag
    combination, scaled by ``1/sqrt(2)``.  That box sum is separable, so it
    runs as one pairwise sum of neighbours per dimension.

    Returns the interior idiosyncratic part alongside the error.
    """
    ext_shape = tuple(n + 1 for n in dims)
    idio_ext = rng.standard_normal(ext_shape)
    err = rng.standard_normal(ext_shape) * np.minimum(2.0, np.abs(idio_ext))
    for axis in range(len(dims)):
        head = (slice(None),) * axis
        err = err[head + (slice(1, None),)] + err[head + (slice(None, -1),)]
    err /= math.sqrt(2.0)
    interior = tuple(slice(1, None) for _ in dims)
    return idio_ext[interior], err


def _cells_and_loadings(rng: np.random.Generator, config: DgpConfig, loadings):
    """Draw the error, then the relabelling, and apply it to every cell-level part.

    Returns the contemporaneous loadings ``m[1:]``, the lag-summed loadings
    ``m[1:] + m[:-1]``, the idiosyncratic regressor part and the error.  With
    ``permute_cross_sections`` one uniform permutation per dimension relabels
    the first two dimensions of all of them: it permutes the rows of the
    first two loading matrices and gathers the two drawn tensors once each.
    The panel's content is unchanged (every estimator sees the same cells),
    but index adjacency no longer reveals which units are correlated — the
    "unknown cross-correlation structure" regime that lag-based variance
    estimators cannot exploit.
    """
    idio, err = _moving_average_error(rng, config.dims)
    now = [m[1:] for m in loadings]
    lag_sum = [m[1:] + m[:-1] for m in loadings]
    if config.permute_cross_sections:
        labels = [rng.permutation(n) for n in config.dims[:2]]
        for mats in (now, lag_sum):
            mats[0], mats[1] = mats[0][labels[0]], mats[1][labels[1]]
        cells = np.ix_(*labels)
        idio, err = idio[cells], err[cells]
    return now, lag_sum, idio, err


def draw(config: DgpConfig, seed=0) -> DgpDraw:
    """One draw from ``config.design``.

    Effects are a CP tensor over the contemporaneous loadings, and the
    regressor co-moves with ``lagged``, the CP tensor whose loading columns
    are each replaced by the sum of themselves and their one-step lag (every
    loading matrix carries one presample row).  The designs differ in two
    places:

    ``growing``
        Every loading is iid normal (two components by default), and the
        regressor is ``2 * effects - rho * lagged + idio``.  The effect
        component's strength grows with the panel, which is exactly the
        regime where naive within-type transforms stay biased.
    ``fixed``
        Dimension 1's loading matrix is rank one (the outer product of a unit
        effect and a component effect, drawn in that order before the other
        dimensions' iid normal loadings), with as many components as
        dimension-1 units.  ``effects`` and ``lagged`` are rescaled to unit
        sample variance, and the regressor is ``effects + lagged + idio``:
        three equally scaled parts, so signal and noise stay comparable at
        every panel size.

    In both, the outcome is ``beta_true * x + effects + err``.
    """
    rng = _rng_from(seed)
    dims, n_comp = config.dims, config.resolved_components
    if config.design == "growing":
        loadings = [rng.standard_normal((n + 1, n_comp)) for n in dims]
    else:
        unit_effects = rng.standard_normal(dims[0] + 1)
        loadings = [np.outer(unit_effects, rng.standard_normal(n_comp))]
        loadings += [rng.standard_normal((n + 1, n_comp)) for n in dims[1:]]

    now, lag_sum, idio, err = _cells_and_loadings(rng, config, loadings)
    effects, lagged = cp_compose(now), cp_compose(lag_sum)
    if config.design == "growing":
        x = 2.0 * effects - config.rho * lagged + idio
    else:
        effects = effects / np.std(effects, ddof=1)
        x = effects + lagged / np.std(lagged, ddof=1) + idio
    y = config.beta_true * x + effects + err
    return DgpDraw(outcome=y, regressors=[x], effects=effects, noise=err, beta_true=np.array([config.beta_true]))
