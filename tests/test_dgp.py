"""Simulation designs: construction identities and calibrated moments."""

import itertools
from statistics import NormalDist

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from tensorfe.dgp import DgpConfig, draw
from tensorfe.errors import TensorShapeError
from tensorfe.inference import pooled_ols
from tensorfe.tensor_ops import multilinear_rank


def noise_variance_target():
    """Population variance of the dependent error term.

    Each error cell averages eight clipped-scale innovations, so its variance
    is 4 * E[min(4, Z^2)] for a standard normal Z.
    """
    nd = NormalDist()
    phi2, big_phi2 = nd.pdf(2.0), nd.cdf(2.0)
    e_min = (2.0 * big_phi2 - 1.0) - 4.0 * phi2 + 8.0 * (1.0 - big_phi2)
    return 4.0 * e_min


def reference_draw(config, seed_seq):
    """The documented construction, literally and slowly.

    Loadings (dimension 1 rank one in the fixed design), then the
    idiosyncratic part and the innovations on the lag-extended grid, then
    the relabelling permutations: CP parts by einsum, the error as a sum of
    all ``2^d`` shifted windows, and the relabelling as ``np.take`` on each
    of the four delivered tensors.  Returns ``[y, x, effects, noise]``.
    """
    rng = np.random.default_rng(seed_seq)
    dims, n_comp = config.dims, config.resolved_components
    if config.design == "growing":
        loadings = [rng.standard_normal((n + 1, n_comp)) for n in dims]
    else:
        unit_effects, comp_effects = rng.standard_normal(dims[0] + 1), rng.standard_normal(n_comp)
        loadings = [np.outer(unit_effects, comp_effects)]
        loadings += [rng.standard_normal((n + 1, n_comp)) for n in dims[1:]]
    letters = "abcdefgh"[: len(dims)]
    spec = ",".join(f"{c}z" for c in letters) + f"->{letters}"
    effects = np.einsum(spec, *(m[1:] for m in loadings))
    lagged = np.einsum(spec, *(m[1:] + m[:-1] for m in loadings))
    ext_shape = tuple(n + 1 for n in dims)
    idio_ext = rng.standard_normal(ext_shape)
    innovations = rng.standard_normal(ext_shape) * np.minimum(2.0, np.abs(idio_ext))
    noise = np.zeros(dims)
    for shifts in itertools.product((0, 1), repeat=len(dims)):
        noise += innovations[tuple(slice(1 - s, n + 1 - s) for s, n in zip(shifts, dims))]
    noise /= np.sqrt(2.0)
    idio = idio_ext[(slice(1, None),) * len(dims)]
    if config.design == "growing":
        x = 2.0 * effects - config.rho * lagged + idio
    else:
        effects = effects / np.std(effects, ddof=1)
        x = effects + lagged / np.std(lagged, ddof=1) + idio
    tensors = [config.beta_true * x + effects + noise, x, effects, noise]
    if config.permute_cross_sections:
        for axis in (0, 1):
            perm = rng.permutation(dims[axis])
            tensors = [np.take(t, perm, axis=axis) for t in tensors]
    return tensors


@pytest.mark.parametrize(
    "design, dims, rho",
    [("growing", (9, 12, 7), 0.7), ("fixed", (9, 8, 11), 1.0), ("fixed", (5, 6, 4, 3), 1.0)],
)
@pytest.mark.parametrize("permute", [True, False])
def test_draw_matches_the_literal_construction(design, dims, rho, permute):
    cfg = DgpConfig(design=design, dims=dims, rho=rho, permute_cross_sections=permute)
    for seed in range(3):
        panel = draw(cfg, np.random.SeedSequence([seed, 4]))
        expected = reference_draw(cfg, np.random.SeedSequence([seed, 4]))
        got = [panel.outcome, panel.regressors[0], panel.effects, panel.noise]
        for g, e in zip(got, expected):
            assert g.shape == dims
            assert_allclose(g, e, rtol=0, atol=1e-13 * np.max(np.abs(e)))


def test_draw_is_deterministic_in_the_seed():
    cfg = DgpConfig(dims=(8, 8, 8))
    a = draw(cfg, np.random.SeedSequence([1, 2]))
    b = draw(cfg, np.random.SeedSequence([1, 2]))
    assert_array_equal(a.outcome, b.outcome)
    assert_array_equal(a.regressors[0], b.regressors[0])
    c = draw(cfg, np.random.SeedSequence([1, 3]))
    assert not np.array_equal(a.outcome, c.outcome)


@pytest.mark.parametrize("design", ["growing", "fixed"])
@pytest.mark.parametrize("permute", [True, False])
def test_construction_identity(design, permute):
    cfg = DgpConfig(design=design, dims=(9, 8, 7), permute_cross_sections=permute)
    panel = draw(cfg, np.random.SeedSequence([2, 1]))
    rebuilt = panel.beta_true[0] * panel.regressors[0] + panel.effects + panel.noise
    assert_allclose(panel.outcome, rebuilt, atol=1e-12)


def test_relabeling_preserves_the_multiset_of_cells():
    on = draw(DgpConfig(dims=(6, 6, 6)), np.random.SeedSequence([9]))
    off = draw(
        DgpConfig(dims=(6, 6, 6), permute_cross_sections=False), np.random.SeedSequence([9])
    )
    assert_allclose(np.sort(on.outcome.ravel()), np.sort(off.outcome.ravel()), atol=1e-12)
    assert not np.array_equal(on.outcome, off.outcome)


def test_regressor_tracks_effects_when_feedback_is_off():
    panel = draw(DgpConfig(dims=(30, 30, 30), rho=0.0), np.random.SeedSequence([5]))
    corr = np.corrcoef(panel.regressors[0].ravel(), panel.effects.ravel())[0, 1]
    assert corr > 0.5


def test_noise_variance_matches_clipped_innovation_formula():
    panel = draw(DgpConfig(dims=(40, 40, 40)), np.random.SeedSequence([6]))
    target = noise_variance_target()
    assert target == pytest.approx(3.6822, abs=5e-4)
    assert abs(panel.noise.var() / target - 1.0) < 0.10


def test_adjacent_cells_share_half_their_innovations():
    cfg = DgpConfig(dims=(30, 30, 30), permute_cross_sections=False)
    noise = draw(cfg, np.random.SeedSequence([7])).noise
    for axis in range(3):
        rolled = np.moveaxis(noise, axis, 0)
        corr = np.corrcoef(rolled[:-1].ravel(), rolled[1:].ravel())[0, 1]
        assert 0.42 < corr < 0.58


def test_effect_cell_moments():
    # Each cell is a sum of two products of three independent standard
    # normals: mean 0, variance 2, fourth moment 60.  The 3-sigma bands below
    # use those population values.
    n_draws = 600
    cells = np.array(
        [
            draw(DgpConfig(dims=(4, 4, 4)), np.random.SeedSequence([8, i])).effects[0, 0, 0]
            for i in range(n_draws)
        ]
    )
    assert abs(cells.mean()) < 3.0 * np.sqrt(2.0 / n_draws)
    assert abs(cells.var(ddof=1) - 2.0) < 3.0 * np.sqrt(56.0 / n_draws)


def test_fixed_design_effects_structure():
    panel = draw(DgpConfig(design="fixed", dims=(6, 7, 8)), np.random.SeedSequence([10]))
    assert multilinear_rank(panel.effects).ranks == (1, 6, 6)
    assert panel.effects.var(ddof=1) == pytest.approx(1.0, abs=1e-10)


def test_fixed_design_confounds_pooled_ols():
    panel = draw(DgpConfig(design="fixed", dims=(40, 40, 40)), np.random.SeedSequence([11]))
    bias = pooled_ols(panel.outcome, panel.regressors)[0] - 1.0
    assert bias == pytest.approx(0.365, abs=0.03)


def test_component_counts():
    assert DgpConfig(dims=(8, 8, 8)).resolved_components == 2
    assert DgpConfig(design="fixed", dims=(8, 9, 10)).resolved_components == 8
    assert DgpConfig(dims=(8, 8, 8), n_components=5).resolved_components == 5


def test_config_validation():
    with pytest.raises(TensorShapeError):
        DgpConfig(dims=(8, 8), design="growing")
    with pytest.raises(ValueError):
        DgpConfig(dims=(8, 8, 8), design="shrinking")
    with pytest.raises(TensorShapeError):
        DgpConfig(dims=(1, 8, 8))
