"""Synthetic target/prior scenarios with analytic density oracles.

Every scenario is a pair of Gaussian mixtures with known densities and
per-component relevance labels, so each scoring rule can be validated
quantitatively without real robot data. This module makes the scenarios
and their oracles only; :mod:`iwre.analysis` grades against them:

``gaussian_ratio``
    1-D narrow target inside a broad prior; the analytic density ratio is
    available in closed form (exactly 2 at the origin).
``fig2_toy``
    A fixed two-probe geometry where nearest-neighbor and density-based
    rankings disagree: one probe sits centrally among a tight arc of
    target points, the other hugs a single outlying target.
``cluster_bias``
    A prior dominated by a dense distractor cluster on the target fringe;
    importance weighting must discount it while nearest-neighbor retrieval
    is drawn to it.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from ._validation import (
    as_numbers,
    check_count,
    check_matrix,
    read_json_object,
    write_json,
)
from .dataset import EmbeddingDataset, MetadataTable
from .errors import ValidationError
from .kde import LOG_2PI

SCENARIO_IDS = ("fig2_toy", "gaussian_ratio", "cluster_bias")

_EPISODE_LEN = 25  # synthetic metadata groups rows into episodes of this length


@dataclass(frozen=True, eq=False)
class GaussianMixture:
    """Mixture of Gaussians with exact sampling and log-density."""

    weights: np.ndarray
    means: np.ndarray
    covariances: np.ndarray

    def __post_init__(self):
        weights = as_numbers(self.weights, "weights")
        means = check_matrix(self.means, "means")
        covs = as_numbers(self.covariances, "covariances")
        k, d = means.shape
        if weights.shape != (k,) or not (weights > 0).all():
            raise ValidationError(
                "mixture weights must be positive, one per component",
                code="bad_mixture",
            )
        if abs(weights.sum() - 1.0) > 1e-12:
            raise ValidationError(
                f"mixture weights sum to {weights.sum()!r}, expected 1",
                code="bad_mixture",
            )
        if covs.shape != (k, d, d) or not np.isfinite(covs).all():
            raise ValidationError(
                f"covariances must be finite, of shape ({k}, {d}, {d}), "
                f"got {covs.shape}",
                code="bad_mixture",
            )
        try:
            chols = np.linalg.cholesky(covs)
        except np.linalg.LinAlgError as exc:
            raise ValidationError(
                "mixture covariances must be positive definite", code="bad_mixture"
            ) from exc
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "covariances", covs)
        object.__setattr__(self, "_chols", chols)

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    @property
    def n_components(self) -> int:
        return self.means.shape[0]

    def sample(self, rng: np.random.Generator, n: int):
        """Draw ``n`` points; returns (points, generating component ids)."""
        comps = rng.choice(self.n_components, size=n, p=self.weights)
        z = rng.standard_normal((n, self.dim))
        pts = self.means[comps] + np.einsum("nij,nj->ni", self._chols[comps], z)
        return pts, comps

    def log_pdf(self, x) -> np.ndarray:
        """Exact mixture log-density; a 1-D ``x`` is one point. ``x`` is
        checked as :func:`~iwre._validation.check_matrix` checks a matrix and
        must have the mixture's dim (``dim_mismatch``).

        Each component's Gaussian log-density comes from its stored Cholesky
        factor ``L``: ``-|inv(L) (x - mean)|^2 / 2 - sum(log(diag(L)))
        - (d/2) log(2 pi)``; the components are combined by ``np.logaddexp``,
        the fold :func:`~iwre.kde.log_mean_exp` makes.
        """
        x = as_numbers(x, "x")
        x = check_matrix(x[None, :] if x.ndim == 1 else x, "x")
        if x.shape[1] != self.dim:
            raise ValidationError(f"x has dim {x.shape[1]}, the mixture {self.dim}",
                                  code="dim_mismatch")
        parts = np.empty((self.n_components, x.shape[0]))
        for k, (w, m, chol) in enumerate(zip(self.weights, self.means, self._chols)):
            z = np.linalg.solve(chol, (x - m).T)
            log_norm = np.log(w) - np.log(np.diag(chol)).sum()
            parts[k] = log_norm - 0.5 * np.einsum("ij,ij->j", z, z)
        parts -= 0.5 * self.dim * LOG_2PI
        return np.logaddexp.reduce(parts, axis=0)


@dataclass(frozen=True)
class OracleDensities:
    """Exact log-densities of the generating mixtures."""

    target: GaussianMixture
    prior: GaussianMixture

    def log_target(self, x) -> np.ndarray:
        return self.target.log_pdf(x)

    def log_prior(self, x) -> np.ndarray:
        return self.prior.log_pdf(x)

    def log_ratio(self, x) -> np.ndarray:
        return self.target.log_pdf(x) - self.prior.log_pdf(x)


@dataclass(frozen=True, eq=False)
class SyntheticScenario:
    """A named target/prior mixture pair of one dim, with per-component
    relevance; mixtures of different dims are refused (``bad_mixture``)."""

    scenario_id: str
    target_mixture: GaussianMixture
    prior_mixture: GaussianMixture
    prior_component_names: tuple
    prior_component_relevance: tuple
    rng_seed: int
    default_n_target: int
    default_n_prior: int

    def __post_init__(self):
        if self.scenario_id not in SCENARIO_IDS:
            raise ValidationError(
                f"unknown scenario {self.scenario_id!r}", code="unknown_scenario"
            )
        rng_seed = check_count(self.rng_seed, "rng_seed", minimum=0)
        object.__setattr__(self, "rng_seed", rng_seed)
        if self.target_mixture.dim != self.prior_mixture.dim:
            raise ValidationError("target and prior mixture dims differ",
                                  code="bad_mixture")
        k = self.prior_mixture.n_components
        if len(self.prior_component_names) != k or len(
            self.prior_component_relevance
        ) != k:
            raise ValidationError(
                "component names/relevance must match prior mixture size",
                code="bad_mixture",
            )

    @property
    def dim(self) -> int:
        return self.target_mixture.dim


@dataclass(frozen=True)
class SyntheticData:
    """Generated datasets, task labels and oracle, as the graders take them."""

    target: EmbeddingDataset
    prior: EmbeddingDataset
    prior_metadata: MetadataTable
    task_relevance: dict
    oracle: OracleDensities


# -- fig2_toy geometry --------------------------------------------------------


def _fig2_geometry():
    """The rank-reversal fixture: (target points, probe points).

    Probe 0 sits at the centre of an 11-point unit-radius target arc; probe
    1 sits 0.35 beyond a single outlying target at distance 6. Nearest
    neighbor scoring prefers probe 1, while KDE, soft-max and importance
    weight scoring prefer probe 0 (acceptance criteria 03 and 04).
    """
    n_arc, outlier_dist = 11, 6.0
    angles = np.linspace(0.0, 2.0 * np.pi * (n_arc / (n_arc + 1)), n_arc)
    arc = np.column_stack([np.cos(angles), np.sin(angles)])
    target = np.vstack([arc, [[outlier_dist, 0.0]]])
    probes = np.array([[0.0, 0.0], [outlier_dist + 0.35, 0.0]])
    return target, probes


def fig2_probe_indices() -> tuple[int, int]:
    """Prior-row indices of (cluster-adjacent probe, isolated probe)."""
    return 0, 1


# -- scenario constructors -----------------------------------------------------


def _single(mean, cov) -> GaussianMixture:
    mean = np.atleast_1d(np.asarray(mean, dtype=np.float64))
    cov = np.atleast_2d(np.asarray(cov, dtype=np.float64))
    return GaussianMixture(np.array([1.0]), mean[None, :], cov[None, :, :])


def make_scenario(scenario_id: str, rng_seed: int = 0) -> SyntheticScenario:
    """Build one of the named scenarios with its frozen parameters."""
    if scenario_id == "gaussian_ratio":
        return SyntheticScenario(
            scenario_id="gaussian_ratio",
            target_mixture=_single([0.0], [[1.0]]),
            prior_mixture=_single([0.0], [[4.0]]),
            prior_component_names=("broad_background",),
            prior_component_relevance=("relevant",),
            rng_seed=rng_seed,
            default_n_target=10_000,
            default_n_prior=10_000,
        )
    if scenario_id == "cluster_bias":
        eye = np.eye(2)
        prior = GaussianMixture(
            np.array([0.2, 0.8]),
            np.array([[0.0, 0.0], [1.6, 0.0]]),
            np.stack([eye, (0.15**2) * eye]),
        )
        return SyntheticScenario(
            scenario_id="cluster_bias",
            target_mixture=_single([0.0, 0.0], eye),
            prior_mixture=prior,
            prior_component_names=("core_task", "fringe_distractor"),
            prior_component_relevance=("relevant", "harmful"),
            rng_seed=rng_seed,
            default_n_target=300,
            default_n_prior=3000,
        )
    if scenario_id == "fig2_toy":
        target_pts, probe_pts = _fig2_geometry()
        sigma = 0.05**2
        k_t = target_pts.shape[0]
        target_mix = GaussianMixture(
            np.full(k_t, 1.0 / k_t),
            target_pts,
            np.repeat(sigma * np.eye(2)[None, :, :], k_t, axis=0),
        )
        prior_mix = GaussianMixture(
            np.array([0.5, 0.5]),
            probe_pts,
            np.repeat(sigma * np.eye(2)[None, :, :], 2, axis=0),
        )
        return SyntheticScenario(
            scenario_id="fig2_toy",
            target_mixture=target_mix,
            prior_mixture=prior_mix,
            prior_component_names=("near_cluster", "near_outlier"),
            prior_component_relevance=("relevant", "harmful"),
            rng_seed=rng_seed,
            default_n_target=k_t,
            default_n_prior=2,
        )
    raise ValidationError(f"unknown scenario {scenario_id!r}", code="unknown_scenario")


def _episode_metadata(components: np.ndarray, names: Sequence[str]) -> MetadataTable:
    """Rows in episodes of ``_EPISODE_LEN`` (the last may be shorter), each
    labelled with the name of the component that generated it."""
    n = len(components)
    episode, step = np.divmod(np.arange(n), _EPISODE_LEN)
    length = np.minimum(_EPISODE_LEN, n - episode * _EPISODE_LEN)
    return MetadataTable(episode, step, length, components, tuple(names))


def generate(
    scenario: SyntheticScenario,
    n_target: int | None = None,
    n_prior: int | None = None,
) -> SyntheticData:
    """Draw seeded target/prior datasets with labeled provenance.

    ``fig2_toy`` is a fixed geometry, not a sampled one: its counts are
    pinned to the frozen fixture and passing different ones is an error.
    """
    defaults = (scenario.default_n_target, scenario.default_n_prior)
    n_target = check_count(defaults[0] if n_target is None else n_target, "n_target")
    n_prior = check_count(defaults[1] if n_prior is None else n_prior, "n_prior")
    if scenario.scenario_id == "fig2_toy":
        if (n_target, n_prior) != defaults:
            raise ValidationError(
                f"fig2_toy is a frozen fixture with {defaults[0]} target and "
                f"{defaults[1]} prior rows; counts cannot change", code="bad_counts")
        target_pts = scenario.target_mixture.means
        prior_pts = scenario.prior_mixture.means
        comps = np.arange(2)
    else:
        rng = np.random.default_rng(scenario.rng_seed)
        target_pts, _ = scenario.target_mixture.sample(rng, n_target)
        prior_pts, comps = scenario.prior_mixture.sample(rng, n_prior)

    seed = scenario.rng_seed
    sid = scenario.scenario_id
    target = EmbeddingDataset(target_pts, source_id=f"synth:{sid}:{seed}:target")
    prior = EmbeddingDataset(prior_pts, source_id=f"synth:{sid}:{seed}:prior")
    metadata = _episode_metadata(comps, scenario.prior_component_names)
    relevance = dict(
        zip(scenario.prior_component_names, scenario.prior_component_relevance)
    )
    oracle = OracleDensities(scenario.target_mixture, scenario.prior_mixture)
    return SyntheticData(target, prior, metadata, relevance, oracle)


def save_oracle(scenario: SyntheticScenario, data: SyntheticData, path) -> None:
    """Write the scenario's exact mixtures and counts for :func:`load_oracle`."""

    def mixture(m: GaussianMixture) -> dict:
        return {f.name: getattr(m, f.name).tolist() for f in fields(m)}

    payload = {
        "scenario_id": scenario.scenario_id,
        "dim": scenario.dim,
        "rng_seed": scenario.rng_seed,
        "n_target": data.target.rows,
        "n_prior": data.prior.rows,
        "component_names": list(scenario.prior_component_names),
        "component_relevance": list(scenario.prior_component_relevance),
        "target_mixture": mixture(data.oracle.target),
        "prior_mixture": mixture(data.oracle.prior),
    }
    write_json(path, payload)


def load_oracle(path) -> OracleDensities:
    """Rebuild exact oracle densities from a written oracle parameter file.

    Any malformation raises :class:`ValidationError`: ``bad_oracle`` for
    the file's structure, :class:`GaussianMixture`'s codes for arrays that
    form no valid mixture.
    """
    sections = ("target_mixture", "prior_mixture")
    payload = read_json_object(path, "bad_oracle", sections)

    def mixture(name: str) -> GaussianMixture:
        section = payload[name]
        try:
            arrays = {f.name: as_numbers(section[f.name], f.name)
                      for f in fields(GaussianMixture)}
        except (TypeError, KeyError, ValidationError) as exc:
            raise ValidationError(
                f"{path}: bad {name}: {exc!r}", code="bad_oracle"
            ) from exc
        return GaussianMixture(**arrays)

    return OracleDensities(*map(mixture, sections))
