"""sklearn-style facade over the scoring and selection pipeline.

``EmbeddingRetriever`` composes with the wider estimator ecosystem:
``fit`` on the target embedding matrix, ``score_samples`` on a prior
matrix, ``transform`` to get back the selected prior rows. The functional
modules (:mod:`iwre.scoring`, :mod:`iwre.retrieval`) remain the primitive
API; this class wraps a :class:`~iwre.scoring.ScoringConfig` behind
fit/transform semantics.
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np

from ._validation import ParamsMixin, check_threads
from .dataset import EmbeddingDataset, gather_rows
from .errors import ValidationError
from .retrieval import select_by_fraction
from .scoring import ScoreVector, ScoringConfig


class EmbeddingRetriever(ParamsMixin):
    """Score a prior embedding matrix against fitted target data, select rows.

    Parameters
    ----------
    method, scale_c, batch_size, num_batches, seed, leave_self_out
        The :class:`~iwre.scoring.ScoringConfig` fields, with its defaults
        and checks (run by :meth:`fit`), except that ``seed`` defaults to 0
        so ``iwr`` runs without one. For ``iwr``, prior batch KDEs are fit
        on the matrix passed to :meth:`score_samples` / :meth:`transform`.
    fraction : float
        Fraction of prior rows kept by :meth:`transform`.
    threads : int or None
        Worker threads for scoring, a positive integer; ``None`` uses the
        CPUs this process may run on (its affinity set).
    """

    def __init__(
        self,
        method: str = "iwr",
        fraction: float = 0.3,
        scale_c: float = ScoringConfig.scale_c,
        batch_size: int | None = None,
        num_batches: int = ScoringConfig.num_batches,
        seed: int = 0,
        leave_self_out: bool = False,
        threads: int | None = 1,
    ):
        self.method = method
        self.fraction = fraction
        self.scale_c = scale_c
        self.batch_size = batch_size
        self.num_batches = num_batches
        self.seed = seed
        self.leave_self_out = leave_self_out
        self.threads = threads

    def fit(self, X, y=None) -> "EmbeddingRetriever":
        """Store the target data and the scoring configuration."""
        check_threads(self.threads)
        params = self.get_params()
        self.config_ = ScoringConfig(
            **{f.name: params[f.name] for f in fields(ScoringConfig)}
        )
        self.target_ = X if isinstance(X, EmbeddingDataset) else EmbeddingDataset(X)
        return self

    def score_vector(self, X) -> ScoreVector:
        """Full :class:`ScoreVector` (with provenance) for a prior matrix."""
        if not hasattr(self, "target_"):
            raise ValidationError("retriever is not fitted", code="not_fitted")
        return self.config_.score(self.target_, X, self.threads)

    def score_samples(self, X) -> np.ndarray:
        """Per-row retrieval scores (higher = more retrievable)."""
        return self.score_vector(X).values

    def transform(self, X) -> np.ndarray:
        """Return the top-``fraction`` rows of ``X`` by retrieval score.

        The selection manifest is kept on ``manifest_`` for inspection.
        """
        scores = self.score_vector(X)
        self.manifest_ = select_by_fraction(scores, self.fraction)
        idx = self.manifest_.selected_indices
        if isinstance(X, EmbeddingDataset):
            return gather_rows(X.data, idx)
        return np.asarray(X)[idx]
