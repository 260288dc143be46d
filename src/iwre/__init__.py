"""Importance-weighted retrieval engine for embedding datasets.

Scores every row of a large prior embedding dataset against a small target
dataset — by nearest-neighbor distance, a soft-max relaxation, target KDE
density, or the full KDE importance weight — and selects the top-weighted
subset for co-training.

The namespace is lazy (PEP 562): ``import iwre`` loads no submodule and no
numpy; a public name imports its defining module on first use.
"""

import importlib

# Each public name by its defining submodule.
_EXPORTS = {
    "_version": "__version__",
    "analysis": "RetrievalQuality WeightCheckResult build_report emit_report "
                "evaluate_retrieval load_report oracle_weight_check row_relevance "
                "task_bin_counts",
    "dataset": "EmbeddingDataset MetadataTable load_embeddings "
               "load_metadata pair_metadata save_embeddings save_metadata",
    "errors": "EngineError NumericalError ValidationError",
    "kde": "BandwidthSpec GaussianKde fit_kde log_mean_exp sample_covariance "
           "scott_bandwidth",
    "retrieval": "CotrainWeights RetrievalManifest SelectionRule cotrain_weights "
                 "load_manifest materialize resample_by_weight "
                 "save_cotrain_weights save_manifest select_by_fraction "
                 "select_by_threshold",
    "retriever": "EmbeddingRetriever",
    "scoring": "PriorBatchSpec ScoreMethod ScoreVector ScoringConfig "
               "fit_prior_batched load_scores save_scores",
    "synthbench": "GaussianMixture OracleDensities SyntheticData SyntheticScenario "
                  "generate load_oracle make_scenario save_oracle",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names.split()}
__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
