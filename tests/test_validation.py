"""One rule for every count, seed and bin count a library entry point takes,
and one for every array it takes.

A bool is never a count and a string is never parsed: both are refused
with ``bad_param``. An integral float is the integer it equals, so it gives
the same result bits, and the value held or used is the converted one. An
array holding anything but numbers is refused with ``malformed_value``.
"""

import pickle

import numpy as np
import pytest

from iwre import (
    EmbeddingDataset,
    EmbeddingRetriever,
    GaussianKde,
    GaussianMixture,
    MetadataTable,
    PriorBatchSpec,
    ScoreMethod,
    ScoringConfig,
    build_report,
    cotrain_weights,
    fit_prior_batched,
    generate,
    log_mean_exp,
    make_scenario,
    resample_by_weight,
    scott_bandwidth,
    select_by_fraction,
    task_bin_counts,
)
from iwre.errors import ValidationError

_rng = np.random.default_rng(29)
TARGET = EmbeddingDataset(_rng.standard_normal((20, 2)))
PRIOR = EmbeddingDataset(_rng.standard_normal((60, 2)))
SCORES = ScoringConfig(ScoreMethod.KDE_TARGET).score(TARGET, PRIOR)
MANIFEST = select_by_fraction(SCORES, 0.5)
META = MetadataTable(np.arange(60) // 6, np.arange(60) % 6, np.full(60, 6),
                     np.arange(60) % 3 - 1, ("a", "b"))


def _batches(batch_size=16, num_batches=3, rng_seed=2):
    spec = PriorBatchSpec(batch_size, num_batches, rng_seed=rng_seed)
    kdes = fit_prior_batched(PRIOR, spec)
    return (spec.batch_size, spec.num_batches, spec.rng_seed,
            [(k.support_row_ids_.tobytes(), k.covariance_.tobytes()) for k in kdes])


def _synth(rng_seed=1, n_target=5, n_prior=7):
    scenario = make_scenario("cluster_bias", rng_seed=rng_seed)
    data = generate(scenario, n_target, n_prior)
    return (scenario.rng_seed, data.target.data.tobytes(), data.prior.data.tobytes(),
            data.target.source_id, data.prior.source_id)


def _resample(sample_count=10, rng_seed=1):
    manifest = resample_by_weight(SCORES, sample_count, rng_seed)
    return (manifest.selected_indices.tobytes(), manifest.multiplicities.tobytes(),
            manifest.rule_param)


# Each entry point, as a call of one counted argument, and an integer it takes.
ENTRIES = {
    "batch_size": (lambda v: _batches(batch_size=v), 16),
    "num_batches": (lambda v: _batches(num_batches=v), 3),
    "batch_rng_seed": (lambda v: _batches(rng_seed=v), 0),
    "cotrain_target_count": (lambda v: cotrain_weights(v, 7), 3),
    "cotrain_retrieved_count": (lambda v: cotrain_weights(3, v), 7),
    "scott_count": (lambda v: scott_bandwidth(4.0, v, 2), 4),
    "scott_dim": (lambda v: scott_bandwidth(4.0, 100, v), 4),
    "scenario_rng_seed": (lambda v: _synth(rng_seed=v), 1),
    "n_target": (lambda v: _synth(n_target=v), 5),
    "n_prior": (lambda v: _synth(n_prior=v), 7),
    "task_bin_counts": (lambda v: task_bin_counts(MANIFEST, META, v), 4),
    "build_report": (lambda v: build_report(MANIFEST, META, bin_count=v), 4),
    "sample_count": (lambda v: _resample(sample_count=v), 10),
    "resample_rng_seed": (lambda v: _resample(rng_seed=v), 1),
    "score_threads": (lambda v: ScoringConfig(seed=0).score(TARGET, PRIOR, threads=v)
                      .values.tobytes(), 2),
    "retriever_threads": (lambda v: EmbeddingRetriever(threads=v).fit(TARGET)
                          .score_samples(PRIOR).tobytes(), 2),
}


@pytest.mark.parametrize("bad", [True, "4"], ids=["bool", "string"])
@pytest.mark.parametrize("entry", list(ENTRIES))
def test_bool_and_string_are_refused(entry, bad):
    call, _ = ENTRIES[entry]
    with pytest.raises(ValidationError) as exc:
        call(bad)
    assert exc.value.code == "bad_param"


@pytest.mark.parametrize("entry", list(ENTRIES))
def test_integral_float_gives_the_integers_bits(entry):
    call, integer = ENTRIES[entry]
    assert pickle.dumps(call(float(integer))) == pickle.dumps(call(integer))


MIXTURE = GaussianMixture([0.25, 0.75], [[0.0, 0.0], [1.0, 1.0]], [np.eye(2)] * 2)


def _from_parameters(covariance):
    return GaussianKde.from_parameters([[0.0]], 1.0, covariance)


# Each array input, a value it refuses and the code; no value is parsed.
ARRAY_INPUTS = {
    "covariance_bool": (_from_parameters, [[True]], "malformed_value"),
    "covariance_string": (_from_parameters, [["a"]], "malformed_value"),
    "log_mean_exp_strings": (log_mean_exp, ["1.5", "2"], "malformed_value"),
    "log_mean_exp_bools": (log_mean_exp, [True, False], "malformed_value"),
    "log_mean_exp_empty": (log_mean_exp, [], "bad_shape"),
    "log_mean_exp_bool_array": (log_mean_exp, [np.zeros(2), np.ones(2, bool)],
                                "malformed_value"),
    "log_mean_exp_string_array": (log_mean_exp, [[0.0], np.array(["1"])],
                                  "malformed_value"),
    "log_mean_exp_object_array": (log_mean_exp, [np.array([1.0, "a"], object)],
                                  "malformed_value"),
    "log_mean_exp_ragged_arrays": (log_mean_exp, [np.zeros(2), np.zeros(3)],
                                   "malformed_value"),
    "log_pdf_strings": (MIXTURE.log_pdf, ["0", "0"], "malformed_value"),
    "log_pdf_bools": (MIXTURE.log_pdf, [True, False], "malformed_value"),
    "log_pdf_nan": (MIXTURE.log_pdf, [np.nan, 0.0], "non_finite"),
    "log_pdf_wrong_dim": (MIXTURE.log_pdf, [0.0, 0.0, 0.0], "dim_mismatch"),
}


@pytest.mark.parametrize("entry", list(ARRAY_INPUTS))
def test_array_inputs_take_numbers_only(entry):
    call, bad, code = ARRAY_INPUTS[entry]
    with pytest.raises(ValidationError) as exc:
        call(bad)
    assert exc.value.code == code


def test_array_inputs_keep_their_values():
    # What the rule admits is used as before: integers are numbers, a 1-D
    # point is one row, and log_mean_exp leaves its input as it was.
    values = np.array([[-1.0, 0.5], [2.0, -3.0]])
    kept = values.copy()
    np.testing.assert_allclose(log_mean_exp(values, axis=0),
                               np.log(np.exp(kept).mean(axis=0)), rtol=1e-12)
    np.testing.assert_array_equal(values, kept)
    assert log_mean_exp([1, 1]) == 1.0

    class Unwalked(np.ndarray):  # a held array's dtype is read, not its elements
        def __iter__(self):
            raise AssertionError("iterated")

    held = [np.zeros(3).view(Unwalked), np.array([[0.0, 0.0, 0.0]])[0]]
    assert log_mean_exp(held).tolist() == [0.0] * 3
    assert MIXTURE.log_pdf([1, 0]).tolist() == MIXTURE.log_pdf([[1.0, 0.0]]).tolist()
    assert _from_parameters([[2]]).covariance_.tolist() == [[2.0]]
