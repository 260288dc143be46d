"""End-to-end CLI pipeline: synth, score, retrieve, sweep, analyze."""

import argparse
import json
import logging
import os
import re
import shlex
import struct
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import iwre
from iwre import cli
from iwre.cli import build_parser, main
from iwre.dataset import (
    EmbeddingDataset,
    load_embeddings,
    load_metadata,
    save_embeddings,
)
from helpers import JSON_VALUES
from iwre.errors import NumericalError, ValidationError
from iwre.retrieval import load_manifest
from iwre.kde import GaussianKde, scott_bandwidth
from iwre.scoring import ScoreMethod, ScoringConfig, load_scores, save_scores


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def fixtures(tmp_path):
    out = tmp_path / "synth"
    assert run(
        "synth", "--scenario", "gaussian_ratio", "--n-target", 400,
        "--n-prior", 1200, "--seed", 3, "--out", out,
    ) == 0
    return out


class TestSynth:
    def test_writes_all_fixture_files(self, fixtures):
        for name in ("target.bin", "prior.bin", "prior_meta.csv", "labels.json",
                     "oracle.json"):
            assert (fixtures / name).exists()

    def test_oracle_records_exact_specs(self, fixtures):
        oracle = json.loads((fixtures / "oracle.json").read_text())
        assert oracle["scenario_id"] == "gaussian_ratio"
        assert oracle["target_mixture"]["means"] == [[0.0]]
        assert oracle["target_mixture"]["covariances"] == [[[1.0]]]
        assert oracle["prior_mixture"]["covariances"] == [[[4.0]]]
        assert oracle["n_target"] == 400 and oracle["n_prior"] == 1200

    def test_same_seed_identical_files(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run(
                "synth", "--scenario", "cluster_bias", "--n-target", 50,
                "--n-prior", 200, "--seed", 9, "--out", out,
            ) == 0
        for name in ("target.bin", "prior.bin", "prior_meta.csv", "labels.json",
                     "oracle.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_unknown_scenario_rejected_by_parser(self, tmp_path, capsys):
        assert run("synth", "--scenario", "bogus", "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert "error[bad_flag]" in err and "bogus" in err
        assert not (tmp_path / "out").exists()

    def test_fig2_fixture_passes_reversal(self, tmp_path):
        out = tmp_path / "fig2"
        assert run("synth", "--scenario", "fig2_toy", "--out", out) == 0
        target = load_embeddings(out / "target.bin")
        prior = load_embeddings(out / "prior.bin")
        nn, dens = (ScoringConfig(method, scale_c=4.0).score(target, prior).values
                    for method in (ScoreMethod.NN_L2, ScoreMethod.KDE_TARGET))
        assert nn[1] > nn[0] and dens[0] > dens[1]


class TestScoreRetrieve:
    def test_score_then_retrieve(self, fixtures, tmp_path, capsys):
        out = tmp_path / "run"
        assert run(
            "score", "--method", "iwr", "--seed", 5, "--bandwidth-scale", 1.0,
            "--target", fixtures / "target.bin", "--prior", fixtures / "prior.bin",
            "--out", out,
        ) == 0
        printed = capsys.readouterr().out
        scores = load_scores(out / "scores.bin")
        assert scores.config_fingerprint in printed
        assert scores.params["method"] == "iwr"
        assert scores.params["fingerprint_scheme"] == 2
        target_id = load_embeddings(fixtures / "target.bin").source_id
        assert scores.target_source_id == target_id
        assert len(scores) == 1200

        assert run(
            "retrieve", "--scores", out / "scores.bin",
            "--target", fixtures / "target.bin", "--prior", fixtures / "prior.bin",
            "--meta", fixtures / "prior_meta.csv", "--fraction", 0.3, "--out", out,
        ) == 0
        manifest = load_manifest(out / "manifest.json")
        assert manifest.size == 360
        assert manifest.target_source_id == target_id
        retrieved = load_embeddings(out / "retrieved.bin")
        assert retrieved.rows == 360
        assert (out / "retrieved_meta.csv").exists()
        weights = (out / "weights.csv").read_text().strip().splitlines()
        total = sum(float(line.split(",")[2]) for line in weights[1:])
        assert abs(total - 1.0) <= 1e-12

    def test_fraction_arithmetic(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        target = tmp_path / "t.bin"
        prior = tmp_path / "p.bin"
        save_embeddings(EmbeddingDataset(rng.standard_normal((20, 4))), target)
        save_embeddings(EmbeddingDataset(rng.standard_normal((10_000, 4))), prior)
        out = tmp_path / "run"
        assert run("score", "--method", "nn", "--target", target, "--prior", prior,
                   "--out", out) == 0
        assert run("retrieve", "--scores", out / "scores.bin", "--target", target,
                   "--prior", prior, "--fraction", 0.025, "--out", out) == 0
        assert load_manifest(out / "manifest.json").size == 250

    def test_threshold_rule(self, fixtures, tmp_path):
        out = tmp_path / "run"
        assert run("score", "--method", "nn", "--target", fixtures / "target.bin",
                   "--prior", fixtures / "prior.bin", "--out", out) == 0
        assert run(
            "retrieve", "--scores", out / "scores.bin",
            "--target", fixtures / "target.bin", "--prior", fixtures / "prior.bin",
            "--threshold", -0.5, "--out", out,
        ) == 0
        manifest = load_manifest(out / "manifest.json")
        assert manifest.scores_at_selection.min() >= -0.5

    def test_both_rules_rejected(self, fixtures, tmp_path):
        out = tmp_path / "run"
        run("score", "--method", "nn", "--target", fixtures / "target.bin",
            "--prior", fixtures / "prior.bin", "--out", out)
        code = run(
            "retrieve", "--scores", out / "scores.bin",
            "--target", fixtures / "target.bin", "--prior", fixtures / "prior.bin",
            "--fraction", 0.3, "--threshold", 0.0, "--out", out,
        )
        assert code == 2

    def test_stale_scores_detected(self, fixtures, tmp_path, capsys):
        out = tmp_path / "run"
        run("score", "--method", "iwr", "--seed", 5, "--target",
            fixtures / "target.bin", "--prior", fixtures / "prior.bin", "--out", out)
        code = run(
            "retrieve", "--scores", out / "scores.bin",
            "--target", fixtures / "target.bin", "--prior", fixtures / "prior.bin",
            "--bandwidth-scale", 2.0, "--fraction", 0.3, "--out", out,
        )
        assert code == 2
        assert "fingerprint" in capsys.readouterr().err

    def test_lse_scores_stale_at_another_scale(self, fixtures, tmp_path, capsys):
        # lse's temperature comes from --bandwidth-scale, so scores made at
        # scale 4 are stale at scale 1.
        out = tmp_path / "run"
        data = ["--target", fixtures / "target.bin", "--prior", fixtures / "prior.bin"]
        assert run("score", "--method", "lse", *data, "--out", out) == 0
        capsys.readouterr()
        assert run("retrieve", "--scores", out / "scores.bin", *data,
                   "--bandwidth-scale", 1, "--fraction", 0.3,
                   "--out", tmp_path / "stale") == 2
        assert "error[fingerprint_mismatch]" in capsys.readouterr().err
        assert not (tmp_path / "stale").exists()
        assert run("retrieve", "--scores", out / "scores.bin", *data,
                   "--bandwidth-scale", 4, "--fraction", 0.3, "--out", out) == 0

    def test_fingerprint_ignores_fields_the_method_does_not_read(
        self, fixtures, tmp_path
    ):
        out = tmp_path / "run"
        run("score", "--method", "nn", "--target", fixtures / "target.bin",
            "--prior", fixtures / "prior.bin", "--out", out)
        assert run(
            "retrieve", "--scores", out / "scores.bin",
            "--target", fixtures / "target.bin", "--prior", fixtures / "prior.bin",
            "--bandwidth-scale", 2.0, "--fraction", 0.3, "--out", out,
        ) == 0

    @pytest.mark.parametrize("method", ["lse", "iwr"])
    def test_round_trip_with_data_dependent_defaults(self, fixtures, tmp_path, method):
        out = tmp_path / "run"
        data = ["--target", fixtures / "target.bin", "--prior", fixtures / "prior.bin"]
        assert run("score", "--method", method, "--seed", 5, *data,
                   "--out", out) == 0
        params = load_scores(out / "scores.bin").params
        if method == "lse":
            assert params["temperature"] == scott_bandwidth(4.0, 400, 1)
        else:
            assert params["batch_size"] == 1200
        assert run("retrieve", "--scores", out / "scores.bin", *data,
                   "--fraction", 0.3, "--out", out) == 0

    def test_retrieve_fits_no_kde(self, fixtures, tmp_path, monkeypatch):
        out = tmp_path / "run"
        data = ["--target", fixtures / "target.bin", "--prior", fixtures / "prior.bin"]
        assert run("score", "--method", "iwr", "--seed", 5, *data,
                   "--out", out) == 0

        def no_fit(*args, **kwargs):
            raise AssertionError("retrieve fitted a KDE")

        monkeypatch.setattr(GaussianKde, "fit", no_fit)
        assert run("retrieve", "--scores", out / "scores.bin", *data,
                   "--fraction", 0.3, "--out", out) == 0

    def test_stale_after_input_change(self, fixtures, tmp_path):
        out = tmp_path / "run"
        run("score", "--method", "nn", "--target", fixtures / "target.bin",
            "--prior", fixtures / "prior.bin", "--out", out)
        # regenerate the target with a different seed: scores are now stale
        assert run(
            "synth", "--scenario", "gaussian_ratio", "--n-target", 400,
            "--n-prior", 1200, "--seed", 4, "--out", fixtures,
        ) == 0
        code = run(
            "retrieve", "--scores", out / "scores.bin",
            "--target", fixtures / "target.bin", "--prior", fixtures / "prior.bin",
            "--fraction", 0.3, "--out", out,
        )
        assert code == 2

    def test_stale_refusal_names_a_rewritten_prior(self, fixtures, tmp_path,
                                                   capsys):
        out = tmp_path / "run"
        data = ["--target", fixtures / "target.bin", "--prior", fixtures / "prior.bin"]
        assert run("score", "--method", "nn", *data, "--out", out) == 0
        old_id = load_embeddings(fixtures / "prior.bin").source_id
        rng = np.random.default_rng(11)
        save_embeddings(EmbeddingDataset(rng.standard_normal((1200, 1))),
                        fixtures / "prior.bin")
        new_id = load_embeddings(fixtures / "prior.bin").source_id
        capsys.readouterr()
        assert run("retrieve", "--scores", out / "scores.bin", *data,
                   "--fraction", 0.3, "--out", tmp_path / "r") == 2
        err = capsys.readouterr().err
        assert err.startswith("error[fingerprint_mismatch]: stale scores: "
                              "prior_source_id ")
        assert new_id in err and old_id in err
        assert not (tmp_path / "r").exists()

    def test_stale_refusal_names_the_scale(self, fixtures, tmp_path, capsys):
        out = tmp_path / "run"
        data = ["--target", fixtures / "target.bin", "--prior", fixtures / "prior.bin"]
        assert run("score", "--method", "kde", "--bandwidth-scale", 4, *data,
                   "--out", out) == 0
        capsys.readouterr()
        assert run("retrieve", "--scores", out / "scores.bin", *data,
                   "--bandwidth-scale", 2, "--fraction", 0.3,
                   "--out", tmp_path / "r") == 2
        err = capsys.readouterr().err
        assert "error[fingerprint_mismatch]: stale scores: scale_c is 2.0 here " \
               "but 4.0 in the score file" in err

    def test_missing_input_is_validation_error(self, tmp_path, capsys):
        code = run("score", "--method", "nn", "--target", tmp_path / "nope.bin",
                   "--prior", tmp_path / "nope.bin", "--out", tmp_path)
        assert code == 2
        assert "missing_input" in capsys.readouterr().err

    def test_seed_required_for_iwr(self, fixtures, tmp_path, capsys):
        code = run("score", "--method", "iwr", "--target", fixtures / "target.bin",
                   "--prior", fixtures / "prior.bin", "--out", tmp_path)
        assert code == 2
        assert "seed_required" in capsys.readouterr().err

    def test_csv_inputs(self, tmp_path):
        target = tmp_path / "t.csv"
        prior = tmp_path / "p.csv"
        target.write_text("0.0,0.0\n1.0,0.0\n")
        prior.write_text("0.4,0.0\n5.0,5.0\n")
        out = tmp_path / "run"
        assert run("score", "--method", "nn", "--target", target, "--prior", prior,
                   "--out", out) == 0
        scores = load_scores(out / "scores.bin")
        np.testing.assert_allclose(scores.values[0], -0.16, atol=1e-12)

    def test_single_row_target_scores_are_negated_distances(self, tmp_path):
        rng = np.random.default_rng(7)
        target = EmbeddingDataset(np.array([[1.0, -2.0, 0.5]]))
        prior_data = rng.standard_normal((30, 3))
        t, p = tmp_path / "t.bin", tmp_path / "p.bin"
        save_embeddings(target, t)
        save_embeddings(EmbeddingDataset(prior_data), p)
        out = tmp_path / "run"
        assert run("score", "--method", "nn", "--target", t, "--prior", p,
                   "--out", out) == 0
        scores = load_scores(out / "scores.bin")
        want = -((prior_data - target.data[0]) ** 2).sum(axis=1)
        np.testing.assert_allclose(scores.values, want, rtol=1e-15)

    def test_iwr_scores_pass_oracle_check(self, fixtures, tmp_path):
        from iwre.synthbench import load_oracle, oracle_weight_check

        out = tmp_path / "run"
        assert run(
            "score", "--method", "iwr", "--seed", 5, "--bandwidth-scale", 1.0,
            "--target", fixtures / "target.bin", "--prior", fixtures / "prior.bin",
            "--out", out,
        ) == 0
        scores = load_scores(out / "scores.bin")
        oracle = load_oracle(fixtures / "oracle.json")
        prior = load_embeddings(fixtures / "prior.bin")
        check = oracle_weight_check(oracle, scores, prior)
        assert check.mean_abs_error <= 0.3

    def test_numerical_error_maps_to_exit_3(self, fixtures, tmp_path, monkeypatch):
        def boom(*args, **kwargs):
            raise NumericalError("synthetic failure", code="cholesky_exhausted")

        monkeypatch.setattr(ScoringConfig, "score", boom)
        code = run("score", "--method", "nn", "--target", fixtures / "target.bin",
                   "--prior", fixtures / "prior.bin", "--out", tmp_path)
        assert code == 3


# (CLI flags, the same configuration in the library)
_LIBRARY_CONFIGS = {
    "nn": (["--method", "nn"], ScoringConfig(ScoreMethod.NN_L2)),
    "lse": (["--method", "lse"], ScoringConfig(ScoreMethod.LSE)),
    "kde": (["--method", "kde", "--bandwidth-scale", 2.0],
            ScoringConfig(ScoreMethod.KDE_TARGET, scale_c=2.0)),
    "iwr": (["--method", "iwr", "--seed", 3, "--batch-size", 300],
            ScoringConfig(ScoreMethod.IWR, seed=3, batch_size=300)),
    "iwr_loo": (["--method", "iwr", "--seed", 3, "--batch-size", 300,
                 "--config", "{tmp}/loo.json"],
                ScoringConfig(ScoreMethod.IWR, seed=3, batch_size=300,
                              leave_self_out=True)),
}


class TestLibraryScoreFiles:
    """A score file's record travels with its ScoreVector: the library's
    ScoringConfig.score and save_scores write what `iwre score` writes."""

    @pytest.mark.parametrize("case", list(_LIBRARY_CONFIGS))
    def test_library_scores_are_the_cli_files(self, fixtures, tmp_path, case):
        flags, config = _LIBRARY_CONFIGS[case]
        (tmp_path / "loo.json").write_text('{"leave_self_out": true}')
        flags = [str(f).format(tmp=tmp_path) for f in flags]
        data = ["--target", fixtures / "target.bin", "--prior", fixtures / "prior.bin"]
        cli_dir, lib_dir = tmp_path / "cli", tmp_path / "lib"
        assert run("score", *flags, *data, "--out", cli_dir) == 0
        lib_dir.mkdir()
        target = load_embeddings(fixtures / "target.bin")
        prior = load_embeddings(fixtures / "prior.bin")
        save_scores(config.score(target, prior), lib_dir / "scores.bin")
        for directory in (cli_dir, lib_dir):
            assert run("retrieve", "--scores", directory / "scores.bin", *data,
                       "--fraction", 0.3, "--out", directory) == 0
        for name in ("scores.bin", "scores.json", "manifest.json"):
            assert (lib_dir / name).read_bytes() == (cli_dir / name).read_bytes(), name
        # A load and save copies the file, record included.
        save_scores(load_scores(cli_dir / "scores.bin"), tmp_path / "copy.bin")
        for name in ("scores.bin", "scores.json"):
            copy = (tmp_path / "copy.bin").with_suffix(Path(name).suffix)
            assert copy.read_bytes() == (cli_dir / name).read_bytes(), name

    @pytest.fixture(scope="class")
    def scored(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("scored")
        rng = np.random.default_rng(4)
        for name, rows in (("t.bin", 20), ("p.bin", 60)):
            save_embeddings(EmbeddingDataset(rng.standard_normal((rows, 2))),
                            out / name)
        assert run("score", "--method", "iwr", "--seed", 1, "--batch-size", 20,
                   "--target", out / "t.bin", "--prior", out / "p.bin",
                   "--out", out) == 0
        sidecar = json.loads((out / "scores.json").read_text())
        fields = [(key,) for key in sidecar] + [("params", k) for k in sidecar["params"]]
        return out, sidecar, fields

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_any_sidecar_value_is_read_or_refused(self, scored, data):
        out, sidecar, fields = scored
        where = data.draw(st.sampled_from(fields))
        edited = json.loads(json.dumps(sidecar))
        parent = edited if len(where) == 1 else edited["params"]
        parent[where[-1]] = data.draw(JSON_VALUES)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "scores.bin"
            path.write_bytes((out / "scores.bin").read_bytes())
            path.with_suffix(".json").write_text(json.dumps(edited))
            try:
                scores = load_scores(path)
                config = ScoringConfig.from_sidecar(scores)
            except ValidationError:
                return
        assert isinstance(config, ScoringConfig) and len(scores) == 60
        assert json.dumps(dict(scores.params)) == json.dumps(edited["params"])

    # A hashed value, the stored fingerprint, and a value written otherwise
    # (4 for 4.0, equal but hashed as another): each leaves a record that
    # does not hash to the sidecar's fingerprint, refused when it is read.
    @pytest.mark.parametrize("where, value", [
        (("params", "seed"), 2), (("config_fingerprint",), "0" * 16),
        (("params", "scale_c"), 4),
    ], ids=["params_seed", "config_fingerprint", "params_scale_c_int"])
    def test_edited_sidecar_is_refused_when_read(self, scored, tmp_path, capsys,
                                                 where, value):
        out, sidecar, _ = scored
        edited = json.loads(json.dumps(sidecar))
        (edited if len(where) == 1 else edited["params"])[where[-1]] = value
        (tmp_path / "scores.bin").write_bytes((out / "scores.bin").read_bytes())
        (tmp_path / "scores.json").write_text(json.dumps(edited))
        capsys.readouterr()
        assert run("retrieve", "--scores", tmp_path / "scores.bin",
                   "--target", out / "t.bin", "--prior", out / "p.bin",
                   "--fraction", 0.3, "--out", tmp_path / "r") == 2
        err = capsys.readouterr().err
        assert err.startswith("error[bad_sidecar]: ") and err.count("\n") == 1
        assert (f"config_fingerprint {edited['config_fingerprint']!r} is not the "
                "one its params record") in err
        assert not (tmp_path / "r").exists()


def _edit_json(edit):
    def write(path):
        payload = json.loads(path.read_text())
        edit(payload)
        path.write_text(json.dumps(payload))

    return write


def _write(text):
    return lambda path: path.write_text(text)


def _write_scores(shape):
    return lambda path: save_embeddings(EmbeddingDataset(np.zeros(shape)), path)


# (case, command reading the file, file, how it is broken, expected error code)
MALFORMED = [
    ("config_invalid_json", "score", "config.json", _write("{bad"), "bad_config"),
    ("config_not_object", "score", "config.json", _write("[1, 2]"), "bad_config"),
] + [
    (f"config_threads_{case}", "score", "config.json",
     _write(json.dumps({"method": "nn", "threads": value})), "bad_param")
    for case, value in [("string", "4"), ("zero", 0), ("negative", -3),
                        ("float", 2.5)]
] + [
] + [
    # A config value that its option's type would change is refused.
    (f"config_{case}", command, "config.json", _write(json.dumps(values)),
     "bad_param")
    for case, command, values in [
        ("fraction_string", "retrieve", {"fraction": "abc"}),
        ("alpha_string", "retrieve", {"fraction": 0.3, "alpha": "x"}),
        ("threshold_list", "retrieve", {"threshold": [1]}),
        ("meta_int", "retrieve", {"fraction": 0.3, "meta": 7}),
        ("fraction_bool", "retrieve", {"fraction": True}),
        ("seed_string", "synth", {"seed": "x"}),
        ("seed_float", "synth", {"seed": 1.5}),
        # Scoring values are range-checked whether or not the method reads them.
        ("seed_negative", "synth", {"seed": -1}),
        ("iwr_seed_negative", "score", {"method": "iwr", "seed": -1}),
        ("nn_scale_and_batches", "score",
         {"method": "nn", "bandwidth_scale": -1, "num_batches": 0}),
        ("bandwidth_scale_negative", "retrieve",
         {"fraction": 0.3, "bandwidth_scale": -1}),
        # ... also by the subcommands that do not score.
        ("analyze_scale_and_batches", "analyze",
         {"bandwidth_scale": -1, "num_batches": 0}),
        ("synth_scale_negative", "synth", {"bandwidth_scale": -1}),
        ("synth_batch_size_one", "synth", {"batch_size": 1}),
    ]
] + [
    ("config_method_unknown", "analyze", "config.json",
     _write(json.dumps({"method": "bogus"})), "bad_method"),
    # lse's temperature is the target's Scott bandwidth at bandwidth_scale.
    ("config_lse_temp_removed", "analyze", "config.json",
     _write(json.dumps({"lse_temp": 0.5})), "bad_config"),
    ("sidecar_params_negative_scale", "retrieve", "scores.json",
     _edit_json(lambda d: d["params"].update(scale_c=-1.0)), "bad_param"),
] + [
    ("sidecar_invalid_json", "retrieve", "scores.json", _write("{bad"),
     "bad_sidecar"),
    ("sidecar_unknown_method", "retrieve", "scores.json",
     _edit_json(lambda d: d.update(method="bogus")), "bad_sidecar"),
    # The fixture prior has 1200 rows.
    ("scores_row_count", "retrieve", "scores.bin", _write_scores((1199, 1)),
     "row_count_mismatch"),
    ("scores_dim_2", "retrieve", "scores.bin", _write_scores((1200, 2)),
     "dim_mismatch"),
    ("sidecar_missing_method", "retrieve", "scores.json",
     _edit_json(lambda d: d.pop("method")), "bad_sidecar"),
    ("sidecar_params_missing_field", "retrieve", "scores.json",
     _edit_json(lambda d: d["params"].pop("seed")), "bad_sidecar"),
    ("sidecar_old_scheme", "retrieve", "scores.json",
     _edit_json(lambda d: d["params"].pop("fingerprint_scheme")), "bad_sidecar"),
    ("sidecar_params_not_object", "retrieve", "scores.json",
     _edit_json(lambda d: d.update(params=[1])), "bad_sidecar"),
    ("sidecar_params_empty", "retrieve", "scores.json",
     _edit_json(lambda d: d.update(params={})), "bad_sidecar"),
    ("sidecar_fingerprint_not_string", "retrieve", "scores.json",
     _edit_json(lambda d: d.update(config_fingerprint=7)), "bad_sidecar"),
    # The top level must agree with the record the fingerprint checks.
    ("sidecar_prior_id_not_its_record", "retrieve", "scores.json",
     _edit_json(lambda d: d.update(prior_source_id="sha256:0000000000000000")),
     "bad_sidecar"),
    ("sidecar_target_id_not_its_record", "retrieve", "scores.json",
     _edit_json(lambda d: d.update(target_source_id=5)), "bad_sidecar"),
    ("sidecar_method_not_its_record", "retrieve", "scores.json",
     _edit_json(lambda d: d.update(method="lse")), "bad_sidecar"),
    ("sidecar_missing_prior_id", "retrieve", "scores.json",
     _edit_json(lambda d: d.pop("prior_source_id")), "bad_sidecar"),
    ("sidecar_params_prior_id_edited", "retrieve", "scores.json",
     _edit_json(lambda d: d["params"].update(prior_source_id="x")), "bad_sidecar"),
    ("manifest_invalid_json", "analyze", "manifest.json", _write("{bad"),
     "bad_manifest"),
    ("manifest_missing_indices", "analyze", "manifest.json",
     _edit_json(lambda d: d.pop("selected_indices")), "bad_manifest"),
    # A manifest from before manifests recorded the scoring method.
    ("manifest_missing_method", "analyze", "manifest.json",
     _edit_json(lambda d: d.pop("method")), "bad_manifest"),
    ("manifest_unknown_method", "analyze", "manifest.json",
     _edit_json(lambda d: d.update(method="bogus")), "bad_manifest"),
    ("manifest_null_method", "analyze", "manifest.json",
     _edit_json(lambda d: d.update(method=None)), "bad_manifest"),
    ("manifest_missing_prior_id", "analyze", "manifest.json",
     _edit_json(lambda d: d.pop("prior_source_id")), "bad_manifest"),
    ("manifest_missing_target_id", "analyze", "manifest.json",
     _edit_json(lambda d: d.pop("target_source_id")), "bad_manifest"),
] + [
    # Each read without truncation or traceback: indices and multiplicities
    # are integers within int64, scores and the parameter numbers.
    (f"manifest_{case}", "analyze", "manifest.json", _edit_json(edit),
     "bad_manifest")
    for case, edit in [
        ("float_indices", lambda d: d.update(
            selected_indices=[i + 0.7 for i in d["selected_indices"]])),
        ("integral_float_indices", lambda d: d.update(
            selected_indices=[float(i) for i in d["selected_indices"]])),
        ("bool_indices", lambda d: d.update(selected_indices=[True, 2],
                                            scores_at_selection=[-1.0, -1.0])),
        ("null_indices", lambda d: d.update(selected_indices=None)),
        ("nested_indices", lambda d: d.update(selected_indices=[[1], [2]],
                                              scores_at_selection=[-1.0, -1.0])),
        ("index_beyond_int64", lambda d: d.update(selected_indices=[2**70],
                                                  scores_at_selection=[-1.0])),
        ("empty_indices", lambda d: d.update(selected_indices=[],
                                             scores_at_selection=[])),
        ("unknown_rule", lambda d: d.update(rule="bogus")),
        ("rule_param_string", lambda d: d.update(rule_param="x")),
        ("rule_param_nan", lambda d: d.update(rule_param=float("nan"))),
        ("string_scores", lambda d: d.update(
            scores_at_selection=["a"] * len(d["scores_at_selection"]))),
        ("multiplicities_string", lambda d: d.update(multiplicities="x")),
        ("fingerprint_not_string", lambda d: d.update(config_fingerprint=7)),
        ("method_list", lambda d: d.update(method=["nn_l2"])),
    ]
] + [
    # Beyond analysis.MAX_BINS: no bin table of that size is allocated.
    (f"config_bins_{value}", "analyze", "config.json",
     _write(json.dumps({"bins": value})), "bad_param")
    for value in (10**9, 2**30, 10**14)
] + [
    # The manifest was selected from nn scores.
    ("analyze_method_mismatch", "analyze", "config.json",
     _write(json.dumps({"method": "kde"})), "method_mismatch"),
] + [
    (f"labels_{case}_{command}", command, "labels.json", breaker, code)
    for command in ("analyze", "sweep")
    for case, breaker, code in [
        ("invalid_json", _write("{bad"), "bad_labels"),
        ("not_object", _write("[1, 2]"), "bad_labels"),
        ("unknown_level", _write('{"core_task": "relevent"}'), "bad_relevance"),
        ("missing", lambda path: path.unlink(), "missing_input"),
    ]
]


class TestMalformedInputs:
    @pytest.mark.parametrize(
        "command,name,break_file,code", [case[1:] for case in MALFORMED],
        ids=[case[0] for case in MALFORMED],
    )
    def test_exit_2_with_error_code(self, fixtures, tmp_path, capsys, command,
                                    name, break_file, code):
        out = tmp_path / "run"
        data = ["--target", fixtures / "target.bin", "--prior", fixtures / "prior.bin"]
        assert run("score", "--method", "nn", *data, "--out", out) == 0
        assert run("retrieve", "--scores", out / "scores.bin", *data,
                   "--fraction", 0.3, "--out", out) == 0
        (out / "config.json").write_text('{"fraction": 0.3}')
        (out / "labels.json").write_text((fixtures / "labels.json").read_text())
        break_file(out / name)
        capsys.readouterr()
        refused = tmp_path / "refused"
        labelled = ["--meta", fixtures / "prior_meta.csv",
                    "--labels", out / "labels.json", "--out", refused]
        config = ["--config", out / "config.json"]
        argv = {
            "score": ["score", *config, *data, "--out", refused],
            "retrieve": ["retrieve", *config, "--scores", out / "scores.bin", *data,
                         "--out", refused],
            "analyze": ["analyze", *config, "--manifest", out / "manifest.json",
                        *labelled],
            "sweep": ["sweep", "--method", "nn", *data, "--fractions", 0.3,
                      *labelled],
            "synth": ["synth", *config, "--scenario", "cluster_bias",
                      "--n-target", 20, "--n-prior", 40, "--out", refused],
        }[command]
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error[{code}]") and err.count("\n") == 1
        assert not refused.exists()

    # Flag cases MALFORMED's nn scores and fixed argv cannot express.
    @pytest.mark.parametrize("argv,code", [
        # iwr fingerprints read scale_c: the range check must come first.
        (["retrieve", "--scores", "{out}/scores.bin", "--fraction", 0.3,
          "--bandwidth-scale", -1], "bad_param"),
        (["sweep", "--method", "nn", "--fractions", 0.3,
          "--labels", "{fixtures}/labels.json"], "missing_input"),
        (["sweep", "--method", "nn", "--fractions", 0.3,
          "--meta", "{fixtures}/prior_meta.csv"], "missing_input"),
        (["sweep", "--method", "nn"], "bad_param"),
        (["sweep", "--method", "nn", "--fractions", ""], "bad_param"),
        (["sweep", "--method", "nn", "--fractions", "0.1,x"], "bad_param"),
    ], ids=["retrieve_iwr_negative_scale", "sweep_labels_only", "sweep_meta_only",
            "sweep_no_fractions", "sweep_empty_fractions", "sweep_bad_fraction"])
    def test_bad_flag(self, fixtures, tmp_path, capsys, argv, code):
        out = tmp_path / "run"
        data = ["--target", fixtures / "target.bin", "--prior", fixtures / "prior.bin"]
        assert run("score", "--method", "iwr", "--seed", 5, *data, "--out", out) == 0
        argv = [str(a).format(out=out, fixtures=fixtures) for a in argv]
        capsys.readouterr()
        assert run(*argv, *data, "--out", out / argv[0]) == 2
        err = capsys.readouterr().err
        assert f"error[{code}]" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("bins", [0, 10_001, 10**9, 2**30, 10**14])
    def test_analyze_bins_refused_before_reading(self, tmp_path, capsys, monkeypatch,
                                                 bins):
        def unread(path):
            raise AssertionError(f"{path} read before --bins was checked")

        monkeypatch.setattr(cli, "load_manifest", unread)
        monkeypatch.setattr(cli, "load_metadata", unread)
        for name in ("manifest.json", "meta.csv"):
            (tmp_path / name).write_text("")
        assert run("analyze", "--manifest", tmp_path / "manifest.json",
                   "--meta", tmp_path / "meta.csv", "--bins", bins,
                   "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err.startswith("error[bad_param]") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    # Refused before any input is read.
    @pytest.mark.parametrize("argv", [
        ["score", "--method", "nn", "--target", "{fixtures}/target.bin",
         "--prior", "{fixtures}/prior.bin"],
        ["score", "--config", "{tmp}/absent.json", "--out", "{tmp}/out"],
        ["synth", "--out", "{tmp}/out"],
    ], ids=["no_out", "missing_config", "synth_no_scenario"])
    def test_missing_input(self, fixtures, tmp_path, capsys, argv):
        argv = [a.format(fixtures=fixtures, tmp=tmp_path) for a in argv]
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert "error[missing_input]" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    # sweep checks every fraction and scale before it scores one, and
    # writes nothing when one is refused.
    @pytest.mark.parametrize("values,code", [
        (["--fractions", "0.2,0", "--bandwidth-scales", "4,2"], "bad_fraction"),
        (["--fractions", "0.2", "--bandwidth-scales", "4,-1"], "bad_param"),
        # 0.0001 of the fixture's 1200 prior rows rounds to none.
        (["--fractions", "0.2,0.0001", "--bandwidth-scales", "4,2"],
         "empty_selection"),
    ], ids=["fraction_zero", "scale_negative", "fraction_selects_none"])
    def test_sweep_checks_before_scoring(self, fixtures, tmp_path, capsys, values,
                                         code):
        out = tmp_path / "sweep"
        assert run("sweep", "--method", "iwr", "--seed", 0, *values,
                   "--target", fixtures / "target.bin",
                   "--prior", fixtures / "prior.bin", "--out", out) == 2
        assert f"error[{code}]" in capsys.readouterr().err
        assert not out.exists()

    # Values that one output file name would write twice (`{value:g}`).
    @pytest.mark.parametrize("values,named", [
        (["--fractions", "0.3", "--bandwidth-scales", "4,4.0000001"],
         "--bandwidth-scales lists 4 "),
        (["--fractions", "0.3", "--bandwidth-scales", "4,4"],
         "--bandwidth-scales lists 4 "),
        (["--fractions", "0.3,0.30000001", "--bandwidth-scales", "4,2"],
         "--fractions lists 0.3 "),
    ], ids=["scales_close", "scales_equal", "fractions_close"])
    def test_sweep_refuses_colliding_names(self, fixtures, tmp_path, capsys,
                                           monkeypatch, values, named):
        def unread(path):
            raise AssertionError(f"{path} read before the flags were checked")

        monkeypatch.setattr(cli, "_load_dataset", unread)
        out = tmp_path / "sweep"
        assert run("sweep", "--method", "nn", *values,
                   "--target", fixtures / "target.bin",
                   "--prior", fixtures / "prior.bin", "--out", out) == 2
        err = capsys.readouterr().err
        assert "error[bad_param]" in err and named in err
        assert not out.exists()

    @pytest.mark.parametrize("threads", [0, -3])
    def test_bad_threads_flag(self, fixtures, tmp_path, capsys, threads):
        assert run("score", "--method", "nn", "--threads", threads,
                   "--target", fixtures / "target.bin",
                   "--prior", fixtures / "prior.bin", "--out", tmp_path) == 2
        err = capsys.readouterr().err
        assert "error[bad_param]" in err and "threads" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("rows,flags,named", [
        (1, [], "needs at least 2 rows, got 1"),
        (20, ["--batch-size", 50], "batch_size 50 exceeds prior rows 20"),
    ], ids=["one_row_prior", "batch_above_prior"])
    def test_iwr_prior_too_small_for_its_batches(self, fixtures, tmp_path, capsys,
                                                 rows, flags, named):
        dim = load_embeddings(fixtures / "target.bin").dim
        prior = tmp_path / "prior.bin"
        save_embeddings(EmbeddingDataset(np.random.default_rng(0).standard_normal(
            (rows, dim))), prior)
        out = tmp_path / "out"
        assert run("score", "--method", "iwr", "--seed", 0, *flags,
                   "--target", fixtures / "target.bin", "--prior", prior,
                   "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("error[bad_batch_spec]: ") and named in err
        assert not out.exists()

    def test_scores_without_a_record_are_not_another_scheme(self, fixtures,
                                                              tmp_path, capsys):
        # A sidecar whose record was emptied by hand.
        out = tmp_path / "run"
        data = ["--target", fixtures / "target.bin", "--prior", fixtures / "prior.bin"]
        assert run("score", "--method", "nn", *data, "--out", out) == 0
        _edit_json(lambda d: d.update(params={}))(out / "scores.json")
        capsys.readouterr()
        assert run("retrieve", "--scores", out / "scores.bin", *data,
                   "--fraction", 0.3, "--out", out / "r") == 2
        err = capsys.readouterr().err
        assert "error[bad_sidecar]" in err
        assert "records no scoring configuration" in err and "iwre score" in err
        assert "fingerprint scheme" not in err

    def test_old_sidecar_asks_for_rescore(self, fixtures, tmp_path, capsys):
        out = tmp_path / "run"
        data = ["--target", fixtures / "target.bin", "--prior", fixtures / "prior.bin"]
        assert run("score", "--method", "nn", *data, "--out", out) == 0
        _edit_json(lambda d: d["params"].update(fingerprint_scheme=1))(
            out / "scores.json"
        )
        assert run("retrieve", "--scores", out / "scores.bin", *data,
                   "--fraction", 0.3, "--out", out) == 2
        assert "rescore" in capsys.readouterr().err


class TestConfigFile:
    def test_flags_override_file(self, fixtures, tmp_path):
        out = tmp_path / "run"
        run("score", "--method", "nn", "--target", fixtures / "target.bin",
            "--prior", fixtures / "prior.bin", "--out", out)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "fraction": 0.5,
            "target": str(fixtures / "target.bin"),
            "prior": str(fixtures / "prior.bin"),
            "scores": str(out / "scores.bin"),
            "out": str(out),
        }))
        assert run("retrieve", "--config", config) == 0
        assert load_manifest(out / "manifest.json").size == 600
        assert run("retrieve", "--config", config, "--fraction", 0.1) == 0
        assert load_manifest(out / "manifest.json").size == 120

    def test_null_means_not_given(self, fixtures, tmp_path):
        out = tmp_path / "run"
        data = ["--target", fixtures / "target.bin", "--prior", fixtures / "prior.bin"]
        assert run("score", "--method", "iwr", "--seed", 5, *data, "--out", out) == 0
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seed": None, "alpha": None, "fraction": 0.3}))
        # The stored seed and the default alpha apply.
        assert run("retrieve", "--config", config, "--scores", out / "scores.bin",
                   *data, "--out", out) == 0

    def test_comma_list_key_must_be_a_string(self, fixtures, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"fractions": 0.3}))
        assert run("sweep", "--config", config, "--method", "nn",
                   "--target", fixtures / "target.bin",
                   "--prior", fixtures / "prior.bin", "--out", tmp_path) == 2
        assert "error[bad_param]" in capsys.readouterr().err

    def test_unknown_config_key(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"bogus_key": 1}))
        assert run("score", "--config", config) == 2


class TestSweep:
    def test_nested_manifests_and_summary(self, fixtures, tmp_path):
        out = tmp_path / "sweep"
        assert run(
            "sweep", "--method", "nn", "--target", fixtures / "target.bin",
            "--prior", fixtures / "prior.bin", "--meta", fixtures / "prior_meta.csv",
            "--labels", fixtures / "labels.json",
            "--fractions", "0.2,0.3,0.5,0.6", "--out", out,
        ) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert [e["selected"] for e in summary] == [240, 360, 600, 720]
        assert all("precision" in e for e in summary)
        previous = set()
        for frac in ("0.2", "0.3", "0.5", "0.6"):
            manifest = load_manifest(out / f"manifest_c4_f{frac}.json")
            selected = set(manifest.selected_indices.tolist())
            assert previous <= selected
            previous = selected

    def test_singleton_sweep_matches_retrieve(self, fixtures, tmp_path):
        sweep_out = tmp_path / "sweep"
        run_out = tmp_path / "run"
        assert run("sweep", "--method", "nn", "--target", fixtures / "target.bin",
                   "--prior", fixtures / "prior.bin", "--fractions", "0.3",
                   "--out", sweep_out) == 0
        run("score", "--method", "nn", "--target", fixtures / "target.bin",
            "--prior", fixtures / "prior.bin", "--out", run_out)
        run("retrieve", "--scores", run_out / "scores.bin",
            "--target", fixtures / "target.bin", "--prior", fixtures / "prior.bin",
            "--fraction", 0.3, "--out", run_out)
        a = load_manifest(sweep_out / "manifest_c4_f0.3.json")
        b = load_manifest(run_out / "manifest.json")
        assert np.array_equal(a.selected_indices, b.selected_indices)

    def test_bandwidth_scale_sweep_shape(self, fixtures, tmp_path):
        out = tmp_path / "sweep"
        assert run(
            "sweep", "--method", "iwr", "--seed", 2,
            "--target", fixtures / "target.bin", "--prior", fixtures / "prior.bin",
            "--fractions", "0.3", "--bandwidth-scales", "4.0,2.0", "--out", out,
        ) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert sorted(e["bandwidth_scale"] for e in summary) == [2.0, 4.0]
        assert (out / "manifest_c4_f0.3.json").exists()
        assert (out / "manifest_c2_f0.3.json").exists()
        fingerprints = {e["fingerprint"] for e in summary}
        assert len(fingerprints) == 2

    def test_lse_sweep_scores_each_scale(self, fixtures, tmp_path):
        out = tmp_path / "sweep"
        assert run(
            "sweep", "--method", "lse",
            "--target", fixtures / "target.bin", "--prior", fixtures / "prior.bin",
            "--fractions", "0.3", "--bandwidth-scales", "4,1", "--out", out,
        ) == 0
        a, b = (out / "scores_c4.bin").read_bytes(), (out / "scores_c1.bin").read_bytes()
        assert a != b
        summary = json.loads((out / "summary.json").read_text())
        assert len({e["fingerprint"] for e in summary}) == 2
        for scale in (4, 1):
            params = load_scores(out / f"scores_c{scale}.bin").params
            assert params["temperature"] == scott_bandwidth(scale, 400, 1)


class TestAnalyzeAndDeterminism:
    def pipeline(self, fixtures, out):
        run("score", "--method", "iwr", "--seed", 5, "--bandwidth-scale", 1.0,
            "--target", fixtures / "target.bin", "--prior", fixtures / "prior.bin",
            "--out", out)
        run("retrieve", "--scores", out / "scores.bin",
            "--target", fixtures / "target.bin", "--prior", fixtures / "prior.bin",
            "--meta", fixtures / "prior_meta.csv", "--fraction", 0.25, "--out", out)
        run("analyze", "--manifest", out / "manifest.json",
            "--meta", fixtures / "prior_meta.csv", "--labels",
            fixtures / "labels.json", "--bins", 10, "--out", out)

    def test_report_contents(self, fixtures, tmp_path):
        out = tmp_path / "run"
        self.pipeline(fixtures, out)
        report = json.loads((out / "report.json").read_text())
        assert sum(report["timesteps"]["counts"]) == 300
        assert report["timesteps"]["bin_count"] == 10
        assert report["evaluation"]["precision"] == 1.0  # single relevant component
        assert report["tasks"]["relevance"] == {"broad_background": "relevant"}

    def test_single_bin_analyze(self, fixtures, tmp_path):
        out = tmp_path / "run"
        self.pipeline(fixtures, out)
        assert run("analyze", "--manifest", out / "manifest.json",
                   "--meta", fixtures / "prior_meta.csv", "--bins", 1,
                   "--out", out) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["timesteps"]["counts"] == [300]

    def test_analyze_without_labels_does_not_warn(self, fixtures, tmp_path, caplog):
        # No --labels means no labels were given: every task is 'harmful'
        # in the report, without a warning per task.
        out = tmp_path / "run"
        self.pipeline(fixtures, out)
        with caplog.at_level(logging.WARNING, logger="iwre.analysis"):
            assert run("analyze", "--manifest", out / "manifest.json",
                       "--meta", fixtures / "prior_meta.csv", "--out", out) == 0
        assert caplog.records == []
        report = json.loads((out / "report.json").read_text())
        assert set(report["tasks"]["relevance"].values()) == {"harmful"}

    def test_report_is_strict_json_when_no_row_is_relevant(self, fixtures, tmp_path):
        out = tmp_path / "run"
        self.pipeline(fixtures, out)
        labels = tmp_path / "none_relevant.json"
        labels.write_text(json.dumps(
            {task: "harmful" for task in load_metadata(fixtures / "prior_meta.csv").task_labels}
        ))
        assert run("analyze", "--manifest", out / "manifest.json",
                   "--meta", fixtures / "prior_meta.csv", "--labels", labels,
                   "--out", out) == 0

        def refuse(token):
            raise ValueError(f"not JSON: {token}")

        report = json.loads((out / "report.json").read_text(), parse_constant=refuse)
        assert report["evaluation"]["recall"] is None
        assert report["evaluation"]["relevant_count"] == 0

    def test_report_states_the_manifest_method(self, fixtures, tmp_path, capsys):
        out = tmp_path / "run"
        self.pipeline(fixtures, out)
        assert load_manifest(out / "manifest.json").method.value == "iwr"
        assert json.loads((out / "report.json").read_text())["method"] == "iwr"
        analyze = ["analyze", "--manifest", out / "manifest.json",
                   "--meta", fixtures / "prior_meta.csv", "--out", out]
        assert run(*analyze, "--method", "iwr") == 0
        capsys.readouterr()
        assert run(*analyze, "--method", "nn") == 2
        err = capsys.readouterr().err
        assert "error[method_mismatch]" in err and "iwr" in err

    def test_manifest_without_method_asks_for_retrieve(self, fixtures, tmp_path,
                                                       capsys):
        out = tmp_path / "run"
        self.pipeline(fixtures, out)
        manifest = json.loads((out / "manifest.json").read_text())
        del manifest["method"]
        (out / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        assert run("analyze", "--manifest", out / "manifest.json",
                   "--meta", fixtures / "prior_meta.csv", "--out", out) == 2
        err = capsys.readouterr().err
        assert "error[bad_manifest]" in err and "iwre retrieve" in err

    def test_pipeline_byte_identical(self, fixtures, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        self.pipeline(fixtures, a)
        self.pipeline(fixtures, b)
        for name in ("scores.bin", "scores.json", "manifest.json", "retrieved.bin",
                     "retrieved_meta.csv", "weights.csv", "report.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name


_SCORING_OPTIONS = ["--method", "--bandwidth-scale", "--batch-size",
                    "--num-batches", "--seed"]


def _option_strings() -> dict:
    """Each subcommand's option strings, in --help order."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {
        name: [s for action in parser._actions for s in action.option_strings]
        for name, parser in sub.choices.items()
    }


def test_subcommand_option_strings():
    """Each subcommand's option strings, in --help order: the flags it reads."""
    options = _option_strings()
    assert options == {
        "score": ["-h", "--help", "--config", *_SCORING_OPTIONS, "--threads",
                  "--out", "--target", "--prior"],
        "retrieve": ["-h", "--help", "--config", *_SCORING_OPTIONS, "--out",
                     "--target", "--prior", "--scores", "--meta", "--fraction",
                     "--threshold", "--alpha"],
        "sweep": ["-h", "--help", "--config", "--method",
                  "--batch-size", "--num-batches", "--seed", "--threads", "--out",
                  "--target", "--prior", "--meta", "--labels", "--fractions",
                  "--bandwidth-scales"],
        "analyze": ["-h", "--help", "--config", "--method", "--out", "--manifest",
                    "--meta", "--labels", "--bins"],
        "synth": ["-h", "--help", "--config", "--seed", "--out", "--scenario",
                  "--n-target", "--n-prior"],
    }
    flags = [s for strings in options.values() for s in strings
             if s not in ("-h", "--help", "--config")]
    assert len(flags) == 45


def test_readme_flag_table_matches_parser():
    """README's table of each subcommand's flags, and their count, are the
    parser's, in --help order."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme[readme.index("| subcommand | flags |"):].split("\n\n")[0]
    documented = {
        command: flags.split()
        for command, flags in re.findall(r"^\| `(\w+)` \| `([^`]*)` \|$", table, re.M)
    }
    parsed = {
        command: [s for s in strings if s not in ("-h", "--help", "--config")]
        for command, strings in _option_strings().items()
    }
    assert documented == parsed
    total = re.search(r"only the flags it reads \((\d+) in all\)", readme)
    assert int(total.group(1)) == sum(map(len, parsed.values()))


# Flags that a subcommand does not read, with a value of the flag's type.
# sweep's scales come from --bandwidth-scales alone, and no subcommand takes
# --lse-temp: lse's temperature comes from the bandwidth scale.
_REMOVED_FLAGS = [
    ("retrieve", "--threads", 2), ("sweep", "--bandwidth-scale", 2)
] + [
    (command, "--lse-temp", 0.5) for command in ("score", "retrieve", "sweep")
] + [
    (command, flag, value)
    for command in ("analyze", "synth")
    for flag, value in [("--method", "kde"), ("--bandwidth-scale", 2),
                        ("--lse-temp", 0.5), ("--batch-size", 64),
                        ("--num-batches", 3), ("--seed", 7), ("--threads", 3)]
    if (command, flag) not in {("analyze", "--method"), ("synth", "--seed")}
]


@pytest.mark.parametrize("command,flag,value", _REMOVED_FLAGS,
                         ids=[f"{c}{f}" for c, f, _ in _REMOVED_FLAGS])
def test_unread_flag_is_refused(fixtures, tmp_path, capsys, command, flag, value):
    run_dir = tmp_path / "run"
    data = ["--target", fixtures / "target.bin", "--prior", fixtures / "prior.bin"]
    assert run("score", "--method", "nn", *data, "--out", run_dir) == 0
    assert run("retrieve", "--scores", run_dir / "scores.bin", *data,
               "--fraction", 0.3, "--out", run_dir) == 0
    argv = {
        "score": ["score", "--method", "lse", *data],
        "retrieve": ["retrieve", "--scores", run_dir / "scores.bin", *data,
                     "--fraction", 0.3],
        "sweep": ["sweep", "--method", "nn", *data, "--fractions", 0.3],
        "analyze": ["analyze", "--manifest", run_dir / "manifest.json",
                    "--meta", fixtures / "prior_meta.csv"],
        "synth": ["synth", "--scenario", "cluster_bias", "--n-target", 20,
                  "--n-prior", 40],
    }[command]
    capsys.readouterr()
    out = tmp_path / "out"
    assert run(*argv, flag, value, "--out", out) == 2
    err = capsys.readouterr().err
    assert "error[bad_flag]" in err and flag in err and "usage" not in err
    assert f"iwre {command}: unrecognized arguments" in err
    assert f"iwre {command} --help" in err
    assert not out.exists()
    assert run(*argv, "--out", out) == 0  # the flag was the only fault


# retrieve refuses these before it reads the score file.
@pytest.mark.parametrize("extra,code", [
    (["--fraction", 1.5], "bad_fraction"),
    (["--fraction", 0], "bad_fraction"),
    (["--fraction", 0.3, "--meta", "{tmp}/absent.csv"], "missing_input"),
], ids=["fraction_above_one", "fraction_zero", "meta_missing"])
def test_retrieve_checks_before_reading(fixtures, tmp_path, capsys, monkeypatch,
                                        extra, code):
    run_dir = tmp_path / "run"
    data = ["--target", fixtures / "target.bin", "--prior", fixtures / "prior.bin"]
    assert run("score", "--method", "nn", *data, "--out", run_dir) == 0

    def unread(*args, **kwargs):
        raise AssertionError("scores read before the flags were checked")

    monkeypatch.setattr(cli, "load_scores", unread)
    capsys.readouterr()
    out = tmp_path / "out"
    extra = [str(a).format(tmp=tmp_path) for a in extra]
    assert run("retrieve", "--scores", run_dir / "scores.bin", *data, *extra,
               "--out", out) == 2
    err = capsys.readouterr().err
    assert f"error[{code}]" in err and "Traceback" not in err
    assert not out.exists()


def test_retrieve_bad_alpha_writes_nothing(fixtures, tmp_path, capsys):
    run_dir = tmp_path / "run"
    data = ["--target", fixtures / "target.bin", "--prior", fixtures / "prior.bin"]
    assert run("score", "--method", "nn", *data, "--out", run_dir) == 0
    out = tmp_path / "out"
    assert run("retrieve", "--scores", run_dir / "scores.bin", *data,
               "--fraction", 0.3, "--alpha", 2, "--out", out) == 2
    assert "error[bad_alpha]" in capsys.readouterr().err
    assert not out.exists()


def _score_fails(self, *args, **kwargs):
    raise NumericalError("synthetic failure", code="cholesky_exhausted")


_DATA = ["--target", "{fx}/target.bin", "--prior", "{fx}/prior.bin"]

# Refused after --out is given, often after inputs are read: each exits
# with one error line and leaves no --out. {run} holds nn scores and their
# manifest, a 7-byte binary file, invalid JSON and rows of about 1e155.
# (case, argv, exit code, error code, ScoringConfig.score replacement)
REFUSED = [
    ("score_short_target", ["score", "--method", "nn", "--target", "{run}/short.bin",
                            "--prior", "{fx}/prior.bin"], 2, "malformed_header", None),
    ("sweep_malformed_prior", ["sweep", "--method", "nn", "--fractions", 0.3,
                               "--target", "{fx}/target.bin",
                               "--prior", "{run}/short.bin"],
     2, "malformed_header", None),
    ("analyze_invalid_labels", ["analyze", "--manifest", "{run}/manifest.json",
                                "--meta", "{fx}/prior_meta.csv",
                                "--labels", "{run}/bad.json"], 2, "bad_labels", None),
    ("analyze_not_a_manifest", ["analyze", "--manifest", "{fx}/labels.json",
                                "--meta", "{fx}/prior_meta.csv"],
     2, "bad_manifest", None),
    ("retrieve_stale_scores", ["retrieve", "--method", "kde",
                               "--scores", "{run}/scores.bin", *_DATA,
                               "--fraction", 0.3], 2, "fingerprint_mismatch", None),
    ("retrieve_not_scores", ["retrieve", "--scores", "{fx}/labels.json", *_DATA,
                             "--fraction", 0.3], 2, "bad_sidecar", None),
    ("retrieve_selects_nothing", ["retrieve", "--scores", "{run}/scores.bin", *_DATA,
                                  "--threshold", 1e9], 2, "empty_selection", None),
    ("synth_no_target_rows", ["synth", "--scenario", "cluster_bias",
                              "--n-target", 0], 2, "bad_param", None),
] + [
    (f"score_{method}_covariance_overflows",
     ["score", "--method", method, "--seed", 0, "--target", "{run}/huge_t.bin",
      "--prior", "{run}/huge_p.bin"], 3, "cholesky_exhausted", None)
    for method in ("iwr", "kde")
] + [
    (f"score_{method}_distances_overflow",
     ["score", "--method", method, "--target", "{run}/huge_t.bin",
      "--prior", "{run}/huge_p.bin"], 3, "non_finite_scores", None)
    for method in ("nn", "lse")
] + [
    ("score_numerical_error", ["score", "--method", "nn", *_DATA], 3,
     "cholesky_exhausted", _score_fails),
]


@pytest.fixture
def refusal_inputs(fixtures, tmp_path):
    run_dir = tmp_path / "run"
    data = ["--target", fixtures / "target.bin", "--prior", fixtures / "prior.bin"]
    assert run("score", "--method", "nn", *data, "--out", run_dir) == 0
    assert run("retrieve", "--scores", run_dir / "scores.bin", *data,
               "--fraction", 0.3, "--out", run_dir) == 0
    (run_dir / "short.bin").write_bytes(b"IWRE\x01\x00\x01")
    (run_dir / "bad.json").write_text("{bad")
    rng = np.random.default_rng(5)
    for name, rows in (("huge_t.bin", 50), ("huge_p.bin", 400)):
        huge = EmbeddingDataset(rng.standard_normal((rows, 3)) * 1e155)
        save_embeddings(huge, run_dir / name)
    return run_dir


@pytest.mark.parametrize("argv,status,code,score", [c[1:] for c in REFUSED],
                         ids=[c[0] for c in REFUSED])
def test_refused_command_leaves_no_out(fixtures, refusal_inputs, tmp_path, capsys,
                                       monkeypatch, argv, status, code, score):
    if score is not None:
        monkeypatch.setattr(ScoringConfig, "score", score)
    argv = [str(a).format(run=refusal_inputs, fx=fixtures) for a in argv]
    out = tmp_path / "out"
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(*argv, "--out", out) == status
    assert [str(w.message) for w in caught] == []
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error[{code}]: "), lines
    assert not out.exists()


def test_sweep_failure_keeps_finished_scales(fixtures, tmp_path, monkeypatch):
    real = ScoringConfig.score

    def fails_at_scale_2(self, *args, **kwargs):
        if self.scale_c == 2.0:
            raise NumericalError("synthetic failure", code="cholesky_exhausted")
        return real(self, *args, **kwargs)

    monkeypatch.setattr(ScoringConfig, "score", fails_at_scale_2)
    out = tmp_path / "sweep"
    assert run("sweep", "--method", "nn", "--fractions", 0.3,
               "--bandwidth-scales", "4,2", "--target", fixtures / "target.bin",
               "--prior", fixtures / "prior.bin", "--out", out) == 3
    assert sorted(p.name for p in out.iterdir()) == [
        "manifest_c4_f0.3.json", "scores_c4.bin", "scores_c4.json"
    ]


@pytest.mark.parametrize("argv,leftover", [
    (["score", "--method", "nn", "--bogus", "1"], "--bogus 1"),
    (["sweep", "--fractions", "0.3", "extra"], "extra"),
    (["synth", "--scenario", "cluster_bias", "--alpha", "0.3"], "--alpha 0.3"),
], ids=["score_unknown_flag", "sweep_positional", "synth_other_commands_flag"])
def test_unknown_argument_names_subcommand(tmp_path, capsys, argv, leftover):
    assert run(*argv, "--out", tmp_path / "out") == 2
    line = capsys.readouterr().err.strip()
    assert line == (f"error[bad_flag]: iwre {argv[0]}: unrecognized arguments: "
                    f"{leftover} (see iwre {argv[0]} --help)")
    assert not (tmp_path / "out").exists()


def test_readme_examples_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```bash\n(.*?)```", readme, re.S)
    commands = [
        shlex.split(line)[1:]
        for block in blocks
        for line in block.replace("\\\n", " ").splitlines()
        if line.startswith("iwre ")
    ]
    assert len(commands) >= 5
    for argv in commands:
        args = build_parser().parse_args(argv)
        assert args.command == argv[0]


GOLDEN = Path(__file__).parent / "golden"


def test_outputs_match_golden_bytes(tmp_path):
    """A small cluster_bias pipeline writes exactly the committed files, so a
    change to any written format (score sidecar, manifest, weights, report,
    sweep summary, oracle, row metadata) or to any rule's scores (nn, lse,
    kde, iwr, leave-self-out iwr) shows here. The score bytes come
    from one GEMM per chunk and were written with numpy's bundled OpenBLAS
    on x86-64."""
    inputs = tmp_path / "in"
    data = ["--target", inputs / "target.bin", "--prior", inputs / "prior.bin"]
    labelled = ["--meta", inputs / "prior_meta.csv", "--labels", inputs / "labels.json"]
    loo = tmp_path / "loo.json"
    loo.write_text('{"leave_self_out": true}')
    iwr = ["--method", "iwr", "--seed", 2, "--batch-size", 16, "--num-batches", 2]
    commands = [
        ["synth", "--scenario", "cluster_bias", "--seed", 1, "--n-target", 20,
         "--n-prior", 40, "--out", inputs],
        ["score", "--method", "nn", *data, "--out", tmp_path / "nn"],
        ["score", "--method", "lse", *data, "--out", tmp_path / "lse"],
        ["score", "--method", "kde", *data, "--out", tmp_path / "kde"],
        ["score", *iwr, *data, "--out", tmp_path / "iwr"],
        ["score", *iwr, "--config", loo, *data, "--out", tmp_path / "iwr_loo"],
        ["retrieve", "--scores", tmp_path / "iwr" / "scores.bin", *data,
         "--meta", inputs / "prior_meta.csv", "--fraction", 0.25,
         "--out", tmp_path / "ret"],
        ["analyze", "--manifest", tmp_path / "ret" / "manifest.json", *labelled,
         "--bins", 4, "--out", tmp_path / "an"],
        ["sweep", "--method", "nn", *data, *labelled, "--fractions", "0.25,0.5",
         "--out", tmp_path / "sw"],
    ]
    for argv in commands:
        assert run(*argv) == 0, argv
    written = {
        "nn_scores.bin": tmp_path / "nn" / "scores.bin",
        "nn_scores.json": tmp_path / "nn" / "scores.json",
        "iwr_scores.bin": tmp_path / "iwr" / "scores.bin",
        "iwr_scores.json": tmp_path / "iwr" / "scores.json",
        "lse_scores.bin": tmp_path / "lse" / "scores.bin",
        "lse_scores.json": tmp_path / "lse" / "scores.json",
        "kde_scores.bin": tmp_path / "kde" / "scores.bin",
        "kde_scores.json": tmp_path / "kde" / "scores.json",
        "iwr_loo_scores.bin": tmp_path / "iwr_loo" / "scores.bin",
        "iwr_loo_scores.json": tmp_path / "iwr_loo" / "scores.json",
        "manifest.json": tmp_path / "ret" / "manifest.json",
        "weights.csv": tmp_path / "ret" / "weights.csv",
        "retrieved_meta.csv": tmp_path / "ret" / "retrieved_meta.csv",
        "prior_meta.csv": inputs / "prior_meta.csv",
        "report.json": tmp_path / "an" / "report.json",
        "summary.json": tmp_path / "sw" / "summary.json",
        "oracle.json": inputs / "oracle.json",
    }
    assert sorted(written) == sorted(p.name for p in GOLDEN.iterdir())
    for name, path in written.items():
        assert path.read_bytes() == (GOLDEN / name).read_bytes(), name


def test_cli_import_loads_no_scipy():
    """scipy is a test dependency only; importing it costs about a second of
    start-up in every CLI process."""
    probe = (
        "import importlib, pkgutil, sys, iwre, iwre.cli\n"
        "for mod in pkgutil.iter_modules(iwre.__path__, 'iwre.'):\n"
        "    importlib.import_module(mod.name)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(iwre.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                          capture_output=True, text=True, timeout=120)
    assert done.stdout.strip() == "[]"


_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _fresh(code, **env):
    """Run ``code`` in a fresh interpreter with no BLAS or OpenMP thread
    setting but ``env``; return its standard output."""
    base = {k: v for k, v in os.environ.items() if k not in _THREAD_VARS}
    base["PYTHONPATH"] = str(Path(iwre.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code], env={**base, **env},
                          check=True, capture_output=True, text=True, timeout=120)
    return done.stdout.strip()


_BLAS_PROBE = (
    "import os, iwre.cli\n"
    "from iwre._blas import thread_counts\n"
    "print(thread_counts(), len(os.listdir('/proc/self/task')))\n"
)


@pytest.mark.skipif(not Path("/proc/self/task").exists(), reason="needs /proc")
class TestLeanStart:
    """A CLI process starts numpy's OpenBLAS at one thread; a caller's
    setting, a process that imported numpy first and ``import iwre`` alone
    are left as they are."""

    def test_cli_process_has_one_thread(self):
        assert _fresh(_BLAS_PROBE) == "[1] 1"

    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs 2 CPUs")
    def test_caller_setting_wins(self):
        assert _fresh(_BLAS_PROBE, OPENBLAS_NUM_THREADS="2").startswith("[2] ")

    def test_numpy_imported_first_keeps_environment(self):
        assert _fresh(
            "import os, numpy\n"
            "before = dict(os.environ)\n"
            "import iwre.cli\n"
            "print(dict(os.environ) == before)\n"
        ) == "True"

    def test_import_iwre_loads_no_numpy(self):
        assert _fresh(
            "import sys, iwre\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.split('.')[0] in ('numpy', 'iwre')))\n"
        ) == "['iwre']"


def test_public_names_resolve_lazily():
    """Every exported name is its defining module's object, listed by
    ``dir``; a name that is not exported raises ``AttributeError``."""
    out = _fresh(
        "import json, sys, iwre, iwre._version\n"
        "listed = set(iwre.__all__) <= set(dir(iwre))\n"
        "got = {n: getattr(iwre, n) for n in iwre.__all__}\n"
        "version = got.pop('__version__') == iwre._version.__version__\n"
        "homed = all(getattr(sys.modules[o.__module__], n) is o\n"
        "            for n, o in got.items())\n"
        "try:\n"
        "    iwre.no_such_name\n"
        "    missing = 'resolved'\n"
        "except AttributeError:\n"
        "    missing = 'AttributeError'\n"
        "print(json.dumps({'names': iwre.__all__, 'version': version,\n"
        "                  'homed': homed, 'dir': listed,\n"
        "                  'missing': missing}))\n"
    )
    result = json.loads(out)
    assert len(result["names"]) == len(set(result["names"])) == 53
    assert "RowMetadata" not in result["names"]  # metadata is its columns alone
    # Report sections are sums of task_bin_counts, which build_report takes.
    assert not {"TaskBreakdown", "TimestepHistogram", "task_breakdown",
                "timestep_histogram"} & set(result["names"])
    assert result["version"] and result["homed"] and result["dir"]
    assert result["missing"] == "AttributeError"


def write_container(path, values, dtype):
    """A version-1 binary container holding ``values`` as ``dtype``."""
    code = {"<f4": 0, "<f8": 1}[dtype]
    header = struct.pack("<4sHBQI", b"IWRE", 1, code, *values.shape)
    path.write_bytes(header + np.asarray(values, dtype).tobytes())


class TestFloat32Files:
    """A float32 file scores to the bytes of the same values in float64."""

    METHODS = {
        "nn": ["--method", "nn"],
        "lse": ["--method", "lse"],
        "kde": ["--method", "kde"],
        "iwr": ["--method", "iwr", "--seed", 4, "--batch-size", 1024,
                "--num-batches", 3],
        "iwr_loo": ["--method", "iwr", "--seed", 4, "--batch-size", 1024,
                    "--num-batches", 3, "--config", "loo.json"],
    }

    @pytest.mark.parametrize("method", sorted(METHODS))
    def test_scores_match_float64_file(self, tmp_path, method):
        rng = np.random.default_rng(17)
        target = rng.standard_normal((150, 6)).astype(np.float32)
        prior = (1.5 * rng.standard_normal((9000, 6))).astype(np.float32)
        (tmp_path / "loo.json").write_text('{"leave_self_out": true}')
        args = [tmp_path / a if a == "loo.json" else a for a in self.METHODS[method]]
        outputs = []
        for dtype, threads in (("<f4", 1), ("<f4", 4), ("<f8", 1), ("<f8", 4)):
            files = tmp_path / f"in{dtype[1:]}"
            files.mkdir(exist_ok=True)
            write_container(files / "t.bin", target, dtype)
            write_container(files / "p.bin", prior, dtype)
            out = tmp_path / f"out{dtype[1:]}_{threads}"
            assert run("score", *args, "--threads", threads, "--target",
                       files / "t.bin", "--prior", files / "p.bin", "--out", out) == 0
            outputs.append((out / "scores.bin").read_bytes())
        assert len(set(outputs)) == 1

    def test_retrieved_rows_are_widened(self, tmp_path):
        rng = np.random.default_rng(18)
        target = rng.standard_normal((40, 5)).astype(np.float32)
        prior = rng.standard_normal((500, 5)).astype(np.float32)
        for dtype in ("<f4", "<f8"):
            out = tmp_path / dtype[1:]
            out.mkdir()
            write_container(out / "t.bin", target, dtype)
            write_container(out / "p.bin", prior, dtype)
            data = ["--target", out / "t.bin", "--prior", out / "p.bin"]
            assert run("score", "--method", "nn", *data, "--out", out) == 0
            assert run("retrieve", "--scores", out / "scores.bin", *data,
                       "--fraction", 0.2, "--out", out) == 0
        for name in ("scores.bin", "retrieved.bin", "weights.csv"):
            assert (tmp_path / "f4" / name).read_bytes() == (
                tmp_path / "f8" / name
            ).read_bytes(), name
        retrieved = load_embeddings(tmp_path / "f4" / "retrieved.bin")
        assert retrieved.data.dtype == np.float64


# VmHWM is the kernel's exact high-water mark of this process image's RSS;
# ``ru_maxrss`` would also count the forking test process.
_PEAK_RSS_MIB = (
    "int(open('/proc/self/status').read().split('VmHWM:')[1].split()[0]) / 1024"
)


def _seeded_prior(path, rows, dim, dtype, seed):
    """A version-1 container of seeded normal rows, written in blocks so the
    writing process stays small."""
    rng = np.random.default_rng(seed)
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sHBQI", b"IWRE", 1, {"<f4": 0, "<f8": 1}[dtype],
                             rows, dim))
        for start in range(0, rows, 16384):
            block = rng.standard_normal((min(16384, rows - start), dim))
            fh.write(block.astype(dtype).tobytes())
    return rng


def _peak_mib(code, *args):
    env = dict(os.environ, PYTHONPATH=str(Path(iwre.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env,
                          check=True, capture_output=True, text=True, timeout=300)
    return float(done.stdout.split()[-1])


# Runs the CLI in a fresh process and prints that process's VmHWM.
_PEAK_CLI = (
    "import sys, iwre.cli\n"
    "rc = iwre.cli.main(sys.argv[1:])\n"
    f"print({_PEAK_RSS_MIB})\n"
    "sys.exit(rc)\n"
)


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs VmHWM")
def test_peak_memory_is_the_prior_plus_chunks(tmp_path):
    """``score --method nn`` and ``retrieve`` on a 195 MiB float32 prior hold
    O(job) of it, not the file: a mapped prior's rows are released after each
    scoring job and gathered block. Bounds, fixed before measuring: ``score``
    under the import baseline plus 32 MiB, whatever the file size;
    ``retrieve`` under the baseline plus 32 MiB plus 1.2x the selected rows
    as float64."""
    rows, dim = 400_000, 128
    prior = tmp_path / "prior.bin"
    rng = _seeded_prior(prior, rows, dim, "<f4", 29)
    write_container(tmp_path / "target.bin", rng.standard_normal((200, dim)), "<f4")
    baseline = _peak_mib(f"import iwre.cli; print({_PEAK_RSS_MIB})")
    data = ["--target", tmp_path / "target.bin", "--prior", prior]
    out = tmp_path / "out"
    try:
        score = _peak_mib(_PEAK_CLI, "score", "--method", "nn", "--threads", 2,
                          *data, "--out", out)
        retrieve = _peak_mib(_PEAK_CLI, "retrieve", "--scores", out / "scores.bin",
                             *data, "--fraction", 0.1, "--out", out)
    finally:
        prior.unlink()
    selection_mib = 0.1 * rows * dim * 8 / 2**20
    assert score < baseline + 32, (baseline, score)
    assert retrieve < baseline + 32 + 1.2 * selection_mib, (baseline, retrieve)


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs VmHWM")
def test_million_row_prior_scores_in_bounded_memory(tmp_path):
    """``score --method nn --threads 2`` on a seeded 1M x 64 float64 prior
    (a 488 MiB file) peaks under 80 MiB: the prior is mapped and each job's
    rows are released, so only the scores grow with the row count."""
    prior = tmp_path / "prior.bin"
    rng = _seeded_prior(prior, 1_000_000, 64, "<f8", 31)
    write_container(tmp_path / "target.bin", rng.standard_normal((64, 64)), "<f8")
    try:
        score = _peak_mib(_PEAK_CLI, "score", "--method", "nn", "--threads", 2,
                          "--target", tmp_path / "target.bin", "--prior", prior,
                          "--out", tmp_path / "out")
    finally:
        prior.unlink()
    assert score < 80, score


MILLION = 1_000_000
_TASKS = (b"pick", b'"place, then stack"', b"push", b"")  # CSV fields; "" unlabeled
# Runs the CLI in a fresh process and prints its CPU seconds and VmHWM.
_CPU_AND_PEAK_CLI = (
    "import os, sys, iwre.cli\n"
    "rc = iwre.cli.main(sys.argv[1:])\n"
    "t = os.times()\n"
    f"print(t.user + t.system, {_PEAK_RSS_MIB})\n"
    "sys.exit(rc)\n"
)


def _bulk_metadata_csv(path, rows, seed):
    """A seeded metadata sidecar of 25-row episodes, each with one task
    label or none, formatted in bulk by numpy."""
    rng = np.random.default_rng(seed)
    episode, step = np.divmod(np.arange(rows), 25)
    length = np.minimum(25, rows - 25 * episode)
    task = np.array(_TASKS)[rng.integers(len(_TASKS), size=episode[-1] + 1)][episode]
    line = task
    for column in (length, step, episode):
        line = np.char.add(np.char.add(column.astype("S"), b","), line)
    path.write_bytes(b"episode_id,step_index,episode_length,task_label\n"
                     + b"\n".join(line.tolist()) + b"\n")


@pytest.fixture(scope="module")
def million(tmp_path_factory):
    """A 1M x 4 float32 prior, its nn scores, a 1M-row metadata CSV (15 MiB)
    and task labels."""
    root = tmp_path_factory.mktemp("million")
    rng = _seeded_prior(root / "prior.bin", MILLION, 4, "<f4", 37)
    write_container(root / "target.bin", rng.standard_normal((64, 4)), "<f4")
    _bulk_metadata_csv(root / "meta.csv", MILLION, 38)
    (root / "labels.json").write_text(json.dumps(
        {"pick": "relevant", "place, then stack": "mixed", "push": "harmful"}))
    data = ["--target", root / "target.bin", "--prior", root / "prior.bin"]
    assert run("score", "--method", "nn", "--threads", 2, *data, "--out", root) == 0
    yield root, data
    (root / "prior.bin").unlink()


def test_million_row_metadata_loads_in_bounded_cpu(million):
    """``load_metadata`` of 1M rows takes under 2 s of CPU (a record-wise
    ``csv.reader`` loop took 4 to 8 s), and holds the CSV's bytes, its
    columns (28 bytes a row) and under 8 MiB of scratch."""
    root, _ = million
    start = time.process_time()
    load_metadata(root / "meta.csv")
    cpu = time.process_time() - start
    import tracemalloc
    tracemalloc.start()
    try:
        table = load_metadata(root / "meta.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(table) == MILLION
    assert cpu < 2.0, cpu
    bound = (root / "meta.csv").stat().st_size + 28 * MILLION + 8 * 2**20
    assert peak < bound, (peak / 2**20, bound / 2**20)


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs VmHWM")
def test_million_row_retrieve_and_analyze_bounded(million, tmp_path):
    """Bounds fixed before measuring, on a 1M-row prior and metadata CSV:
    ``retrieve --meta`` stays under the O(job) bound without metadata (the
    import baseline plus 32 MiB plus 1.2x the selected rows as float64)
    plus the metadata columns (28 bytes a row); ``analyze`` takes under 3 s
    of CPU and stays under the baseline plus twice the CSV plus 40 bytes a
    row (it took 6.6 s and 249 MiB when each row was a Python object)."""
    root, data = million
    meta = root / "meta.csv"
    baseline = _peak_mib(f"import iwre.cli; print({_PEAK_RSS_MIB})")
    retrieve = _peak_mib(_PEAK_CLI, "retrieve", "--scores", root / "scores.bin",
                         *data, "--meta", meta, "--fraction", 0.1, "--out", tmp_path)
    analyze_cpu, analyze = map(float, subprocess.run(
        [sys.executable, "-c", _CPU_AND_PEAK_CLI, "analyze", "--manifest",
         str(tmp_path / "manifest.json"), "--meta", str(meta), "--labels",
         str(root / "labels.json"), "--out", str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=str(Path(iwre.__file__).resolve().parents[1])),
        check=True, capture_output=True, text=True, timeout=300,
    ).stdout.split()[-2:])
    report = json.loads((tmp_path / "report.json").read_text())
    assert sum(report["timesteps"]["counts"]) == MILLION // 10
    columns_mib = 28 * MILLION / 2**20
    selection_mib = 0.1 * MILLION * 4 * 8 / 2**20
    csv_mib = meta.stat().st_size / 2**20
    assert retrieve < baseline + 32 + 1.2 * selection_mib + columns_mib, (baseline, retrieve)
    assert analyze_cpu < 3.0, analyze_cpu
    assert analyze < baseline + 2 * csv_mib + 40 * MILLION / 2**20, (baseline, analyze)


class TestChangedInput:
    """A prior is mapped, so its file could change after it was hashed: a
    command that notices exits 4 naming the file, and writes no output."""

    @staticmethod
    def rewrite(path, how, rng):
        # Same size, new values. Timestamps may be coarser than the time
        # this takes, so each case pins the one field it expects to change.
        before = os.stat(path)
        rows, dim = struct.unpack("<QI", path.read_bytes()[7:19])
        if how == "in_place":
            with open(path, "r+b") as fh:
                fh.seek(19)
                fh.write(rng.standard_normal((rows, dim)).tobytes())
            os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns + 1))
        else:
            new = path.with_suffix(".new")
            write_container(new, rng.standard_normal((rows, dim)), "<f8")
            os.utime(new, ns=(before.st_atime_ns, before.st_mtime_ns))
            os.replace(new, path)

    @pytest.fixture
    def inputs(self, tmp_path):
        rng = np.random.default_rng(41)
        write_container(tmp_path / "t.bin", rng.standard_normal((30, 3)), "<f8")
        write_container(tmp_path / "p.bin", rng.standard_normal((300, 3)), "<f8")
        return ["--target", tmp_path / "t.bin", "--prior", tmp_path / "p.bin"]

    @pytest.mark.parametrize("how", ["in_place", "replaced"])
    def test_score(self, tmp_path, inputs, capsys, monkeypatch, how):
        real = ScoringConfig.score

        def rewriting_score(self, target, prior, threads=1):
            TestChangedInput.rewrite(tmp_path / "p.bin", how,
                                     np.random.default_rng(42))
            return real(self, target, prior, threads)

        monkeypatch.setattr(ScoringConfig, "score", rewriting_score)
        out = tmp_path / "out"
        assert run("score", "--method", "nn", *inputs, "--out", out) == 4
        err = capsys.readouterr().err
        assert "error[io]" in err and str(tmp_path / "p.bin") in err
        assert not (out / "scores.bin").exists()

    def test_retrieve(self, tmp_path, inputs, capsys, monkeypatch):
        out = tmp_path / "out"
        assert run("score", "--method", "nn", *inputs, "--out", out) == 0
        real = cli.materialize

        def rewriting_materialize(manifest, prior, meta=None):
            TestChangedInput.rewrite(tmp_path / "p.bin", "in_place",
                                     np.random.default_rng(43))
            return real(manifest, prior, meta)

        monkeypatch.setattr(cli, "materialize", rewriting_materialize)
        capsys.readouterr()
        assert run("retrieve", "--scores", out / "scores.bin", *inputs,
                   "--fraction", 0.5, "--out", out) == 4
        err = capsys.readouterr().err
        assert "error[io]" in err and str(tmp_path / "p.bin") in err
        assert not (out / "retrieved.bin").exists()
