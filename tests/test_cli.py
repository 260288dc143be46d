"""End-to-end CLI pipeline: synth, score, retrieve, sweep, analyze."""

import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import iwre
from iwre.cli import main
from iwre.dataset import EmbeddingDataset, load_embeddings, save_embeddings
from iwre.errors import NumericalError
from iwre.retrieval import load_manifest
from iwre.kde import GaussianKde, scott_bandwidth
from iwre.scoring import ScoringConfig, load_scores


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

    def test_unknown_scenario_rejected_by_parser(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run("synth", "--scenario", "bogus", "--out", tmp_path)
        assert exc.value.code == 2

    def test_fig2_fixture_passes_reversal(self, tmp_path):
        out = tmp_path / "fig2"
        assert run("synth", "--scenario", "fig2_toy", "--out", out) == 0
        target = load_embeddings(out / "target.bin")
        prior = load_embeddings(out / "prior.bin")
        from iwre.kde import BandwidthSpec, fit_kde
        from iwre.scoring import score_kde_target, score_nn_l2

        nn = score_nn_l2(target, prior).values
        dens = score_kde_target(fit_kde(target, BandwidthSpec(4.0)), prior).values
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
        scores, sidecar = load_scores(out / "scores.bin")
        assert scores.config_fingerprint in printed
        assert sidecar["params"]["method"] == "iwr"
        assert sidecar["params"]["fingerprint_scheme"] == 2
        target_id = load_embeddings(fixtures / "target.bin").source_id
        assert sidecar["target_source_id"] == target_id
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
        params = load_scores(out / "scores.bin")[1]["params"]
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
        scores, _ = load_scores(out / "scores.bin")
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
        scores, _ = load_scores(out / "scores.bin")
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
        scores, _ = load_scores(out / "scores.bin")
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


def _edit_json(edit):
    def write(path):
        payload = json.loads(path.read_text())
        edit(payload)
        path.write_text(json.dumps(payload))

    return write


def _write(text):
    return lambda path: path.write_text(text)


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
    ("sidecar_invalid_json", "retrieve", "scores.json", _write("{bad"),
     "bad_sidecar"),
    ("sidecar_missing_method", "retrieve", "scores.json",
     _edit_json(lambda d: d.pop("method")), "bad_sidecar"),
    ("sidecar_params_missing_field", "retrieve", "scores.json",
     _edit_json(lambda d: d["params"].pop("seed")), "bad_sidecar"),
    ("sidecar_old_scheme", "retrieve", "scores.json",
     _edit_json(lambda d: d["params"].pop("fingerprint_scheme")), "bad_sidecar"),
    ("manifest_invalid_json", "analyze", "manifest.json", _write("{bad"),
     "bad_manifest"),
    ("manifest_missing_indices", "analyze", "manifest.json",
     _edit_json(lambda d: d.pop("selected_indices")), "bad_manifest"),
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
        (out / "config.json").write_text("{}")
        (out / "labels.json").write_text((fixtures / "labels.json").read_text())
        break_file(out / name)
        capsys.readouterr()
        labelled = ["--meta", fixtures / "prior_meta.csv",
                    "--labels", out / "labels.json", "--out", out]
        argv = {
            "score": ["score", "--config", out / "config.json", *data,
                      "--out", out],
            "retrieve": ["retrieve", "--scores", out / "scores.bin", *data,
                         "--fraction", 0.3, "--out", out],
            "analyze": ["analyze", "--manifest", out / "manifest.json", *labelled],
            "sweep": ["sweep", "--method", "nn", *data, "--fractions", 0.3,
                      *labelled],
        }[command]
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert f"error[{code}]" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("threads", [0, -3])
    def test_bad_threads_flag(self, fixtures, tmp_path, capsys, threads):
        assert run("score", "--method", "nn", "--threads", threads,
                   "--target", fixtures / "target.bin",
                   "--prior", fixtures / "prior.bin", "--out", tmp_path) == 2
        err = capsys.readouterr().err
        assert "error[bad_param]" in err and "threads" in err
        assert "Traceback" not in err

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

    def test_pipeline_byte_identical(self, fixtures, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        self.pipeline(fixtures, a)
        self.pipeline(fixtures, b)
        for name in ("scores.bin", "scores.json", "manifest.json", "retrieved.bin",
                     "retrieved_meta.csv", "weights.csv", "report.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name


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


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs VmHWM")
def test_peak_memory_is_the_prior_plus_chunks(tmp_path):
    """``score --method nn`` and ``retrieve`` on a float32 prior peak below the
    import baseline plus 1.3x the file: the prior as stored, O(chunk) per
    worker, then score, selection and retrieved-row vectors."""
    rows, dim = 400_000, 128
    rng = np.random.default_rng(29)
    prior = tmp_path / "prior.bin"
    with open(prior, "wb") as fh:  # written in blocks to keep this process small
        fh.write(struct.pack("<4sHBQI", b"IWRE", 1, 0, rows, dim))
        for start in range(0, rows, 16384):
            block = rng.standard_normal((min(16384, rows - start), dim))
            fh.write(block.astype("<f4").tobytes())
    write_container(tmp_path / "target.bin", rng.standard_normal((200, dim)), "<f4")
    env = dict(os.environ, PYTHONPATH=str(Path(iwre.__file__).resolve().parents[1]))

    def peak_mib(code, *args):
        done = subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env,
                              check=True, capture_output=True, text=True, timeout=300)
        return float(done.stdout.split()[-1])

    baseline = peak_mib(f"import iwre.cli; print({_PEAK_RSS_MIB})")
    bound = baseline + 1.3 * prior.stat().st_size / 2**20
    cli = (
        "import sys, iwre.cli\n"
        "rc = iwre.cli.main(sys.argv[1:])\n"
        f"print({_PEAK_RSS_MIB})\n"
        "sys.exit(rc)\n"
    )
    data = ["--target", tmp_path / "target.bin", "--prior", prior]
    out = tmp_path / "out"
    score = peak_mib(cli, "score", "--method", "nn", "--threads", 2, *data,
                     "--out", out)
    retrieve = peak_mib(cli, "retrieve", "--scores", out / "scores.bin", *data,
                        "--fraction", 0.1, "--out", out)
    assert score < bound and retrieve < bound, (baseline, bound, score, retrieve)
