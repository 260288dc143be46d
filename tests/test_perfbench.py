"""Smoke test of the benchmark's set-up probe against the library it imports."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import iwre
from iwre.dataset import EmbeddingDataset, save_embeddings

PROBE = Path(__file__).resolve().parents[1] / "perfbench" / "setup_probe.py"


def test_setup_probe_reports_its_times(tmp_path):
    rng = np.random.default_rng(3)
    save_embeddings(EmbeddingDataset(rng.standard_normal((12, 2))), tmp_path / "t.bin")
    save_embeddings(EmbeddingDataset(rng.standard_normal((40, 2))), tmp_path / "p.bin")
    spec = {"target": str(tmp_path / "t.bin"), "prior": str(tmp_path / "p.bin"),
            "scales": [1.0, 4.0], "num_batches": 2, "seed": 0}
    env = dict(os.environ, PYTHONPATH=str(Path(iwre.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, str(PROBE), json.dumps(spec)], env=env,
                          check=True, capture_output=True, text=True, timeout=120)
    times = json.loads(done.stdout.splitlines()[-1])
    assert sorted(times) == ["fit_s", "import_s", "load_s", "setup_s"]
    assert all(t >= 0.0 for t in times.values())
    assert times["setup_s"] >= times["fit_s"]
