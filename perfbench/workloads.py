"""The benchmark's workloads: seeded inputs, CLI command sequences, checks.

Each workload is a closed loop: one CLI command at a time, each in a fresh
process, with the next started when the previous one exits. Shapes are
scaled from the ROADMAP's so that one sequence takes seconds, not minutes,
while the per-row work and the layers exercised stay the same.
"""

from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks

IWR_C12_PRIOR_ROWS = 16384  # two 8192-row scoring jobs: the pool runs both
NN_WIDE_PRIOR_ROWS = 32768
SWEEP_PRIOR_ROWS = 16384
EPISODE_ROWS = 25
CLI = "import sys; from iwre.cli import main; sys.exit(main(sys.argv[1:]))"
NN_TASKS = ("pick", "place", "push", "pour", "wipe")
NN_LABELS = {
    "pick": "relevant",
    "place": "relevant",
    "push": "mixed",
    "pour": "harmful",
    "wipe": "harmful",
}
SWEEP_SCALES = (4.0, 1.0)
SWEEP_BATCHES = 4  # half the default 8, so a sequence fits the run budget
SWEEP_FRACTIONS = (0.1, 0.2, 0.3, 0.5)
SWEEP_MIN_PRECISION = 0.9  # at scale 4.0, fraction 0.1


def run_iwre(args: list) -> None:
    """Run one iwre CLI command to completion, raising if it fails."""
    subprocess.run([sys.executable, "-c", CLI, *args], check=True,
                   stdout=subprocess.DEVNULL, timeout=120)


@dataclass(frozen=True)
class Command:
    name: str  # CLI subcommand; its outputs go to <rep>/<name>/
    args: list


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    score_command: str  # the command timed as score_s
    scales: tuple  # bandwidth scales fitted at set-up; empty for nn
    num_batches: int  # prior batches per scale
    make_inputs: Callable  # (inputs dir, seed) -> None
    commands: Callable  # (inputs dir, rep dir, seed) -> [Command]
    check: Callable  # (inputs dir, rep dir, seed) -> {command: [problem]}
    corruptible: tuple  # (scores file, its command, manifest, its command)


# -- iwr_c12 -------------------------------------------------------------------


def _iwr_c12_inputs(inputs: Path, seed: int) -> None:
    rng = np.random.default_rng(seed)
    checks.write_container(inputs / "target.bin", rng.standard_normal((500, 32)))
    checks.write_container(
        inputs / "prior.bin", rng.standard_normal((IWR_C12_PRIOR_ROWS, 32))
    )


def _iwr_c12_commands(inputs: Path, rep: Path, seed: int) -> list:
    data = ["--target", str(inputs / "target.bin"), "--prior", str(inputs / "prior.bin")]
    return [
        Command("score", ["score", "--method", "iwr", "--seed", str(seed), *data,
                          "--out", str(rep / "score")]),
        Command("retrieve", ["retrieve", "--scores", str(rep / "score" / "scores.bin"),
                             *data, "--fraction", "0.3", "--out", str(rep / "retrieve")]),
    ]


def _iwr_c12_check(inputs: Path, rep: Path, seed: int) -> dict:
    target = checks.read_container(inputs / "target.bin")
    prior = checks.read_container(inputs / "prior.bin")
    scores = checks.read_scores(rep / "score" / "scores.bin")
    return {
        "score": checks.check_iwr(scores, target, prior, 4.0, seed, 8, False),
        "retrieve": checks.check_retrieve(
            rep / "retrieve", scores, prior, 0.3, target.shape[0]
        ),
    }


# -- nn_wide -------------------------------------------------------------------


def _nn_wide_inputs(inputs: Path, seed: int) -> None:
    rng = np.random.default_rng(seed)
    dim = 256
    centers = 0.5 * rng.standard_normal((len(NN_TASKS), dim))
    episodes = -(-NN_WIDE_PRIOR_ROWS // EPISODE_ROWS)
    episode_task = rng.integers(len(NN_TASKS), size=episodes)
    row_task = np.repeat(episode_task, EPISODE_ROWS)[:NN_WIDE_PRIOR_ROWS]
    prior = centers[row_task] + rng.standard_normal((NN_WIDE_PRIOR_ROWS, dim))
    target = centers[0] + rng.standard_normal((128, dim))
    checks.write_container(inputs / "target.bin", target.astype("<f4"))
    checks.write_container(inputs / "prior.bin", prior.astype("<f4"))
    lines = ["episode_id,step_index,episode_length,task_label"]
    for row, task in enumerate(row_task):
        episode, step = divmod(row, EPISODE_ROWS)
        length = min(EPISODE_ROWS, NN_WIDE_PRIOR_ROWS - episode * EPISODE_ROWS)
        lines.append(f"{episode},{step},{length},{NN_TASKS[task]}")
    (inputs / "prior_meta.csv").write_text("\n".join(lines) + "\n")
    (inputs / "labels.json").write_text(json.dumps(NN_LABELS, sort_keys=True))


def _nn_wide_commands(inputs: Path, rep: Path, seed: int) -> list:
    data = ["--target", str(inputs / "target.bin"), "--prior", str(inputs / "prior.bin")]
    meta = str(inputs / "prior_meta.csv")
    return [
        Command("score", ["score", "--method", "nn", *data, "--out", str(rep / "score")]),
        Command("retrieve", ["retrieve", "--scores", str(rep / "score" / "scores.bin"),
                             *data, "--meta", meta, "--fraction", "0.1",
                             "--out", str(rep / "retrieve")]),
        Command("analyze", ["analyze", "--manifest",
                            str(rep / "retrieve" / "manifest.json"), "--meta", meta,
                            "--labels", str(inputs / "labels.json"), "--bins", "10",
                            "--out", str(rep / "analyze")]),
    ]


def _nn_wide_check(inputs: Path, rep: Path, seed: int) -> dict:
    target = checks.read_container(inputs / "target.bin")
    prior = checks.read_container(inputs / "prior.bin")
    meta = checks.read_csv_rows(inputs / "prior_meta.csv")
    scores = checks.read_scores(rep / "score" / "scores.bin")
    selected = checks.expected_selection(scores, 0.1)
    return {
        "score": checks.check_nn(scores, target, prior, seed),
        "retrieve": checks.check_retrieve(
            rep / "retrieve", scores, prior, 0.1, target.shape[0], meta
        ),
        "analyze": checks.check_report(
            rep / "analyze" / "report.json", selected, meta, NN_LABELS, 10
        ),
    }


# -- iwr_sweep_loo -------------------------------------------------------------


def _sweep_inputs(inputs: Path, seed: int) -> None:
    run_iwre(["synth", "--scenario", "cluster_bias", "--n-target", "300",
              "--n-prior", str(SWEEP_PRIOR_ROWS), "--seed", str(seed),
              "--out", str(inputs)])
    (inputs / "loo.json").write_text(json.dumps({"leave_self_out": True}))


def _sweep_commands(inputs: Path, rep: Path, seed: int) -> list:
    data = ["--target", str(inputs / "target.bin"), "--prior", str(inputs / "prior.bin"),
            "--meta", str(inputs / "prior_meta.csv")]
    return [
        Command("sweep", ["sweep", "--method", "iwr", "--seed", str(seed),
                          "--num-batches", str(SWEEP_BATCHES),
                          "--config", str(inputs / "loo.json"),
                          "--bandwidth-scales", ",".join(map(str, SWEEP_SCALES)),
                          "--fractions", ",".join(map(str, SWEEP_FRACTIONS)),
                          *data, "--labels", str(inputs / "labels.json"),
                          "--out", str(rep / "sweep")]),
        Command("retrieve", ["retrieve", "--scores",
                             str(rep / "sweep" / "scores_c4.bin"), *data,
                             "--fraction", "0.1", "--out", str(rep / "retrieve")]),
    ]


def _sweep_check(inputs: Path, rep: Path, seed: int) -> dict:
    target = checks.read_container(inputs / "target.bin")
    prior = checks.read_container(inputs / "prior.bin")
    meta = checks.read_csv_rows(inputs / "prior_meta.csv")
    labels = json.loads((inputs / "labels.json").read_text())
    out = rep / "sweep"
    problems = []
    summary = {
        (e["bandwidth_scale"], e["fraction"]): e
        for e in json.loads((out / "summary.json").read_text())
    }
    for scale in SWEEP_SCALES:
        scores = checks.read_scores(out / f"scores_c{scale:g}.bin")
        problems += checks.check_iwr(
            scores, target, prior, scale, seed, SWEEP_BATCHES, True
        )
        for frac in SWEEP_FRACTIONS:
            path = out / f"manifest_c{scale:g}_f{frac:g}.json"
            problems += checks.check_manifest(path, scores, frac)
            want = checks.precision(
                checks.expected_selection(scores, frac), meta, labels
            )
            if summary.get((scale, frac), {}).get("precision") != want:
                problems.append(f"summary.json precision at c={scale:g} f={frac:g}")
    scores = checks.read_scores(out / "scores_c4.bin")
    got = checks.precision(checks.expected_selection(scores, 0.1), meta, labels)
    if got < SWEEP_MIN_PRECISION:
        problems.append(f"precision {got:.4f} at c=4 f=0.1 < {SWEEP_MIN_PRECISION}")
    return {
        "sweep": problems,
        "retrieve": checks.check_retrieve(
            rep / "retrieve", scores, prior, 0.1, target.shape[0], meta
        ),
    }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "iwr_c12",
            "Criterion-12 shape (500x32 target, 8x4096 batches, 16384 prior rows): "
            "the kde chunk engine and the row-chunk thread pool do almost all work",
            "score",
            (4.0,),
            8,
            _iwr_c12_inputs,
            _iwr_c12_commands,
            _iwr_c12_check,
            ("score/scores.bin", "score", "retrieve/manifest.json", "retrieve"),
        ),
        Workload(
            "nn_wide",
            "256-d float32 prior with metadata, nn scoring: bypasses kde; dataset "
            "reads, widening, copies, metadata and retrieval/analysis writes set it",
            "score",
            (),
            0,
            _nn_wide_inputs,
            _nn_wide_commands,
            _nn_wide_check,
            ("score/scores.bin", "score", "retrieve/manifest.json", "retrieve"),
        ),
        Workload(
            "iwr_sweep_loo",
            "d=2 cluster_bias sweep, 2 scales, 4x4096 batches, leave-self-out: kde where "
            "exp and per-chunk overhead, not GEMM, dominate; labels give a precision oracle",
            "sweep",
            SWEEP_SCALES,
            SWEEP_BATCHES,
            _sweep_inputs,
            _sweep_commands,
            _sweep_check,
            ("sweep/scores_c4.bin", "sweep", "sweep/manifest_c4_f0.1.json", "sweep"),
        ),
    )
}


if __name__ == "__main__":
    # Inputs are made in their own process, so the benchmark process never
    # holds them: a child's ru_maxrss includes its parent's peak at spawn.
    WORKLOADS[sys.argv[1]].make_inputs(Path(sys.argv[3]), int(sys.argv[2]))
