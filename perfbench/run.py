"""Benchmark of the iwre CLI: one workload per run.

Usage (from the repository root):

    python3 perfbench/run.py --workload iwr_c12 --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the workload's CLI command sequence runs repeatedly,
each command in a fresh untraced process, for about ``--seconds``, and
the end-to-end metrics are printed. With ``--trace 1`` untraced and
traced sequences alternate, and the per-layer metrics are printed. Every
output is checked against an independent reference (``checks.py``). The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

import checks
import layers
from workloads import CLI, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_SEQUENCES = 3  # untraced sequences per run, whatever --seconds says
COMMAND_TIMEOUT_S = 60.0
# The end-to-end metrics in the result, in order. retrieve_s is printed but
# not among them: it is mostly interpreter start-up and import, whose
# run-to-run spread on a shared host exceeds any bound the benchmark may set.
END_TO_END = (
    ("wall_s", "s"),
    ("score_s", "s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
)


@dataclass
class CommandRun:
    name: str
    wall_s: float
    cpu_s: float
    rss_mib: float
    returncode: int


@dataclass
class Sequence:
    dir: Path
    traced: bool
    wall_s: float = 0.0
    commands: list = field(default_factory=list)


def child_env() -> dict:
    """The caller's environment with the checkout's sources first on the path.

    BLAS and OpenMP thread settings are removed so the program's own
    thread choice is what gets measured.
    """
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def spawn(name: str, argv: list, log_stem: Path, env: dict) -> CommandRun:
    """Run one process to completion; wall time and rusage from ``os.wait4``."""
    with open(f"{log_stem}.out", "wb") as out, open(f"{log_stem}.err", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        watchdog = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return CommandRun(name, wall, usage.ru_utime + usage.ru_stime,
                      usage.ru_maxrss / 1024.0, proc.returncode)


def host_facts() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
    }


def prepare_inputs(workload, seed: int, env: dict) -> Path:
    """The workload's input files for ``seed``, made once and then reused."""
    base = WORK / "inputs" / workload.name
    path = base / f"seed{seed}"
    if not (path / "complete").exists():
        shutil.rmtree(base, ignore_errors=True)
        path.mkdir(parents=True)
        subprocess.run([sys.executable, str(HERE / "workloads.py"), workload.name,
                        str(seed), str(path)], env=env, cwd=ROOT, check=True,
                       timeout=120)
        (path / "complete").write_text("")
    return path


def setup_probe(workload, inputs: Path, seed: int, env: dict) -> float:
    """One fresh process's set-up time, from ``setup_probe.py``."""
    spec = json.dumps({"target": str(inputs / "target.bin"),
                       "prior": str(inputs / "prior.bin"),
                       "scales": list(workload.scales),
                       "num_batches": workload.num_batches, "seed": seed})
    done = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), spec],
                          env=env, cwd=ROOT, capture_output=True, text=True,
                          check=True, timeout=COMMAND_TIMEOUT_S)
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def run_sequence(workload, inputs, seq_dir: Path, seed, env, traced) -> Sequence:
    seq = Sequence(seq_dir, traced)
    seq_dir.mkdir(parents=True)
    t0 = time.perf_counter()
    for cmd in workload.commands(inputs, seq_dir, seed):
        stem = seq_dir / cmd.name
        if traced:
            argv = [sys.executable, str(HERE / "tracing.py"), f"{stem}.spans.json",
                    *cmd.args]
        else:
            argv = [sys.executable, "-c", CLI, *cmd.args]
        seq.commands.append(spawn(cmd.name, argv, stem, env))
    seq.wall_s = time.perf_counter() - t0
    return seq


def measure(workload, inputs, run_dir, seed, seconds, env, trace):
    """Closed loop: rounds back to back until ``seconds`` would be exceeded.

    A round is an untraced sequence followed by a set-up probe or, in trace
    mode, by a traced sequence. Returns the sequences and set-up times.
    """
    sequences, setup = [], []
    if not trace:  # warms the file and bytecode caches, untimed
        setup_probe(workload, inputs, seed, env)
    t0 = time.perf_counter()
    minimum = 1 if trace else MIN_SEQUENCES
    for rounds in itertools.count(1):
        sequences.append(run_sequence(workload, inputs, run_dir / f"seq{rounds}",
                                      seed, env, False))
        if trace:
            sequences.append(run_sequence(workload, inputs, run_dir / f"seq{rounds}t",
                                          seed, env, True))
        else:
            setup.append(setup_probe(workload, inputs, seed, env))
        elapsed = time.perf_counter() - t0
        if rounds >= minimum and elapsed * (rounds + 1) / rounds > seconds:
            return sequences, setup


def same_files(a: Path, b: Path) -> bool:
    try:
        names = sorted(p.name for p in a.iterdir())
        return names == sorted(p.name for p in b.iterdir()) and all(
            (a / n).read_bytes() == (b / n).read_bytes() for n in names
        )
    except OSError:
        return False


def run_checks(workload, inputs, seq_dir: Path, seed) -> dict:
    """Problems per command; a check that cannot read an output fails all."""
    try:
        return workload.check(inputs, seq_dir, seed)
    except Exception as exc:  # a corrupt or missing output must not stop the run
        return {c.name: [f"check failed: {exc!r}"]
                for c in workload.commands(inputs, seq_dir, seed)}


def verify(workload, inputs, sequences, seed) -> tuple[int, set, list]:
    """Commands attempted, (sequence, command) pairs failed, and why."""
    failed, notes = set(), []
    first = sequences[0].dir
    for i, seq in enumerate(sequences):
        problems = run_checks(workload, inputs, seq.dir, seed)
        for c in seq.commands:
            why = list(problems.get(c.name, []))
            if c.returncode != 0:
                why.append(f"exit code {c.returncode}")
            elif i and not same_files(first / c.name, seq.dir / c.name):
                why.append("outputs not byte-identical to the first sequence")
            if why:
                failed.add((i, c.name))
                notes += [f"{seq.dir.name}/{c.name}: {w}" for w in why]
    return sum(len(s.commands) for s in sequences), failed, notes


def _perturb_score(path: Path, seed: int) -> None:
    values = checks.read_scores(path)
    values[checks.sample_rows(values.size, seed)[0]] *= 1.0 + 1e-6
    checks.write_container(path, values[:, None])


def _swap_index(path: Path, seed: int) -> None:
    manifest = json.loads(path.read_text())
    chosen = manifest["selected_indices"]
    outside = next(i for i in itertools.count() if i not in set(chosen))
    manifest["selected_indices"] = sorted(chosen[:-1] + [outside])
    path.write_text(json.dumps(manifest))


def self_test(workload, inputs, seq_dir: Path, seed) -> list:
    """Corrupt copies of a checked sequence; each must be reported failed."""
    scores_file, scores_cmd, manifest_file, manifest_cmd = workload.corruptible
    results = []
    for label, rel, cmd, corrupt in (
        ("score row perturbed by 1e-6 relative", scores_file, scores_cmd, _perturb_score),
        ("manifest index swapped", manifest_file, manifest_cmd, _swap_index),
    ):
        copy = seq_dir.with_name(f"{seq_dir.name}-{corrupt.__name__}")
        shutil.copytree(seq_dir, copy)
        corrupt(copy / rel, seed)
        results.append((label, bool(run_checks(workload, inputs, copy, seed).get(cmd))))
    return results


def _summary(name, values, unit) -> str:
    return (f"  {name:<26} {statistics.median(values):>16.4f} {unit:<5} "
            f"median; max {max(values):.4f}, n={len(values)}")


def end_to_end(workload, sequences, setup) -> dict:
    walls = lambda name: [c.wall_s for s in sequences for c in s.commands
                          if c.name == name]
    values = {
        "wall_s": [s.wall_s for s in sequences],
        "score_s": walls(workload.score_command),
        "setup_s": setup,
        "cpu_s": [sum(c.cpu_s for c in s.commands) for s in sequences],
        "peak_rss_mb": [max(c.rss_mib for c in s.commands) for s in sequences],
    }
    for name, unit in END_TO_END:
        print(_summary(name, values[name], unit))
    print(_summary("retrieve_s", walls("retrieve"), "s"))
    return {name: {"value": statistics.median(values[name]), "unit": unit}
            for name, unit in END_TO_END}


def per_layer(sequences) -> dict:
    untraced = [s.wall_s for s in sequences if not s.traced]
    traced = [s for s in sequences if s.traced]
    per_seq = []
    for seq in traced:
        paths = [seq.dir / f"{c.name}.spans.json" for c in seq.commands]
        spans = [json.loads(p.read_text()) if p.exists() else [] for p in paths]
        per_seq.append(layers.sequence_metrics(spans))
        for c, process_spans in zip(seq.commands, spans):
            for cmd, span, children, own in layers.command_accounts(process_spans):
                print(f"  {seq.dir.name} {cmd}: process {c.wall_s:.4f} s, command span "
                      f"{span:.4f} s = children {children:.4f} s + self {own:.4f} s")
    values = {name: [m[name] for m in per_seq] for name in per_seq[0]}
    values["trace.overhead_s"] = [statistics.median(s.wall_s for s in traced)
                                  - statistics.median(untraced)]
    units = {name: unit for name, unit, _ in layers.LAYER_METRICS}
    for name, unit, _ in layers.LAYER_METRICS:
        print(_summary(name, values[name], unit))
    return {name: {"value": statistics.median(values[name]), "unit": units[name]}
            for name, _, _ in layers.LAYER_METRICS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "iwre" / "cli.py").is_file():
        print(f"error: no iwre sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    env = child_env()
    print("host " + json.dumps(host_facts(), sort_keys=True))
    inputs = prepare_inputs(workload, args.seed, env)
    run_dir = WORK / "runs" / f"{workload.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        t0 = time.perf_counter()
        sequences, setup = measure(workload, inputs, run_dir, args.seed, args.seconds,
                                   env, args.trace)
        print(f"workload {workload.name} seed {args.seed}: {len(sequences)} sequences "
              f"in {time.perf_counter() - t0:.1f} s; benchmark process peak RSS "
              f"{resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.1f} MiB")
        attempted, failed, notes = verify(workload, inputs, sequences, args.seed)
        probes = self_test(workload, inputs, sequences[0].dir, args.seed)
        if args.trace:
            metrics = per_layer(sequences)
        else:
            metrics = end_to_end(workload, sequences, setup)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    for note in notes:
        print(f"  failed: {note}")
    print(f"  fail_frac {len(failed) / attempted:.4f} ratio ({len(failed)} of "
          f"{attempted} commands)")
    for label, flagged in probes:
        print(f"  checker self-test: {label}: {'reported failed' if flagged else 'MISSED'}")
    correct = not failed and all(flagged for _, flagged in probes)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
