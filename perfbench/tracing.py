"""Run one iwre CLI command with spans recorded around iwre's public functions.

Usage: python3 perfbench/tracing.py SPANS_JSON IWRE_ARG...

The wrappers live here, not in the package: each listed function is
replaced in its defining module and wherever another iwre module imported
it by name (``iwre.cli.load_embeddings``, ``iwre.scoring.write_vector_file``
and so on). ``GaussianKde.fit`` and ``GaussianKde.score_samples`` are
wrapped on the class, so calls from scoring pool threads are caught too.
A span records name, start, end, parent, thread, process CPU time and
counts. Parents come from a thread-local stack; a span started on a pool
thread with an empty stack takes the main thread's innermost open span as
its parent. Spans stay in memory and are written when the command ends.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time

# Names missing from a module are skipped, so the trace keeps working when
# a function is renamed or folded away; its layer then reads as not run.
WRAPPED = {
    "iwre.dataset": ("load_embeddings", "read_vector_file", "load_metadata",
                     "save_embeddings", "write_vector_file", "save_metadata"),
    "iwre.kde": ("fit_kde",),
    "iwre.scoring": ("score_nn_l2", "score_lse", "score_kde_target",
                     "score_importance_weight", "fit_prior_batched", "save_scores",
                     "load_scores", "nn_fingerprint", "lse_fingerprint",
                     "kde_target_fingerprint", "iwr_fingerprint"),
    "iwre.retrieval": ("select_by_fraction", "select_by_threshold", "materialize",
                       "save_manifest", "load_manifest", "save_cotrain_weights"),
    "iwre.analysis": ("task_breakdown", "timestep_histogram", "task_bin_counts",
                      "emit_report"),
    "iwre.synthbench": ("evaluate_retrieval", "row_relevance"),
    "iwre.cli": ("cmd_score", "cmd_retrieve", "cmd_analyze", "cmd_sweep"),
}
KDE_METHODS = ("fit", "score_samples")


def _rows(x) -> int:
    return len(getattr(x, "data", x))


def _file_bytes(args, kwargs, result) -> dict:
    return {"bytes": os.path.getsize(args[0])}


def _kde_evals(args, kwargs, result) -> dict:
    return {"kevals": _rows(args[1]) * args[0].count_}


def _pair_evals(args, kwargs, result) -> dict:
    return {"kevals": _rows(args[0]) * _rows(args[1]),
            "threads": kwargs.get("threads") or os.cpu_count()}


def _target_kde_evals(args, kwargs, result) -> dict:
    return {"kevals": args[0].count_ * _rows(args[1]),
            "threads": kwargs.get("threads") or os.cpu_count()}


def _iwr_evals(args, kwargs, result) -> dict:
    target_kde, prior_kdes, prior = args[:3]
    loo = [len(k.support_row_ids_) for k in prior_kdes] if kwargs.get(
        "leave_self_out") else [0] * len(prior_kdes)
    kernels = target_kde.count_ + sum(k.count_ for k in prior_kdes)
    return {
        "kevals": _rows(prior) * kernels
        + sum(n * k.count_ for n, k in zip(loo, prior_kdes)),
        "loo_rows": sum(loo),
        "threads": kwargs.get("threads") or os.cpu_count(),
    }


def _selected(args, kwargs, result) -> dict:
    return {"rows": result.size}


COUNTS = {
    "dataset.load_embeddings": _file_bytes,
    "dataset.read_vector_file": _file_bytes,
    "kde.GaussianKde.score_samples": _kde_evals,
    "scoring.score_nn_l2": _pair_evals,
    "scoring.score_lse": _pair_evals,
    "scoring.score_kde_target": _target_kde_evals,
    "scoring.score_importance_weight": _iwr_evals,
    "retrieval.select_by_fraction": _selected,
    "retrieval.select_by_threshold": _selected,
}


class Recorder:
    """Collects spans from every thread of one process."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack = []

    def _stack(self) -> list:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def new_id(self) -> int:
        return next(self._ids)

    def record(self, span_id, name, start, end, parent=None, cpu=0.0, counts=None):
        self.spans.append({
            "id": span_id, "name": name, "start": start, "end": end,
            "parent": parent, "thread": threading.get_ident(), "cpu": cpu,
            "counts": counts or {},
        })

    def wrap(self, name: str, fn):
        count = COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            outer = stack or self._main_stack
            parent = outer[-1] if outer else None
            span_id = self.new_id()
            stack.append(span_id)
            counts = {}
            cpu0, t0 = time.process_time(), time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    counts = count(args, kwargs, result)
                return result
            finally:
                t1, cpu1 = time.perf_counter(), time.process_time()
                stack.pop()
                self.record(span_id, name, t0, t1, parent, cpu1 - cpu0, counts)

        return traced


def install(recorder: Recorder) -> None:
    """Replace the listed functions everywhere iwre refers to them."""
    from iwre.kde import GaussianKde

    modules = [m for n, m in sys.modules.items() if n == "iwre" or n.startswith("iwre.")]
    for module_name, names in WRAPPED.items():
        module = sys.modules[module_name]
        layer = module_name.split(".")[1]
        for fname in names:
            original = getattr(module, fname, None)
            if original is None:
                continue
            traced = recorder.wrap(f"{layer}.{fname}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, traced)
    for method in KDE_METHODS:
        original = getattr(GaussianKde, method)
        setattr(GaussianKde, method, recorder.wrap(f"kde.GaussianKde.{method}", original))


def main(argv: list) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    recorder = Recorder()
    t0 = time.perf_counter()
    import iwre.cli

    recorder.record(recorder.new_id(), "proc.import", t0, time.perf_counter())
    install(recorder)
    try:
        return iwre.cli.main(cli_args)
    finally:
        with open(spans_path, "w") as fh:
            json.dump(recorder.spans, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
