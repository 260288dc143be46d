"""Per-layer metrics from the spans of one traced command sequence.

Layers nest the way the code calls them: ``scoring.write_s`` contains the
dataset write it makes, and ``kde`` spans run inside ``scoring`` spans.
Totals are sums over the sequence's commands; a layer that does not run on
a workload reads 0.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

# (name, unit, better), in output order.
LAYER_METRICS = [
    ("proc.import_s", "s", "lower"),
    ("dataset.load_s", "s", "lower"),
    ("dataset.load_calls", "count", "lower"),
    ("dataset.load_mb_per_s", "MiB/s", "higher"),
    ("dataset.meta_s", "s", "lower"),
    ("dataset.write_s", "s", "lower"),
    ("kde.fit_s", "s", "lower"),
    ("kde.fit_calls", "count", "lower"),
    ("kde.score_samples_s", "s", "lower"),
    ("kde.score_samples_calls", "count", "lower"),
    ("kde.kernel_evals", "count", "lower"),
    ("kde.kevals_per_busy_s", "1/s", "higher"),
    ("scoring.score_s", "s", "lower"),
    ("scoring.cpu_s", "s", "lower"),
    ("scoring.self_s", "s", "lower"),
    ("scoring.kernel_evals", "count", "lower"),
    ("scoring.kevals_per_s", "1/s", "higher"),
    ("scoring.kevals_per_cpu_s", "1/s", "higher"),
    ("scoring.loo_rows", "count", "lower"),
    ("scoring.threads", "count", "lower"),
    ("scoring.write_s", "s", "lower"),
    ("retrieval.select_s", "s", "lower"),
    ("retrieval.select_calls", "count", "lower"),
    ("retrieval.materialize_s", "s", "lower"),
    ("retrieval.write_s", "s", "lower"),
    ("retrieval.rows_selected", "count", "higher"),
    ("analysis.report_s", "s", "lower"),
    ("synthbench.eval_s", "s", "lower"),
    ("cli.score.self_s", "s", "lower"),
    ("cli.retrieve.self_s", "s", "lower"),
    ("cli.analyze.self_s", "s", "lower"),
    ("cli.sweep.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

LOADS = {"dataset.load_embeddings", "dataset.read_vector_file"}
DATASET_WRITES = {"dataset.save_embeddings", "dataset.write_vector_file",
                  "dataset.save_metadata"}
SCORES = {"scoring.score_nn_l2", "scoring.score_lse", "scoring.score_kde_target",
          "scoring.score_importance_weight"}
SELECTS = {"retrieval.select_by_fraction", "retrieval.select_by_threshold"}
RETRIEVAL_WRITES = {"retrieval.save_manifest", "retrieval.save_cotrain_weights"}
GRADING = {"synthbench.evaluate_retrieval", "synthbench.row_relevance"}
COMMANDS = ("score", "retrieve", "analyze", "sweep")


def _layer(span) -> str:
    return span["name"].split(".")[0]


def covered(intervals, lo, hi) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    return total + (cur_hi - cur_lo if cur_hi is not None else 0.0)


class SpanTree:
    """Spans of one process, linked by their parent ids."""

    def __init__(self, spans):
        self.by_id = {s["id"]: s for s in spans}
        self.children = defaultdict(list)
        for s in spans:
            if s["parent"] is not None:
                self.children[s["parent"]].append(s)

    def outermost(self, span) -> bool:
        """True when no enclosing span belongs to the same layer."""
        parent = span["parent"]
        while parent is not None:
            if _layer(self.by_id[parent]) == _layer(span):
                return False
            parent = self.by_id[parent]["parent"]
        return True

    def descendants(self, span):
        todo = list(self.children[span["id"]])
        while todo:
            s = todo.pop()
            yield s
            todo.extend(self.children[s["id"]])

    def self_time(self, span, children) -> float:
        return span["end"] - span["start"] - covered(
            [(c["start"], c["end"]) for c in children], span["start"], span["end"]
        )


def command_accounts(spans):
    """(command, span s, children s, self s) for each CLI command span."""
    tree = SpanTree(spans)
    out = []
    for s in spans:
        if s["name"].startswith("cli.cmd_"):
            own = tree.self_time(s, tree.children[s["id"]])
            out.append((s["name"][8:], s["end"] - s["start"], s["end"] - s["start"] - own, own))
    return out


def sequence_metrics(processes) -> dict:
    """Per-layer metrics of one traced sequence; ``processes`` holds span lists."""
    m = defaultdict(float)
    imports, load_bytes = [], 0
    for spans in processes:
        tree = SpanTree(spans)
        for s in spans:
            name, dur, counts = s["name"], s["end"] - s["start"], s["counts"]
            if name == "proc.import":
                imports.append(dur)
            elif name in LOADS and tree.outermost(s):
                m["dataset.load_s"] += dur
                m["dataset.load_calls"] += 1
                load_bytes += counts.get("bytes", 0)
            elif name == "dataset.load_metadata":
                m["dataset.meta_s"] += dur
            elif name in DATASET_WRITES and tree.outermost(s):
                m["dataset.write_s"] += dur
            elif name == "kde.GaussianKde.fit":
                m["kde.fit_s"] += dur
                m["kde.fit_calls"] += 1
            elif name == "kde.GaussianKde.score_samples":
                m["kde.score_samples_s"] += dur
                m["kde.score_samples_calls"] += 1
                m["kde.kernel_evals"] += counts.get("kevals", 0)
            elif name in SCORES and tree.outermost(s):
                kde = [d for d in tree.descendants(s) if d["name"].startswith("kde.GaussianKde")]
                m["scoring.score_s"] += dur
                m["scoring.cpu_s"] += s["cpu"]
                m["scoring.self_s"] += tree.self_time(s, kde)
                m["scoring.kernel_evals"] += counts.get("kevals", 0)
                m["scoring.loo_rows"] += counts.get("loo_rows", 0)
                m["scoring.threads"] = max(m["scoring.threads"], counts.get("threads", 0))
            elif name == "scoring.save_scores":
                m["scoring.write_s"] += dur
            elif name in SELECTS:
                m["retrieval.select_s"] += dur
                m["retrieval.select_calls"] += 1
                m["retrieval.rows_selected"] += counts.get("rows", 0)
            elif name == "retrieval.materialize":
                m["retrieval.materialize_s"] += dur
            elif name in RETRIEVAL_WRITES:
                m["retrieval.write_s"] += dur
            elif _layer(s) == "analysis" and tree.outermost(s):
                m["analysis.report_s"] += dur
            elif name in GRADING and tree.outermost(s):
                m["synthbench.eval_s"] += dur
        for command, _, _, own in command_accounts(spans):
            if command in COMMANDS:
                m[f"cli.{command}.self_s"] += own
    m["proc.import_s"] = statistics.median(imports) if imports else 0.0
    if m["dataset.load_s"]:
        m["dataset.load_mb_per_s"] = load_bytes / 2**20 / m["dataset.load_s"]
    if m["kde.score_samples_s"]:
        m["kde.kevals_per_busy_s"] = m["kde.kernel_evals"] / m["kde.score_samples_s"]
    if m["scoring.score_s"]:
        m["scoring.kevals_per_s"] = m["scoring.kernel_evals"] / m["scoring.score_s"]
    if m["scoring.cpu_s"]:
        m["scoring.kevals_per_cpu_s"] = m["scoring.kernel_evals"] / m["scoring.cpu_s"]
    return {name: m[name] for name, _, _ in LAYER_METRICS if name != "trace.overhead_s"}
