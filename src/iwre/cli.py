"""Command-line pipeline: score, retrieve, sweep, analyze, synth.

Exit codes: 0 success, 2 validation error, 3 numerical failure, 4 I/O
failure. Options may also come from a JSON config file (``--config``);
explicit flags override file values. All outputs are deterministic
functions of the inputs and configuration, so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import Optional

from ._validation import read_json_object
from .analysis import (
    emit_report,
    load_labels,
    task_bin_counts,
    task_breakdown,
    timestep_histogram,
)
from .dataset import (
    EmbeddingDataset,
    load_embeddings,
    load_metadata,
    pair_metadata,
    save_embeddings,
    save_metadata,
)
from .errors import NumericalError, ValidationError
from .retrieval import (
    cotrain_weights,
    load_manifest,
    materialize,
    save_cotrain_weights,
    save_manifest,
    select_by_fraction,
    select_by_threshold,
)
from .scoring import (
    FINGERPRINT_SCHEME,
    ScoreMethod,
    ScoreVector,
    ScoringConfig,
    load_scores,
    save_scores,
)
from .synthbench import (
    SCENARIO_IDS,
    evaluate_retrieval,
    generate,
    make_scenario,
    row_relevance,
)

_METHOD_ALIASES = {
    "nn": ScoreMethod.NN_L2,
    "lse": ScoreMethod.LSE,
    "kde": ScoreMethod.KDE_TARGET,
    "iwr": ScoreMethod.IWR,
}

# RunConfig names of the ScoringConfig fields that are named differently.
_RUN_NAMES = {"scale_c": "bandwidth_scale", "temperature": "lse_temp"}


@dataclass
class RunConfig:
    """Resolved command configuration (flags over config file over defaults)."""

    method: str = "iwr"
    bandwidth_scale: float = 4.0
    lse_temp: Optional[float] = None
    batch_size: Optional[int] = None
    num_batches: int = 8
    seed: Optional[int] = None
    fraction: Optional[float] = None
    threshold: Optional[float] = None
    alpha: float = 0.5
    bins: int = 10
    threads: Optional[int] = None
    target: Optional[str] = None
    prior: Optional[str] = None
    meta: Optional[str] = None
    labels: Optional[str] = None
    scores: Optional[str] = None
    manifest: Optional[str] = None
    out: Optional[str] = None
    fractions: Optional[str] = None
    bandwidth_scales: Optional[str] = None
    scenario: Optional[str] = None
    n_target: Optional[int] = None
    n_prior: Optional[int] = None
    leave_self_out: bool = False
    explicit: frozenset = frozenset()

    @classmethod
    def resolve(cls, args: argparse.Namespace) -> "RunConfig":
        names = {f.name for f in fields(cls)} - {"explicit"}
        values = {}
        config_path = getattr(args, "config", None)
        if config_path:
            path = Path(config_path)
            if not path.exists():
                raise ValidationError(
                    f"config file {path} does not exist", code="missing_input"
                )
            values = read_json_object(path, "bad_config")
            unknown = set(values) - names
            if unknown:
                raise ValidationError(
                    f"unknown config file keys: {sorted(unknown)}", code="bad_config"
                )
        for key in names:
            flag_value = getattr(args, key, None)
            if flag_value is not None:
                values[key] = flag_value
        return cls(**values, explicit=frozenset(values))

    def require_paths(self, *names: str) -> None:
        for name in names:
            value = getattr(self, name)
            if value is None:
                raise ValidationError(f"--{name} is required", code="missing_input")
            if not Path(value).exists():
                raise ValidationError(
                    f"input path for --{name} does not exist: {value}",
                    code="missing_input",
                )

    def selection_rule(self) -> tuple[str, float]:
        if (self.fraction is None) == (self.threshold is None):
            raise ValidationError(
                "exactly one of --fraction or --threshold must be set",
                code="bad_selection_rule",
            )
        if self.fraction is not None:
            return "fraction", float(self.fraction)
        return "threshold", float(self.threshold)

    def scoring(self, stored: Optional[ScoringConfig] = None) -> ScoringConfig:
        """The scoring configuration; over ``stored``, only explicit values apply."""
        if self.method not in _METHOD_ALIASES:
            raise ValidationError(
                f"unknown method {self.method!r}; expected one of "
                f"{sorted(_METHOD_ALIASES)}",
                code="bad_method",
            )
        names = {f.name: _RUN_NAMES.get(f.name, f.name) for f in fields(ScoringConfig)}
        values = {
            field: getattr(self, name)
            for field, name in names.items()
            if stored is None or name in self.explicit
        }
        if "method" in values:
            values["method"] = _METHOD_ALIASES[self.method]
        return replace(stored, **values) if stored else ScoringConfig(**values)

    def out_dir(self) -> Path:
        if self.out is None:
            raise ValidationError("--out is required", code="missing_input")
        path = Path(self.out)
        path.mkdir(parents=True, exist_ok=True)
        return path


def _load_dataset(path: str) -> EmbeddingDataset:
    fmt = "csv" if str(path).endswith(".csv") else "binary"
    return load_embeddings(path, format=fmt)


def _float_list(text: str, flag: str) -> list[float]:
    try:
        values = [float(part) for part in str(text).split(",") if part.strip() != ""]
    except ValueError as exc:
        raise ValidationError(f"bad value in {flag}: {exc}", code="bad_param") from exc
    if not values:
        raise ValidationError(f"{flag} must list at least one value", code="bad_param")
    return values


def _score_and_save(scoring, target, prior, threads, path) -> ScoreVector:
    """Score and write the scores with the resolved config as sidecar params."""
    resolved = scoring.resolve(target, prior)
    scores = resolved.score(target, prior, threads)
    params = {
        **asdict(resolved),
        "method": resolved.method.value,
        "fingerprint_scheme": FINGERPRINT_SCHEME,
        "target_source_id": target.source_id,
        "prior_source_id": prior.source_id,
    }
    save_scores(scores, path, params)
    return scores


def _stored_scoring(sidecar: dict, path) -> ScoringConfig:
    """Rebuild the scoring configuration recorded in a score sidecar."""
    params = sidecar["params"]
    scheme = params.get("fingerprint_scheme") if isinstance(params, dict) else None
    if scheme != FINGERPRINT_SCHEME:
        raise ValidationError(
            f"{path} was written under another fingerprint scheme; "
            "rescore it with `iwre score`",
            code="bad_sidecar",
        )
    names = [f.name for f in fields(ScoringConfig)]
    missing = [name for name in names if name not in params]
    if missing:
        raise ValidationError(f"{path}: params lack {missing}", code="bad_sidecar")
    return ScoringConfig(**{name: params[name] for name in names})


# -- commands -----------------------------------------------------------------


def cmd_score(cfg: RunConfig) -> int:
    cfg.require_paths("target", "prior")
    out = cfg.out_dir()
    target = _load_dataset(cfg.target)
    prior = _load_dataset(cfg.prior)
    scores = _score_and_save(
        cfg.scoring(), target, prior, cfg.threads, out / "scores.bin"
    )
    print(f"fingerprint: {scores.config_fingerprint}")
    print(f"wrote {out / 'scores.bin'}")
    return 0


def cmd_retrieve(cfg: RunConfig) -> int:
    cfg.require_paths("target", "prior", "scores")
    rule, param = cfg.selection_rule()
    out = cfg.out_dir()
    scores, sidecar = load_scores(cfg.scores)
    target = _load_dataset(cfg.target)
    prior = _load_dataset(cfg.prior)
    if len(scores) != prior.rows:
        raise ValidationError(
            f"score file has {len(scores)} rows but prior has {prior.rows}",
            code="row_count_mismatch",
        )
    scoring = cfg.scoring(_stored_scoring(sidecar, cfg.scores))
    fingerprint = scoring.fingerprint(target, prior)
    if fingerprint != scores.config_fingerprint:
        raise ValidationError(
            "stale scores: configuration fingerprint "
            f"{fingerprint} does not match score file fingerprint "
            f"{scores.config_fingerprint}",
            code="fingerprint_mismatch",
        )
    manifest = (
        select_by_fraction(scores, param)
        if rule == "fraction"
        else select_by_threshold(scores, param)
    )
    meta = None
    if cfg.meta:
        meta = pair_metadata(prior, load_metadata(cfg.meta))
    retrieved, retrieved_meta = materialize(manifest, prior, meta)
    save_manifest(manifest, out / "manifest.json")
    save_embeddings(retrieved, out / "retrieved.bin")
    if retrieved_meta is not None:
        save_metadata(retrieved_meta, out / "retrieved_meta.csv")
    weights = cotrain_weights(target.rows, manifest.size, cfg.alpha)
    save_cotrain_weights(out / "weights.csv", weights, target.rows, manifest)
    print(f"fingerprint: {manifest.config_fingerprint}")
    print(f"selected {manifest.size} of {prior.rows} prior rows")
    return 0


def cmd_sweep(cfg: RunConfig) -> int:
    cfg.require_paths("target", "prior")
    if cfg.fractions is None:
        raise ValidationError("--fractions is required for sweep", code="bad_param")
    fractions = _float_list(cfg.fractions, "--fractions")
    scales = (
        _float_list(cfg.bandwidth_scales, "--bandwidth-scales")
        if cfg.bandwidth_scales is not None
        else [float(cfg.bandwidth_scale)]
    )
    out = cfg.out_dir()
    target = _load_dataset(cfg.target)
    prior = _load_dataset(cfg.prior)
    relevance = None
    if cfg.meta and cfg.labels:
        cfg.require_paths("labels")
        meta = pair_metadata(prior, load_metadata(cfg.meta))
        relevance = row_relevance(meta, load_labels(cfg.labels))
    summary = []
    for scale in scales:
        scoring = replace(cfg.scoring(), scale_c=scale)
        path = out / f"scores_c{scale:g}.bin"
        scores = _score_and_save(scoring, target, prior, cfg.threads, path)
        for frac in fractions:
            manifest = select_by_fraction(scores, frac)
            save_manifest(manifest, out / f"manifest_c{scale:g}_f{frac:g}.json")
            entry = {
                "bandwidth_scale": scale,
                "fraction": frac,
                "selected": manifest.size,
                "fingerprint": manifest.config_fingerprint,
            }
            if relevance is not None:
                entry["precision"] = evaluate_retrieval(manifest, relevance).precision
            summary.append(entry)
    (out / "summary.json").write_text(
        json.dumps(summary, sort_keys=True, indent=2) + "\n"
    )
    header = f"{'scale':>8} {'fraction':>9} {'selected':>9}"
    print(header + ("  precision" if relevance is not None else ""))
    for entry in summary:
        line = (
            f"{entry['bandwidth_scale']:>8g} {entry['fraction']:>9g} "
            f"{entry['selected']:>9d}"
        )
        if "precision" in entry:
            line += f"  {entry['precision']:.4f}"
        print(line)
    return 0


def cmd_analyze(cfg: RunConfig) -> int:
    cfg.require_paths("manifest", "meta")
    out = cfg.out_dir()
    manifest = load_manifest(cfg.manifest)
    meta = load_metadata(cfg.meta)
    labels = {}
    if cfg.labels:
        cfg.require_paths("labels")
        labels = load_labels(cfg.labels)
    breakdown = task_breakdown(manifest, meta, labels)
    histogram = timestep_histogram(manifest, meta, cfg.bins)
    crossed = task_bin_counts(manifest, meta, cfg.bins)
    evaluation = None
    if labels:
        quality = evaluate_retrieval(manifest, row_relevance(meta, labels))
        evaluation = {
            "precision": quality.precision,
            "recall": quality.recall,
            "selected_count": quality.selected_count,
            "relevant_count": quality.relevant_count,
        }
    emit_report(
        breakdown,
        histogram,
        out / "report.json",
        fingerprint=manifest.config_fingerprint,
        method=cfg.method if "method" in cfg.explicit else "",
        evaluation=evaluation,
        task_bins=crossed if any(m.task_label is not None for m in meta) else None,
    )
    print(f"wrote {out / 'report.json'}")
    return 0


def cmd_synth(cfg: RunConfig) -> int:
    if cfg.scenario is None:
        raise ValidationError("--scenario is required", code="missing_input")
    out = cfg.out_dir()
    scenario = make_scenario(cfg.scenario, rng_seed=int(cfg.seed or 0))
    data = generate(scenario, cfg.n_target, cfg.n_prior)
    save_embeddings(data.target, out / "target.bin")
    save_embeddings(data.prior, out / "prior.bin")
    save_metadata(data.prior_metadata, out / "prior_meta.csv")
    (out / "labels.json").write_text(
        json.dumps(data.task_relevance, sort_keys=True, indent=2) + "\n"
    )
    oracle_payload = {
        "scenario_id": scenario.scenario_id,
        "dim": scenario.dim,
        "rng_seed": scenario.rng_seed,
        "n_target": data.target.rows,
        "n_prior": data.prior.rows,
        "component_names": list(scenario.prior_component_names),
        "component_relevance": list(scenario.prior_component_relevance),
        "target_mixture": _mixture_payload(scenario.target_mixture),
        "prior_mixture": _mixture_payload(scenario.prior_mixture),
    }
    (out / "oracle.json").write_text(
        json.dumps(oracle_payload, sort_keys=True, indent=2) + "\n"
    )
    print(f"wrote fixtures for {scenario.scenario_id} to {out}")
    return 0


def _mixture_payload(mixture) -> dict:
    return {
        "weights": [float(w) for w in mixture.weights],
        "means": [[float(v) for v in row] for row in mixture.means],
        "covariances": [
            [[float(v) for v in row] for row in cov] for cov in mixture.covariances
        ],
    }


# -- argument parsing -----------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file; flags override it")
    parser.add_argument("--method", choices=sorted(_METHOD_ALIASES))
    parser.add_argument("--bandwidth-scale", dest="bandwidth_scale", type=float)
    parser.add_argument("--lse-temp", dest="lse_temp", type=float)
    parser.add_argument("--batch-size", dest="batch_size", type=int)
    parser.add_argument("--num-batches", dest="num_batches", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--threads", type=int)
    parser.add_argument("--out")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iwre",
        description="Score, retrieve and analyze embedding datasets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_score = sub.add_parser("score", help="score every prior row")
    _add_common(p_score)
    p_score.add_argument("--target", help="target embeddings (.bin or .csv)")
    p_score.add_argument("--prior", help="prior embeddings (.bin or .csv)")
    p_score.set_defaults(func=cmd_score)

    p_ret = sub.add_parser("retrieve", help="select rows from scored prior")
    _add_common(p_ret)
    p_ret.add_argument("--target")
    p_ret.add_argument("--prior")
    p_ret.add_argument("--scores", help="score file written by the score command")
    p_ret.add_argument("--meta", help="prior metadata sidecar CSV")
    p_ret.add_argument("--fraction", type=float)
    p_ret.add_argument("--threshold", type=float)
    p_ret.add_argument("--alpha", type=float)
    p_ret.set_defaults(func=cmd_retrieve)

    p_sweep = sub.add_parser("sweep", help="score once, select many fractions")
    _add_common(p_sweep)
    p_sweep.add_argument("--target")
    p_sweep.add_argument("--prior")
    p_sweep.add_argument("--meta")
    p_sweep.add_argument("--labels", help="JSON task->relevance map")
    p_sweep.add_argument("--fractions", help="comma-separated fractions")
    p_sweep.add_argument(
        "--bandwidth-scales",
        dest="bandwidth_scales",
        help="comma-separated bandwidth scales (scores computed per scale)",
    )
    p_sweep.set_defaults(func=cmd_sweep)

    p_an = sub.add_parser("analyze", help="task/timestep report for a manifest")
    _add_common(p_an)
    p_an.add_argument("--manifest")
    p_an.add_argument("--meta")
    p_an.add_argument("--labels")
    p_an.add_argument("--bins", type=int)
    p_an.set_defaults(func=cmd_analyze)

    p_synth = sub.add_parser("synth", help="write synthetic benchmark fixtures")
    _add_common(p_synth)
    p_synth.add_argument("--scenario", choices=SCENARIO_IDS)
    p_synth.add_argument("--n-target", dest="n_target", type=int)
    p_synth.add_argument("--n-prior", dest="n_prior", type=int)
    p_synth.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = RunConfig.resolve(args)
        return args.func(cfg)
    except ValidationError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error[io]: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
