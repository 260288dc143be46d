"""Command-line pipeline: score, retrieve, sweep, analyze, synth.

Every option is declared once, as a :class:`RunConfig` field: the field
gives the flag (``--bandwidth-scale``), the config-file key
(``bandwidth_scale``) and the type both are converted to. A subcommand
takes as flags only the fields it reads; a config file (``--config``) may
set any field, so one file serves a whole pipeline. Flags override file
values, and a JSON ``null`` means "not given". Scoring defaults are
:class:`~iwre.scoring.ScoringConfig`'s. File formats are written by the
modules that own them. Exit codes: 0 success, 2 validation or usage error,
3 numerical failure, 4 a failure the OS reports: I/O (``error[io]``) or an
allocation it refuses (``error[out_of_memory]``). All outputs are
deterministic functions of the inputs and configuration, so reruns are
byte-identical.
Outputs go under ``--out``, which :meth:`RunConfig.output` makes at the
first write: a refused command leaves no ``--out``, and a ``sweep`` that
fails after its first scale keeps that scale's complete files.

A CLI process starts numpy's OpenBLAS at one thread, unless the caller set
``OPENBLAS_NUM_THREADS`` or imported numpy before this module: scoring's
row-chunk pool is its only parallelism (see :mod:`iwre._blas`), and idle
OpenBLAS workers would only spin at start-up.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Optional

# OpenBLAS reads its thread count once, when numpy first loads it.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from ._validation import (
    check_count,
    check_threads,
    coerce_fields,
    field_types,
    read_json_object,
    write_json,
)
from .analysis import (
    MAX_BINS,
    build_report,
    emit_report,
    evaluate_retrieval,
    load_labels,
    row_relevance,
)
from .dataset import (
    load_embeddings,
    load_metadata,
    pair_metadata,
    save_embeddings,
    save_metadata,
)
from .errors import NumericalError, ValidationError
from .retrieval import (
    check_alpha,
    check_fraction,
    cotrain_weights,
    fraction_count,
    load_manifest,
    materialize,
    save_cotrain_weights,
    save_manifest,
    select_by_fraction,
    select_by_threshold,
)
from .scoring import ScoreMethod, ScoreVector, ScoringConfig, load_scores, save_scores
from .synthbench import SCENARIO_IDS, generate, make_scenario, save_oracle

_METHOD_ALIASES = {
    "nn": ScoreMethod.NN_L2,
    "lse": ScoreMethod.LSE,
    "kde": ScoreMethod.KDE_TARGET,
    "iwr": ScoreMethod.IWR,
}


def _flag(**options):
    """A field that is not given by default, with extra ``add_argument`` options."""
    return field(default=None, metadata=options)


@dataclass
class RunConfig:
    """Command configuration: flags over config file over defaults.

    Each field is one option, ``name`` in a config file and a flag of the
    subcommands that read it, converted to the field's type either way.
    ``None`` means "not given". The scoring fields (``method`` to
    ``leave_self_out``) then take :class:`ScoringConfig`'s defaults, or the
    values stored in a score sidecar; the given ones are range-checked here,
    before any input is read, as are ``bins``, ``threads`` and ``alpha``, for
    every subcommand. ``leave_self_out`` is config-only.
    """

    method: Optional[str] = _flag(choices=sorted(_METHOD_ALIASES))
    bandwidth_scale: Optional[float] = None
    batch_size: Optional[int] = None
    num_batches: Optional[int] = None
    seed: Optional[int] = None
    leave_self_out: Optional[bool] = None
    threads: Optional[int] = None
    out: Optional[str] = None
    target: Optional[str] = _flag(help="target embeddings (.csv, any case; else binary)")
    prior: Optional[str] = _flag(help="prior embeddings (.csv, any case; else binary)")
    scores: Optional[str] = _flag(help="score file written by the score command")
    meta: Optional[str] = _flag(help="prior metadata sidecar CSV")
    labels: Optional[str] = _flag(help="JSON task->relevance map")
    manifest: Optional[str] = None
    fraction: Optional[float] = None
    threshold: Optional[float] = None
    alpha: float = 0.5
    bins: int = 10
    fractions: Optional[str] = _flag(help="comma-separated fractions")
    bandwidth_scales: Optional[str] = _flag(
        help="comma-separated bandwidth scales (scores computed per scale)"
    )
    scenario: Optional[str] = _flag(choices=SCENARIO_IDS)
    n_target: Optional[int] = None
    n_prior: Optional[int] = None

    def __post_init__(self):
        coerce_fields(self, "option")
        if self.method is not None and self.method not in _METHOD_ALIASES:
            raise ValidationError(
                f"unknown method {self.method!r}; expected one of "
                f"{sorted(_METHOD_ALIASES)}",
                code="bad_method",
            )
        self.scoring()
        check_count(self.bins, "bins", maximum=MAX_BINS)
        check_threads(self.threads)
        check_alpha(self.alpha)

    @classmethod
    def resolve(cls, args: argparse.Namespace) -> "RunConfig":
        names = {f.name for f in fields(cls)}
        values = {}
        if args.config:
            path = Path(args.config)
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
        values.update((k, v) for k, v in vars(args).items() if v is not None)
        return cls(**{k: v for k, v in values.items() if k in names and v is not None})

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

    def selection_rule(self):
        """The selection of ``--fraction`` or ``--threshold``, applied to scores."""
        if (self.fraction is None) == (self.threshold is None):
            raise ValidationError(
                "exactly one of --fraction or --threshold must be set",
                code="bad_selection_rule",
            )
        if self.fraction is not None:
            check_fraction(self.fraction)
            return lambda scores: select_by_fraction(scores, self.fraction)
        return lambda scores: select_by_threshold(scores, self.threshold)

    def scoring(self, stored: Optional[ScoringConfig] = None) -> ScoringConfig:
        """The given scoring values over ``stored``, else over the defaults."""
        given = {f.name: getattr(self, f.name, None) for f in fields(ScoringConfig)}
        given["scale_c"] = self.bandwidth_scale  # the one field named otherwise
        given["method"] = _METHOD_ALIASES.get(self.method)
        given = {n: v for n, v in given.items() if v is not None}
        return replace(stored or ScoringConfig(), **given)

    def output(self, name: str) -> Path:
        """``--out/name``, making ``--out``: asked for at each write, so a
        command refused before its first write leaves no ``--out``."""
        out = Path(self.out)
        out.mkdir(parents=True, exist_ok=True)
        return out / name


def _float_list(text: Optional[str], flag: str) -> list[float]:
    try:
        values = [float(p) for p in (text or "").split(",") if p.strip() != ""]
    except ValueError as exc:
        raise ValidationError(f"bad value in {flag}: {exc}", code="bad_param") from exc
    if not values:
        raise ValidationError(f"{flag} must list at least one value", code="bad_param")
    return values


def _score_and_save(cfg, scoring, target, prior, name) -> ScoreVector:
    """Score and write the scores to ``--out/name``, unless an input file
    changed while it was read."""
    scores = scoring.score(target, prior, cfg.threads)
    target.check_unchanged()
    prior.check_unchanged()
    save_scores(scores, cfg.output(name))
    return scores


# -- commands -----------------------------------------------------------------


def cmd_score(cfg: RunConfig) -> int:
    cfg.require_paths("target", "prior")
    target = load_embeddings(cfg.target)
    prior = load_embeddings(cfg.prior)
    scores = _score_and_save(cfg, cfg.scoring(), target, prior, "scores.bin")
    print(f"fingerprint: {scores.config_fingerprint}")
    print(f"wrote {cfg.output('scores.bin')}")
    return 0


def cmd_retrieve(cfg: RunConfig) -> int:
    # Flags are checked before any input is hashed, so a bad one fails fast.
    cfg.require_paths("target", "prior", "scores")
    if cfg.meta:
        cfg.require_paths("meta")
    select = cfg.selection_rule()
    scores = load_scores(cfg.scores)
    target = load_embeddings(cfg.target)
    prior = load_embeddings(cfg.prior)
    if len(scores) != prior.rows:
        raise ValidationError(
            f"score file has {len(scores)} rows but prior has {prior.rows}",
            code="row_count_mismatch",
        )
    scoring = cfg.scoring(ScoringConfig.from_sidecar(scores))
    scoring.check_fresh(scores, target, prior)
    manifest = select(scores)
    weights = cotrain_weights(target.rows, manifest.size, cfg.alpha)
    meta = None
    if cfg.meta:
        meta = pair_metadata(prior, load_metadata(cfg.meta))
    retrieved, retrieved_meta = materialize(manifest, prior, meta)
    prior.check_unchanged()
    save_manifest(manifest, cfg.output("manifest.json"))
    save_embeddings(retrieved, cfg.output("retrieved.bin"))
    if retrieved_meta is not None:
        save_metadata(retrieved_meta, cfg.output("retrieved_meta.csv"))
    save_cotrain_weights(cfg.output("weights.csv"), weights, target.rows, manifest)
    print(f"fingerprint: {manifest.config_fingerprint}")
    print(f"selected {manifest.size} of {prior.rows} prior rows")
    return 0


def cmd_sweep(cfg: RunConfig) -> int:
    cfg.require_paths("target", "prior")
    graded = cfg.labels is not None
    if graded != (cfg.meta is not None):
        raise ValidationError(
            "--meta and --labels grade a sweep together; give both or neither",
            code="missing_input",
        )
    if graded:
        cfg.require_paths("meta", "labels")
    fractions = [check_fraction(f) for f in _float_list(cfg.fractions, "--fractions")]
    base = cfg.scoring()
    scales = [base.scale_c]
    if cfg.bandwidth_scales is not None:
        scales = _float_list(cfg.bandwidth_scales, "--bandwidth-scales")
    # Scales are checked here, fractions once the prior's rows are known: fail fast.
    scorings = [replace(base, scale_c=scale) for scale in scales]
    for flag, values in (("--bandwidth-scales", scales), ("--fractions", fractions)):
        names = [f"{value:g}" for value in values]
        twice = sorted({name for name in names if names.count(name) > 1})
        if twice:
            raise ValidationError(
                f"{flag} lists {', '.join(twice)} more than once, as output "
                "file names write them", code="bad_param",
            )
    target = load_embeddings(cfg.target)
    prior = load_embeddings(cfg.prior)
    for frac in fractions:
        fraction_count(frac, prior.rows)
    relevance = None
    if graded:
        meta = pair_metadata(prior, load_metadata(cfg.meta))
        relevance = row_relevance(meta, load_labels(cfg.labels))
    summary = []
    for scoring in scorings:
        scale = scoring.scale_c
        scores = _score_and_save(cfg, scoring, target, prior, f"scores_c{scale:g}.bin")
        for frac in fractions:
            manifest = select_by_fraction(scores, frac)
            save_manifest(manifest, cfg.output(f"manifest_c{scale:g}_f{frac:g}.json"))
            entry = {
                "bandwidth_scale": scale,
                "fraction": frac,
                "selected": manifest.size,
                "fingerprint": manifest.config_fingerprint,
            }
            if relevance is not None:
                entry["precision"] = evaluate_retrieval(manifest, relevance).precision
            summary.append(entry)
    write_json(cfg.output("summary.json"), summary)
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
    if cfg.labels:
        cfg.require_paths("labels")
    manifest = load_manifest(cfg.manifest)
    if cfg.method is not None and _METHOD_ALIASES[cfg.method] is not manifest.method:
        raise ValidationError(
            f"--method {cfg.method} does not match the method of the scores "
            f"behind {cfg.manifest} ({manifest.method.value})",
            code="method_mismatch",
        )
    meta = load_metadata(cfg.meta)
    labels = load_labels(cfg.labels) if cfg.labels else None
    report = build_report(manifest, meta, labels=labels, bin_count=cfg.bins)
    emit_report(report, cfg.output("report.json"))
    print(f"wrote {cfg.output('report.json')}")
    return 0


def cmd_synth(cfg: RunConfig) -> int:
    if cfg.scenario is None:
        raise ValidationError("--scenario is required", code="missing_input")
    scenario = make_scenario(cfg.scenario, rng_seed=cfg.seed or 0)
    data = generate(scenario, cfg.n_target, cfg.n_prior)
    save_embeddings(data.target, cfg.output("target.bin"))
    save_embeddings(data.prior, cfg.output("prior.bin"))
    save_metadata(data.prior_metadata, cfg.output("prior_meta.csv"))
    write_json(cfg.output("labels.json"), data.task_relevance)
    save_oracle(scenario, data, cfg.output("oracle.json"))
    print(f"wrote fixtures for {scenario.scenario_id} to {Path(cfg.out)}")
    return 0


# -- argument parsing -----------------------------------------------------------

# Each subcommand's help and the RunConfig fields it reads, which are its
# flags, in --help order. retrieve reads the scoring fields to rebuild the
# fingerprint; analyze reads method to check it against the manifest's.
# sweep's scales come from bandwidth_scales alone (or a config's default).
_SCORING = "method bandwidth_scale batch_size num_batches seed"
_COMMANDS = {
    "score": ("score every prior row", f"{_SCORING} threads out target prior"),
    "retrieve": ("select rows from scored prior",
                 f"{_SCORING} out target prior scores meta fraction threshold alpha"),
    "sweep": ("score once, select many fractions",
              "method batch_size num_batches seed threads out target "
              "prior meta labels fractions bandwidth_scales"),
    "analyze": ("task/timestep report for a manifest",
                "method out manifest meta labels bins"),
    "synth": ("write synthetic benchmark fixtures",
              "seed out scenario n_target n_prior"),
}


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors are ``error[bad_flag]`` lines (exit 2)."""

    def error(self, message):
        raise ValidationError(f"{self.prog}: {message}", code="bad_flag")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="iwre",
        description="Score, retrieve and analyze embedding datasets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    options = {f.name: f.metadata for f in fields(RunConfig)}
    types = field_types(RunConfig)
    for command, (help_text, flags) in _COMMANDS.items():
        # Whole flags only: --bandwidth-scale is no abbreviation of --bandwidth-scales.
        p = sub.add_parser(command, help=help_text, allow_abbrev=False)
        p.add_argument("--config", help="JSON config file; flags override it")
        for name in flags.split():
            flag = "--" + name.replace("_", "-")
            p.add_argument(flag, dest=name, type=types[name][0], **options[name])
        # Looked up here, not at import, so a wrapped cmd_* is the one run.
        p.set_defaults(func=globals()[f"cmd_{command}"])
    return parser


def main(argv=None) -> int:
    try:
        args, unknown = build_parser().parse_known_args(argv)
        if unknown:
            # argparse would report a subcommand's leftovers as the top level's.
            raise ValidationError(
                f"iwre {args.command}: unrecognized arguments: {' '.join(unknown)}"
                f" (see iwre {args.command} --help)",
                code="bad_flag",
            )
        cfg = RunConfig.resolve(args)
        if cfg.out is None:
            raise ValidationError("--out is required", code="missing_input")
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
    except MemoryError as exc:
        print(f"error[out_of_memory]: {exc or 'an allocation was refused'}",
              file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
