"""End-to-end wiring: load -> normalize -> score -> select -> serialize,
plus the flat config-file format and the deterministic text report.

Reports depend only on the input data and the configuration, never on run
order or worker count, so byte-identical reruns are a hard guarantee.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

from . import cipher as cipher_mod
from .errors import ConfigurationError
from .fuzzy import DefuzzConfig, FuzzyPartition, RuleBase, make_uniform_partition
from .ingest import Dataset, NormalizedDataset, load_table, normalize
from .network import PropagationStats, cost
from .selection import (
    MODE_INFERENCE,
    MODE_SUM,
    RelevanceScore,
    SelectionResult,
    score_columns,
    select_threshold,
    select_topk,
)

REPORT_HEADER = "fuzzkey-report 1"

DEFAULT_TAU = 0.5


@dataclass(frozen=True)
class PipelineConfig:
    """Resolved run configuration; defaults reproduce the 3-set setup."""

    sets: int = 3
    layers: int = 4
    mode: str = MODE_INFERENCE
    k: int | None = None
    tau: float | None = None
    centers: tuple[float, ...] | None = None
    empty_activation_value: float = 0.0
    cipher_mode: str = cipher_mod.MODE_BYTE_SHIFT
    tag: bool = True

    def validated(self) -> "PipelineConfig":
        if not isinstance(self.sets, int) or self.sets < 2:
            raise ConfigurationError(f"sets must be an integer >= 2, got {self.sets!r}")
        if not isinstance(self.layers, int) or self.layers < 4:
            raise ConfigurationError(f"layers must be an integer >= 4, got {self.layers!r}")
        if self.mode not in (MODE_INFERENCE, MODE_SUM):
            raise ConfigurationError(f"mode must be inference or sum, got {self.mode!r}")
        if self.k is not None and self.tau is not None:
            raise ConfigurationError("choose either k (top-k) or tau (threshold), not both")
        if self.k is not None and (not isinstance(self.k, int) or self.k < 0):
            raise ConfigurationError(f"k must be a nonnegative integer, got {self.k!r}")
        if self.tau is not None and (not math.isfinite(self.tau) or self.tau < 0):
            raise ConfigurationError(f"tau must be finite and nonnegative, got {self.tau!r}")
        if self.cipher_mode not in (cipher_mod.MODE_BYTE_SHIFT, cipher_mod.MODE_LETTERS):
            raise ConfigurationError(f"unknown cipher mode {self.cipher_mode!r}")
        cfg = self
        if cfg.k is None and cfg.tau is None:
            cfg = replace(cfg, tau=DEFAULT_TAU)
        cfg.defuzz_config()  # validates centers length/ordering/range
        return cfg

    @property
    def selection_kind(self) -> str:
        return "topk" if self.k is not None else "threshold"

    def partition(self) -> FuzzyPartition:
        return make_uniform_partition(self.sets)

    def rules(self) -> RuleBase:
        return RuleBase.identity(self.sets)

    def defuzz_config(self) -> DefuzzConfig:
        if self.centers is None:
            return DefuzzConfig.uniform(self.sets, self.empty_activation_value)
        if len(self.centers) != self.sets:
            raise ConfigurationError(
                f"{len(self.centers)} centers configured for {self.sets} fuzzy sets"
            )
        return DefuzzConfig(tuple(self.centers), self.empty_activation_value)


_TRUE_WORDS = {"on", "true", "1", "yes"}
_FALSE_WORDS = {"off", "false", "0", "no"}

_CIPHER_WORDS = {
    "byte": cipher_mod.MODE_BYTE_SHIFT,
    "byte-shift": cipher_mod.MODE_BYTE_SHIFT,
    "letters": cipher_mod.MODE_LETTERS,
}


def _parse_int(key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigurationError(f"{key}: expected an integer, got {raw!r}") from None


def _parse_float(key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigurationError(f"{key}: expected a number, got {raw!r}") from None


def _parse_bool(key: str, raw: str) -> bool:
    word = raw.lower()
    if word in _TRUE_WORDS:
        return True
    if word in _FALSE_WORDS:
        return False
    raise ConfigurationError(f"{key}: expected on/off, got {raw!r}")


def _parse_cipher(raw: str) -> str:
    if raw not in _CIPHER_WORDS:
        raise ConfigurationError(f"cipher: expected byte or letters, got {raw!r}")
    return _CIPHER_WORDS[raw]


def load_config_file(path: str | Path, base: PipelineConfig | None = None) -> PipelineConfig:
    """Read a flat ``key = value`` file (``#`` comments) over ``base``."""
    cfg = base or PipelineConfig()
    try:
        text = Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"{path}: not UTF-8 text (byte {exc.start})") from None
    for line_number, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigurationError(f"{path}:{line_number}: expected key = value, got {line!r}")
        key, _, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        if key == "sets":
            cfg = replace(cfg, sets=_parse_int(key, raw))
        elif key == "layers":
            cfg = replace(cfg, layers=_parse_int(key, raw))
        elif key == "mode":
            cfg = replace(cfg, mode=raw)
        elif key == "k":
            cfg = replace(cfg, k=_parse_int(key, raw))
        elif key == "tau":
            cfg = replace(cfg, tau=_parse_float(key, raw))
        elif key == "centers":
            parts = [p.strip() for p in raw.split(",") if p.strip()]
            cfg = replace(cfg, centers=tuple(_parse_float(key, p) for p in parts))
        elif key == "empty_activation_value":
            cfg = replace(cfg, empty_activation_value=_parse_float(key, raw))
        elif key == "cipher":
            cfg = replace(cfg, cipher_mode=_parse_cipher(raw))
        elif key == "tag":
            cfg = replace(cfg, tag=_parse_bool(key, raw))
        else:
            raise ConfigurationError(f"{path}:{line_number}: unknown key {key!r}")
    return cfg


@dataclass
class PipelineOutcome:
    """Everything one run produced, ready for reporting or encryption."""

    dataset: Dataset
    normalized: NormalizedDataset
    scores: list[RelevanceScore]
    result: SelectionResult
    stats: PropagationStats
    propagations: int

    def selection_bytes(self) -> bytes:
        return cipher_mod.serialize_selection(self.result, list(self.dataset.feature_names))


def analyze(
    source: Dataset | str | Path,
    cfg: PipelineConfig,
    jobs: int = 1,
    drop_incomplete_rows: bool = False,
) -> PipelineOutcome:
    """Run the selection pipeline on a CSV path or an in-memory dataset.

    Scoring runs single-threaded, one blocked kernel call over the whole
    normalized matrix.  ``jobs`` is still validated as a positive integer
    but has no effect.
    """
    cfg = cfg.validated()
    if not isinstance(jobs, int) or jobs < 1:
        raise ConfigurationError(f"jobs must be a positive integer, got {jobs!r}")
    dataset = source if isinstance(source, Dataset) else load_table(source, drop_incomplete_rows)
    normalized = dataset if isinstance(dataset, NormalizedDataset) else normalize(dataset)

    partition = cfg.partition()
    rules = cfg.rules()
    defuzz = cfg.defuzz_config()
    column_scores = score_columns(normalized.rows, partition, rules, defuzz, cfg.mode)
    scores = [RelevanceScore(i, score, cfg.mode) for i, score in enumerate(column_scores)]

    if cfg.selection_kind == "topk":
        result = select_topk(scores, cfg.k)
    else:
        result = select_threshold(scores, cfg.tau)

    return PipelineOutcome(
        dataset=dataset,
        normalized=normalized,
        scores=scores,
        result=result,
        stats=cost(dataset.n_features, cfg.sets, cfg.layers, normalized.n_rows),
        propagations=normalized.n_rows,
    )


def render_report(outcome: PipelineOutcome, cfg: PipelineConfig) -> bytes:
    """Deterministic text report; see README for the section schema."""
    cfg = cfg.validated()
    names = outcome.dataset.feature_names
    lines = [REPORT_HEADER]
    lines.append("[dataset]")
    lines.append(f"features = {outcome.dataset.n_features}")
    lines.append(f"rows = {outcome.normalized.n_rows}")
    lines.append(f"target = {'present' if outcome.dataset.target is not None else 'absent'}")
    lines.append("[config]")
    lines.append(f"sets = {cfg.sets}")
    lines.append(f"layers = {cfg.layers}")
    lines.append(f"mode = {cfg.mode}")
    lines.append(f"selection = {cfg.selection_kind}")
    if cfg.selection_kind == "topk":
        lines.append(f"k = {cfg.k}")
    else:
        lines.append(f"tau = {cfg.tau:.9f}")
    centers = cfg.defuzz_config().centers
    lines.append("centers = " + ",".join(f"{y:.9f}" for y in centers))
    lines.append(f"empty_activation_value = {cfg.empty_activation_value:.9f}")
    lines.append(f"cipher = {cfg.cipher_mode}")
    lines.append(f"tag = {'on' if cfg.tag else 'off'}")
    lines.append("[normalization]")
    for name, (lo, hi) in zip(names, outcome.normalized.ranges):
        lines.append(f"{name}\t{lo!r}\t{hi!r}")
    lines.append("[scores]")
    for score in outcome.scores:
        lines.append(f"{score.feature_id}\t{names[score.feature_id]}\t{score.score:.9f}")
    lines.append("[ranking]")
    for rank, (fid, value) in enumerate(outcome.result.ranked):
        lines.append(f"{rank}\t{names[fid]}\t{value:.9f}")
    lines.append("[selected]")
    head = "\n".join(lines) + "\n"
    selected_block = outcome.selection_bytes().decode("ascii")
    tail = "\n".join(
        [
            "[stats]",
            f"propagations = {outcome.propagations}",
            f"mf_evals = {outcome.stats.mf_evals}",
            f"hidden_ops = {outcome.stats.hidden_ops}",
        ]
    )
    return (head + selected_block + tail + "\n").encode("utf-8")
