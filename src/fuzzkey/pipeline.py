"""End-to-end wiring: load -> normalize -> score -> select -> serialize,
plus the flat config-file format and the deterministic text report.

Reports depend only on the input data and the configuration, never on run
order or worker count, so byte-identical reruns are a hard guarantee.
"""

from __future__ import annotations

import io
import math
import re
from dataclasses import dataclass, field, replace
from pathlib import Path

from . import cipher as cipher_mod
from .errors import ConfigurationError
from .fuzzy import DefuzzConfig, _checked_unit
from .ingest import _spill
from .network import PropagationStats, cost
from .selection import (
    RelevanceScore,
    SelectionResult,
    score_columns,
    select_threshold,
    select_topk,
)

REPORT_HEADER = "fuzzkey-report 1"

DEFAULT_TAU = 0.5

# most fuzzy sets select, pipeline and membership build; stats and
# validated() build none, so they take any count
MAX_SETS = 1000

# the one relevance mode; the mode config key and --mode accept only this
RELEVANCE_MODE = "inference"

# a longer config file exits 4; reading stops one byte past it
MAX_CONFIG_BYTES = 1 << 20


@dataclass(frozen=True)
class PipelineConfig:
    """Resolved run configuration; defaults reproduce the 3-set setup."""

    sets: int = 3
    layers: int = 4
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
        if self.k is not None and self.tau is not None:
            raise ConfigurationError("choose either k (top-k) or tau (threshold), not both")
        if self.k is not None and (not isinstance(self.k, int) or isinstance(self.k, bool) or self.k < 0):
            raise ConfigurationError(f"k must be a nonnegative integer, got {self.k!r}")
        if self.tau is not None and (
            not isinstance(self.tau, (int, float))
            or isinstance(self.tau, bool)
            or not math.isfinite(self.tau)
            or self.tau < 0
        ):
            raise ConfigurationError(f"tau must be finite and nonnegative, got {self.tau!r}")
        if not isinstance(self.tag, bool):
            raise ConfigurationError(f"tag must be True or False, got {self.tag!r}")
        if self.cipher_mode not in (cipher_mod.MODE_BYTE_SHIFT, cipher_mod.MODE_LETTERS):
            raise ConfigurationError(f"unknown cipher mode {self.cipher_mode!r}")
        cfg = self
        if cfg.k is None and cfg.tau is None:
            cfg = replace(cfg, tau=DEFAULT_TAU)
        if cfg.centers is None:
            # uniform centers are valid by construction; S of them need not be built
            _checked_unit("empty_activation_value", cfg.empty_activation_value)
        else:
            cfg.defuzz_config()  # validates centers length/ordering/range
        return cfg

    @property
    def selection_kind(self) -> str:
        return "topk" if self.k is not None else "threshold"

    def defuzz_config(self) -> DefuzzConfig:
        if self.sets > MAX_SETS:
            raise ConfigurationError(f"sets must be at most {MAX_SETS}, got {self.sets!r}")
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


def _parse_centers(key: str, raw: str) -> tuple[float, ...]:
    return tuple(_parse_float(key, part) for part in map(str.strip, raw.split(",")) if part)


def _parse_cipher(key: str, raw: str) -> str:
    if raw not in _CIPHER_WORDS:
        raise ConfigurationError(f"{key}: expected byte or letters, got {raw!r}")
    return _CIPHER_WORDS[raw]


# config key, and the command-line flag of the same name -> the
# PipelineConfig field it sets and the parser of its text; ``mode`` sets none
_OPTIONS = {
    "sets": ("sets", _parse_int),
    "layers": ("layers", _parse_int),
    "k": ("k", _parse_int),
    "tau": ("tau", _parse_float),
    "centers": ("centers", _parse_centers),
    "empty_activation_value": ("empty_activation_value", _parse_float),
    "cipher": ("cipher_mode", _parse_cipher),
    "tag": ("tag", _parse_bool),
}


def _read_to(handle: io.RawIOBase, buf: bytearray, limit: int) -> bytearray:
    """Append to ``buf`` what is left in ``handle``, until ``buf`` holds
    ``limit`` bytes; no read reserves more than 64 KiB."""
    while len(buf) < limit and (chunk := handle.read(min(1 << 16, limit - len(buf)))):
        buf += chunk
    return buf


def load_config_file(path: str | Path) -> PipelineConfig:
    """Read a flat ``key = value`` file over the :class:`PipelineConfig`
    defaults.  A ``#`` starts a comment anywhere on a line, and lines end at
    LF, CRLF or CR only."""
    with open(path, "rb", buffering=0) as handle:
        data = _read_to(handle, bytearray(), MAX_CONFIG_BYTES + 1)
    if len(data) > MAX_CONFIG_BYTES:
        raise ConfigurationError(f"config file {path} is longer than {MAX_CONFIG_BYTES} bytes")
    try:
        # decoded whole, so a byte offset counts a byte-order mark too
        text = data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"{path}: not UTF-8 text (byte {exc.start})") from None
    fields = {}
    # str.splitlines would also end a line at a form feed or U+0085
    for line_number, raw_line in enumerate(re.split("\r\n?|\n", text), start=1):
        line = raw_line.partition("#")[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"{path}:{line_number}: expected key = value, got {line!r}")
        key, _, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        if key == "mode":
            if raw != RELEVANCE_MODE:
                raise ConfigurationError(f"mode: expected {RELEVANCE_MODE}, got {raw!r}")
        elif key in _OPTIONS:
            name, parse = _OPTIONS[key]
            fields[name] = parse(key, raw)
        else:
            raise ConfigurationError(f"{path}:{line_number}: unknown key {key!r}")
    return PipelineConfig(**fields)


@dataclass
class PipelineOutcome:
    """Everything one run produced, ready for reporting or encryption: the
    shape of the dataset and each feature's ``(min, max)``, but none of its
    values."""

    feature_names: tuple[str, ...]
    ranges: tuple[tuple[float, float], ...]
    n_rows: int
    has_target: bool
    scores: list[RelevanceScore]
    result: SelectionResult
    stats: PropagationStats
    _selection: bytes | None = field(default=None, init=False, repr=False, compare=False)

    def selection_bytes(self) -> bytes:
        """The selection as :func:`~fuzzkey.cipher.serialize_selection`
        gives it, serialized once for the envelope and the report."""
        if self._selection is None:
            self._selection = cipher_mod.serialize_selection(self.result, list(self.feature_names))
        return self._selection


def analyze(
    source: str | Path,
    cfg: PipelineConfig,
    drop_incomplete_rows: bool = False,
    jobs: int = 1,
) -> PipelineOutcome:
    """Run the selection pipeline on the CSV file at ``source``.

    Scoring runs in this process, under the uniform partition and identity
    rules.  The file takes two passes with an unlinked temporary file
    between them: the first parses it a chunk of rows at a time, in rounds,
    and writes each chunk column by column.  Each round's text is copied to
    a second temporary file and parsed by up to ``jobs`` processes forked
    for the round, no more than the usable CPUs, or by this process alone
    when that is one.  The second pass reads back one block of
    columns at a time, rescales it in place and scores it with
    :func:`score_columns`.  So a run holds about one block and a few
    chunks, never the n x F matrix; the temporary files take 8 bytes per
    value and one round of the CSV text.  Whatever ``jobs`` is, the scores
    and ranges are equal bit for bit.
    """
    cfg = cfg.validated()
    # checks the set cap before any data is read
    defuzz = cfg.defuzz_config()
    ranges, column_scores = [], []
    with _spill(source, drop_incomplete_rows, jobs) as spill:
        for block, block_ranges in spill.normalized_blocks():
            ranges += block_ranges
            column_scores += score_columns(block.T, defuzz)
    scores = [RelevanceScore(i, score) for i, score in enumerate(column_scores)]

    if cfg.selection_kind == "topk":
        result = select_topk(scores, cfg.k)
    else:
        result = select_threshold(scores, cfg.tau)

    return PipelineOutcome(
        feature_names=spill.feature_names,
        ranges=tuple(ranges),
        n_rows=spill.n_rows,
        has_target=spill.has_target,
        scores=scores,
        result=result,
        stats=cost(len(spill.feature_names), cfg.sets, cfg.layers, spill.n_rows),
    )


def render_report(outcome: PipelineOutcome, cfg: PipelineConfig) -> bytes:
    """Deterministic text report; see README for the section schema."""
    cfg = cfg.validated()
    names = outcome.feature_names
    lines = [REPORT_HEADER]
    lines.append("[dataset]")
    lines.append(f"features = {len(names)}")
    lines.append(f"rows = {outcome.n_rows}")
    lines.append(f"target = {'present' if outcome.has_target else 'absent'}")
    lines.append("[config]")
    lines.append(f"sets = {cfg.sets}")
    lines.append(f"layers = {cfg.layers}")
    lines.append(f"mode = {RELEVANCE_MODE}")
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
    for name, (lo, hi) in zip(names, outcome.ranges):
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
            f"propagations = {outcome.n_rows}",
            f"mf_evals = {outcome.stats.mf_evals}",
            f"hidden_ops = {outcome.stats.hidden_ops}",
        ]
    )
    return (head + selected_block + tail + "\n").encode("utf-8")
