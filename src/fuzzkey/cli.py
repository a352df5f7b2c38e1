"""Command-line front end.

Subcommands map one-to-one onto the pipeline stages: ``select`` scores and
ranks, ``encrypt``/``decrypt`` handle envelopes, ``pipeline`` runs select
plus encrypt in one pass, ``membership`` emits plot-ready membership rows,
``stats`` prints propagation counters.

Key material is never accepted as an argument (process lists leak); set
``FUZZKEY_KEY_FILE`` to the path of a key file instead.

Exit codes: 0 ok, 1 internal, 2 usage, 3 data format or I/O (including
running out of memory), 4 configuration (including invalid keys), 5
integrity check failed.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace

from .cipher import (
    MODE_LETTERS,
    CipherKey,
    envelope_header,
    open_in_place,
    parse_envelope_header,
    seal_in_place,
)
from .errors import (
    ConfigurationError,
    DataFormatError,
    FuzzkeyError,
    IntegrityError,
    InvalidKeyError,
)
from .fuzzy import RuleBase, defuzzify_centroid, evaluate_rules, fuzzify
from .network import cost
from .pipeline import (
    RELEVANCE_MODE,
    PipelineConfig,
    _read_to,
    analyze,
    load_config_file,
    render_report,
)

KEY_FILE_ENV = "FUZZKEY_KEY_FILE"
# a key file longer than this exits 4; reading stops one byte past it, so a
# device such as /dev/zero cannot make the read run without end
MAX_KEY_BYTES = 1 << 20
# an encrypt or decrypt input longer than this exits 3; reading stops one
# byte past it
MAX_PAYLOAD_BYTES = 1 << 30

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_CONFIG = 4
EXIT_INTEGRITY = 5

# a sweep writes points x (sets + 2) cells: at most this many points up to
# 3 sets, and at most 3 * MAX_SWEEP_POINTS / sets points above that
MAX_SWEEP_POINTS = 1_000_000


def _add_scoring_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", metavar="PATH", help="flat key = value config file")
    sub.add_argument("--k", type=int, help="select the top k features")
    sub.add_argument("--tau", type=float, help="select features scoring at least tau")
    sub.add_argument("--mode", choices=[RELEVANCE_MODE], help="relevance mode; inference is the only one")
    sub.add_argument("--sets", type=int, help="fuzzy sets per feature")
    sub.add_argument("--layers", type=int, help="total network layers")
    sub.add_argument(
        "--jobs", type=int, default=1, help="accepted for compatibility; scoring is single-threaded"
    )
    sub.add_argument(
        "--drop-incomplete-rows",
        action="store_true",
        help="skip rows with missing cells instead of failing",
    )


def _add_cipher_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--cipher", choices=["byte", "letters"], help="cipher mode")
    sub.add_argument(
        "--tag", action=argparse.BooleanOptionalAction, default=None, help="integrity tag"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fuzzkey",
        description="Fuzzy-relevance feature selection with keyed envelopes for the results.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    select = commands.add_parser("select", help="rank features and emit a report")
    select.add_argument("dataset", help="CSV file to score")
    _add_scoring_flags(select)
    select.add_argument("--output", metavar="PATH", help="write the report here instead of stdout")

    encrypt = commands.add_parser("encrypt", help="seal a file into an envelope")
    encrypt.add_argument("input", help="plaintext file")
    encrypt.add_argument("--config", metavar="PATH", help="flat key = value config file")
    _add_cipher_flags(encrypt)
    encrypt.add_argument("--output", metavar="PATH", help="envelope path (default stdout)")

    decrypt = commands.add_parser("decrypt", help="verify and open an envelope")
    decrypt.add_argument("input", help="envelope file")
    decrypt.add_argument("--output", metavar="PATH", help="plaintext path (default stdout)")

    pipe = commands.add_parser("pipeline", help="select then encrypt in one pass")
    pipe.add_argument("dataset", help="CSV file to score")
    _add_scoring_flags(pipe)
    _add_cipher_flags(pipe)
    pipe.add_argument("--output", metavar="PATH", required=True, help="envelope path")

    membership = commands.add_parser("membership", help="emit membership rows for plotting")
    membership.add_argument("--config", metavar="PATH", help="flat key = value config file")
    membership.add_argument("--sets", type=int, help="fuzzy sets per feature")
    group = membership.add_mutually_exclusive_group(required=True)
    group.add_argument("--x", type=float, help="evaluate a single value")
    group.add_argument("--sweep", metavar="START:STOP:STEP", help="evaluate a range")
    membership.add_argument("--output", metavar="PATH", help="write rows here instead of stdout")

    stats = commands.add_parser("stats", help="propagation counters for a network shape")
    stats.add_argument("--features", type=int, required=True, help="input feature count")
    stats.add_argument("--config", metavar="PATH", help="flat key = value config file")
    stats.add_argument("--sets", type=int, help="fuzzy sets per feature")
    stats.add_argument("--layers", type=int, help="total network layers")

    return parser


def _merge_config(args: argparse.Namespace) -> PipelineConfig:
    cfg = PipelineConfig()
    if getattr(args, "config", None):
        cfg = load_config_file(args.config, cfg)
    overrides = {}
    if getattr(args, "sets", None) is not None:
        overrides["sets"] = args.sets
    if getattr(args, "layers", None) is not None:
        overrides["layers"] = args.layers
    if getattr(args, "k", None) is not None:
        overrides["k"] = args.k
        if getattr(args, "tau", None) is None:
            overrides["tau"] = None
    if getattr(args, "tau", None) is not None:
        overrides["tau"] = args.tau
        if getattr(args, "k", None) is None:
            overrides["k"] = None
    if getattr(args, "cipher", None) is not None:
        overrides["cipher_mode"] = {"byte": "byte-shift", "letters": "letters"}[args.cipher]
    if getattr(args, "tag", None) is not None:
        overrides["tag"] = args.tag
    if overrides:
        cfg = replace(cfg, **overrides)
    cfg = cfg.validated()
    jobs = getattr(args, "jobs", 1)
    if jobs < 1:
        raise ConfigurationError(f"jobs must be a positive integer, got {jobs!r}")
    return cfg


def _load_key(mode: str) -> CipherKey:
    path = os.environ.get(KEY_FILE_ENV)
    if not path:
        raise ConfigurationError(
            f"{KEY_FILE_ENV} is not set; keys are read from a file, never from arguments"
        )
    with open(path, "rb", buffering=0) as handle:
        data = _read_to(handle, bytearray(), MAX_KEY_BYTES + 1)
    if len(data) > MAX_KEY_BYTES:
        raise InvalidKeyError(f"key file {path} is longer than {MAX_KEY_BYTES} bytes")
    if data.endswith(b"\r\n"):
        data = data[:-2]
    elif data.endswith(b"\n"):
        data = data[:-1]
    if not data:
        raise InvalidKeyError(f"key file {path} is empty")
    return CipherKey(data, mode)


def _read_payload(path: str) -> bytearray:
    """The whole file in one writable buffer, read into it without a copy.

    The size from ``fstat`` only presizes the buffer: reading goes on to the
    end of the file, as a pipe reports size 0, or to one byte past
    :data:`MAX_PAYLOAD_BYTES`.
    """
    too_long = DataFormatError(f"input {path} is longer than {MAX_PAYLOAD_BYTES} bytes")
    limit = MAX_PAYLOAD_BYTES + 1
    with open(path, "rb", buffering=0) as handle:
        size = os.fstat(handle.fileno()).st_size
        if size > MAX_PAYLOAD_BYTES:
            raise too_long  # a regular file that long is never read
        buf = bytearray(size)
        filled = 0
        with memoryview(buf) as view:
            while filled < len(buf) and (count := handle.readinto(view[filled:])):
                filled += count
        del buf[filled:]
        _read_to(handle, buf, limit)
    if len(buf) > MAX_PAYLOAD_BYTES:
        raise too_long
    return buf


def _write_bytes(output: str | None, *parts) -> None:
    """Write the bytes-like ``parts`` one after another to ``output``, or to
    stdout without one."""
    if output:
        with open(output, "wb") as handle:
            for part in parts:
                handle.write(part)
    else:
        for part in parts:
            sys.stdout.buffer.write(part)
        sys.stdout.buffer.flush()


def _write_envelope(payload: bytearray, key: CipherKey, with_tag: bool, output: str | None) -> None:
    """Seal ``payload`` in place and write the envelope: header, then body."""
    tag = seal_in_place(payload, key, with_tag)
    _write_bytes(output, envelope_header(key.mode, tag), payload)


def _cmd_select(args: argparse.Namespace) -> int:
    cfg = _merge_config(args)
    outcome = analyze(args.dataset, cfg, drop_incomplete_rows=args.drop_incomplete_rows)
    _write_bytes(args.output, render_report(outcome, cfg))
    return EXIT_OK


def _cmd_pipeline(args: argparse.Namespace) -> int:
    cfg = _merge_config(args)
    if cfg.cipher_mode == MODE_LETTERS:
        # Serialized selections always hold digits and tabs, which letters
        # mode cannot encrypt; fail before any work is done.
        raise ConfigurationError("pipeline cannot use the letters cipher; use byte")
    key = _load_key(cfg.cipher_mode)
    outcome = analyze(args.dataset, cfg, drop_incomplete_rows=args.drop_incomplete_rows)
    _write_envelope(bytearray(outcome.selection_bytes()), key, cfg.tag, args.output)
    _write_bytes(None, render_report(outcome, cfg))
    return EXIT_OK


def _cmd_encrypt(args: argparse.Namespace) -> int:
    cfg = _merge_config(args)
    key = _load_key(cfg.cipher_mode)
    _write_envelope(_read_payload(args.input), key, cfg.tag, args.output)
    return EXIT_OK


def _cmd_decrypt(args: argparse.Namespace) -> int:
    envelope = _read_payload(args.input)
    mode, tag, offset = parse_envelope_header(envelope)
    key = _load_key(mode)
    body = memoryview(envelope)[offset:]
    open_in_place(body, key, mode, tag)
    _write_bytes(args.output, body)
    return EXIT_OK


def _sweep_values(spec: str, n_sets: int) -> list[float]:
    parts = spec.split(":")
    if len(parts) != 3:
        raise ConfigurationError(f"--sweep expects START:STOP:STEP, got {spec!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise ConfigurationError(f"--sweep expects numbers, got {spec!r}") from None
    if not (math.isfinite(start) and math.isfinite(stop) and math.isfinite(step)) or step <= 0:
        raise ConfigurationError(f"--sweep needs finite bounds and a positive step, got {spec!r}")
    # a point within rounding of STOP counts, as STOP
    end = stop + 1e-12
    limit = 3 * MAX_SWEEP_POINTS // max(n_sets, 3)
    too_long = ConfigurationError(
        f"--sweep allows at most {limit} points with {n_sets} sets, got {spec!r}"
    )
    # checked before any point is built, over the span the loop walks; an
    # overflowing span reads as inf
    if (end - start) / step >= limit:
        raise too_long
    values = []
    # rounding can also stall start + i * step short of STOP, as in 1e300:1e300:1
    for i in range(limit + 1):
        x = start + i * step
        if x > end:
            return values
        values.append(min(x, stop))
    raise too_long


def _cmd_membership(args: argparse.Namespace) -> int:
    cfg = _merge_config(args)
    partition = cfg.partition()
    rules = RuleBase.identity(cfg.sets)
    defuzz = cfg.defuzz_config()
    if args.x is not None and not math.isfinite(args.x):
        raise ConfigurationError(f"--x needs a finite value, got {args.x!r}")
    xs = [args.x] if args.x is not None else _sweep_values(args.sweep, cfg.sets)
    lines = ["x\t" + "\t".join(mf.label for mf in partition.sets) + "\tcentroid"]
    for x in xs:
        mv = fuzzify(x, partition)
        crisp = defuzzify_centroid(evaluate_rules(mv, rules), defuzz)
        lines.append("\t".join(f"{v:.9f}" for v in (x, *mv.degrees, crisp)))
    _write_bytes(args.output, ("\n".join(lines) + "\n").encode("ascii"))
    return EXIT_OK


def _cmd_stats(args: argparse.Namespace) -> int:
    cfg = _merge_config(args)
    if args.features < 1:
        raise ConfigurationError(f"--features must be positive, got {args.features}")
    stats = cost(args.features, cfg.sets, cfg.layers)
    payload = (
        f"features = {args.features}\n"
        f"sets = {cfg.sets}\n"
        f"layers = {cfg.layers}\n"
        f"fuzzy_width = {stats.mf_evals}\n"
        f"mf_evals = {stats.mf_evals}\n"
        f"hidden_ops = {stats.hidden_ops}\n"
    )
    _write_bytes(None, payload.encode("ascii"))
    return EXIT_OK


_COMMANDS = {
    "select": _cmd_select,
    "encrypt": _cmd_encrypt,
    "decrypt": _cmd_decrypt,
    "pipeline": _cmd_pipeline,
    "membership": _cmd_membership,
    "stats": _cmd_stats,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except IntegrityError as exc:
        print(f"fuzzkey: {exc}", file=sys.stderr)
        return EXIT_INTEGRITY
    except (DataFormatError, OSError) as exc:
        print(f"fuzzkey: {exc}", file=sys.stderr)
        return EXIT_DATA
    except MemoryError:
        # an input too large for the memory there is, such as a payload
        # under its cap in a small address space
        print("fuzzkey: out of memory", file=sys.stderr)
        return EXIT_DATA
    except ConfigurationError as exc:
        print(f"fuzzkey: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FuzzkeyError as exc:
        print(f"fuzzkey: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
