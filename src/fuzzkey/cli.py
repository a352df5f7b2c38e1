"""Command-line front end.

Subcommands map one-to-one onto the pipeline stages: ``select`` scores and
ranks, ``encrypt``/``decrypt`` handle envelopes, ``pipeline`` runs select
plus encrypt in one pass, ``membership`` emits plot-ready membership rows,
``stats`` prints propagation counters.

Key material is never accepted as an argument (process lists leak); set
``FUZZKEY_KEY_FILE`` to the path of a key file instead.

``encrypt`` and ``decrypt`` stream their input in blocks of
:data:`fuzzkey.cipher.BLOCK_BYTES`, the size the cipher's kernels take,
through two passes, so their memory does not grow with the payload.  Pass 1
reads the whole input once, copies it to an unlinked temporary file and
makes every check: the letters-mode alphabet, the 1 GiB
cap and the tag, which ``encrypt`` computes and ``decrypt`` verifies.  Only
then does pass 2 read that copy, shift it and write it, so it writes exactly
the bytes pass 1 checked, whatever happens to the input in between.  Every
``--output`` appears only on success (see :func:`_output`).

Exit codes: 0 ok, 1 internal, 2 usage, 3 data format or I/O (including
running out of memory), 4 configuration (including invalid keys), 5
integrity check failed, 128 + N interrupted by signal N (SIGINT; and
SIGTERM or SIGHUP under :func:`run`).
"""

from __future__ import annotations

import argparse
import errno
import itertools
import math
import os
import signal
import stat
import sys
import tempfile
from collections.abc import Iterator
from contextlib import contextmanager, suppress
from dataclasses import replace
from typing import BinaryIO, NoReturn

from . import cipher
from .cipher import (
    MAX_HEADER_BYTES,
    MODE_LETTERS,
    CipherKey,
    TagFold,
    check_ciphertext,
    envelope_header,
    parse_envelope_header,
    seal,
    shift_blocks,
)
from .errors import (
    ConfigurationError,
    DataFormatError,
    FuzzkeyError,
    IntegrityError,
    InvalidKeyError,
    naming_writes,
)
from .fuzzy import RuleBase, defuzzify_centroid, evaluate_rules, fuzzify, make_uniform_partition
from .ingest import usable_cpus
from .network import cost
from .pipeline import (
    _OPTIONS,
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
        "--jobs",
        type=int,
        default=usable_cpus(),
        help="parse the CSV file in at most this many processes, no more than the usable CPUs "
        "(default: the usable CPUs)",
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
    """The config file's settings, then each flag named like a key over them."""
    cfg = PipelineConfig() if args.config is None else load_config_file(args.config)
    flags = vars(args)
    overrides = {
        field: parse(key, value) if isinstance(value, str) else value
        for key, (field, parse) in _OPTIONS.items()
        if (value := flags.get(key)) is not None
    }
    if overrides.keys() & {"k", "tau"}:
        # a --k or --tau replaces the config file's selection rule
        overrides = {"k": None, "tau": None} | overrides
    cfg = replace(cfg, **overrides).validated()
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


def _fill(handle: BinaryIO, view: memoryview) -> int:
    """Read into ``view`` until it is full or ``handle`` ends; the count."""
    filled = 0
    while filled < len(view) and (count := handle.readinto(view[filled:])):
        filled += count
    return filled


class _Passes:
    """An ``encrypt`` or ``decrypt`` input, read in blocks of
    :data:`fuzzkey.cipher.BLOCK_BYTES` through one buffer over two passes.
    The buffer takes that size when the input is opened, so the blocks read
    are the blocks the cipher's kernels take.

    Pass 1 (:meth:`readinto`, :meth:`blocks`) reads the input once, to its
    end or to one byte past :data:`MAX_PAYLOAD_BYTES`, which raises, and
    writes every byte it reads to ``copy``.  Pass 2 (:meth:`reread`) reads
    only ``copy``, so it sees exactly the bytes that pass 1 checked.
    """

    def __init__(self, path: str, source: BinaryIO, copy: BinaryIO) -> None:
        self._path, self._source, self._copy = path, source, copy
        self._block = memoryview(bytearray(cipher.BLOCK_BYTES))
        self._size = 0  # bytes read in pass 1

    def readinto(self, view: memoryview) -> int:
        """Pass 1: fill ``view`` from the input, short only at its end, and
        return the count."""
        count = _fill(self._source, view[: MAX_PAYLOAD_BYTES + 1 - self._size])
        self._size += count
        if self._size > MAX_PAYLOAD_BYTES:
            raise _too_long(self._path)
        with naming_writes():
            self._copy.write(view[:count])
        return count

    def blocks(self) -> Iterator[memoryview]:
        """Pass 1: the rest of the input, a block at a time, each valid
        until the next."""
        while count := self.readinto(self._block):
            yield self._block[:count]

    def reread(self, start: int) -> Iterator[memoryview]:
        """Pass 2: what pass 1 read from offset ``start`` on, read from the
        copy, in blocks as :meth:`blocks` gives them."""
        with naming_writes():
            self._copy.seek(start)  # which writes what pass 1 left buffered
        left = self._size - start
        while left:
            count = _fill(self._copy, self._block[:left])
            if not count:
                raise DataFormatError(f"the copy of input {self._path} ended early")
            left -= count
            yield self._block[:count]


def _too_long(path: str) -> DataFormatError:
    return DataFormatError(f"input {path} is longer than {MAX_PAYLOAD_BYTES} bytes")


@contextmanager
def _payload(path: str) -> Iterator[_Passes]:
    """The input at ``path`` for two passes.  Whatever it is, a regular
    file, a pipe or a device, pass 1 copies it to an unlinked temporary file
    in ``TMPDIR`` as it reads it, and pass 2 reads that copy."""
    with open(path, "rb", buffering=0) as source:
        info = os.fstat(source.fileno())
        if stat.S_ISREG(info.st_mode) and info.st_size > MAX_PAYLOAD_BYTES:
            raise _too_long(path)  # a regular file that long is never read
        with tempfile.TemporaryFile() as copy:
            yield _Passes(path, source, copy)


class _Named:
    """The binary file ``handle`` as a context manager, whose writes and
    flushes, and the flush on leaving it, name ``path`` when they fail (see
    :func:`naming_writes`)."""

    def __init__(self, handle: BinaryIO, path: str) -> None:
        self._handle, self._path = handle, path

    def __enter__(self) -> _Named:
        return self

    def __exit__(self, *exc_info) -> None:
        with naming_writes(self._path):
            self._handle.__exit__(*exc_info)

    def write(self, data) -> int:
        with naming_writes(self._path):
            return self._handle.write(data)

    def flush(self) -> None:
        with naming_writes(self._path):
            self._handle.flush()


def _check_stdout() -> None:
    # a closed stdout leaves sys.stdout None
    if sys.stdout is None:
        raise OSError("stdout is closed")


@contextmanager
def _output(path: str | None) -> Iterator[BinaryIO | _Named]:
    """A binary file for a command's output: ``path``, or stdout for ``None``.

    ``path`` changes only if the block exits without an exception.  The
    block writes a new file in the target's directory, which then replaces
    the target, and which any failure removes.  ``path`` is resolved through
    symlinks first, so a symlink is written through.  An existing target
    that is not a regular file, such as a FIFO or a device (``/dev/stdout``
    among them), cannot be replaced and is written in place.  A new file
    gets the mode that ``open(path, "wb")`` gives, ``0o666`` less the umask;
    a replaced one keeps its permission bits.  A write to ``path`` that
    fails, as on a full disk, names ``path``.
    """
    if path is None:
        _check_stdout()
        yield sys.stdout.buffer
        sys.stdout.buffer.flush()
        return
    if not path:
        # os.path.realpath would read "" as the working directory
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
    try:
        info = os.stat(path)
    except FileNotFoundError:
        info = None
    if info is not None and not stat.S_ISREG(info.st_mode):
        with _Named(open(path, "wb"), path) as output:
            yield output
        return
    target = os.path.realpath(path)
    temporary = os.path.join(os.path.dirname(target), f".fuzzkey-{os.urandom(8).hex()}.tmp")
    try:
        fd = os.open(temporary, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:
        exc.filename = path  # the user's path, not the temporary one
        raise
    try:
        with _Named(open(fd, "wb"), path) as output:
            if info is not None:
                os.fchmod(fd, stat.S_IMODE(info.st_mode))
            yield output
        os.replace(temporary, target)
    except BaseException:
        # gone if an interrupt came after the rename
        with suppress(FileNotFoundError):
            os.unlink(temporary)
        raise


def _write_bytes(output: str | None, data: bytes) -> None:
    """Write ``data`` to ``output``, or to stdout without one."""
    with _output(output) as handle:
        handle.write(data)


def _cmd_select(args: argparse.Namespace) -> int:
    cfg = _merge_config(args)
    outcome = analyze(args.dataset, cfg, args.drop_incomplete_rows, args.jobs)
    _write_bytes(args.output, render_report(outcome, cfg))
    return EXIT_OK


def _cmd_pipeline(args: argparse.Namespace) -> int:
    # the report goes to stdout; with no stdout to take it, no work is done
    _check_stdout()
    cfg = _merge_config(args)
    if cfg.cipher_mode == MODE_LETTERS:
        # Serialized selections always hold digits and tabs, which letters
        # mode cannot encrypt; fail before any work is done.
        raise ConfigurationError("pipeline cannot use the letters cipher; use byte")
    key = _load_key(cfg.cipher_mode)
    outcome = analyze(args.dataset, cfg, args.drop_incomplete_rows, args.jobs)
    with _output(args.output) as handle:
        handle.write(seal(outcome.selection_bytes(), key, cfg.tag).to_bytes())
        # a device target fails here, before the report is out
        handle.flush()
        # the envelope replaces its target only once the report is out
        _write_bytes(None, render_report(outcome, cfg))
    return EXIT_OK


def _cmd_encrypt(args: argparse.Namespace) -> int:
    cfg = _merge_config(args)
    key = _load_key(cfg.cipher_mode)
    with _payload(args.input) as payload:
        # pass 1 meets any byte letters mode refuses, and finds the tag,
        # before a byte is written
        fold = TagFold(key) if cfg.tag else None
        for block in shift_blocks(payload.blocks(), key, +1):
            if fold is not None:
                fold.update(block)
        with _output(args.output) as handle:
            handle.write(envelope_header(key.mode, fold.tag if fold else None))
            for block in shift_blocks(payload.reread(0), key, +1):
                handle.write(block)
    return EXIT_OK


def _cmd_decrypt(args: argparse.Namespace) -> int:
    with _payload(args.input) as payload:
        head = memoryview(bytearray(MAX_HEADER_BYTES))
        filled = payload.readinto(head)
        mode, tag, offset = parse_envelope_header(head[:filled])
        key = _load_key(mode)
        # pass 1 verifies the whole body before a byte is shifted or written
        check_ciphertext(itertools.chain([head[offset:filled]], payload.blocks()), key, tag)
        with _output(args.output) as handle:
            for block in shift_blocks(payload.reread(offset), key, -1):
                handle.write(block)
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
    defuzz = cfg.defuzz_config()  # checks the set cap before any set is built
    partition = make_uniform_partition(cfg.sets)
    rules = RuleBase.identity(cfg.sets)
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


class _Signal(BaseException):
    """A SIGTERM or SIGHUP, raised where the process was when it came.  Like
    ``KeyboardInterrupt``, it is no ``Exception``, so no handler of errors
    takes it for one."""


def _raise_signal(signum: int, frame) -> NoReturn:
    raise _Signal(signum)


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except (KeyboardInterrupt, _Signal) as exc:
        signum = exc.args[0] if isinstance(exc, _Signal) else signal.SIGINT
        print(f"fuzzkey: interrupted by {signal.Signals(signum).name}", file=sys.stderr)
        return 128 + signum
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


def run() -> NoReturn:
    """Entry point of the ``fuzzkey`` script and of ``python -m fuzzkey``.

    Runs :func:`main` with SIGTERM and SIGHUP, unless they are ignored,
    raised as an exception that :func:`main` reports like SIGINT: the
    ``--output`` temporary is removed and the exit code is 128 + the
    signal's number.  Then flushes stdout and stderr and ends the process
    with ``os._exit``, skipping the interpreter's teardown: its final
    garbage collections, module cleanup and ``atexit`` handlers.  A
    ``SystemExit`` from argparse, any other exception, and a flush that
    fails end the process the usual way instead.
    """
    for signum in (signal.SIGTERM, signal.SIGHUP):
        if signal.getsignal(signum) == signal.SIG_DFL:
            signal.signal(signum, _raise_signal)
    code = main()
    try:
        for stream in (sys.stdout, sys.stderr):
            # a closed file descriptor leaves its stream None
            if stream is not None:
                stream.flush()
    except OSError:
        # the interpreter's own flush at exit reports it, as without run()
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
