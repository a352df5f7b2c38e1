"""Seeded inputs for the benchmark workloads.

Everything the program reads is generated here from the workload seed with
``numpy.random.default_rng(seed)``, so the same seed gives the same bytes.
The program sees only these generated files; the key reaches it through the
file named by ``FUZZKEY_KEY_FILE``, written with mode 0600.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

TALL_SHAPE = (20_000, 50)
WIDE_SHAPE = (100, 3_000)
PAYLOAD_BYTES = 8 << 20
KEY_BYTES = 32
HEADER_BYTES = 15  # FZK1 magic, version, mode, flags, 64-bit tag
RESCORED_FEATURES = {"tall": 2, "wide": 5}


@dataclass
class Inputs:
    """One workload's generated input files and what the gate needs of them."""

    key: bytes
    key_path: Path
    files: dict[str, Path] = field(default_factory=dict)
    # features as generated (rows x features), for the scoring oracle
    features: np.ndarray | None = None
    # feature ids the gate re-scores with the scalar reference
    resample: list[int] = field(default_factory=list)
    payload: bytes | None = None
    # (byte offset, bit) that the tampered envelope copy flips
    flip: tuple[int, int] | None = None

    def sizes(self) -> dict:
        info = {name: path.stat().st_size for name, path in self.files.items()}
        if self.features is not None:
            info["rows"], info["features"] = self.features.shape
        return info


def _write_private(path: Path, data: bytes) -> None:
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600)
    with os.fdopen(fd, "wb") as handle:
        handle.write(data)
    os.chmod(path, 0o600)


def _write_csv(path: Path, features: np.ndarray, target: np.ndarray) -> None:
    header = ",".join([f"x{i}" for i in range(features.shape[1])] + ["target"])
    table = np.column_stack([features, target]).tolist()
    lines = [header] + [",".join(map(repr, row)) for row in table]
    path.write_bytes(("\n".join(lines) + "\n").encode("ascii"))


def generate(workload: str, seed: int, workdir: Path) -> Inputs:
    """Write ``workload``'s inputs for ``seed`` into ``workdir``."""
    rng = np.random.default_rng(seed)
    workdir.mkdir(parents=True, exist_ok=True)
    # printable ASCII, so no byte is a newline the key reader would strip
    key = rng.integers(0x21, 0x7F, size=KEY_BYTES, dtype=np.uint8).tobytes()
    key_path = workdir / "key"
    _write_private(key_path, key)
    inputs = Inputs(key, key_path)

    if workload in ("tall", "wide"):
        rows, n_features = TALL_SHAPE if workload == "tall" else WIDE_SHAPE
        features = rng.standard_normal((rows, n_features))
        target = rng.standard_normal(rows)
        csv = workdir / f"{workload}.csv"
        _write_csv(csv, features, target)
        inputs.features = features
        chosen = rng.choice(n_features, size=RESCORED_FEATURES[workload], replace=False)
        inputs.resample = sorted(int(i) for i in chosen)
        inputs.files["csv"] = csv
    elif workload == "envelope":
        payload = rng.bytes(PAYLOAD_BYTES)
        path = workdir / "payload.bin"
        path.write_bytes(payload)
        inputs.payload = payload
        inputs.files["payload"] = path
        inputs.flip = (HEADER_BYTES + int(rng.integers(PAYLOAD_BYTES)), int(rng.integers(8)))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return inputs
