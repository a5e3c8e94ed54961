"""Run manifests: enough provenance to replay a run byte for byte.

Every CLI run writes `manifest.json` next to its outputs.  The manifest
embeds the resolved config text (so the original file is not needed, and
its [run] section holds the master seed), the Philox streams the run drew,
and a sha256 per output file.  `rerun` parses the embedded
config, executes the command into a fresh directory, and compares hashes.
Wall time and timestamps live only in the manifest, never in outputs, so
replays stay byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import typing
from dataclasses import MISSING, asdict, dataclass, field, fields

__all__ = ["RunManifest", "compare_outputs", "sha256_file"]

SCHEMA_VERSION = 1


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _strict(value):
    """value with every inf or nan float, at any depth, as the string "inf",
    "-inf" or "nan": JSON has no such literals."""
    if isinstance(value, float) and not math.isfinite(value):
        return str(value)
    if isinstance(value, dict):
        return {k: _strict(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict(v) for v in value]
    return value


def _json_text(body: dict) -> str:
    """The one JSON writer of a run's files: strict, indented, keys sorted."""
    return json.dumps(_strict(body), indent=2, sort_keys=True, allow_nan=False) + "\n"


@dataclass
class RunManifest:
    command: str
    resolved_config: str
    code_version: str
    outputs: list[dict] = field(default_factory=list)  # {name, sha256, bytes}
    flags: dict = field(default_factory=dict)
    task_seeds: dict = field(default_factory=dict)  # task label -> stream key
    wall_time_s: float = 0.0
    schema_version: int = SCHEMA_VERSION

    @property
    def config_hash(self) -> str:
        return hashlib.sha256(self.resolved_config.encode()).hexdigest()

    def record_output(self, out_dir: str, name: str) -> None:
        path = os.path.join(out_dir, name)
        self.outputs.append(
            {"name": name, "sha256": sha256_file(path), "bytes": os.path.getsize(path)}
        )

    def to_json(self) -> str:
        return _json_text({**asdict(self), "config_hash": self.config_hash})

    def write(self, out_dir: str) -> str:
        path = os.path.join(out_dir, "manifest.json")
        with open(path, "w") as fh:
            fh.write(self.to_json())
        return path

    @classmethod
    def load(cls, path: str) -> "RunManifest":
        with open(path) as fh:
            body = json.load(fh)
        if not isinstance(body, dict):
            raise ValueError("manifest is not a JSON object")
        if body.get("schema_version") != SCHEMA_VERSION:
            raise ValueError(f"unsupported manifest schema {body.get('schema_version')!r}")
        required = [f.name for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING]
        missing = [k for k in (*required, "config_hash") if k not in body]
        if missing:
            raise ValueError(f"manifest lacks {', '.join(missing)}")
        hints = {**typing.get_type_hints(cls), "config_hash": str}
        bad = []
        for name, hint in hints.items():
            kind = typing.get_origin(hint) or hint
            if name in body and not isinstance(body[name], (int, float) if kind is float else kind):
                bad.append(f"{name} (expected {kind.__name__}, got {type(body[name]).__name__})")
        outputs = body.get("outputs")
        if isinstance(outputs, list) and not all(
            isinstance(r, dict) and isinstance(r.get("name"), str) and isinstance(r.get("sha256"), str) for r in outputs
        ):
            bad.append("outputs (each entry needs a string name and sha256)")
        if bad:
            raise ValueError(f"manifest fields of the wrong type: {'; '.join(bad)}")
        m = cls(**{f.name: body[f.name] for f in fields(cls) if f.name in body})
        if body["config_hash"] != m.config_hash:
            raise ValueError("manifest config_hash does not match embedded config")
        return m


def compare_outputs(old: RunManifest, new_dir: str) -> list[str]:
    """Names of recorded outputs that are missing or differ under new_dir."""
    bad = []
    for rec in old.outputs:
        path = os.path.join(new_dir, rec["name"])
        if not os.path.exists(path) or sha256_file(path) != rec["sha256"]:
            bad.append(rec["name"])
    return bad
