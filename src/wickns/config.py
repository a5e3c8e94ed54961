"""Experiment configuration: one INI-style file per run.

A config has a [run] section naming the subcommand plus the blocks the
subcommand needs.  Validation is strict: unknown sections or keys are
rejected, values are type-checked, and the fully-resolved config (defaults
materialized, keys sorted) is written beside every run's outputs so a
manifest can reproduce the run without the original file.  No environment
variable is consulted except WICKNS_OUT, which overrides the output
directory.  Importing the package defaults OPENBLAS_NUM_THREADS to 1 when
it is unset; that is not part of a config, and no output records it.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dynamics import SolverConfig
from .fields import SpectralField, field_from_csv, mode_field, zero_field
from .noise import NoiseOperator, bessel_operator, identity_operator, operator_from_csv, sample_white_noise_field
from .norms import MIN_GRID_POINTS, XsbParams

__all__ = ["ConfigError", "ExperimentConfig", "parse_config", "parse_config_text", "COMMANDS"]

COMMANDS = (
    "sample-noise",
    "solve",
    "picard",
    "norms",
    "wick-check",
    "gauge-check",
    "tail-mc",
    "variance-test",
    "trilinear",
    "multiplier",
    "sums",
    "divisors",
    "criticality",
)

U0_STREAM = 999  # a drawn u0 (white:...) comes from Philox stream (seed, U0_STREAM)
GRID_STEPS = f"int:{MIN_GRID_POINTS - 1}"  # a grid of steps + 1 points the X^{s,b} surrogate accepts

# section -> key -> (type tag, default); only [run] command has none, and a
# config without it is rejected before defaults apply; an "int:K" or "ints:K"
# tag rejects values below K
SCHEMA: dict[str, dict[str, tuple[str, str | None]]] = {
    "run": {
        "command": ("command", None),
        "seed": ("seed", "0"),
        "out": ("str", "out"),
        "workers": ("int:1", "1"),
    },
    "solver": {
        "cutoff": ("int:0", "16"),
        "dt": ("float", "0.015625"),
        "horizon": ("float", "0.5"),
        "picard_max_iters": ("int:1", "25"),
        "picard_tolerance": ("float", "1e-10"),
        "u0": ("str", "zero"),
    },
    "noise": {
        "kind": ("choice:bessel,identity,matrix,none", "bessel"),
        "alpha": ("float", "0.5"),
        "matrix_file": ("str", ""),
    },
    "norms": {
        "s": ("float", "0.0"),
        "b": ("float", "0.3"),
        "bprime": ("float", "-0.3"),
        "p": ("float", "2.0"),
        "q": ("float", "2.0"),
        "t": ("float", "0.5"),
        "window_steps": (GRID_STEPS, "64"),
    },
    "lab": {
        "lambdas": ("floats", "1.0,1.1,1.2,1.3,1.4"),
        "samples": ("int:1", "2000"),
        "steps": (GRID_STEPS, "64"),
        "cutoffs": ("ints:0", "16,32,64"),
        "substeps": ("int:1", "2"),
        "ensemble_size": ("int:1", "100"),
        "data_alpha": ("float", "0.75"),
        "d": ("int:1", "1"),
        "p": ("str", "2"),
        "delta": ("float", "0.5"),
        "limit": ("int:1", "100000"),
        "beta": ("float", "2.0"),
        "gamma": ("float", "0.6"),
        "k1_values": ("ints", "64,128,256,512,1024,2048,4096,8192"),
        "k2": ("int", "0"),
        "sum_cutoff": ("int:0", "131072"),
        "fields": ("int:1", "100"),
        "dt_halvings": ("int:1", "4"),
    },
    "sweep": {
        "axis": ("str", ""),
        "values": ("str", ""),
    },
}


class ConfigError(ValueError):
    """Invalid configuration; message carries section/field diagnostics."""


def _finite(v: float, raw: str) -> float:
    if not math.isfinite(v):
        raise ValueError(f"must be finite, got {raw!r}")
    return v


def _at_least(spec: str, vs: tuple) -> None:
    """The minimum of an "int:K" / "ints:K" tag; no check for a bare tag."""
    low = spec.partition(":")[2]
    if low and min(vs) < int(low):
        raise ValueError(f"must be >= {low}, got {min(vs)}")


def _coerce(section: str, key: str, spec: str, raw: str):
    kind = spec.partition(":")[0]
    try:
        if spec == "seed":
            v = int(raw)
            if not 0 <= v < 2**64:
                raise ValueError(f"must be an unsigned 64-bit value, got {v}")
            return v
        if kind == "int":
            v = int(raw)
            _at_least(spec, (v,))
            return v
        if spec == "float":
            return _finite(float(raw), raw)
        if spec == "floats":
            return tuple(_finite(float(v), raw) for v in raw.split(",") if v.strip() != "")
        if kind == "ints":
            vs = tuple(int(v) for v in raw.split(",") if v.strip() != "")
            if not vs:
                raise ValueError("must hold at least one value")
            _at_least(spec, vs)
            return vs
        if spec == "str":
            return raw
        if spec == "command":
            if raw not in COMMANDS:
                raise ValueError(f"unknown command {raw!r}")
            return raw
        if spec.startswith("choice:"):
            allowed = spec.split(":", 1)[1].split(",")
            if raw not in allowed:
                raise ValueError(f"must be one of {allowed}")
            return raw
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: {exc}") from None
    raise AssertionError(f"bad schema entry {spec}")


def _keyed(cls, keys: dict, **fields):
    """cls(**fields), with a ValueError whose message's first word is in keys
    (a field's name, say) re-raised as a ConfigError naming keys[word]."""
    try:
        return cls(**fields)
    except ValueError as exc:
        key = keys.get(str(exc).split(" ", 1)[0])
        if key is None:
            raise
        raise ConfigError(f"{key}: {exc}") from None


def _canonical_text(values: dict) -> str:
    """Deterministic INI dump: every schema key materialized, sorted."""
    out = io.StringIO()
    for section in sorted(SCHEMA):
        out.write(f"[{section}]\n")
        for key in sorted(SCHEMA[section]):
            v = values[(section, key)]
            if isinstance(v, tuple):
                v = ",".join(repr(x) if isinstance(x, float) else str(x) for x in v)
            out.write(f"{key} = {v}\n")
        out.write("\n")
    return out.getvalue()


@dataclass
class ExperimentConfig:
    values: dict  # (section, key) -> typed value, every schema key present

    command = property(lambda self: self.values[("run", "command")])
    seed = property(lambda self: self.values[("run", "seed")])
    out = property(lambda self: self.values[("run", "out")])
    workers = property(lambda self: self.values[("run", "workers")])

    @property
    def resolved(self) -> str:
        """Canonical INI text with defaults materialized."""
        return _canonical_text(self.values)

    def get(self, section: str, key: str):
        return self.values[(section, key)]

    def with_value(self, section: str, key: str, raw: str) -> "ExperimentConfig":
        """Copy with one schema key replaced from its raw string form."""
        if section not in SCHEMA or key not in SCHEMA[section]:
            raise ConfigError(f"[{section}] {key}: unknown key")
        if isinstance(self.values[(section, key)], tuple):
            raise ConfigError(f"[{section}] {key}: not a scalar key, cannot sweep")
        return ExperimentConfig({**self.values, (section, key): _coerce(section, key, SCHEMA[section][key][0], raw)})

    # -- builders ---------------------------------------------------------

    def solver_config(self) -> SolverConfig:
        names = ("cutoff", "dt", "horizon", "picard_max_iters", "picard_tolerance")
        keys = {k: f"[solver] {k}" for k in names}
        return _keyed(SolverConfig, keys, **{k: self.get("solver", k) for k in names})

    def noise_operator(self) -> NoiseOperator | None:
        kind = self.get("noise", "kind")
        N = self.get("solver", "cutoff")
        if kind == "none":
            return None
        if kind == "identity":
            return identity_operator(N)
        if kind == "bessel":
            return self._bessel("noise", "alpha", N)
        path = self.get("noise", "matrix_file")
        if not path:
            raise ConfigError("[noise] matrix_file: required for kind = matrix")
        try:
            with open(path) as fh:
                op = operator_from_csv(fh.read())
        except (OSError, ValueError) as exc:
            raise ConfigError(f"[noise] matrix_file: {exc}") from None
        if op.cutoff != N:
            raise ConfigError(f"[noise] matrix_file: operator has cutoff {op.cutoff}, the run needs {N}")
        return op

    def _bessel(self, section: str, key: str, N: int) -> NoiseOperator:
        alpha = self.get(section, key)
        try:
            return bessel_operator(N, alpha)
        except ValueError:
            raise ConfigError(f"[{section}] {key}: {alpha!r} overflows phi_n = (1 + n^2)^(-alpha/2) at cutoff {N}") from None

    def data_alpha(self) -> float:
        """[lab] data_alpha, with the overflow check of [noise] alpha at the
        largest of [lab] cutoffs, where phi_n of a negative alpha is largest."""
        self._bessel("lab", "data_alpha", max(self.get("lab", "cutoffs")))
        return self.get("lab", "data_alpha")

    def xsb_params(self) -> XsbParams:
        return self._xsb_params(self.get("norms", "t"), "[norms] t")

    def picard_params(self) -> XsbParams:
        """xsb_params with T = [solver] horizon, the end of the Picard grid."""
        return self._xsb_params(self.get("solver", "horizon"), "[solver] horizon")

    def _xsb_params(self, T: float, T_key: str) -> XsbParams:
        names = ("s", "b", "bprime", "p", "q")
        keys = {**{k: f"[norms] {k}" for k in names}, "T": T_key}
        return _keyed(XsbParams, keys, T=T, **{k: self.get("norms", k) for k in names})

    def initial_field(self, stream: Callable[..., np.random.Generator]) -> SpectralField:
        """[solver] u0 at [solver] cutoff; only a white datum calls stream, the
        run's recording stream opener, as stream("u0", U0_STREAM)."""
        spec = self.get("solver", "u0")
        cutoff = self.get("solver", "cutoff")
        parts = spec.split(":")
        try:
            if parts[0] == "zero":
                return zero_field(cutoff)
            if parts[0] == "white":
                variance = float(parts[1]) if len(parts) > 1 else 1.0
                return sample_white_noise_field(cutoff, variance, stream("u0", U0_STREAM))
            if parts[0] == "mode":
                n = int(parts[1])
                re = float(parts[2]) if len(parts) > 2 else 1.0
                im = float(parts[3]) if len(parts) > 3 else 0.0
                return mode_field(cutoff, n, complex(re, im))
            if parts[0] == "csv":
                with open(parts[1]) as fh:
                    f = field_from_csv(fh.read())
                if f.cutoff != cutoff:
                    raise ValueError(f"datum has cutoff {f.cutoff}, the run needs {cutoff}")
                return f
        except (IndexError, ValueError, OSError) as exc:
            raise ConfigError(f"[solver] u0: {exc}") from None
        raise ConfigError(f"[solver] u0: unknown kind {parts[0]!r}")

    def lab_p(self) -> float:
        raw = self.get("lab", "p")
        try:
            p = float(raw)
        except ValueError:
            raise ConfigError(f"[lab] p: not a number or 'inf': {raw!r}") from None
        if not p > 1.0:  # also catches nan
            raise ConfigError(f"[lab] p: must lie in (1, inf], got {raw!r}")
        return p


def parse_config_text(text: str, origin: str = "<string>") -> ExperimentConfig:
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_string(text, source=origin)
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from None
    if "run" not in cp or "command" not in cp["run"]:
        raise ConfigError("[run] command: missing")
    for section in cp.sections():
        if section not in SCHEMA:
            raise ConfigError(f"[{section}]: unknown section")
        for key in cp[section]:
            if key not in SCHEMA[section]:
                raise ConfigError(f"[{section}] {key}: unknown key")
    values: dict = {}
    for section, keys in SCHEMA.items():
        for key, (spec, default) in keys.items():
            raw = cp[section][key] if section in cp and key in cp[section] else default
            values[(section, key)] = _coerce(section, key, spec, raw)
    return ExperimentConfig(values)


def parse_config(path: str) -> ExperimentConfig:
    try:
        with open(path) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    return parse_config_text(text, origin=path)
