"""Scenario configuration and deterministic RNG stream derivation.

A :class:`SystemConfig` holds every free parameter of one synchronous
DS-CDMA uplink scenario: user count ``K``, spreading gain ``N``, resolvable
paths per user ``L``, coherence time ``M`` (symbol periods per block-fading
realization), training overhead ``M_t``, complex noise variance, the
spreading-code construction, and the master seed.  Derived loads are always
recomputed from these so they can never go stale.

Reproducibility contract: trial ``t`` of experiment ``eid`` under master
seed ``s`` always uses the generator ``derive_stream(s, eid, t)``, which
seeds NumPy with ``SeedSequence([s, sha256(eid), t])``.  Disjoint
(experiment, trial) pairs therefore get independent streams and any trial
can be re-run in isolation.
"""

from __future__ import annotations

import hashlib
import typing
from dataclasses import MISSING, dataclass, fields

import numpy as np

from .exceptions import ConfigurationError, ParameterError

CODE_MODELS = ("independent", "shifted")

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class SystemConfig:
    """All scenario parameters for one simulated system."""

    n_users: int                    # K, active users
    spreading_gain: int             # N, chips per symbol
    n_paths: int = 1                # L, resolvable paths per user
    coherence_time: int = 10        # M, symbol periods per fading block
    n_training: int = 0             # M_t, known symbols per block (0..M)
    noise_var: float = 0.0          # total variance of a complex noise sample
    code_model: str = "independent"
    seed: int = 0

    def __post_init__(self):
        if self.n_users < 1 or self.spreading_gain < 1 or self.n_paths < 1:
            raise ConfigurationError("n_users, spreading_gain and n_paths must be positive")
        if self.coherence_time < 1:
            raise ConfigurationError("coherence_time must be positive")
        if not 0 <= self.n_training <= self.coherence_time:
            raise ConfigurationError(
                f"n_training must lie in [0, coherence_time], got {self.n_training}")
        if not 0 <= self.noise_var < np.inf:
            raise ConfigurationError(f"noise_var must be finite and nonnegative, "
                                     f"got {self.noise_var}")
        if self.code_model not in CODE_MODELS:
            raise ConfigurationError(
                f"code_model must be one of {CODE_MODELS}, got {self.code_model!r}")

    # ---- derived quantities (never stored) ----

    @property
    def load(self) -> float:
        """System load K/N."""
        return self.n_users / self.spreading_gain

    @property
    def training_fraction(self) -> float:
        """Training overhead M_t/M."""
        return self.n_training / self.coherence_time

    @property
    def stacked_load(self) -> float:
        """Equivalent load KL/(MN) of the stacked estimation problem."""
        return (self.n_users * self.n_paths) / (self.coherence_time * self.spreading_gain)

    @property
    def n_gains(self) -> int:
        """Number of unknown channel coefficients, K*L."""
        return self.n_users * self.n_paths

    # ---- flat key=value (de)serialization ----

    def to_text(self) -> str:
        lines = [f"{f.name} = {getattr(self, f.name)}" for f in fields(self)]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "SystemConfig":
        types = typing.get_type_hints(cls)
        values = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigurationError(f"line {lineno}: expected 'key = value', got {raw!r}")
            key, _, val = line.partition("=")
            key, val = key.strip(), val.strip()
            if key not in types:
                raise ConfigurationError(f"line {lineno}: unknown key {key!r}")
            if key in values:
                raise ConfigurationError(f"line {lineno}: duplicate key {key!r}")
            try:
                values[key] = types[key](val)
            except ValueError:
                kind = types[key].__name__
                raise ConfigurationError(
                    f"line {lineno}: {key} expects {kind}, got {val!r}") from None
        missing = [f.name for f in fields(cls)
                   if f.default is MISSING and f.name not in values]
        if missing:
            raise ConfigurationError(f"missing required keys: {missing}")
        return cls(**values)

    def save(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_text())

    @classmethod
    def from_file(cls, path) -> "SystemConfig":
        text = read_text(path)
        try:
            return cls.from_text(text)
        except ConfigurationError as exc:
            raise ConfigurationError(f"{path}: {exc}") from None

    def digest(self) -> str:
        """Stable short hash of the full configuration."""
        return hashlib.sha256(self.to_text().encode()).hexdigest()[:16]


def read_text(path) -> str:
    """The text of an input file; a file that cannot be read raises ConfigurationError."""
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise ConfigurationError(f"{path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"{path}: {exc}") from None


def noise_var_from_snr_db(snr_db: float) -> float:
    """Complex noise variance for a unit-power user at the given input SNR."""
    try:
        return 10.0 ** (-float(snr_db) / 10.0)
    except OverflowError:
        raise ParameterError(
            f"snr_db {snr_db} dB puts the noise variance past the float range") from None


def derive_stream(master_seed: int, experiment_id: str, trial: int) -> np.random.Generator:
    """Independent, reproducible RNG stream for one Monte Carlo trial."""
    if trial < 0:
        raise ParameterError("trial index must be nonnegative")
    tag = int.from_bytes(hashlib.sha256(experiment_id.encode()).digest()[:8], "big")
    return np.random.default_rng(np.random.SeedSequence([master_seed & _MASK64, tag, trial]))
