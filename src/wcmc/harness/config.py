"""Experiment configuration as a JSON document with fail-fast validation.

Unknown keys are rejected at every level so config typos surface
immediately instead of silently falling back to defaults, and numbers are
checked against their fields' types instead of being truncated.
"""

from __future__ import annotations

import dataclasses
import json
import math
import typing
from dataclasses import dataclass, field

from ..baselines import SgldSchedule
from .data import DEFAULT_THETA_STAR, GAUSSIAN_FAMILIES

SCENARIOS = ("gaussian-toy", "probit-synthetic", "probit-csv")

class ConfigError(ValueError):
    pass


def _check_keys(section: dict, allowed, where: str) -> None:
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be an object, got {section!r}")
    unknown = sorted(set(section) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown keys {unknown} in {where}; allowed: {sorted(allowed)}")


def _check_fields(cls, section: dict, where: str) -> None:
    """Reject keys that are not fields of ``cls`` and absent fields that have no default."""
    fields = dataclasses.fields(cls)
    _check_keys(section, [f.name for f in fields], where)
    missing = [
        f.name
        for f in fields
        if f.name not in section
        and f.default is dataclasses.MISSING
        and f.default_factory is dataclasses.MISSING
    ]
    if missing:
        raise ConfigError(f"{where} is missing required keys {missing}")


def _number(hint, value, where: str):
    """``value`` for a field annotated ``hint``.  An int field takes integral
    numbers only (2 or 2.0, not 2.7) and a float field any number but NaN
    (±inf passes: +inf SNR is a noiseless link, and ``ExperimentConfig``
    rejects -inf); neither takes a bool or a string.  Other fields pass
    through unchanged."""
    kinds = typing.get_args(hint) or (hint,)
    kind = int if int in kinds else float if float in kinds else None
    if kind is None or (value is None and type(None) in kinds):
        return value
    is_number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if kind is int and is_number and (isinstance(value, int) or value.is_integer()):
        return int(value)
    if kind is float and is_number and not math.isnan(value):
        return float(value)
    expected = "an integer" if kind is int else "a number"
    raise ConfigError(f"{where} must be {expected}, got {value!r}")


def _build(cls, section: dict, where: str):
    """``cls`` from a checked section whose numbers match their fields."""
    _check_fields(cls, section, where)
    hints = typing.get_type_hints(cls)
    return cls(**{k: _number(hints[k], v, f"{where}.{k}") for k, v in section.items()})


@dataclass(frozen=True)
class WvcmcParams:
    eta: float
    t_m: int
    n_b: int | None = None  # None means full batch

    def __post_init__(self):
        if self.eta < 0:
            raise ConfigError(f"eta must be non-negative, got {self.eta}")
        if self.t_m < 0:
            raise ConfigError(f"t_m must be non-negative, got {self.t_m}")
        if self.n_b is not None and self.n_b < 1:
            raise ConfigError(f"n_b must be positive, got {self.n_b}")


@dataclass(frozen=True)
class SgldParams:
    alpha: float = 1e-3
    beta: float = 1.0
    gamma: float = 0.7
    n_b: int | None = 500
    iterations: int = 20000
    burn_in: int = 2000

    def __post_init__(self):
        try:
            # a data set of n_b rows is the least the schedule can serve, so this checks n_b too
            self.schedule(n_data=self.n_b)
        except ValueError as exc:
            raise ConfigError(f"schemes.sgld: {exc}") from None

    def schedule(self, n_data: int | None) -> SgldSchedule:
        """The SGLD schedule these parameters give; without a data set
        (``n_data`` None) every step takes the full gradient."""
        return SgldSchedule(
            alpha=self.alpha,
            beta=self.beta,
            gamma=self.gamma,
            n_iterations=self.iterations,
            burn_in=self.burn_in,
            minibatch_size=self.n_b if n_data is not None else None,
        )


@dataclass(frozen=True)
class Scheme:
    """How a scheme runs: its access mode ("oma", "noma", or None when it
    uses no channel), its parameter class (None when it takes no
    parameters), the name of the ``runner.Link`` method that runs it, and
    whether it fits a covariance to the received blocks, which takes at
    least 2 blocks per receiver.  The method is named, not referenced, so
    that configs can be parsed without importing the runner."""

    mode: str | None
    params: type | None
    run: str
    fits: bool = False


SCHEMES = {
    "gcmc": Scheme("oma", None, "run_gcmc", fits=True),
    "wgcmc-oma": Scheme("oma", None, "run_wgcmc", fits=True),
    "wgcmc-noma": Scheme("noma", None, "run_wgcmc", fits=True),
    # starts from the gcmc fit
    "wvcmc-oma": Scheme("oma", WvcmcParams, "run_wvcmc", fits=True),
    "wvcmc-noma": Scheme("noma", WvcmcParams, "run_wvcmc"),
    "sgld": Scheme(None, SgldParams, "run_sgld"),
    "best-single": Scheme("oma", None, "run_best_single"),
}


@dataclass(frozen=True)
class PartitionParams:
    rule: str = "equal"
    zeta: float = 0.0

    def __post_init__(self):
        if self.rule not in ("equal", "heterogeneous"):
            raise ConfigError(f"unknown partition rule {self.rule!r}")
        if self.zeta < 0:
            raise ConfigError(f"zeta must be non-negative, got {self.zeta}")


@dataclass(frozen=True)
class DataParams:
    n: int = 8500
    theta_star: tuple = DEFAULT_THETA_STAR
    n_test: int = 1000

    def __post_init__(self):
        if self.n < 1:
            raise ConfigError("n must be positive")
        if self.n_test < 0:
            raise ConfigError("n_test must be non-negative")
        theta = tuple(_number(float, x, "data.theta_star") for x in self.theta_star)
        object.__setattr__(self, "theta_star", theta)

    def check_dim(self, dim: int) -> None:
        """Raise unless ``theta_star`` has one coefficient per covariate."""
        if len(self.theta_star) != dim:
            n = len(self.theta_star)
            raise ConfigError(f"data.theta_star has {n} coefficients but the config sets dim={dim}")


@dataclass(frozen=True)
class CsvParams:
    path: str
    label_column: str = "label"
    pca_dim: int | None = None
    n_test: int = 0

    def __post_init__(self):
        if self.pca_dim is not None and self.pca_dim < 1:
            raise ConfigError(f"csv.pca_dim must be positive, got {self.pca_dim}")
        if self.n_test < 0:
            raise ConfigError(f"csv.n_test must be non-negative, got {self.n_test}")


@dataclass(frozen=True)
class ReferenceParams:
    """The Gibbs chain that stands in for the quadrature reference when
    ``posteriors.probit_quadrature`` gives up; read only then."""

    n_samples: int = 20000
    burn_in: int = 100

    def __post_init__(self):
        if self.n_samples < 1000:
            raise ConfigError("reference sampler needs at least 1000 samples")
        if self.burn_in < 0:
            raise ConfigError("burn_in must be non-negative")


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: str
    n_workers: int
    t_blocks: int
    snr_db: float
    trials: int
    seed: int
    schemes: dict
    dim: int = 5
    subposteriors: str = "heterogeneous"  # toy covariance family
    prior_variance: float = 1.0
    partition: PartitionParams = field(default_factory=PartitionParams)
    data: DataParams = field(default_factory=DataParams)
    csv: CsvParams | None = None
    reference: ReferenceParams = field(default_factory=ReferenceParams)

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"unknown scenario {self.scenario!r}; expected one of {SCENARIOS}")
        if self.n_workers < 1:
            raise ConfigError("n_workers must be positive")
        if self.trials < 1:
            raise ConfigError("trials must be positive")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if self.t_blocks < 1:
            raise ConfigError("t_blocks must be positive")
        if self.snr_db == -math.inf:
            raise ConfigError("snr_db must be above -inf: the link would carry no signal")
        if self.prior_variance <= 0:
            raise ConfigError("prior_variance must be positive")
        if self.dim < 1:
            raise ConfigError("dim must be positive")
        if self.subposteriors not in GAUSSIAN_FAMILIES:
            raise ConfigError(
                f"unknown subposteriors {self.subposteriors!r}; expected one of {GAUSSIAN_FAMILIES}"
            )
        unknown = sorted(set(self.schemes) - set(SCHEMES))
        if unknown:
            raise ConfigError(f"unknown schemes {unknown}; allowed: {list(SCHEMES)}")
        if not self.schemes:
            raise ConfigError("at least one scheme is required")
        if self.blocks.get("oma") == 0:
            raise ConfigError(
                f"orthogonal access needs t_blocks >= n_workers "
                f"(got T={self.t_blocks}, K={self.n_workers})"
            )
        for name in self.schemes:
            scheme = SCHEMES[name]
            if scheme.fits and self.blocks[scheme.mode] < 2:
                raise ConfigError(
                    f"{name} fits a covariance and needs at least 2 blocks per receiver "
                    f"(got {self.blocks[scheme.mode]} from T={self.t_blocks}, K={self.n_workers})"
                )
        if self.scenario == "probit-csv" and self.csv is None:
            raise ConfigError("probit-csv runs need a csv section")
        if self.scenario == "probit-synthetic":
            self.data.check_dim(self.dim)
        if self.scenario == "gaussian-toy":
            if self.partition != PartitionParams():
                raise ConfigError(
                    "the gaussian-toy scenario has no data set to partition: "
                    "it takes no partition section or zeta sweep"
                )
            for name, params in self.schemes.items():
                if isinstance(params, WvcmcParams) and params.n_b is not None:
                    raise ConfigError(f"{name}: the toy scenario has no data set to minibatch")
        if self.partition.rule == "equal" and self.partition.zeta != 0:
            raise ConfigError(f"partition.zeta={self.partition.zeta} needs the heterogeneous rule")

    @property
    def blocks(self) -> dict[str, int]:
        """S, the blocks each receiver gets, by the access modes the schemes
        use: T/K under orthogonal access and all T superposed otherwise."""
        per_mode = {"oma": self.t_blocks // self.n_workers, "noma": self.t_blocks}
        modes = (SCHEMES[name].mode for name in self.schemes)
        return {mode: per_mode[mode] for mode in modes if mode is not None}


def _parse_scheme(name: str, section: dict):
    if name not in SCHEMES:
        raise ConfigError(f"unknown scheme {name!r}; allowed: {list(SCHEMES)}")
    params = SCHEMES[name].params
    if params is None:
        _check_keys(section, (), f"schemes.{name}")
        return None
    return _build(params, section, f"schemes.{name}")


def parse_config(doc: dict) -> ExperimentConfig:
    """Validate a parsed JSON document into an ExperimentConfig.

    Keys are the fields of ``ExperimentConfig`` and of its section classes;
    every section must be an object, int and float fields are checked by
    ``_number``, and a null section takes its default.
    """
    _check_fields(ExperimentConfig, doc, "config")
    if not isinstance(doc["schemes"], dict):
        raise ConfigError("schemes must be an object mapping scheme names to parameters")
    schemes = {
        name: _parse_scheme(name, {} if section is None else section)
        for name, section in doc["schemes"].items()
    }
    values = {"schemes": schemes}
    for key, hint in typing.get_type_hints(ExperimentConfig).items():
        if key not in doc or key in values:
            continue
        # a section holds a config dataclass, or None in its place (csv)
        classes = (hint, *typing.get_args(hint))
        section = next((c for c in classes if dataclasses.is_dataclass(c)), None)
        if section is None:
            values[key] = _number(hint, doc[key], key)
        elif doc[key] is not None:
            values[key] = _build(section, doc[key], key)
    return ExperimentConfig(**values)


def read_json(path: str, what: str):
    """The parsed JSON file ``what`` at ``path``; a file that cannot be read
    or is not JSON is a ``ConfigError``."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc.strerror or exc}") from None
    except ValueError as exc:  # not JSON, or not UTF-8
        raise ConfigError(f"{path}: invalid JSON ({exc})") from None


def load_config(path: str) -> ExperimentConfig:
    return parse_config(read_json(path, "config"))
