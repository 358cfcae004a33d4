"""Flat ``key = value`` run-configuration files.

Lines are ``key = value``; ``#`` starts a comment; blank lines are ignored.
Unknown and duplicate keys are hard errors with 1-based line numbers, which
catches typos instead of silently running defaults. So are ``inf`` and
``nan`` values, ``lambda <= 0`` and ``ridge < 0``; other values are checked
by the component they configure.
"""

from dataclasses import dataclass, fields

import numpy as np

from .errors import BadPenaltyParam, ConfigError
from .kernels import KernelSpec
from .penalties import PenaltySpec
from .solver import SolverConfig


def _parse_float(s):
    v = float(s)
    if not np.isfinite(v):
        raise ValueError("not a finite number")
    return v


def _parse_positive(s):
    v = _parse_float(s)
    if not v > 0:
        raise ValueError("not positive")
    return v


def _parse_nonnegative(s):
    v = _parse_float(s)
    if v < 0:
        raise ValueError("negative")
    return v


# key -> (attribute, parser)
CONFIG_KEYS = {
    "kernel.type": ("kernel_type", str),
    "kernel.gamma": ("kernel_gamma", _parse_float),
    "penalty.type": ("penalty_type", str),
    "penalty.p": ("penalty_p", _parse_float),
    "penalty.mu": ("penalty_mu", _parse_float),
    "penalty.r": ("penalty_r", int),
    "penalty.eps_m": ("penalty_eps_m", _parse_float),
    "penalty.eps_b": ("penalty_eps_b", _parse_float),
    "penalty.eps_w": ("penalty_eps_w", _parse_float),
    "lambda": ("lam", _parse_positive),
    "ridge": ("ridge", _parse_nonnegative),
    "delta": ("delta", _parse_float),
    "delta.schedule": ("delta_schedule", str),
    "delta.factor": ("delta_factor", _parse_float),
    "delta.floor": ("delta_floor", _parse_float),
    "epsilon": ("epsilon", _parse_float),
    "max_iter": ("max_iter", int),
    "mode": ("mode", str),
    "step_c": ("step_c", _parse_float),
    "step_a": ("step_a", _parse_float),
}


@dataclass
class RunConfig:
    """Parsed configuration with defaults matching the solver's."""

    kernel_type: str = "linear"
    kernel_gamma: float = 1.0
    penalty_type: str = "schatten"
    penalty_p: float = 1.0
    penalty_mu: float = 1.0
    penalty_r: int = 1
    penalty_eps_m: float = 1.0
    penalty_eps_b: float = 1.0
    penalty_eps_w: float = 1.0
    lam: float = 0.1
    ridge: float = 0.0
    delta: float = 1e-3
    delta_schedule: str = "fixed"
    delta_factor: float = 0.1
    delta_floor: float = 1e-6
    epsilon: float = 1e-8
    max_iter: int = 500
    mode: str = "altmin"
    step_c: float = 1e-3
    step_a: float = 1e-3

    def kernel_spec(self):
        return KernelSpec(kind=self.kernel_type, gamma=self.kernel_gamma)

    def penalty_spec(self, n_tasks=None):
        """Build the penalty. ``fixed`` means the identity structure, so the
        task count must be known."""
        if self.penalty_type == "schatten":
            return PenaltySpec.schatten(p=self.penalty_p, mu=self.penalty_mu)
        if self.penalty_type == "trace_one":
            return PenaltySpec.trace_one()
        if self.penalty_type == "cluster":
            return PenaltySpec.cluster(
                self.penalty_r,
                eps_m=self.penalty_eps_m,
                eps_b=self.penalty_eps_b,
                eps_w=self.penalty_eps_w,
            )
        if self.penalty_type == "fixed":
            if n_tasks is None:
                raise BadPenaltyParam("fixed penalty needs the task count")
            return PenaltySpec.fixed(np.eye(n_tasks))
        raise BadPenaltyParam("unknown penalty type %r" % (self.penalty_type,))

    def solver_config(self):
        return SolverConfig(
            mode=self.mode,
            epsilon=self.epsilon,
            max_iter=self.max_iter,
            delta=self.delta,
            delta_schedule=self.delta_schedule,
            delta_factor=self.delta_factor,
            delta_floor=self.delta_floor,
            step_c=self.step_c,
            step_a=self.step_a,
        )


def parse_config(text):
    """Parse configuration text into a :class:`RunConfig`."""
    cfg = RunConfig()
    seen = set()
    valid_attrs = {f.name for f in fields(RunConfig)}
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(lineno, "expected 'key = value', got %r" % raw.strip())
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(lineno, "unknown key %r" % key)
        if key in seen:
            raise ConfigError(lineno, "duplicate key %r" % key)
        seen.add(key)
        attr, parser = CONFIG_KEYS[key]
        assert attr in valid_attrs
        if not value:
            raise ConfigError(lineno, "missing value for %r" % key)
        try:
            setattr(cfg, attr, parser(value))
        except ValueError:
            raise ConfigError(lineno, "bad value %r for %r" % (value, key))
    return cfg


def load_config(path):
    """Read and parse a configuration file."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
