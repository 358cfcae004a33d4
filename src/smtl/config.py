"""Flat ``key = value`` run-configuration files.

Lines are ``key = value``; ``#`` starts a comment; blank lines are ignored.
Each key sets one field of the component it configures: the ``kernel.*``
keys a :class:`KernelSpec`, the solver keys a :class:`SolverConfig`, and
the ``penalty.*`` keys the arguments of the :class:`PenaltySpec` builder
that ``penalty.type`` names. Every default is the component's own. Unknown
and duplicate keys, ``inf`` and ``nan`` values, ``lambda <= 0``,
``ridge < 0`` and a kernel or solver value that its component rejects are
errors with 1-based line numbers. Penalty values are checked when the
penalty is built for a task count (:meth:`RunConfig.build`).
"""

import inspect
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import BadKernelParam, BadPenaltyParam, BadRank, ConfigError
from .kernels import KernelSpec
from .penalties import PENALTY_KINDS, PenaltySpec, check_tasks
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


# key -> (component, field, parser); "run" fields are RunConfig's own
CONFIG_KEYS = {
    "kernel.type": ("kernel", "kind", str),
    "kernel.gamma": ("kernel", "gamma", _parse_float),
    "penalty.type": ("penalty", "type", str),
    "penalty.p": ("penalty", "p", _parse_float),
    "penalty.mu": ("penalty", "mu", _parse_float),
    "penalty.r": ("penalty", "r", int),
    "penalty.eps_m": ("penalty", "eps_m", _parse_float),
    "penalty.eps_b": ("penalty", "eps_b", _parse_float),
    "penalty.eps_w": ("penalty", "eps_w", _parse_float),
    "lambda": ("run", "lam", _parse_positive),
    "ridge": ("run", "ridge", _parse_nonnegative),
    "delta": ("solver", "delta", _parse_float),
    "delta.schedule": ("solver", "delta_schedule", str),
    "delta.factor": ("solver", "delta_factor", _parse_float),
    "delta.floor": ("solver", "delta_floor", _parse_float),
    "epsilon": ("solver", "epsilon", _parse_float),
    "max_iter": ("solver", "max_iter", int),
    "mode": ("solver", "mode", str),
    "step_c": ("solver", "step_c", _parse_float),
    "step_a": ("solver", "step_a", _parse_float),
}


@dataclass
class RunConfig:
    """A parsed configuration: the kernel and solver settings as the
    components themselves, the penalty values the file set (builder
    arguments by name, plus ``type``), and the fit's ``lam`` and ``ridge``."""

    kernel: KernelSpec = field(default_factory=KernelSpec)
    solver: SolverConfig = field(default_factory=SolverConfig)
    penalty: dict = field(default_factory=lambda: {"type": "schatten"})
    lam: float = 0.1
    ridge: float = 0.0

    def build(self, n_tasks):
        """``(KernelSpec, PenaltySpec, SolverConfig)`` for ``n_tasks`` tasks.

        The builder that ``penalty.type`` names reads the penalty values it
        takes and ignores the rest; ``fixed`` is the identity structure.
        A penalty that its builder or the task count rejects raises
        :class:`ConfigError`.
        """
        kind = self.penalty["type"]
        if kind not in PENALTY_KINDS:
            raise ConfigError(0, "unknown penalty type %r" % (kind,))
        builder = getattr(PenaltySpec, kind)
        takes = inspect.signature(builder).parameters
        args = {k: v for k, v in self.penalty.items() if k in takes}
        if kind == "fixed":
            args["a0"] = np.eye(n_tasks)
        try:
            penalty = builder(**args)
            check_tasks(penalty, n_tasks)
        except (BadPenaltyParam, BadRank) as exc:
            raise ConfigError(0, str(exc)) from exc
        return self.kernel, penalty, self.solver


def parse_config(text):
    """Parse configuration text into a :class:`RunConfig`."""
    cfg = RunConfig()
    seen = set()
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
        if not value:
            raise ConfigError(lineno, "missing value for %r" % key)
        component, name, parser = CONFIG_KEYS[key]
        try:
            parsed = parser(value)
            if component == "run":
                setattr(cfg, name, parsed)
            elif component == "penalty":
                cfg.penalty[name] = parsed
            else:  # the component's own checks run on the new value
                setattr(cfg, component,
                        replace(getattr(cfg, component), **{name: parsed}))
        except (ValueError, BadKernelParam) as exc:
            raise ConfigError(lineno, "bad value %r for %r: %s" % (value, key, exc)) from exc
    return cfg


def load_config(path):
    """Read and parse a configuration file."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
