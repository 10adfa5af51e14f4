"""Run configuration: named profiles, JSON parsing and canonical emission.

A config document is a flat JSON object.  Two named profiles cover the
stock benchmarks; any key can be overridden from the command line.
parse_config(emit_config(c)) returns a config equal to c.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from .parallel import OptimizerConfig
from .problems import (
    MixtureProblem,
    MixtureProblemSpec,
    PSGDConfig,
    SigmoidProblem,
    SigmoidProblemSpec,
    make_mixture_problem,
    make_sigmoid_problem,
)


class ConfigError(ValueError):
    """Bad configuration document: missing, unknown, or invalid keys."""


REQUIRED_KEYS = ("problem", "n", "m_workers", "n_particles", "batch_size", "jitter_var")

COMMON_KEYS = REQUIRED_KEYS + (
    "algorithm",
    "data_seed",
    "half_width",
    "epsilon",
    "estimate_every",
    "seed",
    "init_point",
    "init_var",
    "keep_final_particles",
    "step_size",
)
MIXTURE_KEYS = ("lam", "r", "mean_var")
SIGMOID_KEYS = ("x_low", "x_high", "theta_true", "noise_std")


@dataclass(frozen=True)
class RunConfig:
    """Everything one benchmark run needs, in plain scalars and tuples.

    Problem-specific fields are None when they do not apply, so two
    configs compare equal exactly when they describe the same run.
    """

    problem: str
    n: int
    m_workers: int
    n_particles: int
    batch_size: int
    jitter_var: float
    algorithm: str
    data_seed: int
    half_width: float
    epsilon: Optional[float]
    estimate_every: Optional[int]
    seed: int
    init_point: Optional[Tuple[float, ...]]
    init_var: float
    keep_final_particles: bool
    step_size: float
    lam: Optional[float] = None
    r: Optional[float] = None
    mean_var: Optional[float] = None
    x_low: Optional[float] = None
    x_high: Optional[float] = None
    theta_true: Optional[Tuple[float, float]] = None
    noise_std: Optional[float] = None


PROFILES: Dict[str, dict] = {
    "mixture-5.1": {
        "problem": "mixture",
        "algorithm": "psmco",
        "n": 1000,
        "data_seed": 0,
        "lam": 10.0,
        "r": 0.2,
        "mean_var": 0.5,
        "half_width": 50.0,
        "m_workers": 100,
        "n_particles": 50,
        "batch_size": 1,
        "jitter_var": 0.5,
        "epsilon": None,
        "estimate_every": 1,
        "seed": 0,
        "init_point": None,
        "init_var": 0.0,
        "keep_final_particles": False,
        "step_size": 0.5,
    },
    "sigmoid-5.2": {
        "problem": "sigmoid",
        "algorithm": "psmco",
        "n": 100000,
        "data_seed": 0,
        "x_low": -2.5,
        "x_high": 2.5,
        "theta_true": (1.0, -2.0),
        "noise_std": 0.0,
        "half_width": 200.0,
        "m_workers": 25,
        "n_particles": 40,
        "batch_size": 100,
        "jitter_var": 1000.0,
        "epsilon": None,
        "estimate_every": 1,
        "seed": 0,
        "init_point": (-190.0, 0.0),
        "init_var": 1e-8,
        "keep_final_particles": False,
        "step_size": 0.5,
    },
}


def load_profile(name: str) -> dict:
    if name not in PROFILES:
        known = ", ".join(sorted(PROFILES))
        raise ConfigError(f"unknown profile {name!r}; available: {known}")
    return dict(PROFILES[name])


def _as_int(key, value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return value


def _as_float(key, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    return float(value)


def _as_bool(key, value) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{key} must be true or false, got {value!r}")
    return value


def _as_point(key, value) -> Tuple[float, ...]:
    if not isinstance(value, (list, tuple)) or len(value) == 0:
        raise ConfigError(f"{key} must be a list of numbers, got {value!r}")
    return tuple(_as_float(key, v) for v in value)


def parse_config(doc: dict) -> RunConfig:
    """Validate a config document and fill in defaults.

    Empty documents raise with the list of required keys; keys outside
    the schema for the document's problem are rejected by name.
    """
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    if not doc:
        raise ConfigError(
            "empty config; required keys: " + ", ".join(REQUIRED_KEYS)
        )
    missing = [k for k in REQUIRED_KEYS if k not in doc]
    if missing:
        raise ConfigError("missing required keys: " + ", ".join(missing))

    problem = doc["problem"]
    if problem not in ("mixture", "sigmoid"):
        raise ConfigError(f"problem must be 'mixture' or 'sigmoid', got {problem!r}")
    allowed = set(COMMON_KEYS) | set(MIXTURE_KEYS if problem == "mixture" else SIGMOID_KEYS)
    unknown = sorted(set(doc) - allowed)
    if unknown:
        raise ConfigError("unknown keys: " + ", ".join(unknown))

    algorithm = doc.get("algorithm", "psmco")
    if algorithm not in ("psmco", "psgd"):
        raise ConfigError(f"algorithm must be 'psmco' or 'psgd', got {algorithm!r}")
    if algorithm == "psgd" and problem != "sigmoid":
        raise ConfigError("the gradient baseline is only defined for the sigmoid problem")

    n = _as_int("n", doc["n"])
    if n < 1:
        raise ConfigError("n must be at least 1")
    m_workers = _as_int("m_workers", doc["m_workers"])
    n_particles = _as_int("n_particles", doc["n_particles"])
    batch_size = _as_int("batch_size", doc["batch_size"])
    if m_workers < 1 or n_particles < 1:
        raise ConfigError("m_workers and n_particles must be at least 1")
    if batch_size < 1 or batch_size > n:
        raise ConfigError(f"batch_size must be in [1, n={n}], got {batch_size}")
    jitter_var = _as_float("jitter_var", doc["jitter_var"])
    if jitter_var < 0:
        raise ConfigError("jitter_var must be non-negative")

    epsilon = doc.get("epsilon")
    if epsilon is not None:
        epsilon = _as_float("epsilon", epsilon)
        cap = 1.0 / math.sqrt(n_particles)
        if not (0.0 < epsilon <= 1.0) or epsilon > cap:
            raise ConfigError(
                f"epsilon must lie in (0, min(1, 1/sqrt(n_particles)={cap:.6g})]"
            )
    estimate_every = doc.get("estimate_every", 1)
    if estimate_every is not None:
        estimate_every = _as_int("estimate_every", estimate_every)
        if estimate_every < 1:
            raise ConfigError("estimate_every must be positive")
    seed = _as_int("seed", doc.get("seed", 0))
    data_seed = _as_int("data_seed", doc.get("data_seed", 0))
    init_point = doc.get("init_point")
    if init_point is not None:
        init_point = _as_point("init_point", init_point)
        if len(init_point) != 2:
            raise ConfigError("init_point must have 2 coordinates")
    init_var = _as_float("init_var", doc.get("init_var", 0.0))
    if init_var < 0:
        raise ConfigError("init_var must be non-negative")
    keep = _as_bool("keep_final_particles", doc.get("keep_final_particles", False))
    step_size = _as_float("step_size", doc.get("step_size", 0.5))
    if step_size < 0:
        raise ConfigError("step_size must be non-negative")

    if problem == "mixture":
        half_width = _as_float("half_width", doc.get("half_width", 50.0))
        lam = _as_float("lam", doc.get("lam", 10.0))
        r = _as_float("r", doc.get("r", 0.2))
        mean_var = _as_float("mean_var", doc.get("mean_var", 0.5))
        if lam <= 0 or r <= 0 or mean_var < 0:
            raise ConfigError("need lam > 0, r > 0, mean_var >= 0")
        extra = dict(lam=lam, r=r, mean_var=mean_var)
    else:
        half_width = _as_float("half_width", doc.get("half_width", 200.0))
        x_low = _as_float("x_low", doc.get("x_low", -2.5))
        x_high = _as_float("x_high", doc.get("x_high", 2.5))
        if not x_low < x_high:
            raise ConfigError("need x_low < x_high")
        theta_true = _as_point("theta_true", doc.get("theta_true", (1.0, -2.0)))
        if len(theta_true) != 2:
            raise ConfigError("theta_true must have 2 coordinates")
        noise_std = _as_float("noise_std", doc.get("noise_std", 0.0))
        if noise_std < 0:
            raise ConfigError("noise_std must be non-negative")
        extra = dict(x_low=x_low, x_high=x_high, theta_true=theta_true, noise_std=noise_std)
    if half_width <= 0:
        raise ConfigError("half_width must be positive")

    return RunConfig(
        problem=problem,
        algorithm=algorithm,
        n=n,
        m_workers=m_workers,
        n_particles=n_particles,
        batch_size=batch_size,
        jitter_var=jitter_var,
        epsilon=epsilon,
        estimate_every=estimate_every,
        seed=seed,
        data_seed=data_seed,
        half_width=half_width,
        init_point=init_point,
        init_var=init_var,
        keep_final_particles=keep,
        step_size=step_size,
        **extra,
    )


def emit_config(config: RunConfig) -> dict:
    """Canonical document for a config: every applicable key, no others."""
    doc = {
        "problem": config.problem,
        "algorithm": config.algorithm,
        "n": config.n,
        "data_seed": config.data_seed,
        "half_width": config.half_width,
        "m_workers": config.m_workers,
        "n_particles": config.n_particles,
        "batch_size": config.batch_size,
        "jitter_var": config.jitter_var,
        "epsilon": config.epsilon,
        "estimate_every": config.estimate_every,
        "seed": config.seed,
        "init_point": list(config.init_point) if config.init_point is not None else None,
        "init_var": config.init_var,
        "keep_final_particles": config.keep_final_particles,
        "step_size": config.step_size,
    }
    if config.problem == "mixture":
        doc.update(lam=config.lam, r=config.r, mean_var=config.mean_var)
    else:
        doc.update(
            x_low=config.x_low,
            x_high=config.x_high,
            theta_true=list(config.theta_true),
            noise_std=config.noise_std,
        )
    return doc


def config_to_json(config: RunConfig) -> str:
    return json.dumps(emit_config(config), sort_keys=True, indent=2) + "\n"


def config_from_json(text: str) -> RunConfig:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}") from None
    return parse_config(doc)


def override_value(raw: str):
    """Interpret a command-line override value.

    JSON literals pass through (numbers, true/false/null, lists); a bare
    comma-separated pair like -190,0 becomes a list; anything else stays
    a string.
    """
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        pass
    if "," in raw:
        try:
            return [float(part) for part in raw.split(",")]
        except ValueError:
            pass
    return raw


def apply_overrides(doc: dict, overrides) -> dict:
    out = dict(doc)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        key, _, raw = item.partition("=")
        out[key.strip()] = override_value(raw.strip())
    return out


def build_problem(config: RunConfig):
    """Instantiate the dataset for a config; returns the problem object."""
    if config.problem == "mixture":
        return make_mixture_problem(
            MixtureProblemSpec(
                n=config.n,
                lam=config.lam,
                r=config.r,
                mean_var=config.mean_var,
                seed=config.data_seed,
                half_width=config.half_width,
            )
        )
    return make_sigmoid_problem(
        SigmoidProblemSpec(
            n=config.n,
            x_low=config.x_low,
            x_high=config.x_high,
            theta_true=tuple(config.theta_true),
            noise_std=config.noise_std,
            seed=config.data_seed,
            half_width=config.half_width,
        )
    )


def to_optimizer_config(config: RunConfig) -> OptimizerConfig:
    return OptimizerConfig(
        m_workers=config.m_workers,
        n_particles=config.n_particles,
        batch_size=config.batch_size,
        proposal_std=math.sqrt(config.jitter_var),
        epsilon=config.epsilon,
        seed=config.seed,
        estimate_every=config.estimate_every,
        init_point=config.init_point,
        init_std=math.sqrt(config.init_var),
        keep_final_particles=config.keep_final_particles,
    )


def to_psgd_config(config: RunConfig) -> PSGDConfig:
    iterations = -(-config.n // config.batch_size)  # matches the sampler's step count
    return PSGDConfig(
        n_chains=config.m_workers,
        step_size=config.step_size,
        init_point=tuple(config.init_point) if config.init_point is not None else (0.0, 0.0),
        init_std=math.sqrt(config.init_var),
        batch_size=config.batch_size,
        iterations=iterations,
        seed=config.seed,
    )
