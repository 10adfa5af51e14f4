"""Run configuration: named profiles, JSON parsing and canonical emission.

A config document is a flat JSON object whose keys are the fields of
RunConfig.  Each key is declared once: a problem key (n, data_seed,
half_width and the problem's data parameters) takes its JSON type and
default from the problem spec dataclass, every other key from RunConfig.
Range rules live with the object that owns the value; parse_config
builds those objects and reports their complaints as ConfigError.  Two
named profiles cover the stock benchmarks, and any key can be overridden
from the command line.  parse_config(emit_config(c)) returns a config
equal to c.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, fields
from typing import Dict, Optional, Tuple, get_args, get_origin, get_type_hints

from .core import step_count
from .parallel import OptimizerConfig
from .problems import (
    MixtureProblemSpec,
    PSGDConfig,
    SigmoidProblemSpec,
    make_mixture_problem,
    make_sigmoid_problem,
)


class ConfigError(ValueError):
    """Bad configuration or input document: missing, unknown, or invalid
    keys, or a malformed file."""


@dataclass(frozen=True)
class RunConfig:
    """Everything one benchmark run needs, in plain scalars and tuples.

    Fields without a default are the required keys.  The problem fields,
    from data_seed on, take their types and defaults from the problem
    spec; they are None when they do not apply to the problem, so two
    configs compare equal exactly when they describe the same run.
    """

    problem: str
    n: int
    m_workers: int
    n_particles: int
    batch_size: int
    jitter_var: float
    algorithm: str = "psmco"
    epsilon: Optional[float] = None
    estimate_every: Optional[int] = 1
    seed: int = 0
    init_point: Optional[Tuple[float, ...]] = None
    init_var: float = 0.0
    keep_final_particles: bool = False
    step_size: float = 0.5
    data_seed: Optional[int] = None
    half_width: Optional[float] = None
    lam: Optional[float] = None
    r: Optional[float] = None
    mean_var: Optional[float] = None
    x_low: Optional[float] = None
    x_high: Optional[float] = None
    theta_true: Optional[Tuple[float, float]] = None
    noise_std: Optional[float] = None


# Only the required keys and the values that differ from the defaults.
PROFILES: Dict[str, dict] = {
    "mixture-5.1": {
        "problem": "mixture",
        "n": 1000,
        "m_workers": 100,
        "n_particles": 50,
        "batch_size": 1,
        "jitter_var": 0.5,
    },
    "sigmoid-5.2": {
        "problem": "sigmoid",
        "n": 100000,
        "m_workers": 25,
        "n_particles": 40,
        "batch_size": 100,
        "jitter_var": 1000.0,
        "init_point": (-190.0, 0.0),
        "init_var": 1e-8,
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


def _json_type(hint):
    """(converter, nullable) for a dataclass field's type hint."""
    args = get_args(hint)
    nullable = type(None) in args
    if nullable:
        (hint,) = [a for a in args if a is not type(None)]
    if get_origin(hint) is tuple:
        return _as_point, nullable
    if hint is str:  # problem and algorithm, checked against their choices
        return (lambda key, value: value), nullable
    return {int: _as_int, float: _as_float, bool: _as_bool}[hint], nullable


_PROBLEMS = {
    "mixture": (MixtureProblemSpec, make_mixture_problem),
    "sigmoid": (SigmoidProblemSpec, make_sigmoid_problem),
}
_SPEC_NAMES = {"data_seed": "seed"}  # config key -> spec field, where they differ
_RUN_FIELDS = {f.name: f for f in fields(RunConfig)}
# problem -> the config keys that are fields of its spec
_PROBLEM_KEYS = {
    problem: tuple(
        k for k in _RUN_FIELDS if _SPEC_NAMES.get(k, k) in {f.name for f in fields(spec)}
    )
    for problem, (spec, _) in _PROBLEMS.items()
}
REQUIRED_KEYS = tuple(k for k, f in _RUN_FIELDS.items() if f.default is MISSING)


def _schema(problem: str) -> dict:
    """key -> (converter, nullable, default) for one problem's documents,
    in RunConfig field order; a required key's default is MISSING."""
    spec = _PROBLEMS[problem][0]
    spec_hints, run_hints = get_type_hints(spec), get_type_hints(RunConfig)
    spec_defaults = {f.name: f.default for f in fields(spec)}
    schema = {}
    for key, f in _RUN_FIELDS.items():
        if key in _PROBLEM_KEYS[problem]:
            name = _SPEC_NAMES.get(key, key)
            hint, default = spec_hints[name], spec_defaults[name]
        elif any(key in keys for keys in _PROBLEM_KEYS.values()):
            continue  # another problem's key
        else:
            hint, default = run_hints[key], f.default
        schema[key] = (*_json_type(hint), MISSING if f.default is MISSING else default)
    return schema


_SCHEMAS = {problem: _schema(problem) for problem in _PROBLEMS}


def parse_config(doc: dict) -> RunConfig:
    """Validate a config document and fill in defaults.

    Empty documents raise with the list of required keys; keys outside
    the schema for the document's problem are rejected by name.  Each
    value is checked by the object that owns it: the problem spec, the
    OptimizerConfig and the PSGDConfig the config describes.
    """
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    if not doc:
        raise ConfigError("empty config; required keys: " + ", ".join(REQUIRED_KEYS))
    missing = [k for k in REQUIRED_KEYS if k not in doc]
    if missing:
        raise ConfigError("missing required keys: " + ", ".join(missing))

    problem = doc["problem"]
    if not isinstance(problem, str) or problem not in _SCHEMAS:
        choices = " or ".join(repr(p) for p in _SCHEMAS)
        raise ConfigError(f"problem must be {choices}, got {problem!r}")
    schema = _SCHEMAS[problem]
    unknown = sorted(set(doc) - set(schema))
    if unknown:
        raise ConfigError("unknown keys: " + ", ".join(unknown))
    values = {key: default for key, (_, _, default) in schema.items()}
    for key, value in doc.items():
        convert, nullable, _ = schema[key]
        values[key] = None if value is None and nullable else convert(key, value)
    config = RunConfig(**values)

    if config.algorithm not in ("psmco", "psgd"):
        raise ConfigError(f"algorithm must be 'psmco' or 'psgd', got {config.algorithm!r}")
    if config.algorithm == "psgd" and problem != "sigmoid":
        raise ConfigError("the gradient baseline is only defined for the sigmoid problem")
    if config.algorithm == "psgd" and config.keep_final_particles:
        raise ConfigError("keep_final_particles needs algorithm 'psmco': the gradient baseline has no particles")
    try:
        step_count(config.n, config.batch_size)
        spec = problem_spec(config)
        to_optimizer_config(config)
        to_psgd_config(config)
    except ValueError as e:
        raise ConfigError(str(e)) from None
    if config.init_point is not None and len(config.init_point) != spec.dim:
        raise ConfigError(f"init_point must have {spec.dim} coordinates")
    return config


def emit_config(config: RunConfig) -> dict:
    """Canonical document for a config: every applicable key, no others."""
    doc = {key: getattr(config, key) for key in _SCHEMAS[config.problem]}
    return {k: list(v) if isinstance(v, tuple) else v for k, v in doc.items()}


def config_to_json(config: RunConfig) -> str:
    return json.dumps(emit_config(config), sort_keys=True, indent=2) + "\n"


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


def problem_spec(config: RunConfig):
    """The problem spec dataclass a config describes."""
    spec = _PROBLEMS[config.problem][0]
    keys = _PROBLEM_KEYS[config.problem]
    return spec(**{_SPEC_NAMES.get(k, k): getattr(config, k) for k in keys})


def build_problem(config: RunConfig):
    """Instantiate the dataset for a config; returns the problem object."""
    return _PROBLEMS[config.problem][1](problem_spec(config))


def _std(key: str, variance: float) -> float:
    """Standard deviation for a variance key (only configs use variances)."""
    if not (variance >= 0 and math.isfinite(variance)):
        raise ConfigError(f"{key} must be finite and non-negative, got {variance!r}")
    return math.sqrt(variance)


def to_optimizer_config(config: RunConfig) -> OptimizerConfig:
    return OptimizerConfig(
        m_workers=config.m_workers,
        n_particles=config.n_particles,
        batch_size=config.batch_size,
        proposal_std=_std("jitter_var", config.jitter_var),
        epsilon=config.epsilon,
        seed=config.seed,
        estimate_every=config.estimate_every,
        init_point=config.init_point,
        init_std=_std("init_var", config.init_var),
    )


def to_psgd_config(config: RunConfig) -> PSGDConfig:
    return PSGDConfig(
        n_chains=config.m_workers,
        step_size=config.step_size,
        init_point=config.init_point or (0.0, 0.0),
        init_std=_std("init_var", config.init_var),
        batch_size=config.batch_size,
        iterations=step_count(config.n, config.batch_size),  # the sampler's steps
        seed=config.seed,
    )
