"""Scenario files: strict schema, loader, and the bundled benchmark setups.

A scenario is a YAML document. Keys (strict mode rejects anything else):

    name            str, required; a plain file name stem (no path separator,
                    not empty, not "..") since it names the output files
    description     str, optional
    dynamics        "scalar" | "single_integrator" | "unicycle"
    map             exactly one of
                      {builtin: "three_agent"}
                      {quadratic: {q_diag: [...2N...], xstar: [...2N...]}}
                      {quadratic1d: {xstar: <num>, scale: <num>}}   (scalar only)
    agents          list of {c, alpha, h, a, d?} blocks (agent dynamics only);
                    a and d are exact rationals: integers or "p/q" strings
    Omega           base angular rate (unicycle only, nonzero)
    alpha           dither amplitude (scalar only)
    dither          ["kind:n", "kind:n"] pair (scalar only, optional;
                    defaults to ["cosine:1", "sine:1"])
    omega           strictly increasing list of finite positive frequencies
    initial_state   list of length 1 (scalar) or 3N (agent dynamics)
    horizon         positive number
    amplitude_exponent  0.5 (default) or 1.0; with 1.0 the dither amplitude
                    grows like omega instead of sqrt(omega), a contrast
                    configuration that compare and sweep mode refuse (no
                    averaged counterpart exists for that scaling)
    nu_method       "closed_form" | "quadrature" | "quadrature:<nodes>" with
                    <nodes> an integer from 8 to 1,048,576 (optional)
    step            {samples_per_period?, max_step?, output_stride?} (optional);
                    samples_per_period an integer >= 4, output_stride >= 1
    probe           {delta: [...], epsilon, t_f, boundary_samples?, horizon?}
                    (optional), checked by ``sim.ProbeConfig``; boundary_samples
                    8 and horizon 2*t_f if absent

Numeric values may be written as decimals or as rational strings ("3/10").
A scenario is plain data: YAML anchors, aliases and merge keys are refused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from importlib import resources
from pathlib import Path
from typing import Callable

import numpy as np
import yaml

from .dynamics import InputAffineSystem, VectorField
from .liebracket import _parse_nu_method, build_lie_bracket_system
from .seekers import (AgentParams, PotentialGame, _check_params,
                      analytic_lie_single_integrator, analytic_lie_unicycle,
                      build_scalar_seeker, build_single_integrator, build_unicycle,
                      equilibrium_state, quadratic_game, three_agent_game)
from .signals import DitherSignal, from_name
from .sim import ProbeConfig, StepPolicy, checked_omegas

BUILTIN_GAMES = {"three_agent": three_agent_game}
DYNAMICS_KINDS = ("scalar", "single_integrator", "unicycle")

# collections nested deeper than this inside the top-level mapping are refused
# before a document is built; the bundled scenarios nest 2 deep. Both parsers
# yield their event stream in constant stack, and the check stops reading it
# past the bound, but libyaml builds documents recursively in C and overflows
# the C stack somewhere between 20,000 and 40,000 block levels ("- - - ...")
MAX_FLOW_DEPTH = 100
# PyYAML's libyaml parser, about eight times faster than its pure-Python one;
# a PyYAML built without libyaml parses the same documents with SafeLoader
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


class ScenarioError(ValueError):
    """Scenario file rejected: syntax, schema, or value problem."""


def _fail(path: str, message: str):
    raise ScenarioError(f"{path}: {message}")


def checked(path: str, fn, *args, **kwargs):
    """``fn(*args, **kwargs)``; a ValueError it raises becomes a ScenarioError at ``path``."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        _fail(path, str(exc))


def _require_keys(block: dict, path: str, required: set[str], optional: set[str]):
    if not isinstance(block, dict):
        _fail(path, "expected a mapping")
    unknown = set(block) - required - optional
    if unknown:
        _fail(path, f"unknown key(s) {sorted(unknown, key=str)}; allowed: "
                    f"{sorted(required | optional)}")
    missing = required - set(block)
    if missing:
        _fail(path, f"missing required key(s) {sorted(missing)}")


def _real(value, path: str) -> float:
    """Decimal or rational-string scalar, nan and inf included."""
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        _fail(path, f"expected a number, got {type(value).__name__}")
    try:
        return float(Fraction(value) if isinstance(value, str) else value)
    except (ValueError, ZeroDivisionError, OverflowError):
        _fail(path, f"cannot parse {value!r} as a number")


def _number(value, path: str) -> float:
    """Finite decimal or rational-string scalar."""
    number = _real(value, path)
    if not math.isfinite(number):
        _fail(path, f"must be finite, got {value!r}")
    return number


def _ratio(value, path: str) -> Fraction:
    """Exact rational: integer or 'p/q' string (floats would break periodicity)."""
    if isinstance(value, bool):
        _fail(path, "expected a rational")
    if isinstance(value, (int, str)):
        try:
            ratio = Fraction(value)
            float(ratio)  # OverflowError past the float range
        except (ValueError, ZeroDivisionError, OverflowError):
            _fail(path, f"cannot parse {value!r} as a rational within float range")
        return ratio
    _fail(path, f"frequency ratios must be integers or 'p/q' strings, got "
                f"{type(value).__name__}")


def _text(value, path: str) -> str:
    """``str`` of a string or number; a collection is refused, not printed whole,
    and a null or boolean is refused, not read as 'None' or 'True'."""
    if value is None or isinstance(value, (bool, list, dict, set)):
        _fail(path, f"expected a string or a number, got {type(value).__name__}")
    return str(value)


def _vector(value, path: str) -> np.ndarray:
    if not isinstance(value, list) or not value:
        _fail(path, "expected a non-empty list of numbers")
    return np.array([_number(v, f"{path}[{k}]") for k, v in enumerate(value)])


@dataclass(frozen=True)
class ScalarMap:
    fn: Callable[[float], float]
    grad: Callable[[float], float]
    xstar: float


@dataclass(frozen=True)
class Scenario:
    """A fully resolved run configuration."""

    name: str
    kind: str
    omegas: tuple[float, ...]
    x0: np.ndarray
    horizon: float
    policy: StepPolicy
    nu_method: str = "closed_form"
    amplitude_exponent: float = 0.5
    game: PotentialGame | None = None
    params: tuple[AgentParams, ...] = ()
    Omega: float | None = None
    alpha: float | None = None
    scalar_map: ScalarMap | None = None
    dithers: tuple[DitherSignal, DitherSignal] | None = None
    probe: ProbeConfig | None = None
    description: str = ""

    def build_system(self, omega: float) -> InputAffineSystem:
        """The oscillatory system at one frequency."""
        if self.kind == "scalar":
            sys = build_scalar_seeker(self.scalar_map.fn, self.scalar_map.grad,
                                      self.alpha, omega, self.dithers)
        elif self.kind == "single_integrator":
            sys = build_single_integrator(self.game, self.params, omega)
        else:
            sys = build_unicycle(self.game, self.params, self.Omega, omega)
        if self.amplitude_exponent != 0.5:
            sys = replace(sys, amplitude_exponent=self.amplitude_exponent)
        return sys

    def lie_field(self) -> VectorField:
        """The omega-free averaged reference flow."""
        if self.amplitude_exponent != 0.5:
            raise ScenarioError(
                "no averaged reference flow exists for amplitude exponent "
                f"{self.amplitude_exponent}; compare and sweep mode need one")
        if self.kind == "scalar":
            return self.generic_lie_field()
        if self.kind == "single_integrator":
            return analytic_lie_single_integrator(self.game, self.params)
        return analytic_lie_unicycle(self.game, self.params, self.Omega)

    def generic_lie_field(self) -> VectorField:
        """Averaged flow via the generic bracket construction (cross-check path)."""
        sys = self.build_system(self.omegas[0])
        # closed forms exist for sinusoids only; a node count is kept
        method = self.nu_method
        if method == "closed_form" and not all(s.is_sinusoid for _, s in sys.channels):
            method = "quadrature"
        return build_lie_bracket_system(sys, method)

    @property
    def target(self) -> np.ndarray | None:
        """Full-state target: maximizer plus filter equilibrium, when known."""
        if self.kind == "scalar":
            return np.array([self.scalar_map.xstar])
        if self.game is not None and self.game.maximizer is not None:
            return equilibrium_state(self.game, self.params)
        return None

    @property
    def dim(self) -> int:
        return self.x0.size


def _parse_scalar_map(block: dict, path: str) -> ScalarMap:
    _require_keys(block, path, {"xstar"}, {"scale"})
    xstar = _number(block["xstar"], f"{path}.xstar")
    scale = _number(block.get("scale", 1.0), f"{path}.scale")
    if scale <= 0.0:
        _fail(f"{path}.scale", "must be positive")

    def fn(x: float) -> float:
        return -scale * (x - xstar) ** 2

    def grad(x: float) -> float:
        return -2.0 * scale * (x - xstar)

    return ScalarMap(fn, grad, xstar)


def _parse_map(block, kind: str, path: str):
    if not isinstance(block, dict) or len(block) != 1:
        _fail(path, "map must select exactly one of builtin | quadratic | quadratic1d")
    (selector, payload), = block.items()
    if selector == "builtin":
        if not isinstance(payload, str) or payload not in BUILTIN_GAMES:
            _fail(f"{path}.builtin", f"unknown builtin {payload!r}; "
                                     f"available: {sorted(BUILTIN_GAMES)}")
        return BUILTIN_GAMES[payload]()
    if selector == "quadratic":
        _require_keys(payload, f"{path}.quadratic", {"q_diag", "xstar"}, set())
        q_diag = _vector(payload["q_diag"], f"{path}.quadratic.q_diag")
        xstar = _vector(payload["xstar"], f"{path}.quadratic.xstar")
        return checked(f"{path}.quadratic", quadratic_game, q_diag, xstar)
    if selector == "quadratic1d":
        if kind != "scalar":
            _fail(path, "quadratic1d maps apply to scalar dynamics only")
        return _parse_scalar_map(payload, f"{path}.quadratic1d")
    _fail(path, f"unknown map selector {selector!r}")


def _parse_agents(block, path: str) -> tuple[AgentParams, ...]:
    if not isinstance(block, list) or not block:
        _fail(path, "expected a non-empty list of agent blocks")
    out = []
    for k, entry in enumerate(block):
        p = f"{path}[{k}]"
        _require_keys(entry, p, {"c", "alpha", "h", "a"}, {"d"})
        out.append(checked(
            p, AgentParams,
            c=_number(entry["c"], f"{p}.c"),
            alpha=_number(entry["alpha"], f"{p}.alpha"),
            h=_number(entry["h"], f"{p}.h"),
            a=_ratio(entry["a"], f"{p}.a"),
            d=_ratio(entry["d"], f"{p}.d") if "d" in entry else None))
    return tuple(out)


def _parse_step(block, path: str) -> StepPolicy:
    _require_keys(block, path, set(), {"samples_per_period", "max_step", "output_stride"})
    kwargs = {}
    if "samples_per_period" in block:
        kwargs["samples_per_period"] = block["samples_per_period"]
    if "max_step" in block:
        kwargs["max_step"] = _number(block["max_step"], f"{path}.max_step")
    if "output_stride" in block:
        kwargs["output_stride"] = block["output_stride"]
    return checked(path, StepPolicy, **kwargs)


def _parse_probe(block, path: str) -> ProbeConfig:
    """The block's values as parsed; :class:`ProbeConfig` holds every probe rule."""
    _require_keys(block, path, {"delta", "epsilon", "t_f"},
                  {"boundary_samples", "horizon"})
    if not isinstance(block["delta"], list):
        _fail(f"{path}.delta", "expected a list of numbers")
    deltas = [_real(v, f"{path}.delta[{k}]") for k, v in enumerate(block["delta"])]
    horizon = _real(block["horizon"], f"{path}.horizon") if "horizon" in block else None
    return checked(path, ProbeConfig, deltas, _real(block["epsilon"], f"{path}.epsilon"),
                   _real(block["t_f"], f"{path}.t_f"), block.get("boundary_samples", 8),
                   horizon)


_TOP_REQUIRED = {"name", "dynamics", "map", "omega", "initial_state", "horizon"}
_TOP_OPTIONAL = {"description", "agents", "Omega", "alpha", "dither", "nu_method",
                 "amplitude_exponent", "step", "probe"}


def parse_scenario(doc: dict, strict: bool = True) -> Scenario:
    """Validate a parsed YAML document and resolve it into a Scenario."""
    if not isinstance(doc, dict):
        raise ScenarioError("scenario document must be a mapping")
    if strict:
        _require_keys(doc, "scenario", _TOP_REQUIRED, _TOP_OPTIONAL)
    else:
        missing = _TOP_REQUIRED - set(doc)
        if missing:
            _fail("scenario", f"missing required key(s) {sorted(missing)}")

    kind = doc["dynamics"]
    if kind not in DYNAMICS_KINDS:
        _fail("scenario.dynamics", f"must be one of {DYNAMICS_KINDS}")

    omegas = checked("scenario.omega", checked_omegas,
                     _vector(doc["omega"], "scenario.omega"))

    horizon = _number(doc["horizon"], "scenario.horizon")
    if horizon <= 0.0:
        _fail("scenario.horizon", "must be positive")

    x0 = _vector(doc["initial_state"], "scenario.initial_state")
    policy = _parse_step(doc.get("step", {}), "scenario.step")
    probe = _parse_probe(doc["probe"], "scenario.probe") if "probe" in doc else None

    nu_method = _text(doc.get("nu_method", "closed_form"), "scenario.nu_method")
    checked("scenario.nu_method", _parse_nu_method, nu_method)

    exponent = _number(doc.get("amplitude_exponent", 0.5),
                       "scenario.amplitude_exponent")
    if exponent not in (0.5, 1.0):
        _fail("scenario.amplitude_exponent", "must be 0.5 or 1.0")

    name = _text(doc["name"], "scenario.name")
    if name in ("", "..") or any(c in name for c in "/\\\0"):
        _fail("scenario.name", f"must be a plain file name stem, got {name!r}")

    common = dict(name=name, kind=kind, omegas=omegas, x0=x0,
                  horizon=horizon, policy=policy, nu_method=nu_method,
                  amplitude_exponent=exponent, probe=probe,
                  description=_text(doc.get("description", ""), "scenario.description"))

    if kind == "scalar":
        for key in ("agents", "Omega"):
            if key in doc:
                _fail(f"scenario.{key}", "not applicable to scalar dynamics")
        if "alpha" not in doc:
            _fail("scenario.alpha", "scalar dynamics need a dither amplitude")
        smap = _parse_map(doc["map"], kind, "scenario.map")
        if not isinstance(smap, ScalarMap):
            _fail("scenario.map", "scalar dynamics need a quadratic1d map")
        alpha = _number(doc["alpha"], "scenario.alpha")
        if alpha <= 0.0:
            _fail("scenario.alpha", "must be positive")
        names = doc.get("dither", ["cosine:1", "sine:1"])
        if not isinstance(names, list) or len(names) != 2:
            _fail("scenario.dither", "expected a pair of 'kind:n' strings")
        dithers = tuple(checked("scenario.dither", from_name, _text(n, "scenario.dither"))
                        for n in names)
        if x0.size != 1:
            _fail("scenario.initial_state", "scalar dynamics have one state")
        return Scenario(**common, alpha=alpha, scalar_map=smap, dithers=dithers)

    # agent dynamics
    if "alpha" in doc or "dither" in doc:
        _fail("scenario", "alpha/dither blocks apply to scalar dynamics only")
    if "agents" not in doc:
        _fail("scenario.agents", "agent dynamics need agent blocks")
    game = _parse_map(doc["map"], kind, "scenario.map")
    params = _parse_agents(doc["agents"], "scenario.agents")

    Omega = None
    if kind == "unicycle":
        if "Omega" not in doc:
            _fail("scenario.Omega", "unicycle dynamics need a base angular rate")
        Omega = _number(doc["Omega"], "scenario.Omega")
    elif "Omega" in doc:
        _fail("scenario.Omega", "only unicycle dynamics take a base angular rate")
    checked("scenario", _check_params, game, params, Omega)
    if x0.size != 3 * game.n_agents:
        _fail("scenario.initial_state",
              f"expected length {3 * game.n_agents} (2N positions + N filters)")

    return Scenario(**common, game=game, params=params, Omega=Omega)


def load_scenario(source, strict: bool = True) -> Scenario:
    """Load a scenario from a file path or a bundled name."""
    path = Path(source)
    if not path.suffix and not path.exists():
        return bundled_scenario(str(source), strict=strict)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"cannot read scenario file {source}: {exc}") from exc
    return parse_scenario_text(text, strict=strict)


def _check_depth(text: str) -> None:
    """Refuse, from the parser's event stream, a document that nests collections
    more than MAX_FLOW_DEPTH deep inside the top-level one or that holds an
    anchor, an alias or a merge key, at the first event that does."""
    depth = 0
    for event in yaml.parse(text, Loader=_LOADER):
        # a plain (untagged, unquoted) "<<" is a merge key, as is a scalar tagged !!merge
        merge = isinstance(event, yaml.ScalarEvent) and (
            event.implicit[0] and event.value == "<<" or event.tag == "tag:yaml.org,2002:merge")
        if merge or isinstance(event, yaml.NodeEvent) and event.anchor is not None:
            raise yaml.MarkedYAMLError(problem="anchors, aliases and merge keys are not "
                                       "supported", problem_mark=event.start_mark)
        if isinstance(event, yaml.CollectionStartEvent):
            depth += 1
            if depth > MAX_FLOW_DEPTH + 1:
                raise ScenarioError("scenario syntax error: collections nested more "
                                    f"than {MAX_FLOW_DEPTH} deep")
        elif isinstance(event, yaml.CollectionEndEvent):
            depth -= 1


def parse_scenario_text(text: str, strict: bool = True) -> Scenario:
    try:
        _check_depth(text)
        doc = yaml.load(text, Loader=_LOADER)
    except yaml.MarkedYAMLError as exc:
        mark = exc.problem_mark
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ScenarioError(f"scenario syntax error{where}: {exc.problem}") from exc
    except ScenarioError:
        raise
    except (yaml.YAMLError, ValueError) as exc:  # ValueError: a bad !!int or date
        raise ScenarioError(f"scenario syntax error: {exc}") from exc
    return parse_scenario(doc, strict=strict)


def list_bundled() -> list[str]:
    root = resources.files("ditherseek").joinpath("data")
    return sorted(p.name[:-5] for p in root.iterdir() if p.name.endswith(".yaml"))


def bundled_scenario(name: str, strict: bool = True) -> Scenario:
    ref = resources.files("ditherseek").joinpath("data").joinpath(f"{name}.yaml")
    if not ref.is_file():
        raise ScenarioError(f"unknown scenario {name!r}; bundled: {list_bundled()}")
    return parse_scenario_text(ref.read_text(encoding="utf-8"), strict=strict)
