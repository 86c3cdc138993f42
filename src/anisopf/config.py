"""Run configuration: parsing, validation and serialization.

Configs are line-oriented ``key = value`` text under ``[section]``
headers; ``#`` starts a comment.  Unknown sections or keys are rejected
(a silent typo in a physical constant would invalidate a run), values are
validated on parse, and every referenced model preset is resolved once so
bad names fail before any mesh is built.  ``serialize`` emits a canonical
form that parses back to an equal config.
"""

import os
from dataclasses import asdict, dataclass, field, fields

from .anisotropy import anisotropy_from_name, mobility_from_name
from .errors import ParseError, ValidationError
from .potentials import PotentialSpec, shape_from_name
from .solver import SolverConfig
from .stepper import PhysicalParams

__all__ = ["RunConfig", "parse_config", "serialize_config", "load_config"]


def _key(section, default, key=None, param=None):
    """A run parameter under ``[section]``.  ``key`` is its spelling in
    config files and ``param`` its PhysicalParams field, where either
    differs from the RunConfig field name."""
    return field(default=default,
                 metadata={"section": section, "key": key, "param": param})


@dataclass
class RunConfig:
    """The run parameters in canonical config order; the physics and solver
    defaults are read from PhysicalParams and SolverConfig."""

    theta: float = _key("physics", PhysicalParams.theta)
    lam: float = _key("physics", PhysicalParams.lam, key="lambda")
    a: float = _key("physics", PhysicalParams.a)
    alpha: float = _key("physics", PhysicalParams.alpha)
    rho: float = _key("physics", PhysicalParams.rho)
    K_plus: float = _key("physics", PhysicalParams.Kplus, param="Kplus")
    K_minus: float = _key("physics", PhysicalParams.Kminus, param="Kminus")
    eps: float = _key("physics", PhysicalParams.eps)
    u_D: float = _key("physics", PhysicalParams.u_D)
    H: float = _key("physics", PhysicalParams.H)
    R0: float = _key("physics", PhysicalParams.R0)
    T_end: float = _key("physics", PhysicalParams.T_end)
    tau: float = _key("physics", PhysicalParams.tau)
    bc: str = _key("physics", PhysicalParams.bc_case, param="bc_case")
    potential: str = _key("model", "obstacle")
    shape: str = _key("model", "linear")
    anisotropy: str = _key("model", "iso")
    mobility: str = _key("model", "gamma")
    initial: str = _key("model", "seed")
    tol: float = _key("solver", SolverConfig.tol)
    omega: float = _key("solver", SolverConfig.omega)
    N_f: int = _key("mesh", 128)
    N_c: int = _key("mesh", 16)
    dim: int = _key("mesh", 2)
    adaptive: bool = _key("mesh", False)
    out_dir: str = _key("output", "", key="dir")
    vtk_every: int = _key("output", 10)

    def __post_init__(self):
        if not self.out_dir:
            self.out_dir = os.environ.get("ANISO_PF_OUT", "out")
        self.validate()

    def validate(self):
        try:
            self.physical_params()
        except ValueError as exc:
            raise ValidationError("physics", str(exc)) from None
        try:
            self.solver_config()
        except ValueError as exc:
            raise ValidationError("solver", str(exc)) from None
        # before the model, whose presets are built for this dimension
        if self.dim not in (2, 3):
            raise ValidationError("dim", "must be 2 or 3")
        try:
            self.model_objects()
        except ValueError as exc:
            raise ValidationError("model", str(exc)) from None
        if self.bc == "neumann" and self.u_D != 0.0:
            raise ValidationError("u_D", "must be 0 under pure Neumann walls")
        if self.initial not in ("seed", "liquid"):
            raise ValidationError("initial", f"unknown choice {self.initial!r}")
        for key, n in (("N_f", self.N_f), ("N_c", self.N_c)):
            if n < 2 or n % 2 != 0:
                raise ValidationError(key, "must be an even count >= 2")
        if self.adaptive:
            ratio = self.N_f // self.N_c if self.N_c else 0
            if (self.N_f < self.N_c or self.N_f % self.N_c != 0
                    or ratio & (ratio - 1) != 0):
                raise ValidationError(
                    "N_f", "must be a power-of-two multiple of N_c")
        if self.vtk_every < 0:
            raise ValidationError("vtk_every", "must be >= 0")

    # -- materialized model objects --------------------------------------

    def _section(self, section, cls):
        return cls(**{f.metadata["param"] or f.name: getattr(self, f.name)
                      for f in fields(self) if f.metadata["section"] == section})

    def physical_params(self):
        return self._section("physics", PhysicalParams)

    def model_objects(self):
        pot = PotentialSpec(self.potential)
        sh = shape_from_name(self.shape, u_D=self.u_D)
        aniso = anisotropy_from_name(self.anisotropy, dim=self.dim)
        if aniso.dim != self.dim:
            raise ValueError(
                f"anisotropy {self.anisotropy!r} is {aniso.dim}d, run is {self.dim}d")
        mob = mobility_from_name(self.mobility)
        return pot, sh, aniso, mob

    def solver_config(self):
        return self._section("solver", SolverConfig)

    def to_dict(self):
        return asdict(self)


# section -> config key -> RunConfig field, in canonical order
_KEYS = {}
for _f in fields(RunConfig):
    _KEYS.setdefault(_f.metadata["section"], {})[_f.metadata["key"] or _f.name] = _f

_BOOL = {"true": True, "false": False}


def _to_bool(text):
    try:
        return _BOOL[text.lower()]
    except KeyError:
        raise ValueError(f"expected true/false, got {text!r}") from None


def parse_config(text):
    """Parse configuration text into a validated RunConfig.

    ``[physics] eps_inv`` is accepted as input for ``1 / eps``.  The model
    picks the step solver, so ``[solver] method`` is read only as ``auto``,
    the one value older configs hold."""
    values = {}
    section = None
    seen_eps = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _KEYS:
                raise ParseError(line_no, f"unknown section [{section}]")
            continue
        if "=" not in line:
            raise ParseError(line_no, f"expected 'key = value', got {raw!r}")
        if section is None:
            raise ParseError(line_no, "key outside of any [section]")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if section == "solver" and key == "method":
            if val != "auto":
                raise ParseError(line_no, f"method {val!r}: the model picks "
                                 "the step solver; only 'auto' is read")
            continue
        f = _KEYS[section].get("eps" if key == "eps_inv" else key)
        if f is None:
            raise ParseError(line_no, f"unknown key {key!r} in [{section}]")
        if f.name == "eps":
            seen_eps.append(key)
            if len(set(seen_eps)) > 1:
                raise ParseError(line_no, "give either eps or eps_inv, not both")
        try:
            values[f.name] = (_to_bool if f.type is bool else f.type)(val)
            if key == "eps_inv":
                values["eps"] = 1.0 / values["eps"]
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(line_no, f"bad value for {key}: {exc}") from None
    return RunConfig(**values)


def serialize_config(cfg):
    """Canonical text form in field order (``eps`` written, not its
    ``eps_inv`` alias); floats keep 17 significant digits."""
    lines = []
    for section, keys in _KEYS.items():
        lines.append(f"[{section}]")
        for key, f in keys.items():
            val = getattr(cfg, f.name)
            if isinstance(val, bool):
                text = "true" if val else "false"
            elif isinstance(val, float):
                text = f"{val:.17g}"
            else:
                text = str(val)
            lines.append(f"{key} = {text}")
        lines.append("")
    return "\n".join(lines)


def load_config(path):
    with open(path) as f:
        return parse_config(f.read())
