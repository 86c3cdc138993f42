"""Run configuration: parsing, validation and serialization.

Configs are line-oriented ``key = value`` text under ``[section]``
headers; ``#`` starts a comment.  Unknown sections or keys are rejected
(a silent typo in a physical constant would invalidate a run), values are
validated on parse, and every referenced model preset is resolved once so
bad names fail before any mesh is built.  ``serialize`` emits a canonical
form that parses back to an equal config.
"""

import math
import os
from dataclasses import dataclass, fields

from .anisotropy import anisotropy_from_name, mobility_from_name
from .errors import ParseError, ValidationError
from .potentials import PotentialSpec, shape_from_name
from .solver import SolverConfig
from .stepper import PhysicalParams

__all__ = ["RunConfig", "parse_config", "serialize_config", "load_config"]


@dataclass
class RunConfig:
    # [physics]
    theta: float = 0.0
    lam: float = 1.0
    a: float = 1.0
    alpha: float = 1.0
    rho: float = 0.0
    K_plus: float = 1.0
    K_minus: float = 1.0
    eps: float = 1.0 / (16.0 * math.pi)
    u_D: float = 0.0
    H: float = 0.5
    R0: float = 0.1
    T_end: float = 1e-3
    tau: float = 1e-5
    bc: str = "dirichlet"
    # [model]
    potential: str = "obstacle"
    shape: str = "linear"
    anisotropy: str = "iso"
    mobility: str = "gamma"
    initial: str = "seed"
    m_cutoff: float = 2.0
    # [solver]
    method: str = "auto"
    tol: float = 1e-8
    omega: float = 0.5
    max_outer: int = 200
    newton_tol: float = 1e-8
    newton_max_iter: int = 30
    # [mesh]
    N_f: int = 128
    N_c: int = 16
    dim: int = 2
    adaptive: bool = False
    # [output]
    out_dir: str = ""
    vtk_every: int = 10

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
        if self.dim not in (2, 3):
            raise ValidationError("dim", "must be 2 or 3")
        if self.vtk_every < 0:
            raise ValidationError("vtk_every", "must be >= 0")

    # -- materialized model objects --------------------------------------

    def physical_params(self):
        return PhysicalParams(
            theta=self.theta, lam=self.lam, a=self.a, alpha=self.alpha,
            rho=self.rho, Kplus=self.K_plus, Kminus=self.K_minus,
            eps=self.eps, u_D=self.u_D, H=self.H, bc_case=self.bc,
            R0=self.R0, T_end=self.T_end, tau=self.tau)

    def model_objects(self):
        pot = PotentialSpec(self.potential)
        sh = shape_from_name(self.shape, u_D=self.u_D, m=self.m_cutoff)
        aniso = anisotropy_from_name(self.anisotropy, dim=self.dim)
        if aniso.dim != self.dim:
            raise ValueError(
                f"anisotropy {self.anisotropy!r} is {aniso.dim}d, run is {self.dim}d")
        mob = mobility_from_name(self.mobility)
        return pot, sh, aniso, mob

    def solver_config(self):
        return SolverConfig(
            method=self.method, tol=self.tol, max_outer=self.max_outer,
            omega=self.omega, newton_tol=self.newton_tol,
            newton_max_iter=self.newton_max_iter)

    def to_dict(self):
        return {f.name: getattr(self, f.name) for f in fields(self)}


# section -> config key -> (attribute, converter)
_BOOL = {"true": True, "false": False}


def _to_bool(text):
    try:
        return _BOOL[text.lower()]
    except KeyError:
        raise ValueError(f"expected true/false, got {text!r}") from None


_SCHEMA = {
    "physics": {
        "theta": ("theta", float),
        "lambda": ("lam", float),
        "a": ("a", float),
        "alpha": ("alpha", float),
        "rho": ("rho", float),
        "K_plus": ("K_plus", float),
        "K_minus": ("K_minus", float),
        "eps": ("eps", float),
        "eps_inv": ("eps", lambda s: 1.0 / float(s)),
        "u_D": ("u_D", float),
        "H": ("H", float),
        "R0": ("R0", float),
        "T_end": ("T_end", float),
        "tau": ("tau", float),
        "bc": ("bc", str),
    },
    "model": {
        "potential": ("potential", str),
        "shape": ("shape", str),
        "anisotropy": ("anisotropy", str),
        "mobility": ("mobility", str),
        "initial": ("initial", str),
        "m_cutoff": ("m_cutoff", float),
    },
    "solver": {
        "method": ("method", str),
        "tol": ("tol", float),
        "omega": ("omega", float),
        "max_outer": ("max_outer", int),
        "newton_tol": ("newton_tol", float),
        "newton_max_iter": ("newton_max_iter", int),
    },
    "mesh": {
        "N_f": ("N_f", int),
        "N_c": ("N_c", int),
        "dim": ("dim", int),
        "adaptive": ("adaptive", _to_bool),
    },
    "output": {
        "dir": ("out_dir", str),
        "vtk_every": ("vtk_every", int),
    },
}


def parse_config(text):
    """Parse configuration text into a validated RunConfig."""
    values = {}
    section = None
    seen_eps = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SCHEMA:
                raise ParseError(line_no, f"unknown section [{section}]")
            continue
        if "=" not in line:
            raise ParseError(line_no, f"expected 'key = value', got {raw!r}")
        if section is None:
            raise ParseError(line_no, "key outside of any [section]")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        entry = _SCHEMA[section].get(key)
        if entry is None:
            raise ParseError(line_no, f"unknown key {key!r} in [{section}]")
        attr, conv = entry
        if key in ("eps", "eps_inv"):
            seen_eps.append(key)
            if len(set(seen_eps)) > 1:
                raise ParseError(line_no, "give either eps or eps_inv, not both")
        try:
            values[attr] = conv(val)
        except ValueError as exc:
            raise ParseError(line_no, f"bad value for {key}: {exc}") from None
    return RunConfig(**values)


def serialize_config(cfg):
    """Canonical text form in schema order (``eps`` written, not its
    ``eps_inv`` alias); floats keep 17 significant digits."""
    lines = []
    for section, keys in _SCHEMA.items():
        lines.append(f"[{section}]")
        for key, (attr, _) in keys.items():
            if key == "eps_inv":
                continue
            val = getattr(cfg, attr)
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
