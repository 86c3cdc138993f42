import errno
import json
import math
import pathlib
import re
import struct

import numpy as np
import pytest

from anisopf import output, solver
from anisopf.cli import main
from anisopf.config import RunConfig, parse_config, serialize_config
from anisopf.errors import ParseError, ValidationError
from anisopf.mesh import NodalField, build_uniform_mesh
from anisopf.output import write_energy_csv, write_vtk
from anisopf.solver import SolverConfig
from anisopf.stepper import EnergyRow, PhysicalParams, SimulationState

# sections and keys of the canonical config text, in order (the eps_inv
# alias is input-only)
CANONICAL = {
    "physics": ["theta", "lambda", "a", "alpha", "rho", "K_plus", "K_minus",
                "eps", "u_D", "H", "R0", "T_end", "tau", "bc"],
    "model": ["potential", "shape", "anisotropy", "mobility", "initial"],
    "mesh": ["N_f", "N_c", "dim", "adaptive"],
    "output": ["dir", "vtk_every"],
}


def test_empty_config_gives_defaults():
    cfg = parse_config("")
    assert cfg.eps == pytest.approx(1.0 / (16.0 * math.pi))
    assert cfg.N_f == 128 and cfg.N_c == 16
    assert cfg.lam == 1.0 and cfg.a == 1.0
    assert cfg.K_plus == 1.0 and cfg.K_minus == 1.0
    assert cfg.mobility == "gamma"
    assert cfg.potential == "obstacle"


def test_roundtrip_equality():
    cfg = RunConfig(theta=1.0, rho=0.01, alpha=0.03, u_D=-2.0, H=2.0,
                    eps=1 / (4 * math.pi), R0=0.5, anisotropy="hex2d-rot:0.1",
                    T_end=0.1, tau=1e-3, N_f=64, N_c=16, adaptive=True,
                    vtk_every=7, out_dir="somewhere")
    text = serialize_config(cfg)
    assert parse_config(text) == cfg
    # every key is written once; eps stands for its eps_inv alias
    written = re.findall(r"^(\w+) = ", text, flags=re.M)
    assert written == [k for keys in CANONICAL.values() for k in keys]


def test_default_config_layout():
    expected = [item for section, keys in CANONICAL.items()
                for item in [f"[{section}]"] + keys]
    text = serialize_config(RunConfig())
    assert [line.split(" = ")[0] for line in text.splitlines() if line] == expected


def test_defaults_are_the_solver_and_physics_defaults():
    cfg = RunConfig()
    assert cfg.physical_params() == PhysicalParams()
    assert cfg.solver_config() == SolverConfig()
    assert list(cfg.to_dict()) == [
        "theta", "lam", "a", "alpha", "rho", "K_plus", "K_minus", "eps", "u_D",
        "H", "R0", "T_end", "tau", "bc", "potential", "shape", "anisotropy",
        "mobility", "initial", "N_f", "N_c", "dim", "adaptive", "out_dir",
        "vtk_every"]


ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("path", sorted((ROOT / "configs").glob("*.cfg")),
                         ids=lambda p: p.name)
def test_shipped_configs_parse(path):
    cfg = parse_config(path.read_text())
    assert parse_config(serialize_config(cfg)) == cfg


def test_readme_config_parses():
    blocks = re.findall(r"```ini\n(.*?)```", (ROOT / "README.md").read_text(),
                        flags=re.S)
    assert len(blocks) == 1
    cfg = parse_config(blocks[0])
    assert cfg.anisotropy == "hex2d-rot:0.1" and cfg.N_f == 64


def test_output_seed_key_is_rejected():
    # like the removed Newton-only solver keys, the shape cutoff, the
    # iteration cap, the solver controls and every solver choice but the
    # default
    for text in ("[output]\nseed = 0\n", "[solver]\nnewton_tol = 1e-8\n",
                 "[solver]\nnewton_max_iter = 30\n",
                 "[model]\nm_cutoff = 2.0\n"):
        with pytest.raises(ParseError):
            parse_config(text)
    for line in ("method = lagged", "method = active-set", "max_outer = 200",
                 "tol = 1e-8", "omega = 0.5"):
        with pytest.raises(ParseError) as err:
            parse_config(f"# solver\n[solver]\nmethod = auto\n{line}\n")
        assert err.value.line_no == 4


def test_solver_method_auto_is_read():
    # the model picks the step solver; older configs still name the default
    assert parse_config("[solver]\nmethod = auto\n") == RunConfig()


def test_eps_inv_key():
    cfg = parse_config("[physics]\neps_inv = 16.0\n")
    assert cfg.eps == pytest.approx(1.0 / 16.0)
    with pytest.raises(ParseError):
        parse_config("[physics]\neps = 0.1\neps_inv = 16.0\n")
    with pytest.raises(ParseError) as err:
        parse_config("[physics]\ntheta = 1\neps_inv = 0\n")
    assert err.value.line_no == 3


def test_validation_errors():
    with pytest.raises(ValidationError):
        parse_config("[physics]\nrho = -1\n")
    with pytest.raises(ValidationError):
        parse_config("[physics]\nlambda = 0\n")
    with pytest.raises(ValidationError):
        parse_config("[physics]\nbc = neumann\nu_D = -2\n")
    with pytest.raises(ValidationError):
        parse_config("[model]\nanisotropy = bogus:1\n")
    with pytest.raises(ValidationError):
        parse_config("[mesh]\nN_f = 7\n")
    with pytest.raises(ValidationError):
        parse_config("[mesh]\nadaptive = true\nN_f = 48\nN_c = 16\n")
    with pytest.raises(ValidationError):
        parse_config("[model]\nanisotropy = cube3d:0.3:9\n")  # 3d preset, 2d run
    for text, key in (("[mesh]\ndim = 4\n", "dim"),
                      ("[output]\nvtk_every = -1\n", "vtk_every"),
                      ("[model]\ninitial = foo\n", "initial")):
        with pytest.raises(ValidationError) as err:
            parse_config(text)
        assert err.value.key == key


@pytest.mark.parametrize("line", [
    "u_D = nan", "alpha = inf", "tau = inf", "T_end = inf", "H = inf",
    "theta = nan", "lambda = -inf", "eps = nan"])
def test_non_finite_physics_is_rejected(line):
    # u_D has no range check and inf passes every lower bound; a NaN or
    # infinite constant would run to a NaN or infinite energy, or to no step
    with pytest.raises(ValidationError) as err:
        parse_config(f"[physics]\n{line}\n")
    assert err.value.key == "physics" and "must be finite" in str(err.value)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_config("[physics]\nwhat = 1\n")
    assert err.value.line_no == 2
    with pytest.raises(ParseError):
        parse_config("[nosuch]\n")
    with pytest.raises(ParseError):
        parse_config("key = 1\n")  # outside a section
    with pytest.raises(ParseError):
        parse_config("[physics]\ntheta 1\n")
    with pytest.raises(ParseError) as err:
        parse_config("[mesh]\nN_f = 16\nadaptive = maybe\n")
    assert err.value.line_no == 3


def test_comments_and_blank_lines():
    cfg = parse_config("# top\n[physics]\n\ntheta = 1.0  # inline\n")
    assert cfg.theta == 1.0


def _tiny_state():
    mesh = build_uniform_mesh(0.5, 2, 2, "dirichlet")
    phi = NodalField(np.linspace(-1, 1, mesh.n_vertices), mesh)
    w = NodalField(np.linspace(0, 1, mesh.n_vertices) * math.pi, mesh)
    return SimulationState(0.0, mesh, phi, w)


_HEAD = (b"# vtk DataFile Version 3.0\nanisotropic phase field state\n"
         b"BINARY\nDATASET UNSTRUCTURED_GRID\n")


def _read_vtk(path):
    """Keyword lines and decoded blocks of a legacy binary VTK file.

    Decodes each block as big-endian, as the format defines it, and
    asserts that every block ends in a newline and nothing trails."""
    data = path.read_bytes()
    assert data.startswith(_HEAD)
    pos, keywords, arrays = len(_HEAD), [], {}

    def line():
        nonlocal pos
        end = data.index(b"\n", pos)
        text, pos = data[pos:end].decode("ascii"), end + 1
        keywords.append(text)
        return text.split()

    def block(dtype, count):
        nonlocal pos
        arr = np.frombuffer(data, dtype, count, pos)
        pos += arr.nbytes
        assert data[pos:pos + 1] == b"\n"
        pos += 1
        return arr

    while pos < len(data):
        words = line()
        if words[0] == "POINTS":
            assert words[2] == "double"
            arrays["points"] = block(">f8", 3 * int(words[1])).reshape(-1, 3)
        elif words[0] == "CELLS":
            ne, size = int(words[1]), int(words[2])
            arrays["cells"] = block(">i4", size).reshape(ne, -1)
        elif words[0] == "CELL_TYPES":
            arrays["cell_types"] = block(">i4", int(words[1]))
        elif words[0] == "POINT_DATA":
            n_point_data = int(words[1])
        else:
            assert words[0] == "SCALARS" and words[2] == "double"
            assert line() == ["LOOKUP_TABLE", "default"]
            arrays[words[1]] = block(">f8", n_point_data)
    return keywords, arrays


def _bits(x):
    """The IEEE bit patterns of an array of doubles, in native order."""
    return np.asarray(x).astype(np.float64).view(np.int64)


def test_vtk_contract(tmp_path):
    state = _tiny_state()
    path = tmp_path / "out.vtk"
    write_vtk(state, path)
    keywords, arrays = _read_vtk(path)
    assert keywords == ["POINTS 9 double", "CELLS 8 32", "CELL_TYPES 8",
                        "POINT_DATA 9", "SCALARS phi double",
                        "LOOKUP_TABLE default", "SCALARS w double",
                        "LOOKUP_TABLE default"]
    assert (arrays["cell_types"] == 5).all()  # triangle cell type
    # 9 points of 3 doubles, 8 cells of 4 int32, 8 cell types and 2 x 9
    # doubles, each block ending in a newline
    blocks = 9 * 24 + 8 * 16 + 8 * 4 + 2 * 9 * 8 + 5
    assert path.stat().st_size == len(_HEAD) + sum(
        len(k) + 1 for k in keywords) + blocks


def _special_state(dim, N):
    """A uniform mesh state with signed zeros, subnormals and huge values."""
    mesh = build_uniform_mesh(0.5, N, dim, "dirichlet")
    rng = np.random.default_rng(dim)
    special = [-0.0, 0.0, 1e-300, -1e-300, 1e300, -1e300, 1.0, -1.0, 3.0,
               -2.0, 5e-324, 0.1, 1.0 / 3.0]
    phi = rng.uniform(-1.0, 1.0, mesh.n_vertices)
    phi[:len(special)] = special
    w = np.round(rng.normal(size=mesh.n_vertices) * 100.0)
    w[-len(special):] = special
    return SimulationState(0.0, mesh, NodalField(phi, mesh),
                           NodalField(w, mesh))


def test_vtk_roundtrip_exact(tmp_path):
    for dim, N in [(2, 8), (3, 2)]:
        state = _special_state(dim, N)
        path = tmp_path / f"out{dim}.vtk"
        write_vtk(state, path)
        _, arrays = _read_vtk(path)
        mesh = state.mesh
        assert np.array_equal(_bits(arrays["points"][:, :dim]),
                              _bits(mesh.vertices))
        assert (_bits(arrays["points"][:, dim:]) == 0).all()
        assert (arrays["cells"][:, 0] == dim + 1).all()
        assert np.array_equal(arrays["cells"][:, 1:], mesh.elements)
        assert len(arrays["cell_types"]) == len(mesh.elements)
        assert (arrays["cell_types"] == {2: 5, 3: 10}[dim]).all()
        assert np.array_equal(_bits(arrays["phi"]), _bits(state.phi.values))
        assert np.array_equal(_bits(arrays["w"]), _bits(state.w.values))


def test_vtk_deterministic(tmp_path):
    state = _tiny_state()
    a, b = tmp_path / "a.vtk", tmp_path / "b.vtk"
    write_vtk(state, a)
    write_vtk(state, b)
    assert a.read_bytes() == b.read_bytes()


def _per_value_vtk(state, path):
    """Reference writer: one ``struct.pack`` per value, big-endian as the
    legacy binary format defines it."""
    verts, elems = state.mesh.vertices, state.mesh.elements
    nv, d = verts.shape
    ne = len(elems)
    cell_type = {2: 5, 3: 10}[d]
    with open(path, "wb") as f:
        f.write(b"# vtk DataFile Version 3.0\n")
        f.write(b"anisotropic phase field state\n")
        f.write(b"BINARY\n")
        f.write(b"DATASET UNSTRUCTURED_GRID\n")
        f.write(f"POINTS {nv} double\n".encode())
        for p in verts:
            for c in list(p) + [0.0] * (3 - d):
                f.write(struct.pack(">d", c))
        f.write(b"\n")
        f.write(f"CELLS {ne} {ne * (d + 2)}\n".encode())
        for el in elems:
            f.write(struct.pack(">i", d + 1))
            for v in el:
                f.write(struct.pack(">i", int(v)))
        f.write(b"\n")
        f.write(f"CELL_TYPES {ne}\n".encode())
        for _ in range(ne):
            f.write(struct.pack(">i", cell_type))
        f.write(b"\n")
        f.write(f"POINT_DATA {nv}\n".encode())
        for name, vals in (("phi", state.phi.values), ("w", state.w.values)):
            f.write(f"SCALARS {name} double\n".encode())
            f.write(b"LOOKUP_TABLE default\n")
            for v in vals:
                f.write(struct.pack(">d", v))
            f.write(b"\n")


@pytest.mark.parametrize("dim,N", [(2, 8), (3, 2)])
def test_vtk_matches_per_value_writer(tmp_path, dim, N):
    state = _special_state(dim, N)
    write_vtk(state, tmp_path / "new.vtk")
    _per_value_vtk(state, tmp_path / "ref.vtk")
    new = (tmp_path / "new.vtk").read_bytes()
    assert new == (tmp_path / "ref.vtk").read_bytes()
    assert struct.pack(">d", -0.0) + struct.pack(">d", 0.0) in new
    # after a refinement the next snapshot writes the refined mesh
    mesh = state.mesh
    ne = len(mesh.elements)
    mesh.refine([0], 2 * dim)
    assert len(mesh.elements) > ne
    rng = np.random.default_rng(3)
    refined = SimulationState(
        0.0, mesh, NodalField(rng.uniform(-1.0, 1.0, mesh.n_vertices), mesh),
        NodalField(rng.normal(size=mesh.n_vertices), mesh))
    write_vtk(refined, tmp_path / "refined.vtk")
    _per_value_vtk(refined, tmp_path / "ref.vtk")
    assert (tmp_path / "refined.vtk").read_bytes() == (
        tmp_path / "ref.vtk").read_bytes()


def test_energy_csv(tmp_path):
    path = tmp_path / "e.csv"
    write_energy_csv([], path)
    assert path.read_text() == ("t,E_h,F_h,diffusive_dissipation,"
                                "kinetic_dissipation,stab2_slack,stab3_slack\n")
    rows = [EnergyRow(t=1e-3, E_h=2.0, F_h=3.0, diffusive=0.5, kinetic=0.0,
                      stab2_slack=-1e-9, stab3_slack=-2e-9,
                      stab2_holds=True, stab3_holds=True)]
    write_energy_csv(rows, path)
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("0.001,2,3,0.5,0,")


def _write_cfg(tmp_path, extra=""):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(
        "[physics]\n"
        "rho = 0.001\nu_D = -64\nR0 = 0.25\nT_end = 3e-05\ntau = 1e-05\n"
        "[model]\nshape = const\ninitial = liquid\nanisotropy = ani1:0.01\n"
        "[mesh]\nN_f = 16\nN_c = 16\n"
        f"[output]\nvtk_every = 0\ndir = {tmp_path}/out\n"
        + extra)
    return str(cfg_path)


def test_cli_simulate_and_verify(tmp_path):
    path = _write_cfg(tmp_path)
    assert main(["simulate", path]) == 0
    assert (tmp_path / "out" / "energies.csv").exists()
    assert (tmp_path / "out" / "report.json").exists()
    assert main(["verify", path]) == 0


def test_cli_missing_config_is_usage_error(tmp_path):
    assert main(["simulate", str(tmp_path / "missing.cfg")]) == 2


def test_cli_bad_config_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[physics]\nrho = -1\n")
    assert main(["simulate", str(bad)]) == 2
    capsys.readouterr()
    bad.write_text("[physics]\neps_inv = 0\n")
    assert main(["simulate", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "bad config" in err and "line 2" in err


def test_cli_usage_error_exit_code():
    assert main([]) == 2
    assert main(["simulate"]) == 2


def test_cli_check_anisotropy(capsys):
    assert main(["check-anisotropy", "iso", "--samples", "2000"]) == 0
    out = capsys.readouterr().out
    assert "OK: 0 violations" in out
    assert main(["check-anisotropy", "cube3d:0.3:9", "--samples", "2000",
                 "--dim", "3"]) == 0


def test_cli_check_threshold(tmp_path, capsys):
    stable = _write_cfg(tmp_path)
    assert main(["check-threshold", stable]) == 0
    out = capsys.readouterr().out
    assert "critical_uD = -64" in out
    assert "stable" in out.splitlines()[-1]
    layer_dir = tmp_path / "layer"
    layer_dir.mkdir()
    layer = _write_cfg(layer_dir)
    with open(layer) as f:
        text = f.read().replace("u_D = -64", "u_D = -65")
    with open(layer, "w") as f:
        f.write(text)
    assert main(["check-threshold", layer]) == 0
    out = capsys.readouterr().out
    assert "layer-forms" in out.splitlines()[-1]


def test_report_json_contents(tmp_path):
    path = _write_cfg(tmp_path)
    assert main(["simulate", path]) == 0
    doc = json.loads((tmp_path / "out" / "report.json").read_text())
    assert doc["steps_completed"] == 3
    assert doc["error"] is None
    assert doc["stab2_violations"] == 0
    assert len(doc["solver"]) == 3
    assert doc["config"]["u_D"] == -64.0


def test_env_var_default_out_dir(monkeypatch, tmp_path):
    monkeypatch.setenv("ANISO_PF_OUT", str(tmp_path / "envout"))
    cfg = RunConfig()
    assert cfg.out_dir == str(tmp_path / "envout")


def test_cli_solver_failure_exits_one(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(solver, "_MAX_OUTER", 1)
    path = _write_cfg(tmp_path)
    with open(path) as f:
        text = f.read().replace("u_D = -64", "u_D = -100")
    with open(path, "w") as f:
        f.write(text)
    assert main(["simulate", path]) == 1
    assert "NonConvergence" in capsys.readouterr().err


def test_cli_out_is_a_file_exits_one(tmp_path, capsys):
    path = _write_cfg(tmp_path)
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    assert main(["simulate", path, "--out", str(blocker)]) == 1
    # the writer fails before the time loop, so no step is named
    assert capsys.readouterr().err.startswith(
        f"anisopf: FileExistsError: [Errno {errno.EEXIST}]")


def test_cli_full_disk_exits_one_with_the_step(tmp_path, capsys, monkeypatch):
    target = str(tmp_path / "out" / "fields_000002.vtk")
    write_vtk = output.write_vtk

    def full_disk(state, path):
        if path == target:
            raise OSError(errno.ENOSPC, "No space left on device", path)
        write_vtk(state, path)

    monkeypatch.setattr(output, "write_vtk", full_disk)
    path = _write_cfg(tmp_path)
    with open(path) as f:
        text = f.read().replace("vtk_every = 0", "vtk_every = 1")
    with open(path, "w") as f:
        f.write(text)
    assert main(["verify", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"anisopf: step 2: OSError: [Errno {errno.ENOSPC}]")
    assert target in err


def test_cli_full_disk_at_finalize_keeps_the_step_error(tmp_path, capsys,
                                                        monkeypatch):
    # the disk stays full: the final snapshot written after the failure
    # fails too, and the error of step 2 is still the one reported
    out = tmp_path / "out"
    targets = {str(out / name): errno.ENOSPC
               for name in ("fields_000002.vtk", "fields_final.vtk")}
    write_vtk = output.write_vtk

    def full_disk(state, path):
        if path in targets:
            raise OSError(targets[path], "No space left on device", path)
        write_vtk(state, path)

    monkeypatch.setattr(output, "write_vtk", full_disk)
    path = _write_cfg(tmp_path)
    with open(path) as f:
        text = f.read().replace("vtk_every = 0", "vtk_every = 1")
    with open(path, "w") as f:
        f.write(text)
    assert main(["verify", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"anisopf: step 2: OSError: [Errno {errno.ENOSPC}]")
    assert "fields_000002.vtk" in err and "fields_final.vtk" not in err
    # the report records the step's error, then the snapshot that failed
    doc = json.loads((out / "report.json").read_text())
    assert doc["steps_completed"] == 2
    first, then = doc["error"].split("; then ")
    assert first.startswith("step 2: ") and "fields_000002.vtk" in first
    assert then.startswith("OSError: ") and "fields_final.vtk" in then
