"""Command-line front end emitting machine-readable tables and check reports.

Every capability of the package is reachable as a subcommand; output goes to
stdout or --out as CSV (header row, '.' decimal separator) or JSON (top-level
object {command, params, results, checks}).  Numbers are printed with 12
significant digits and runs are fully deterministic.

Exit codes: 0 success, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from itertools import islice, repeat
from typing import List, Optional, Sequence

import numpy as np

from . import continuum, eigensolve, lattice, metrics, spectra

FMT = "%.12g"
# line breaks before a cell and before a row of "results": {"rows": ...} under
# json.dumps(indent=2)
_CELL_BREAK = "\n" + " " * 8
_ROW_BREAK = "\n" + " " * 6
# %-format spec of a CSV cell by type; any other type prints as str()
_CSV_SPEC = {float: FMT, int: "%d", bool: "%d"}
_PLAIN = frozenset((bool, int, float, str))


def _plain(v):
    """A numpy bool, integer or float as the Python scalar it stands for."""
    if isinstance(v, (bool, np.bool_)):
        return bool(v)
    if isinstance(v, (int, np.integer)):
        return int(v)
    if isinstance(v, (float, np.floating)):
        return float(v)
    return v


def _cells(rows) -> list:
    """The cells of rows in order, numpy scalars as Python ones."""
    return [v if type(v) in _PLAIN else _plain(v) for row in rows for v in row]


def _jrows(rows) -> List[list]:
    """Rows of Python scalars with every float rounded to 12 significant digits.

    All floats go through one FMT batch and back through float(), the
    correctly rounded value that ``float(FMT % x)`` gives one at a time;
    NaN, +-inf and -0.0 come back unchanged."""
    cells = _cells(rows)
    at = [i for i, v in enumerate(cells) if type(v) is float]
    text = ",".join([FMT] * len(at)) % tuple([cells[i] for i in at])
    for i, x in zip(at, map(float, text.split(","))):
        cells[i] = x
    it = iter(cells)
    return [list(islice(it, len(row))) for row in rows]


def _json_rows(rows: List[list]) -> str:
    """The rows as json.dumps(indent=2) lays them out under "results", from one
    pass of the C encoder with a line break in each separator.

    An encoded string never holds a raw line break, so the separator between
    two rows is the only "]," followed by one, and an empty row the only "["
    followed by two."""
    if not rows:
        return "[]"
    text = json.dumps(rows, separators=("," + _CELL_BREAK, ": "))[2:-2]
    text = text.replace("]," + _CELL_BREAK + "[",
                        _ROW_BREAK + "]," + _ROW_BREAK + "[" + _CELL_BREAK)
    text = "[" + _ROW_BREAK + "[" + _CELL_BREAK + text + _ROW_BREAK + "]\n    ]"
    return text.replace("[" + _CELL_BREAK + _ROW_BREAK + "]", "[]")


class _Output:
    def __init__(self, command: str, params: dict):
        self.command = command
        self.params = params
        self.header: List[str] = []
        self.rows: List[list] = []
        self.checks: List[dict] = []

    def set_table(self, header, rows):
        """Rows of scalar cells: bool, int, float, str or None, or numpy scalars."""
        self.header = list(header)
        self.rows = [list(r) for r in rows]

    def check(self, name: str, measured, expected, tol, passed=None) -> None:
        """Record a check; it passes when |measured - expected| <= tol
        unless ``passed`` gives the verdict of a non-numeric check."""
        if passed is None:
            passed = abs(measured - expected) <= tol
        self.checks.append({"name": name, "passed": bool(passed), "measured": measured,
                            "expected": expected, "tolerance": tol})

    def render_csv(self) -> str:
        lines = []
        if self.header:
            lines.append(",".join(self.header))
            if self.rows:
                cells = _cells(self.rows)
                specs = map(_CSV_SPEC.get, map(type, cells), repeat("%s"))
                fmt = "\n".join(",".join(islice(specs, len(row))) for row in self.rows)
                lines.append(fmt % tuple(cells))
        for chk in self.checks:
            lines.append(f"# {_verdict(chk)} tol={_cell(chk['tolerance'])}")
        return "\n".join(lines) + "\n"

    def render_json(self) -> str:
        def convert(d: dict) -> dict:
            return dict(zip(d, _jrows([d.values()])[0]))

        doc = {
            "command": self.command,
            "params": convert(self.params),
            "results": {"header": self.header, "rows": 0},
            "checks": [convert(chk) for chk in self.checks],
        }
        # "rows" of "results" is the only "rows" key at the end of a dict
        # followed by "checks": params end before "results", checks nest deeper
        slot = '"rows": 0\n  },\n  "checks"'
        rows = '"rows": ' + _json_rows(_jrows(self.rows)) + '\n  },\n  "checks"'
        return json.dumps(doc, indent=2).replace(slot, rows, 1) + "\n"

    def emit(self, fmt: str, out: Optional[str]) -> None:
        text = self.render_json() if fmt == "json" else self.render_csv()
        if out:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)

    @property
    def all_passed(self) -> bool:
        return all(c["passed"] for c in self.checks)


def _cell(v) -> str:
    v = _plain(v)
    return _CSV_SPEC.get(type(v), "%s") % (v,)


def _verdict(chk: dict) -> str:
    status = "PASS" if chk["passed"] else "FAIL"
    return (f"{status} {chk['name']}: measured={_cell(chk['measured'])} "
            f"expected={_cell(chk['expected'])}")


def _matrix_rows(m: np.ndarray):
    i, j = (np.indices(m.shape) + 1).reshape(2, -1).tolist()
    return zip(i, j, m.real.ravel().tolist(), m.imag.ravel().tolist())


# ---------------------------------------------------------------- commands


def _cmd_hamiltonian(args, out: _Output) -> None:
    h = lattice.build_coulomb_hamiltonian(args.n, args.a, args.z)
    out.set_table(["i", "j", "re", "im"], _matrix_rows(h.matrix))


def _cmd_spectrum(args, out: _Output) -> None:
    h = lattice.build_coulomb_hamiltonian(args.n, args.a, args.z)
    spec = eigensolve.eigenvalues(h, classification_tolerance=args.tol)
    rows = [
        [k + 1, e.real, e.imag, bool(f)]
        for k, (e, f) in enumerate(zip(spec.eigenvalues, spec.real_flags))
    ]
    out.set_table(["index", "re", "im", "real_flag"], rows)


def _cmd_sweep(args, out: _Output) -> None:
    table = spectra.sweep(args.n, args.z, args.a_min, args.a_max, args.steps)
    header = ["a"]
    for j in range(args.n):
        header += [f"eps{j + 1}_re", f"eps{j + 1}_im"]
    header.append("n_real")
    eig = table.eigenvalues
    re_im = np.stack([eig.real, eig.imag], axis=-1).reshape(len(eig), -1)
    rows = [[a, *v, c] for a, v, c in
            zip(table.couplings.tolist(), re_im.tolist(), table.n_real.tolist())]
    out.set_table(header, rows)


def _cmd_critical(args, out: _Output) -> None:
    alpha = spectra.critical_coupling(args.n, args.z, args.tol)
    out.set_table(["alpha", "tolerance"], [[alpha, args.tol]])


def _cmd_eps(args, out: _Output) -> None:
    pts = spectra.exceptional_points(args.n, args.z, args.a_max, args.tol)
    out.set_table(["index", "a"], [[k + 1, a] for k, a in enumerate(pts)])


def _cmd_metric(args, out: _Output) -> None:
    h = lattice.build_coulomb_hamiltonian(args.n, args.a, args.z)
    system = eigensolve.eigensystem(h)
    weights = None
    if args.kappa:
        vals = [float(v) for v in args.kappa.split(",")]
        weights = metrics.KappaWeights(np.array(vals))
    theta = metrics.metric_from_biorthogonal(system, weights)
    out.set_table(["i", "j", "re", "im"], _matrix_rows(theta.matrix))
    herm = float(np.max(np.abs(theta.matrix - theta.matrix.conj().T)))
    res = metrics.dieudonne_residual(h, theta)
    pos, smallest = metrics.is_positive(theta)
    out.check("hermiticity_error", herm, 0.0, 1e-12)
    out.check("dieudonne_residual", res, 0.0, 1e-10)
    out.check("positive_definite", smallest, "> 0", None, passed=pos)


def _cmd_observable(args, out: _Output) -> None:
    obs = metrics.n2_observable(args.D, args.b, args.c, args.g, args.a, args.m)
    out.set_table(["i", "j", "re", "im"], _matrix_rows(obs.matrix))
    theta = metrics.n2_metric(1.0, args.m, args.a)
    lam, tm = obs.matrix, theta.matrix
    res = float(np.linalg.norm(lam.conj().T @ tm - tm @ lam))
    out.check("crypto_hermiticity_residual", res, 0.0, 1e-12)


def _residual_pair(spec, eps: float, span: float):
    """ODE residuals on 801- and 1601-sample contours over |s| <= joint + span."""
    joint = 0.5 * np.pi * eps
    return tuple(
        continuum.ode_residual_on_contour(
            spec, continuum.build_contour(eps, -joint - span, joint + span, n)
        )
        for n in (801, 1601)
    )


def _cmd_continuum_check(args, out: _Output) -> None:
    spec = continuum.ContinuumSpec(
        angular=args.L, z_charge=args.Z, k_wave=args.k, superposition=(1.0, 0.0)
    )
    eps = args.epsilon
    joint = 0.5 * np.pi * eps
    for s in (-joint, joint):
        lo = continuum.contour_point(eps, s - 1e-12)
        hi = continuum.contour_point(eps, s + 1e-12)
        out.check(f"joint_continuity_s={_cell(s)}", abs(hi - lo), 0.0, 1e-10)
    r_coarse, r_fine = _residual_pair(spec, eps, 2.0 * joint)
    ratio = r_coarse / r_fine if r_fine > 0 else float("inf")
    out.check("residual_fine", r_fine, f"< {r_coarse}", None, passed=r_fine < r_coarse)
    out.check("convergence_ratio", ratio, "~4 (second order)", None, passed=ratio > 2.5)


# ---------------------------------------------------------------- verify


def _check_secular(out: _Output, name: str, n: int, printed, couplings, tol: float) -> None:
    """Faddeev-LeVerrier coefficients of the N-site matrix against the printed ones."""
    for a in couplings:
        got = eigensolve.characteristic_polynomial(lattice.build_coulomb_hamiltonian(n, a, -1.0))
        err = float(np.max(np.abs(got - printed(a))))
        out.check(f"{name}_coefficients_a={_cell(a)}", err, 0.0, tol)


def _verify_paper_n4(out: _Output) -> None:
    _check_secular(out, "quartic", 4, spectra.secular_coefficients_n4,
                   (0.0, 1.0 / 3.0, 0.5, 1.0), 1e-12)
    worst = 0.0
    for a in np.linspace(0.0, 2.0, 50):
        want = spectra.closed_form_spectrum_n4(a)
        got = eigensolve.eigenvalues(
            lattice.build_coulomb_hamiltonian(4, a, -1.0)
        ).eigenvalues
        # greedy nearest matching; robust against tie-order of conjugate pairs
        dev = np.abs(got[spectra._greedy_match(want, got)] - want)
        worst = max(worst, float(dev.max()))
    out.check("closed_form_spectrum_max_dev", worst, 0.0, 1e-9)
    alpha = spectra.critical_coupling(4, -1.0, 1e-8)
    out.check("critical_coupling_n4", alpha, 0.75 * np.sqrt(10.0 - 4.0 * np.sqrt(5.0)), 1e-7)


def _verify_paper_n6(out: _Output) -> None:
    _check_secular(out, "sextic", 6, spectra.secular_coefficients_n6, (0.0, 1.0 / 3.0, 0.5), 1e-11)
    out.check("critical_coupling_n6", spectra.critical_coupling(6, -1.0, 1e-6), 0.589586, 1e-4)


def _verify_metrics_n2(out: _Output) -> None:
    rng = np.random.default_rng(20120523)
    worst_eig = worst_res = 0.0
    for _ in range(20):
        k = rng.uniform(0.2, 3.0)
        m = rng.uniform(-2.0, 2.0)
        a = rng.uniform(-2.0, 2.0)
        theta = metrics.n2_metric(k, m, a)
        got = np.sort(np.linalg.eigvalsh(theta.matrix))
        root = np.sqrt(k * k * m * m + k * k * a * a)
        want = np.sort([k - root, k + root])
        worst_eig = max(worst_eig, float(np.max(np.abs(got - want))))
        h = lattice.build_coulomb_hamiltonian(2, a, -1.0)
        worst_res = max(worst_res, metrics.dieudonne_residual(h, theta))
    out.check("n2_eigenvalue_formula", worst_eig, 0.0, 1e-12)
    out.check("n2_family_dieudonne", worst_res, 0.0, 1e-14)
    dim = metrics.dieudonne_solution_dimension(
        lattice.build_coulomb_hamiltonian(2, 0.5, -1.0)
    )
    out.check("n2_solution_dimension", dim, 2, None, passed=dim == 2)
    for a in (0.0, 0.3, 0.6, 0.9):
        c, _k = metrics.cpt_charge_n2(a)
        invol = float(np.max(np.abs(c @ c - np.eye(2))))
        theta_cpt = c @ lattice.parity(2).matrix
        h = lattice.build_coulomb_hamiltonian(2, a, -1.0)
        res = metrics.dieudonne_residual(h, theta_cpt)
        out.check(f"cpt_involution_a={_cell(a)}", invol, 0.0, 1e-14)
        out.check(f"cpt_metric_dieudonne_a={_cell(a)}", res, 0.0, 1e-14)
    a = 0.7
    obs = metrics.n2_observable(2.0, 0.0, 0.0, -a, a)
    h = lattice.build_coulomb_hamiltonian(2, a, -1.0)
    dev = float(np.max(np.abs(obs.matrix - h.matrix)))
    out.check("observable_reproduces_hamiltonian", dev, 0.0, 0.0)


def _verify_metrics_n4(out: _Output) -> None:
    for a in (0.2, 0.4):
        for z in (-1.0, -0.8):
            theta = metrics.n4_metric_ansatz(1.0, 0.0, 1.0, 0.0, a, z)
            got = np.sort(np.linalg.eigvalsh(theta.matrix))
            want = metrics.n4_metric_eigenvalues(a, z)
            err = float(np.max(np.abs(got - want)))
            out.check(f"n4_theta_eigenvalues_a={_cell(a)}_z={_cell(z)}", err, 0.0, 1e-10)
            h = lattice.build_coulomb_hamiltonian(4, a, z)
            res = metrics.dieudonne_residual(h, theta)
            out.check(f"n4_ansatz_dieudonne_a={_cell(a)}_z={_cell(z)}", res, 0.0, 1e-12)


def _verify_continuum(out: _Output) -> None:
    k = 0.5
    spec = continuum.ContinuumSpec(angular=0.0, z_charge=0.0, k_wave=k)
    worst = 0.0
    for x in np.linspace(0.1, 3.0, 25):
        psi = continuum.psi1_value(spec, x)
        worst = max(worst, abs(psi - np.sinh(k * x) / k))
    out.check("psi1_sinh_identity", worst, 0.0, 1e-12)
    eps = 1.0
    joint = 0.5 * np.pi * eps
    gap = max(
        abs(continuum.contour_point(eps, j + 1e-13) - continuum.contour_point(eps, j - 1e-13))
        for j in (-joint, joint)
    )
    out.check("contour_joint_continuity", gap, 0.0, 1e-12)
    gen = continuum.ContinuumSpec(angular=0.25, z_charge=1.0, k_wave=0.5)
    r_c, r_f = _residual_pair(gen, eps, joint)
    ratio = r_c / r_f if r_f > 0 else float("inf")
    out.check("ode_residual_second_order", ratio, "~4", None, passed=ratio > 2.5)


_SUITES = {
    "paper-n4": _verify_paper_n4,
    "paper-n6": _verify_paper_n6,
    "metrics-n2": _verify_metrics_n2,
    "metrics-n4": _verify_metrics_n4,
    "continuum": _verify_continuum,
}


def _cmd_verify(args, out: _Output) -> None:
    _SUITES[args.suite](out)
    # a JSON document on stdout must be all of stdout
    report = sys.stderr if args.format == "json" and not args.out else sys.stdout
    for chk in out.checks:
        report.write(_verdict(chk) + "\n")


# ---------------------------------------------------------------- parser


_N = ("--n", {"type": int, "required": True})
_A = ("--a", {"type": float, "required": True})
_Z = ("--z", {"type": float, "default": -1.0})

# (name, help, handler, flags in --help order); every command also takes
# --out and --format
_COMMANDS = (
    ("hamiltonian", "emit the lattice Hamiltonian matrix", _cmd_hamiltonian, (_N, _A, _Z)),
    ("spectrum", "eigenvalues with reality flags", _cmd_spectrum,
     (_N, _A, _Z, ("--tol", {"type": float}))),
    ("sweep", "eigenvalue loci over a coupling range", _cmd_sweep,
     (_N, _Z, ("--a-min", {"type": float, "required": True}),
      ("--a-max", {"type": float, "required": True}),
      ("--steps", {"type": int, "required": True}))),
    ("critical", "edge of the fully-real coupling interval", _cmd_critical,
     (_N, _Z, ("--tol", {"type": float, "default": 1e-8}))),
    ("eps", "exceptional points of the coupling", _cmd_eps,
     (_N, _Z, ("--a-max", {"type": float, "default": 3.0}),
      ("--tol", {"type": float, "default": 1e-6}))),
    ("metric", "biorthogonal metric with diagnostics", _cmd_metric,
     (_N, _A, _Z, ("--kappa", {"help": "comma list of positive weights"}))),
    ("observable", "admissible N=2 observable", _cmd_observable,
     (_A, ("--D", {"type": float, "required": True}),
      ("--b", {"type": float, "default": 0.0}), ("--c", {"type": float, "default": 0.0}),
      ("--g", {"type": float, "default": 0.0}), ("--m", {"type": float, "default": 0.0}))),
    ("continuum-check", "continuum solution diagnostics", _cmd_continuum_check,
     (("--epsilon", {"type": float, "default": 1.0}), ("--L", {"type": float, "default": 0.25}),
      ("--Z", {"type": float, "default": 1.0}), ("--k", {"type": float, "default": 0.5}))),
    ("verify", "run a named acceptance subset", _cmd_verify,
     (("suite", {"choices": sorted(_SUITES)}),)),
)


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The argument tree, built once per process: parse_args leaves it unchanged."""
    p = argparse.ArgumentParser(
        prog="ptcoulomb",
        description="Discrete PT-symmetric Coulomb Hamiltonians: spectra, "
        "exceptional points, and Hermitizing metrics.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name, help_text, func, flags in _COMMANDS:
        sp = sub.add_parser(name, help=help_text)
        for flag, spec in flags:
            sp.add_argument(flag, **spec)
        sp.add_argument("--out", help="output file (default stdout)")
        sp.add_argument("--format", choices=["csv", "json"], default="csv")
        sp.set_defaults(func=func)
    return p


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    params = {
        k: v
        for k, v in vars(args).items()
        if k not in ("func", "out", "format") and v is not None
    }
    out = _Output(args.command, params)
    try:
        args.func(args, out)
    except (ValueError, RuntimeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    if args.command != "verify" or args.out or args.format == "json":
        out.emit(args.format, args.out)
    return 0 if out.all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
