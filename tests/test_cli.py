import csv
import io
import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptcoulomb import build_coulomb_hamiltonian, cli
from ptcoulomb.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
README_CLI_LINES = re.findall(r"^ptcoulomb .*$", README, re.M)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestHamiltonian:
    def test_csv_matrix(self, capsys):
        code, out = run(capsys, "hamiltonian", "--n", "2", "--a", "0.5")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 4
        want = build_coulomb_hamiltonian(2, 0.5, -1.0).matrix
        for row in rows:
            i, j = int(row["i"]) - 1, int(row["j"]) - 1
            assert float(row["re"]) == pytest.approx(want[i, j].real, abs=1e-11)
            assert float(row["im"]) == pytest.approx(want[i, j].imag, abs=1e-11)

    def test_json_schema(self, capsys):
        code, out = run(capsys, "hamiltonian", "--n", "4", "--a", "0.3", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "hamiltonian"
        assert doc["params"]["n"] == 4 and doc["params"]["a"] == 0.3
        assert doc["results"]["header"] == ["i", "j", "re", "im"]
        assert len(doc["results"]["rows"]) == 16
        assert doc["checks"] == []

    def test_deterministic(self, capsys):
        _, first = run(capsys, "hamiltonian", "--n", "6", "--a", "0.7", "--format", "json")
        _, second = run(capsys, "hamiltonian", "--n", "6", "--a", "0.7", "--format", "json")
        assert first == second


class TestSpectrum:
    def test_real_flags_inside_domain(self, capsys):
        code, out = run(capsys, "spectrum", "--n", "4", "--a", "0.5")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [r["real_flag"] for r in rows] == ["1"] * 4

    def test_complex_regime_flags(self, capsys):
        code, out = run(capsys, "spectrum", "--n", "4", "--a", "1.5")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [r["real_flag"] for r in rows] == ["0"] * 4

    def test_huge_coupling_flags_no_real_eigenvalue(self, capsys):
        # the norm bound of this H is 1e200: its square would overflow
        code, out = run(capsys, "spectrum", "--n", "2", "--a", "1e200")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [r["real_flag"] for r in rows] == ["0"] * 2

    def test_domain_error_exit_code(self, capsys):
        assert main(["spectrum", "--n", "3", "--a", "0.5"]) == 1
        capsys.readouterr()


class TestSweep:
    def test_csv_schema_and_monotone_counts(self, capsys):
        code, out = run(
            capsys, "sweep", "--n", "4", "--a-min", "0", "--a-max", "1", "--steps", "11"
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 11
        header = rows[0].keys()
        assert set(header) == {
            "a", "eps1_re", "eps1_im", "eps2_re", "eps2_im",
            "eps3_re", "eps3_im", "eps4_re", "eps4_im", "n_real",
        }
        counts = [int(r["n_real"]) for r in rows]
        assert counts[0] == 4 and counts[-1] == 0
        assert all(x >= y for x, y in zip(counts, counts[1:]))

    def test_out_file(self, capsys, tmp_path):
        dest = tmp_path / "sweep.csv"
        code = main(
            ["sweep", "--n", "2", "--a-min", "0", "--a-max", "0.5", "--steps", "6",
             "--out", str(dest)]
        )
        captured = capsys.readouterr()
        assert code == 0 and captured.out == ""
        rows = list(csv.DictReader(dest.open()))
        assert len(rows) == 6


class TestCriticalAndEps:
    def test_critical_n2(self, capsys):
        code, out = run(capsys, "critical", "--n", "2", "--tol", "1e-8")
        assert code == 0
        row = next(csv.DictReader(io.StringIO(out)))
        assert float(row["alpha"]) == pytest.approx(1.0, abs=1e-7)

    def test_eps_n4_json(self, capsys):
        code, out = run(capsys, "eps", "--n", "4", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        pts = [r[1] for r in doc["results"]["rows"]]
        assert len(pts) == 2
        for p in pts:
            assert p == pytest.approx(0.7706147, abs=1e-5)


class TestToleranceErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["critical", "--n", "4", "--tol", "nan"],
            ["eps", "--n", "6", "--tol", "nan"],
            ["spectrum", "--n", "4", "--a", "0.3", "--tol", "nan"],
            ["spectrum", "--n", "4", "--a", "0.3", "--tol", "-1"],
            ["critical", "--n", "4", "--tol", "1e-20"],
            ["eps", "--n", "6", "--tol", "1e-20"],
            ["eps", "--n", "6", "--a-max", "0.1", "--tol", "1e-14"],
            ["critical", "--n", "4", "--tol", "inf"],
            ["eps", "--n", "6", "--tol", "inf"],
            ["eps", "--n", "6", "--a-max", "nan"],
            ["eps", "--n", "6", "--a-max", "inf"],
            ["sweep", "--n", "4", "--a-min", "0", "--a-max", "inf", "--steps", "3"],
            ["metric", "--n", "4", "--a", "0.3", "--kappa", "1,inf,1,1"],
            ["metric", "--n", "4", "--a", "0.3", "--kappa", "1,nan,1,1"],
            ["sweep", "--n", "4", "--a-min=-1e308", "--a-max", "1e308", "--steps", "3"],
            ["hamiltonian", "--n", "4", "--a", "nan"],
            ["hamiltonian", "--n", "4", "--a", "1", "--z", "inf"],
            ["hamiltonian", "--n", "4", "--a", "1e308", "--z", "1"],
            ["spectrum", "--n", "4", "--a", "inf"],
            ["critical", "--n", "4", "--z", "inf"],
            ["critical", "--n", "4", "--z", "1e10"],
            ["eps", "--n", "6", "--z", "nan"],
            ["sweep", "--n", "4", "--a-min", "0", "--a-max", "1", "--steps", "3", "--z", "inf"],
            ["sweep", "--n", "4", "--a-min", "0", "--a-max", "1e308", "--steps", "3", "--z", "1"],
            ["continuum-check", "--L", "nan"],
            ["continuum-check", "--Z", "nan"],
            ["continuum-check", "--k", "inf"],
            ["continuum-check", "--epsilon", "nan"],
            ["observable", "--a", "nan", "--D", "2"],
            ["observable", "--a", "0.5", "--D", "inf"],
            ["observable", "--a", "0.5", "--D", "2", "--m", "nan"],
            ["observable", "--a", "0.5", "--D", "2", "--g=-inf"],
        ],
        ids=" ".join,
    )
    def test_domain_error(self, capsys, argv):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1


class TestMetric:
    def test_default_weights_checks_pass(self, capsys):
        code, out = run(capsys, "metric", "--n", "4", "--a", "0.3", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert all(c["passed"] for c in doc["checks"])
        names = {c["name"] for c in doc["checks"]}
        assert names == {"hermiticity_error", "dieudonne_residual", "positive_definite"}

    def test_kappa_weights(self, capsys):
        code, out = run(
            capsys, "metric", "--n", "2", "--a", "0.5", "--kappa", "1,2",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["params"]["kappa"] == "1,2"
        assert all(c["passed"] for c in doc["checks"])

    def test_bad_kappa_is_domain_error(self, capsys):
        assert main(["metric", "--n", "2", "--a", "0.5", "--kappa", "1,-1"]) == 1
        capsys.readouterr()

    def test_complex_regime_is_domain_error(self, capsys):
        assert main(["metric", "--n", "4", "--a", "1.5"]) == 1
        capsys.readouterr()


class TestObservable:
    def test_reproduces_hamiltonian(self, capsys):
        code, out = run(
            capsys, "observable", "--a", "0.7", "--D", "2", "--g", "-0.7",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        got = np.zeros((2, 2), dtype=complex)
        for i, j, re, im in doc["results"]["rows"]:
            got[i - 1, j - 1] = re + 1j * im
        want = build_coulomb_hamiltonian(2, 0.7, -1.0).matrix
        assert np.max(np.abs(got - want)) < 1e-11
        assert all(c["passed"] for c in doc["checks"])

    def test_zero_coupling_is_domain_error(self, capsys):
        assert main(["observable", "--a", "0", "--D", "1"]) == 1
        capsys.readouterr()


class TestContinuumCheck:
    def test_default_passes(self, capsys):
        code, out = run(capsys, "continuum-check", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert all(c["passed"] for c in doc["checks"])
        assert any(c["name"] == "convergence_ratio" for c in doc["checks"])


class TestVerify:
    @pytest.mark.parametrize(
        "suite", ["paper-n4", "paper-n6", "metrics-n2", "metrics-n4", "continuum"]
    )
    def test_suites_pass(self, capsys, suite):
        code, out = run(capsys, "verify", suite)
        assert code == 0
        lines = [ln for ln in out.splitlines() if ln]
        assert lines and all(ln.startswith("PASS") for ln in lines)

    def test_json_output(self, capsys, tmp_path):
        dest = tmp_path / "verify.json"
        code = main(["verify", "metrics-n4", "--format", "json", "--out", str(dest)])
        capsys.readouterr()
        assert code == 0
        doc = json.loads(dest.read_text())
        assert doc["command"] == "verify"
        assert all(c["passed"] for c in doc["checks"])


    def test_json_on_stdout_is_the_whole_stdout(self, capsys):
        code, out = run(capsys, "verify", "metrics-n4")
        assert code == 0
        csv_names = [ln.split(":")[0].split(" ", 1)[1] for ln in out.splitlines() if ln]
        assert len(csv_names) == 8
        assert all(ln.startswith("PASS ") for ln in out.splitlines() if ln)
        code = main(["verify", "metrics-n4", "--format", "json"])
        captured = capsys.readouterr()
        assert code == 0
        doc = json.loads(captured.out)
        assert doc["command"] == "verify"
        assert [c["name"] for c in doc["checks"]] == csv_names
        assert all(c["passed"] for c in doc["checks"])
        assert [ln.split(":")[0] for ln in captured.err.splitlines()] == [
            f"PASS {name}" for name in csv_names
        ]


class TestParserContract:
    """The flags and defaults of every subcommand, from a minimal argv."""

    COMMON = {"out": None, "format": "csv"}
    CASES = [
        (["hamiltonian", "--n", "4", "--a", "0.5"], {"n": 4, "a": 0.5, "z": -1.0}),
        (["spectrum", "--n", "4", "--a", "0.5"], {"n": 4, "a": 0.5, "z": -1.0, "tol": None}),
        (["sweep", "--n", "4", "--a-min", "0", "--a-max", "1", "--steps", "3"],
         {"n": 4, "z": -1.0, "a_min": 0.0, "a_max": 1.0, "steps": 3}),
        (["critical", "--n", "4"], {"n": 4, "z": -1.0, "tol": 1e-8}),
        (["eps", "--n", "4"], {"n": 4, "z": -1.0, "a_max": 3.0, "tol": 1e-6}),
        (["metric", "--n", "4", "--a", "0.5"], {"n": 4, "a": 0.5, "z": -1.0, "kappa": None}),
        (["observable", "--a", "0.5", "--D", "2"],
         {"a": 0.5, "D": 2.0, "b": 0.0, "c": 0.0, "g": 0.0, "m": 0.0}),
        (["continuum-check"], {"epsilon": 1.0, "L": 0.25, "Z": 1.0, "k": 0.5}),
        (["verify", "paper-n4"], {"suite": "paper-n4"}),
    ]

    @pytest.mark.parametrize("argv, flags", CASES, ids=[argv[0] for argv, _ in CASES])
    def test_defaults(self, argv, flags):
        got = vars(cli._build_parser().parse_args(argv))
        assert callable(got.pop("func"))
        want = {"command": argv[0], **flags, **self.COMMON}
        assert got == want
        assert {k: type(v) for k, v in got.items()} == {k: type(v) for k, v in want.items()}

    # every argument of a minimal argv is required
    @pytest.mark.parametrize(
        "argv, dropped",
        [pytest.param(argv, tok, id=f"{argv[0]} without {tok}")
         for argv, _ in CASES for tok in argv[1::2]],
    )
    def test_missing_required_argument_exits_2(self, capsys, argv, dropped):
        i = argv.index(dropped)
        with pytest.raises(SystemExit) as exc:
            cli._build_parser().parse_args(argv[:i] + argv[i + 2:])
        assert exc.value.code == 2
        capsys.readouterr()


class TestUsageErrors:
    def test_missing_required_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["hamiltonian", "--a", "0.5"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_bad_format_choice(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["critical", "--n", "4", "--format", "xml"])
        assert exc.value.code == 2
        capsys.readouterr()


# ---------------------------------------------------------------- renderer oracle
# The cell-by-cell renderers the bulk ones replace: every value through
# "{:.12g}", the JSON document through json.dumps(indent=2).


def _oracle_convert(v):
    if isinstance(v, (bool, np.bool_)):
        return bool(v)
    if isinstance(v, (int, np.integer)):
        return int(v)
    if isinstance(v, (float, np.floating)):
        return float("{:.12g}".format(float(v)))
    return v


def _oracle_json(out) -> str:
    doc = {
        "command": out.command,
        "params": {k: _oracle_convert(v) for k, v in out.params.items()},
        "results": {
            "header": out.header,
            "rows": [[_oracle_convert(c) for c in row] for row in out.rows],
        },
        "checks": [{k: _oracle_convert(v) for k, v in chk.items()} for chk in out.checks],
    }
    return json.dumps(doc, indent=2) + "\n"


def _oracle_cell(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return "{:.12g}".format(float(v))
    return str(v)


def _oracle_csv(out) -> str:
    lines = []
    if out.header:
        lines.append(",".join(out.header))
        for row in out.rows:
            lines.append(",".join(_oracle_cell(c) for c in row))
    for chk in out.checks:
        status = "PASS" if chk["passed"] else "FAIL"
        lines.append(f"# {status} {chk['name']}: measured={_oracle_cell(chk['measured'])} "
                     f"expected={_oracle_cell(chk['expected'])} "
                     f"tol={_oracle_cell(chk['tolerance'])}")
    return "\n".join(lines) + "\n"


class TestRenderersMatchTheOracle:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("line", README_CLI_LINES)
    def test_readme_example(self, line, fmt, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)  # examples with --out write here
        argv = shlex.split(line, comments=True)[1:]
        if "--format" in argv:
            del argv[argv.index("--format"):argv.index("--format") + 2]
        argv += ["--format", fmt]
        made = []

        class Recording(cli._Output):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(self)

        monkeypatch.setattr(cli, "_Output", Recording)
        assert main(argv) == 0
        stdout = capsys.readouterr().out
        (out,) = made
        assert out.render_json() == _oracle_json(out)
        assert out.render_csv() == _oracle_csv(out)
        want = _oracle_json(out) if fmt == "json" else _oracle_csv(out)
        if "--out" in argv:
            assert (tmp_path / argv[argv.index("--out") + 1]).read_text("utf-8") == want
        elif not (argv[0] == "verify" and fmt == "csv"):  # csv verify prints verdicts only
            assert stdout == want

    _special = st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 5e-324])
    _float = st.one_of(
        _special,
        st.floats(),
        st.floats(1e12, 1e16, exclude_max=True),  # where %.12g and repr part ways
        st.floats(-1e16, -1e12, exclude_min=True),
    )
    _any_cell = st.one_of(
        _float,
        _float.map(np.float64),
        st.integers(-(2**70), 2**70),
        st.integers(-(2**63), 2**63 - 1).map(np.int64),
        st.booleans(),
        st.booleans().map(np.bool_),
        st.text(),
        st.sampled_from(['"', "\\", "\n", "a,b", "é∞", '"rows": 0', "%s", "%d"]),
        st.none(),
    )

    @given(
        params=st.dictionaries(st.one_of(st.text(), st.just("rows")), _any_cell, max_size=4),
        header=st.lists(st.text(), max_size=4),
        rows=st.lists(st.lists(_any_cell, max_size=5), max_size=6),
        checks=st.lists(
            st.tuples(st.text(), _any_cell, _any_cell, _any_cell, st.booleans()), max_size=3
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_random_tables(self, params, header, rows, checks):
        out = cli._Output("command", params)
        out.set_table(header, rows)
        for name, measured, expected, tol, passed in checks:
            out.check(name, measured, expected, tol, passed=passed)
        assert out.render_json() == _oracle_json(out)
        assert out.render_csv() == _oracle_csv(out)

    @pytest.mark.parametrize("rows", [[], [[]], [[], [1.5]], [[1.5], []], [[], []], [[1.0, "x"]]])
    def test_empty_and_short_rows(self, rows):
        out = cli._Output("command", {"rows": 0})
        out.set_table(["h"], rows)
        assert out.render_json() == _oracle_json(out)
        assert out.render_csv() == _oracle_csv(out)


class TestCachedParser:
    SEQUENCE = [
        ["critical", "--n", "4"],
        ["critical", "--n", "4", "--format", "xml"],  # usage error
        ["eps", "--n", "6"],
        ["metric", "--n", "4", "--a", "0.3", "--format", "json"],
        ["verify", "paper-n4"],
    ]

    def _run_sequence(self, capsys):
        results = []
        for argv in self.SEQUENCE:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            results.append((code, captured.out, captured.err))
        return results

    def test_outputs_equal_a_fresh_parser(self, capsys, monkeypatch):
        cached = self._run_sequence(capsys)
        assert cli._build_parser() is cli._build_parser()
        monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
        fresh = self._run_sequence(capsys)
        assert [code for code, _, _ in cached] == [0, 2, 0, 0, 0]
        assert cached == fresh
