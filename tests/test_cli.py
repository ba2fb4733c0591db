"""CLI surface: subcommands, formats, exit codes, determinism."""

import contextlib
import io
import json
import re

import numpy as np
import pytest
from hypothesis import given, note, settings
from hypothesis import strategies as hst

from classent import states
from classent.cli import main
from classent.matcore import DensityMatrix, matrix_to_csv
from classent.verify import run_suite


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def from_json(text):
    return np.array([[complex(re, im) for re, im in row] for row in json.loads(text)])


def from_csv(text):
    return np.array(
        [[complex(cell.replace("i", "j")) for cell in line.split(",")]
         for line in text.splitlines()]
    )


class TestUsageErrors:
    def test_no_command(self, capsys):
        code, _, _ = run(capsys, )
        assert code == 2

    def test_unknown_state(self, capsys):
        code, _, err = run(capsys, "measure", "--state", "nope")
        assert code == 2
        assert "unknown state" in err

    def test_bad_grid(self, capsys):
        code, _, err = run(capsys, "delta", "--state", "ghz", "--grid", "banana")
        assert code == 2

    def test_help_exits_zero(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        assert "measure" in out and "verify" in out

    def test_squashed_on_mixed_is_usage_error(self, capsys):
        code, _, err = run(
            capsys, "delta", "--state", "rho:0.5", "--measure", "squashed",
            "--grid", "8,4",
        )
        assert code == 2
        assert "mixed" in err


class TestNumericalFailure:
    @pytest.mark.parametrize("exc", [np.linalg.LinAlgError("Eigenvalues did not converge"),
                                     MemoryError()])
    def test_exit_code_three(self, capsys, monkeypatch, exc):
        # a failed eigensolve or allocation is neither a usage error (2)
        # nor a failed verification (1)
        def fail(*args, **kwargs):
            raise exc

        monkeypatch.setattr("classent.cli.delta", fail)
        code, _, err = run(capsys, "delta", "--state", "ghz", "--grid", "8,4")
        assert code == 3
        assert err.startswith("error: numerical failure: ")
        assert type(exc).__name__ in err


class TestMeasure:
    def test_ghz_plain(self, capsys):
        code, out, _ = run(capsys, "measure", "--state", "ghz")
        assert code == 0
        assert "negativity: 1.5" in out
        assert "negativity AB|C: 0.5" in out
        assert "entropy A: 1" in out

    def test_bell_chain_total(self, capsys):
        code, out, _ = run(
            capsys, "measure", "--state", "bells:3", "--measure", "negativity"
        )
        assert code == 0
        assert "negativity: 5.5" in out

    def test_w_squashed_json(self, capsys):
        code, out, _ = run(
            capsys, "measure", "--state", "w", "--measure", "squashed",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["values"]["squashed"] == pytest.approx(1.37744, abs=1e-5)


class TestDelta:
    def test_pure_ghz_json(self, capsys):
        code, out, _ = run(
            capsys, "delta", "--state", "psi:1", "--grid", "24,8",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["delta"] == pytest.approx(0.5, abs=1e-9)
        assert payload["grid"] == [24, 8]

    def test_default_grid(self, capsys):
        code, out, _ = run(capsys, "delta", "--state", "ghz", "--format", "json")
        assert code == 0
        assert json.loads(out)["grid"] == [300, 50]

    def test_flower_with_bounds(self, capsys):
        code, out, _ = run(
            capsys, "delta", "--state", "flower:2", "--grid", "24,8",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["delta"] == pytest.approx(0.0, abs=1e-10)
        assert payload["upper_bound"] == pytest.approx(0.25, abs=1e-9)

    def test_squashed_reports_no_bounds(self, capsys):
        # the bound sandwich is proved for negativity only
        argv = ["delta", "--state", "w", "--measure", "squashed", "--grid", "8,4"]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert "delta:" in out and "bound" not in out
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert "delta" in payload
        assert "lower_bound" not in payload and "upper_bound" not in payload

    def test_plain_report_lines(self, capsys):
        code, out, _ = run(capsys, "delta", "--state", "ghz", "--grid", "24,8")
        assert code == 0
        assert "delta: 0.5" in out
        assert "best direction:" in out


class TestSweep:
    def test_header_and_shape(self, capsys, tmp_path):
        path = tmp_path / "sweep.csv"
        code, out, _ = run(
            capsys, "sweep", "--state", "psi", "--range", "0,1,5",
            "--grid", "12,4", "--output", str(path),
        )
        assert code == 0
        lines = path.read_text().strip().splitlines()
        assert lines[0] == (
            "param,negativity_global,negativity_delta,"
            "negativity_lower,negativity_upper"
        )
        assert len(lines) == 6
        assert lines[1].startswith("0,")
        assert lines[-1].startswith("1,")

    def test_deterministic_bytes(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            code, _, _ = run(
                capsys, "sweep", "--state", "rho", "--range", "0,1,4",
                "--grid", "8,4", "--output", str(path),
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_both_measures_columns(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--state", "psi", "--range", "0,1,3",
            "--grid", "8,4", "--measure", "negativity", "--measure", "squashed",
        )
        assert code == 0
        assert out.splitlines()[0] == (
            "param,negativity_global,negativity_delta,negativity_lower,"
            "negativity_upper,squashed_global,squashed_delta"
        )

    def test_twelve_significant_digits(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--state", "psi", "--range", "0,1,3", "--grid", "8,4"
        )
        cell = out.splitlines()[1].split(",")[1]
        assert cell == "1.41421356237"
        assert "," not in cell.replace(",", "")  # '.' decimal separator only

    def test_default_range(self, capsys):
        code, out, _ = run(capsys, "sweep", "--state", "psi", "--grid", "4,2")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 22
        assert [line.split(",")[0] for line in (lines[1], lines[11], lines[-1])] == [
            "0", "0.5", "1",
        ]

    @pytest.mark.parametrize(
        "flags, message",
        [
            (("sweep", "--state", "psi:0.3"), "bare family name"),
            (("sweep", "--state", "psi", "--grid", "3,x"), "--grid wants two integers"),
            (("sweep", "--state", "psi", "--range", "0,1"), "--range wants A,B,N"),
            (("sweep", "--state", "psi", "--range", "a,b,3"),
             "--range wants two floats and an integer"),
            (("measure", "--state", "bells:inf"), "takes integer parameters"),
            (("measure", "--state", "flower:1e999"), "takes integer parameters"),
            (("measure", "--state", "bells:nan"), "takes integer parameters"),
            # the battery runs at the default grid only
            (("verify", "--grid", "8,4"), "invalid choice: '8,4'"),
            (("verify", "condition1", "--grid", "8,4"), "unrecognized arguments: --grid 8,4"),
            # the flag hooks report through argparse, in delta as in sweep
            (("delta", "--state", "ghz", "--grid", "3,x"), "--grid wants two integers"),
            (("sweep", "--state", "psi", "--range", "1,0,5"), "--range needs A < B"),
            (("sweep", "--state", "psi", "--range", "0,1,1"), "at least 2 steps"),
            # the library's grid check runs inside the hook
            (("delta", "--state", "ghz", "--grid", "0,4"),
             "argument --grid: grid resolution must be positive"),
            (("sweep", "--state", "psi", "--grid", "4,0"),
             "argument --grid: grid resolution must be positive"),
            (("sweep", "--state", "psi", "--range", "0,inf,3"), "--range needs finite A and B"),
            (("sweep", "--state", "psi", "--range", "nan,1,3"), "--range needs finite A and B"),
        ],
    )
    def test_malformed_flags(self, capsys, flags, message):
        code, _, err = run(capsys, *flags)
        assert code == 2
        assert message in err

    def test_parametrized_family_needs_range(self, capsys):
        code, _, err = run(capsys, "sweep", "--state", "ak")
        assert code == 2
        assert "--range" in err

    def test_rejects_non_sweepable(self, capsys):
        code, _, err = run(capsys, "sweep", "--state", "bells")
        assert code == 2

    def test_unwritable_path(self, capsys):
        code, _, err = run(
            capsys, "sweep", "--state", "psi", "--range", "0,1,2",
            "--grid", "8,4", "--output", "/nonexistent/dir/out.csv",
        )
        assert code == 2
        assert err


class TestDump:
    def test_json_round_trip(self, capsys, tmp_path):
        path = tmp_path / "tilde.json"
        code, _, _ = run(capsys, "dump", "--state", "tilde", "--output", str(path))
        assert code == 0
        loaded = from_json(path.read_text())
        np.testing.assert_array_equal(loaded, states.tilde_state().data)

    def test_csv_round_trip(self, capsys, tmp_path):
        path = tmp_path / "upb.csv"
        code, _, _ = run(
            capsys, "dump", "--state", "upb", "--format", "csv",
            "--output", str(path),
        )
        assert code == 0
        loaded = from_csv(path.read_text())
        np.testing.assert_array_equal(loaded, states.upb_state().data)

    def test_stdout_json_parses(self, capsys):
        code, out, _ = run(capsys, "dump", "--state", "tilde")
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 8
        # dyadic entries survive the float round-trip untouched
        assert rows[1][1] == [0.25, 0.0]
        assert rows[2][5] == [0.125, 0.0]

    def test_dump_load_dump_idempotent(self, capsys, tmp_path):
        p1 = tmp_path / "one.csv"
        run(capsys, "dump", "--state", "adma", "--format", "csv", "--output", str(p1))
        text1 = p1.read_text()
        assert matrix_to_csv(from_csv(text1)) == text1


class TestVerify:
    def test_fast_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "condition1")
        assert code == 0
        assert "PASS tilde-scan" in out
        assert "PASS ghz-scan-rejects" in out
        assert "PASS upb-scan" in out
        assert "3/3" in out

    def test_json_summary(self, capsys):
        code, out, _ = run(capsys, "verify", "condition1", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert payload["grid"] == [300, 50]
        names = [c["name"] for c in payload["checks"]]
        assert names == ["tilde-scan", "ghz-scan-rejects", "upb-scan"]
        for c in payload["checks"]:
            assert "margin" in c and "seconds" in c

    def test_failing_check_names_itself(self, capsys, monkeypatch):
        # GHZ leaves an NPT pair behind, so the scan that expects tilde fails
        monkeypatch.setattr(states, "tilde_state", states.ghz_state)
        code, out, _ = run(capsys, "verify", "condition1")
        assert code == 1
        assert "FAIL tilde-scan" in out

    def test_unknown_suite_rejected(self, capsys):
        code, _, _ = run(capsys, "verify", "everything")
        assert code == 2

    def test_run_suite_rejects_unknown_suite(self):
        with pytest.raises(ValueError, match="unknown suite"):
            run_suite("everything")

    def test_zoo_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "zoo")
        assert code == 0
        assert "4/4" in out


def _quiet_main(*argv):
    """``main(argv)`` with its output captured: the exit code and stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, err.getvalue()


# every float, NaN, the infinities and subnormals included; sizes that allocate stay small
_ANY_FLOAT = hst.floats(allow_nan=True, allow_infinity=True)
_REAL_FAMILIES = [name for name, (_, params, _) in states._FAMILIES.items()
                  if params and name not in states._INT_PARAMS]
_SIZES = {"bells": hst.integers(-2, 6), "flower": hst.integers(-2, 13)}


class TestInputs:
    @settings(max_examples=300, deadline=None)
    @given(data=hst.data())
    def test_every_input_builds_or_names_its_parameter(self, data):
        # a family parameter, a --range or --grid string or a 2x2 matrix either gives a
        # valid state (or flag) with no warning, which the suite raises as an error, or a
        # ValueError or exit 2 whose message names the parameter
        kind = data.draw(hst.sampled_from(["family", "range", "grid", "matrix"]))
        if kind == "family":
            name = data.draw(hst.sampled_from(_REAL_FAMILIES + list(_SIZES)))
            params = states._FAMILIES[name][1]
            values = [data.draw(_SIZES.get(name, _ANY_FLOAT)) for _ in params]
            spec = f"{name}:" + ",".join(map(repr, values))
            note(spec)
            code, err = _quiet_main("measure", "--state", spec, "--format", "json")
            assert code == 0 or (code == 2 and re.search(rf"\b{', '.join(params)}\b", err)), err
        elif kind == "range":
            family = data.draw(hst.sampled_from(sorted(states.one_parameter_families())))
            text = ",".join([repr(data.draw(_ANY_FLOAT)), repr(data.draw(_ANY_FLOAT)),
                             str(data.draw(hst.integers(-2, 4)))])
            note(text)
            code, err = _quiet_main("sweep", "--state", family, "--range", text, "--grid", "2,1")
            param = states._FAMILIES[family][1][0]
            assert code == 0 or (code == 2 and re.search(rf"--range|\b{param}\b", err)), err
        elif kind == "grid":
            size = hst.one_of(hst.integers(-2, 6).map(str), _ANY_FLOAT.map(repr))
            text = f"{data.draw(size)},{data.draw(size)}"
            note(text)
            code, err = _quiet_main("delta", "--state", "ghz", "--grid", text)
            assert code == 0 or (code == 2 and "--grid" in err), err
        else:
            p, re_, im, skew = (data.draw(_ANY_FLOAT) for _ in range(4))
            mat = np.array([[p, complex(re_, im)], [complex(re_ + skew, -im), 1 - p]])
            note(repr(mat))
            try:
                DensityMatrix(mat, (2,))
            except ValueError as exc:
                assert re.match(r"density matrix|not Hermitian|trace deviates|not positive",
                                str(exc))
