import io
import json

import pytest

from nilcent import cli
from nilcent.composition import Composition
from nilcent.enveloping import central_element, pbw_algebra, pbw_from_json_obj
from nilcent.reports import Check, Report


def run(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestDegrees:
    def test_text(self, capsys):
        rc, out, _ = run(capsys, "degrees", "--lambda", "2,3,4")
        assert rc == 0
        assert out == "1 1 1 1 2 2 2 3 3\n"

    def test_json(self, capsys):
        rc, out, _ = run(capsys, "degrees", "--lambda", "1,2", "--json")
        assert rc == 0
        obj = json.loads(out)
        assert obj == {"schema": 1, "lambda": "1,2", "degrees": [1, 1, 2]}


class TestBasis:
    def test_text(self, capsys):
        rc, out, _ = run(capsys, "basis", "--lambda", "1,2")
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "e[1,1;0] = E(1,1)"
        assert lines[-1] == "dim = 5"
        assert "e[2,1;0] = E(2,1)" in lines
        assert "e[2,2;1] = E(2,3)" in lines

    def test_json_dimension(self, capsys):
        rc, out, _ = run(capsys, "basis", "--lambda", "2,3", "--json")
        assert rc == 0
        obj = json.loads(out)
        assert obj["schema"] == 1
        assert obj["dim"] == 9 == len(obj["basis"])
        assert obj["basis"][0] == {"index": [1, 1, 0],
                                   "units": [[1, 1], [2, 2]]}


class TestCentral:
    def test_json_round_trip(self, capsys):
        rc, out, _ = run(capsys, "central", "--lambda", "1,2", "--r", "3",
                         "--json")
        assert rc == 0
        obj = json.loads(out)
        assert obj["r"] == 3
        assert obj["filtration_degree"] == 2
        lam = Composition((1, 2))
        assert pbw_from_json_obj(obj) == central_element(lam, 3)

    def test_single_block(self, capsys):
        rc, out, _ = run(capsys, "central", "--lambda", "5", "--r", "3",
                         "--json")
        assert rc == 0
        obj = json.loads(out)
        assert obj["terms"] == [{"coeff": "1", "monomial": [[1, 1, 2]]}]

    def test_text_all_weights(self, capsys):
        rc, out, _ = run(capsys, "central", "--lambda", "1,2")
        assert rc == 0
        assert out.splitlines() == [
            "z_1 = e[1,1;0] + e[2,2;0] - 2",
            "z_2 = e[2,2;1]",
            "z_3 = e[1,1;0]*e[2,2;1] - e[1,2;1]*e[2,1;0] - e[2,2;1]",
        ]


class TestInvariants:
    def test_text(self, capsys):
        rc, out, _ = run(capsys, "invariants", "--lambda", "1,2")
        assert rc == 0
        assert out.splitlines() == [
            "x_1 = e[1,1;0] + e[2,2;0]",
            "x_2 = e[2,2;1]",
            "x_3 = e[1,1;0]*e[2,2;1] - e[1,2;1]*e[2,1;0]",
        ]

    def test_json_exponents(self, capsys):
        rc, out, _ = run(capsys, "invariants", "--lambda", "1,2", "--r", "3",
                         "--json")
        assert rc == 0
        obj = json.loads(out)
        assert obj["r"] == 3
        assert {"monomial": [[[1, 1, 0], 1], [[2, 2, 1], 1]],
                "coeff": "1"} in obj["terms"]


class TestSlice:
    def test_text(self, capsys):
        rc, out, _ = run(capsys, "slice", "--lambda", "1,2")
        assert rc == 0
        assert "jacobian rank 3 of 3: certified" in out
        assert "PASS" in out and "FAIL" not in out

    def test_json(self, capsys):
        rc, out, _ = run(capsys, "slice", "--lambda", "2,3", "--json")
        assert rc == 0
        obj = json.loads(out)
        assert obj["jacobian"]["certified"] is True
        assert obj["jacobian"]["rank"] == 5
        assert obj["coordinates"] == [[1, 0], [1, 1], [2, 0], [2, 1], [2, 2]]

    def test_decreasing_is_usage_error(self, capsys):
        rc, _, err = run(capsys, "slice", "--lambda", "2,1")
        assert rc == cli.EXIT_USAGE
        assert "increasing" in err


class TestQdet:
    def test_text(self, capsys):
        rc, out, _ = run(capsys, "qdet", "--lambda", "1,2", "--r", "1")
        assert rc == 0
        assert out.splitlines()[0] == "Z_1 = T[1,1;1] + T[2,2;1] - 2"
        assert "FAIL" not in out

    def test_json(self, capsys):
        rc, out, _ = run(capsys, "qdet", "--lambda", "1,1", "--json")
        assert rc == 0
        objs = json.loads(out)
        assert [o["r"] for o in objs] == [1, 2]
        assert all(o["expansion"]["ok"] for o in objs)
        assert all(o["graded_image"]["ok"] for o in objs)


class TestVerify:
    def test_pass_lines(self, capsys):
        rc, out, _ = run(capsys, "verify", "--lambda", "1,2")
        assert rc == 0
        lines = out.splitlines()
        assert len(lines) == 4
        assert all(line.startswith("PASS  centrality") for line in lines[:3])
        assert lines[3] == "OK"

    def test_single_weight(self, capsys):
        rc, out, _ = run(capsys, "verify", "--lambda", "4,2", "--r", "2")
        assert rc == 0
        assert len(out.splitlines()) == 2

    def test_all_r_flag(self, capsys):
        rc, out, _ = run(capsys, "verify", "--lambda", "1,2", "--r", "1",
                         "--all-r")
        assert rc == 0
        assert len(out.splitlines()) == 4

    def test_failure_exit_code(self, capsys, monkeypatch):
        def fake_verify(lam, r):
            return Report("forced", (Check("forced failure", False, "detail"),))

        monkeypatch.setattr(cli, "verify_central", fake_verify)
        rc, out, _ = run(capsys, "verify", "--lambda", "1,2")
        assert rc == cli.EXIT_VERIFY
        assert "VERIFICATION FAILED" in out


class TestSweep:
    def test_byte_determinism(self):
        config = cli.RunConfig(command="sweep", max_n=3, jobs=1, seed=0)
        outputs = []
        for _ in range(2):
            out, err = io.StringIO(), io.StringIO()
            rc = cli.run_sweep(config, out=out, err=err)
            assert rc == 0
            outputs.append(out.getvalue())
        assert outputs[0] == outputs[1]
        assert "SWEEP OK" in outputs[0]

    def test_json_shape(self):
        config = cli.RunConfig(command="sweep", max_n=2, jobs=1, seed=0,
                               as_json=True)
        out, err = io.StringIO(), io.StringIO()
        assert cli.run_sweep(config, out=out, err=err) == 0
        obj = json.loads(out.getvalue())
        assert obj["schema"] == 1 and obj["ok"] is True
        assert obj["max_N"] == 2
        lams = {row["lambda"] for row in obj["rows"]}
        assert lams == {"1", "1,1", "2"}
        assert all(set(row) == {"check", "lambda", "r", "ok", "detail"}
                   for row in obj["rows"])

    def test_env_cap(self, monkeypatch):
        monkeypatch.setenv("NILCENT_MAX_N", "2")
        config = cli.RunConfig(command="sweep", max_n=3, jobs=1, seed=0)
        out, err = io.StringIO(), io.StringIO()
        assert cli.run_sweep(config, out=out, err=err) == 0
        assert "max N clamped to 2 by NILCENT_MAX_N" in err.getvalue()
        assert "3 compositions" in out.getvalue()

    def test_serial_sweep_drops_each_pbw_algebra(self):
        config = cli.RunConfig(command="sweep", max_n=3, jobs=1, seed=0)
        out, err = io.StringIO(), io.StringIO()
        assert cli.run_sweep(config, out=out, err=err) == 0
        assert pbw_algebra.cache_info().currsize == 0


class TestUsageErrors:
    def test_bad_lambda(self, capsys):
        rc, _, err = run(capsys, "degrees", "--lambda", "2,1,2")
        assert rc == cli.EXIT_USAGE
        assert "error:" in err

    def test_out_of_range_r(self, capsys):
        rc, _, err = run(capsys, "central", "--lambda", "1,2", "--r", "9")
        assert rc == cli.EXIT_USAGE
        assert "--r must lie in 1..3" in err

    def test_missing_lambda(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["degrees"])
        assert exc.value.code == 2

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 2

    def test_module_entry_point(self, capsys):
        from nilcent import __main__  # noqa: F401  import must not execute main
