import concurrent.futures
import errno
import hashlib
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from nilcent import centralizer, cli, composition, enveloping, invariants
from nilcent import slice as slice_module
from nilcent.centralizer import BasisIndex
from nilcent.composition import Composition, monotone_compositions
from nilcent.enveloping import central_element, pbw_algebra, pbw_to_json_obj
from nilcent.freealg import FreeElement, TSymbol
from nilcent.invariants import Polynomial
from nilcent.reports import Check, Report
from nilcent.slice import PVar

from conftest import plant_z


def run(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


@pytest.fixture
def pool_sizes(monkeypatch):
    """Run the sweep's process pool in process; the list of pool sizes."""
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    # _sweep imports the pool from concurrent.futures only when it pools
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return sizes


def sweep(capsys, max_n, as_json=False):
    """Exit code and stdout of a serial sweep."""
    rc, out, _ = run(capsys, "sweep", "--max-N", str(max_n), "--jobs", "1",
                     *(["--json"] if as_json else []))
    return rc, out


def plant_zero_z2(monkeypatch):
    """Make enveloping.central_element return 0 for z_2 of 1,2."""
    real = enveloping.central_element
    monkeypatch.setattr(enveloping, "central_element", lambda lam, r: (
        real(lam, r) * 0 if (lam, r) == (Composition((1, 2)), 2)
        else real(lam, r)))


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
        assert obj["terms"] == pbw_to_json_obj(central_element(lam, 3))["terms"]

    def test_zero_element_is_a_failed_check(self, capsys, monkeypatch):
        """A zero z_r has no filtration degree: the run fails its check
        and names z_r, not the usage."""
        plant_zero_z2(monkeypatch)
        rc, out, err = run(capsys, "central", "--lambda", "1,2", "--r", "2")
        assert rc == cli.EXIT_VERIFY and out == ""
        assert err == "error: z_2 = 0 has no filtration degree\n"

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
        assert out.splitlines()[-1] == (
            "PASS  Jacobian of x_1..x_3 at the slice base point has rank 3"
            "  (rank 3 of 3)")
        assert "PASS" in out and "FAIL" not in out

    def test_json(self, capsys):
        rc, out, _ = run(capsys, "slice", "--lambda", "2,3", "--json")
        assert rc == 0
        obj = json.loads(out)
        assert obj["jacobian"]["ok"] is True
        assert obj["jacobian"]["checks"][0]["detail"] == "rank 5 of 5"
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

    def test_failure_exit_code(self, capsys, monkeypatch):
        def fake_verify(lam, r):
            return Report("forced", (Check("forced failure", False, "detail"),))

        monkeypatch.setattr(cli, "verify_central", fake_verify)
        rc, out, _ = run(capsys, "verify", "--lambda", "1,2")
        assert rc == cli.EXIT_VERIFY
        assert "VERIFICATION FAILED" in out


PINNED_SUBCOMMANDS = [
    ("central", "2,3", False,
     "a27c3000d6d68623def21801a9a7ab9912a2b2598d6af7ae00bf71054d1de351"),
    ("central", "2,3", True,
     "3f723bc5cd6f896e78566b4bf5beb1153609d2f96604f3f1568a8129b4ec611d"),
    ("central", "1,2,2", False,
     "fc978e740c4817ea14b389583892b2f4e62b123c212d0f52c1dd160b0a40a13c"),
    ("central", "1,2,2", True,
     "7c6bb13d7bfe9cbddd1a1b694ab1a0a7080a3ca4c1499679eae2bd41de9bbd17"),
    ("central", "3,2,1", False,
     "f79d9cb269c44d87bfbcd7fe5ce8d19aa613416f282a7c3a5bb1e458fdacd486"),
    ("central", "3,2,1", True,
     "ff1565eee3e502b2b0bd8dd343d957f508bc900f942cf3a7391a133f60445e8e"),
    ("central", "1,1,1,1", False,
     "1ae52eb79ba8f60b5ef98fd5dd3fe86894c17941e4013c7a71a06f091a94b565"),
    ("central", "1,1,1,1", True,
     "8aaeca02096f56fd61f7bd24576293c9e75566fd3adf5a658dd00b215338da87"),
    ("invariants", "2,3", False,
     "1cf7a26fe03650317a44235580a06988543d0548c987a0526d8ac36624683b75"),
    ("invariants", "2,3", True,
     "57f22c420ed80e96df2f20f5078347b8f95dd3e8339a536a6f02b24a9423ee57"),
    ("invariants", "1,2,2", False,
     "626384dac45bbd98d9177669fd2904254ddaed2d500bb4936344071f1d375dce"),
    ("invariants", "1,2,2", True,
     "5485a427bcb43a86db56be98ffaed52b60fb1ec0d693efc5086414e3ff6b8fbb"),
    ("invariants", "3,2,1", False,
     "71d6a80cc09de8b6578342bebc22317976c164dd0efcd15bd7caea3c37e4101c"),
    ("invariants", "3,2,1", True,
     "91863939cab02d358edb7c96176419156577869657adbd6a635dd1f31b337fe7"),
    ("invariants", "1,1,1,1", False,
     "4338208be3d51011f15beb92924ed1356c35ec61a07dcc9e4ab278656ec33bce"),
    ("invariants", "1,1,1,1", True,
     "5bc70fd9b70550fb5e6e716644f4a9a63aafaecd786807965f3d6c20183d1125"),
    ("verify", "2,3", False,
     "317af0c0ad824ee01efd198a1b94a539a06dfbddac18d82e46e6bc70b8e22596"),
    ("verify", "2,3", True,
     "a10bbd7caefdb880d16036c12aa0afa3ed595ddbbd40b46ed162feabac1f0276"),
    ("verify", "1,2,2", False,
     "7457b5bd1bc9fb1063b909b3320a04e4ea8cc728a1c7ba626c3e36bec672ae94"),
    ("verify", "1,2,2", True,
     "e35f847d00d86068f6801f4c2d0557efe65adeeb182b6218a231a07c24f69416"),
    ("verify", "3,2,1", False,
     "a8272b47783868c61fd5444bb3776b3691b91cab273ac3f52e17da37b7856893"),
    ("verify", "3,2,1", True,
     "3bf9d1b8fb45d3fb8e7e693fe9b776993eb48d867d457e2c8520c715ce479fa6"),
    ("verify", "1,1,1,1", False,
     "9c3a8441b73ad08ce895e28076362251a16dd1ec188b0fb2bfda5b7cf47cf13b"),
    ("verify", "1,1,1,1", True,
     "92c077f69dca62d3f4df9025d678bace2137122ee8748d93cfcec4a191f263c1"),
    ("qdet", "2,3", False,
     "710d0e470ec5b51be8062af819f8898a095ab06e6697b723f51757f7b9701e0c"),
    ("qdet", "2,3", True,
     "818a6a930d7b1ccb4ccfa036d39807e6f206e32380b240b714ebc9294744b33b"),
    ("qdet", "1,2,2", False,
     "d5b90cf93cf01a9c46dd6bdfcc9afa0a19e6a0642910e2e48433ee2c48d865f8"),
    ("qdet", "1,2,2", True,
     "20ac6b0833d6afade98c132fef416df6fc5a3767f68b064f765d66d08d952fae"),
    ("slice", "2,3", False,
     "139c5afb9f1d0280d39590487c0a36dcda8f2c8eae30a386432554c439974a0e"),
    ("slice", "2,3", True,
     "89a5e1ac48e75735747d07d66076587f677e2c45448938bc713742e408ba19da"),
    ("slice", "1,2,2", False,
     "8a084cfcf5de885588ddcfdcbbf0d08b0359b151192f1715d5496f6778dc3201"),
    ("slice", "1,2,2", True,
     "83cf330e3fe9860b28134c1ca8c847e5477602c5f6c22430e659519e6097f3ac"),
    ("basis", "3,2,1", False,
     "0dedf2603b334586950619de2209e1b107e58123061e3a0f354fad03570cf379"),
    ("basis", "3,2,1", True,
     "01345759fe35d805cdcab6f007e7d2cb11490f087a4ed6a2d9114a7b3ec150a4"),
    ("degrees", "3,2,1", False,
     "1b8e43b24bff93b734e112e8bcd8f7ed21c92f88fac2af6ce821dc4b276799da"),
    ("degrees", "3,2,1", True,
     "eccc6d36bd822508c80d03232cc21f090f90795731c2fe8183f8407c731e4a25"),
]


@pytest.mark.parametrize(
    "command, parts, as_json, digest", PINNED_SUBCOMMANDS,
    ids=[f"{c}-{p}-{'json' if j else 'text'}" for c, p, j, _ in PINNED_SUBCOMMANDS])
def test_pinned_subcommand_output(capsys, command, parts, as_json, digest):
    # the text of z_r, x_r and Z_r comes from the sparse-element repr and
    # format_terms, so a refactor of either is shown byte-identical here
    argv = [command, "--lambda", parts] + (["--json"] if as_json else [])
    rc, out, _ = run(capsys, *argv)
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_pinned_slice_output_up_to_n6(capsys):
    """The slice subcommand, text then --json, on every increasing lambda
    with N <= 6, hashed as one stream."""
    lams = [lam for total in range(1, 7)
            for lam in monotone_compositions(total) if lam.is_increasing]
    assert len(lams) == 29
    digest = hashlib.sha256()
    for lam in lams:
        for extra in ([], ["--json"]):
            rc, out, _ = run(capsys, "slice", "--lambda", str(lam), *extra)
            assert rc == 0
            digest.update(out.encode())
    assert digest.hexdigest() == (
        "42cafc8fe57271aec134c5eb908efb4bea733826e849a628c564d447f24b7511")


@pytest.mark.parametrize("command", ["central", "invariants", "verify",
                                     "slice", "qdet"])
def test_one_state_per_subcommand(capsys, command):
    composition.state.cache_clear()
    rc, _, _ = run(capsys, command, "--lambda", "1,2,2")
    assert rc == 0
    assert composition.state.cache_info().misses == 1


class TestSweep:
    def test_byte_determinism(self, capsys):
        outputs = []
        for _ in range(2):
            rc, out = sweep(capsys, 3)
            assert rc == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]
        assert "SWEEP OK" in outputs[0]

    @pytest.mark.parametrize("as_json, digest", [
        (True, "89bde73114963530dcb02a3ab0973b50b9814a2ec684d54ca56872bd2bb1b534"),
        (False, "a6da173cc2e24be89120c269e42c145811e023488dafd265ef1a278f03af0485"),
    ])
    def test_pinned_output(self, capsys, as_json, digest):
        # row details such as "13 terms, 49 generators" are outside every
        # nilbench digest, so a refactor is shown byte-identical here
        rc, out = sweep(capsys, 5, as_json=as_json)
        assert rc == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_json_shape(self, capsys):
        rc, out = sweep(capsys, 2, as_json=True)
        assert rc == 0
        obj = json.loads(out)
        assert obj["schema"] == 1 and obj["ok"] is True
        assert set(obj) == {"schema", "max_N", "ok", "rows"}
        assert obj["max_N"] == 2
        lams = {row["lambda"] for row in obj["rows"]}
        assert lams == {"1", "1,1", "2"}
        assert all(set(row) == {"check", "lambda", "r", "ok", "detail"}
                   for row in obj["rows"])

    def test_next_composition_drops_the_last_ones_state(self, monkeypatch):
        first, last = Composition((1, 2)), Composition((2, 2))
        cli.sweep_composition(first)
        algebra = weakref.ref(pbw_algebra(first))
        cli.sweep_composition(last)
        assert composition.state.cache_info().currsize == 1
        assert algebra() is None
        # x_r goes with the rest: asking again builds it again
        built, real = [], invariants.determinant_sum
        monkeypatch.setattr(invariants, "determinant_sum", lambda lam, r, entry: (
            built.append((lam, r)) or real(lam, r, entry)))
        invariants.elementary_invariant(first, 1)
        assert built == [(first, 1)]

    def test_one_state_per_composition(self):
        """No call strays onto another composition, which would drop the
        state and rebuild it on the next access."""
        for total in range(1, 6):
            for lam in monotone_compositions(total):
                composition.state.cache_clear()
                cli.sweep_composition(lam)
                assert composition.state.cache_info().misses == 1, lam

    def failed_rows(self, monkeypatch, module, name, extra):
        """Rows of 1,2 that fail once module.name adds extra at r = 2."""
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda lam, r: (
            real(lam, r) + extra if r == 2 else real(lam, r)))
        return [row for row in cli.sweep_composition(Composition((1, 2)))
                if not row["ok"]]

    def test_failed_centrality_row_names_a_witness(self, monkeypatch):
        lam = Composition((1, 2))
        alg = pbw_algebra(lam)
        extra = 2 * alg.embed((1, 1, 0)) * alg.embed((1, 2, 1))
        rows = self.failed_rows(monkeypatch, enveloping, "central_element", extra)
        assert [(row["check"], row["r"], row["detail"]) for row in rows] == [
            ("centrality", 2, "2 terms, 5 generators; [z_2, e[1,1;0]] = 0: "
             "residual has 1 terms, leading -2*e[1,1;0]*e[1,2;1]"),
            ("filtration_degree", 2, "expected 1"),
            ("top_symbol", 2, "1 monomials"),
            ("invariance", 2, "premise failed: centrality, top_symbol")]

    def test_zero_central_element_fails_its_rows(self, monkeypatch):
        """z_2 = 0 has no filtration degree and no top symbol: both rows
        fail and name it, and invariance fails through its premise."""
        plant_zero_z2(monkeypatch)
        rows = [row for row in cli.sweep_composition(Composition((1, 2)))
                if not row["ok"]]
        assert [(row["check"], row["r"], row["detail"]) for row in rows] == [
            ("filtration_degree", 2, "expected 1; z_2 = 0"),
            ("top_symbol", 2, "1 monomials; z_2 = 0"),
            ("invariance", 2, "premise failed: top_symbol")]

    def test_zero_central_element_fails_the_sweep(self, capsys, monkeypatch):
        plant_zero_z2(monkeypatch)
        rc, out, _ = run(capsys, "sweep", "--max-N", "3", "--jobs", "1")
        assert rc == cli.EXIT_VERIFY
        assert [line for line in out.splitlines() if "FAIL" in line] == [
            "lambda=1,2  N=3  checks=25  FAILED",
            "  FAIL filtration_degree r=2  expected 1; z_2 = 0",
            "  FAIL top_symbol r=2  1 monomials; z_2 = 0",
            "  FAIL invariance r=2  premise failed: top_symbol",
            "SWEEP FAILED: 7 compositions, 137 checks"]

    def test_failed_invariance_row_names_a_witness(self, monkeypatch):
        """A non-invariant x_r, planted where the sweep reads it, fails its
        top_symbol row and with it the invariance row derived from it;
        tests/test_invariants.py names the ad witness of the direct walk."""
        extra = Polynomial({(BasisIndex(1, 1, 0), BasisIndex(1, 2, 1)): 2})
        rows = self.failed_rows(monkeypatch, cli, "elementary_invariant", extra)
        assert [(row["check"], row["r"], row["detail"]) for row in rows] == [
            ("top_symbol", 2, "2 monomials"),
            ("invariance", 2, "premise failed: top_symbol")]

    def test_failed_slice_rows_name_a_witness(self, monkeypatch):
        # the prediction for r = 2 doubles, from p[2,1] to 2*p[2,1]; it
        # still names p[2,1], so the weights still biject
        rows = self.failed_rows(monkeypatch, slice_module, "expected_restriction",
                                Polynomial.variable(PVar(2, 1)))
        assert [(row["check"], row["r"], row["detail"]) for row in rows] == [
            ("slice_restriction", 2, "got p[2,1]")]

    def test_wrong_invariant_fails_its_restriction_row_alone(self, monkeypatch):
        """A doubled x_2 restricts to 2*p[2,1]: the slice_restriction row
        of r = 2 fails, and slice_bijection, which reads only its own
        check, passes."""
        x2 = invariants.elementary_invariant(Composition((1, 2)), 2)
        rows = self.failed_rows(monkeypatch, slice_module,
                                "elementary_invariant", x2)
        assert [(row["check"], row["r"], row["detail"]) for row in rows] == [
            ("slice_restriction", 2, "got 2*p[2,1]")]

    def test_failed_bijection_row_names_its_check(self, monkeypatch):
        # the prediction for r = 2 becomes that of r = 1, so two weights
        # name one coordinate
        real = slice_module.expected_restriction
        monkeypatch.setattr(slice_module, "expected_restriction",
                            lambda lam, r: real(lam, 1 if r == 2 else r))
        rows = [row for row in cli.sweep_composition(Composition((1, 2)))
                if not row["ok"]]
        assert [(row["check"], row["r"], row["detail"]) for row in rows] == [
            ("slice_restriction", 2, "got p[2,1]"),
            ("slice_bijection", None, "weights biject onto slice coordinates: "
             "2 distinct coordinates out of 3")]

    def test_failed_degree_ledger_row(self, monkeypatch):
        """d_3 of 1,2 raised from 2 to 3 disagrees with the two nonzero
        parts of enumerate_mu's mu = (1, 2); filtration_degree, which
        reads the same degrees, fails with it."""
        real = cli.invariant_degrees
        monkeypatch.setattr(cli, "invariant_degrees",
                            lambda lam: real(lam)[:-1] + (real(lam)[-1] + 1,))
        rows = [row for row in cli.sweep_composition(Composition((1, 2)))
                if not row["ok"]]
        assert [(row["check"], row["r"], row["detail"]) for row in rows] == [
            ("degree_ledger", None, "1 1 3"),
            ("filtration_degree", 3, "expected 3")]

    def test_failed_sweep_text_lists_the_failed_rows(self, capsys, monkeypatch):
        # the prediction for r = 2 of 1,2 alone doubles, as above
        planted = Composition((1, 2))
        real = slice_module.expected_restriction
        monkeypatch.setattr(slice_module, "expected_restriction", lambda lam, r: (
            real(lam, r) + Polynomial.variable(PVar(2, 1))
            if (lam, r) == (planted, 2) else real(lam, r)))
        rc, out, _ = run(capsys, "sweep", "--max-N", "3", "--jobs", "1")
        assert rc == cli.EXIT_VERIFY
        assert [line for line in out.splitlines() if "FAIL" in line] == [
            "lambda=1,2  N=3  checks=25  FAILED",
            "  FAIL slice_restriction r=2  got p[2,1]",
            "SWEEP FAILED: 7 compositions, 137 checks"]

    def test_failed_jacobian_row_names_a_witness(self, monkeypatch):
        # x_3 of 2,1 becomes x_1^2, whose gradient vanishes where x_1 does
        real = slice_module.elementary_invariant
        monkeypatch.setattr(slice_module, "elementary_invariant", lambda lam, r: (
            real(lam, 1) * real(lam, 1) if r == 3 else real(lam, r)))
        rows = [row for row in cli.sweep_composition(Composition((2, 1)))
                if not row["ok"]]
        assert [(row["check"], row["r"], row["detail"]) for row in rows] == [
            ("jacobian_rank", None, "Jacobian of x_1..x_3 at the slice base "
             "point has rank 3: rank 2 of 3")]

    def test_failed_symbol_rows_name_a_witness(self, monkeypatch):
        lam = Composition((1, 2))
        plant_z(monkeypatch, lam, 3, 5 * FreeElement.letter(TSymbol(1, 2, 2)))
        rows = [row for row in cli.sweep_composition(lam) if not row["ok"]]
        assert [(row["check"], row["r"], row["detail"]) for row in rows] == [
            ("symbol_expansion", 3, "Z_3 matches its binomial expansion: "
             "residual has 1 terms, leading 5*T[1,2;2]"),
            ("graded_image", 3, "top-weight image equals (-1)^1 z_3: "
             "residual has 1 terms, leading -5*e[1,2;1]")]

    def test_pool_matches_serial(self, capsys):
        serial = run(capsys, "sweep", "--max-N", "3", "--jobs", "1", "--json")
        pooled = run(capsys, "sweep", "--max-N", "3", "--jobs", "2", "--json")
        assert serial[0] == pooled[0] == 0
        assert serial[1] == pooled[1]

    def test_pool_size_is_capped(self, capsys, monkeypatch, pool_sizes):
        for cpus in (64, 2, 1):
            monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
            rc, out, _ = run(capsys, "sweep", "--max-N", "2", "--jobs", "10000")
            assert rc == 0 and "SWEEP OK: 3 compositions" in out
        assert pool_sizes == [3, 2]

    def test_pool_times_each_composition(self, capsys, monkeypatch, pool_sizes):
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        rc, _, err = run(capsys, "sweep", "--max-N", "2", "--jobs", "2")
        assert rc == 0 and pool_sizes == [2]
        assert [line.split(":")[0] for line in err.splitlines()] == [
            "lambda=1", "lambda=1,1", "lambda=2", "sweep total"]

    def test_one_task_runs_serially(self, capsys):
        rc, _, err = run(capsys, "sweep", "--max-N", "1", "--jobs", "2")
        assert rc == 0
        assert "lambda=1: " in err


class TestUsageErrors:
    def test_bad_lambda(self, capsys):
        rc, _, err = run(capsys, "degrees", "--lambda", "2,1,2")
        assert rc == cli.EXIT_USAGE
        assert "error:" in err

    def test_out_of_range_r(self, capsys):
        rc, _, err = run(capsys, "central", "--lambda", "1,2", "--r", "9")
        assert rc == cli.EXIT_USAGE
        assert "--r must lie in 1..3" in err

    @pytest.mark.parametrize("max_n", ["0", "-1", "65"])
    def test_max_n_out_of_range(self, capsys, max_n):
        rc, out, err = run(capsys, "sweep", "--max-N", max_n, "--jobs", "1")
        assert rc == cli.EXIT_USAGE
        assert out == ""
        assert f"error: --max-N must lie in 1..64, got {max_n}" in err

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one(self, capsys, jobs):
        rc, out, err = run(capsys, "sweep", "--max-N", "2", "--jobs", jobs)
        assert rc == cli.EXIT_USAGE
        assert out == ""
        assert f"error: --jobs must be at least 1, got {jobs}" in err

    @pytest.mark.parametrize("exc, code", [
        (RuntimeError("symbol determinant is not monic of degree N"),
         "EXIT_VERIFY"),
        (MemoryError(), "EXIT_RESOURCE"),
    ], ids=["runtime", "memory"])
    def test_internal_failure_exit_code(self, capsys, monkeypatch, exc, code):
        def fail(lam, r):
            raise exc

        monkeypatch.setattr(enveloping, "central_element", fail)
        rc, _, err = run(capsys, "central", "--lambda", "1,2", "--r", "1")
        assert rc == getattr(cli, code)
        assert "error:" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["central", "verify", "qdet"])
    def test_more_basis_positions_than_bytes_exit_code(self, capsys, command):
        """1^17 has dim g_e = 289, past the 256 positions that a word of
        bytes holds: a subcommand that builds words exits 4 before it
        builds anything."""
        lam = Composition((1,) * 17)
        composition.state.cache_clear()
        try:
            rc, out, err = run(capsys, command, "--lambda", str(lam), "--r", "1")
            assert composition.state(lam) == {}
        finally:
            composition.state.cache_clear()
        assert rc == cli.EXIT_RESOURCE and out == ""
        assert err == (f"error: dim g_e = 289 for lambda={lam} exceeds the "
                       "limit of 256 basis positions that a word of bytes "
                       "can hold\n")

    @pytest.mark.parametrize("command", ["degrees", "basis"])
    def test_more_basis_positions_than_bytes_without_words(self, capsys,
                                                           command):
        rc, out, _ = run(capsys, command, "--lambda", ",".join("1" * 17))
        assert rc == cli.EXIT_OK and out

    def test_as_many_basis_positions_as_bytes(self, capsys):
        """1^16 has dim g_e = 256, so every position is a byte."""
        rc, out, _ = run(capsys, "central", "--lambda", ",".join("1" * 16),
                         "--r", "1")
        assert rc == cli.EXIT_OK
        assert out.startswith("z_1 = e[1,1;0] + e[2,2;0] + ")
        assert out.endswith(" - 120\n")

    @staticmethod
    def run_with_non_minimal_mu(capsys, monkeypatch, command):
        """Run command on 1,2 with the non-minimal mu = (1,1) planted at
        weight 2, where it reads the label e[1,2;0] outside the basis."""
        real = centralizer.enumerate_mu
        monkeypatch.setattr(centralizer, "enumerate_mu", lambda lam, r: (
            ((1, 1),) if r == 2 else real(lam, r)))
        # a fresh state holds no central element, so determinant_sum runs
        composition.state.cache_clear()
        try:
            return run(capsys, command, "--lambda", "1,2")
        finally:
            composition.state.cache_clear()

    def test_inadmissible_factor_exit_code(self, capsys, monkeypatch):
        rc, out, err = self.run_with_non_minimal_mu(capsys, monkeypatch,
                                                    "central")
        assert rc == cli.EXIT_VERIFY and out == ""
        assert err == ("error: inadmissible column-determinant factor "
                       "e[1,2;0] for mu=1,1\n")

    def test_inadmissible_invariant_factor_exit_code(self, capsys,
                                                     monkeypatch):
        rc, out, err = self.run_with_non_minimal_mu(capsys, monkeypatch,
                                                    "invariants")
        assert rc == cli.EXIT_VERIFY and out == ""
        assert err == ("error: inadmissible column-determinant factor "
                       "e[1,2;0] for mu=1,1\n")

    def test_no_minimal_subcomposition_exit_code(self, capsys, monkeypatch):
        """The guard in enumerate_mu holds under python -O too."""
        composition.state.cache_clear()
        monkeypatch.setattr(composition, "weight_subcompositions",
                            lambda lam, r: iter(()))
        try:
            rc, out, err = run(capsys, "central", "--lambda", "1,2")
        finally:
            composition.state.cache_clear()
        assert rc == cli.EXIT_VERIFY and out == ""
        assert err == "error: no subcomposition of weight 1 under 1,2\n"

    @pytest.mark.parametrize("argv", [["slice", "--lambda", "1,2"],
                                      ["sweep", "--max-N", "1"]])
    def test_no_seed_option(self, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--seed", "0"])
        assert exc.value.code == 2

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


@pytest.mark.parametrize("argv", [["degrees", "--lambda", "1,2"],
                                  ["central", "--lambda", "1,1,1,1,1,1"],
                                  ["sweep", "--max-N", "3"]],
                         ids=["degrees", "central", "sweep"])
def test_closed_stdout_ends_quietly(argv):
    """Output into a pipe whose reader has gone exits 141, as a shell
    reports for yes | head, with no traceback.  The read end closes before
    the start, so the write always fails."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-W", "error", "-m", "nilcent",
                               *argv], cwd=Path(cli.__file__).parent.parent,
                              stdout=write_end, stderr=subprocess.PIPE,
                              timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == cli.EXIT_PIPE == 141
    assert b"Traceback" not in proc.stderr
    assert b"Exception ignored" not in proc.stderr


class ClosedStream:
    """A text stream on a closed descriptor: every write fails."""

    def write(self, text):
        raise OSError(errno.EBADF, "Bad file descriptor")


@pytest.mark.parametrize("stderr", [ClosedStream(), None],
                         ids=["closed-later", "closed-at-start"])
def test_closed_stderr_changes_neither_stdout_nor_exit_code(capsys,
                                                            monkeypatch,
                                                            stderr):
    """A closed stderr drops the timing and error: lines, and nothing else:
    the sweep's stdout and every exit code stay as with a working one.
    An interpreter started with fd 2 closed has sys.stderr None."""
    argv = ["sweep", "--max-N", "2", "--jobs", "1"]
    rc, out, _ = run(capsys, *argv)
    assert rc == cli.EXIT_OK and "SWEEP OK" in out
    monkeypatch.setattr(sys, "stderr", stderr)
    assert run(capsys, *argv)[:2] == (rc, out)
    assert cli.main(["degrees", "--lambda", "x"]) == cli.EXIT_USAGE
