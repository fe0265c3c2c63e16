import hashlib
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from coxchar import oracle, rootdata, weyl
from coxchar.cli import EXIT_CAP, EXIT_DIAGNOSTIC, EXIT_OK, EXIT_USAGE, main

ROOT = Path(__file__).resolve().parents[1]
SCHEMA_PATH = ROOT / "schemas" / "cli_output.schema.json"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


class TestInfo:
    def test_a1(self, capsys):
        code, doc, _ = run_json(capsys, "info", "A1")
        assert code == EXIT_OK
        assert doc["coxeter_numbers"] == [2]
        assert doc["center_invariant_factors"] == [2]
        assert doc["coxeter_lift"][0]["lift_order"] == 4
        assert doc["schema_version"] == "1"

    def test_e8(self, capsys):
        code, doc, _ = run_json(capsys, "info", "E8")
        assert code == EXIT_OK
        assert doc["coxeter_numbers"] == [30]
        assert doc["center_invariant_factors"] == []
        assert doc["coxeter_lift"][0]["lift_order"] == 30

    def test_product_per_factor(self, capsys):
        code, doc, _ = run_json(capsys, "info", "A1xA1")
        assert code == EXIT_OK
        assert doc["coxeter_numbers"] == [2, 2]

    def test_parse_error_exit_2(self, capsys):
        code, _, err = run(capsys, "info", "Q3")
        assert code == EXIT_USAGE
        assert "malformed" in err

    @pytest.mark.parametrize("t, hint", [("A0", False), ("B1", False), ("C1", False), ("D3", True)])
    def test_rank_error_names_d3_only_for_family_d(self, capsys, t, hint):
        code, out, err = run(capsys, "info", t)
        assert code == EXIT_USAGE and out == ""
        assert "rank must be >=" in err
        assert ("D3 is written A3" in err) == hint
        assert ("D3" in err) == hint

    def test_byte_identical_reruns(self, capsys):
        _, out1, _ = run(capsys, "info", "D4")
        _, out2, _ = run(capsys, "info", "D4")
        assert out1 == out2


class TestChar:
    def test_adjoint_a2(self, capsys):
        code, doc, _ = run_json(capsys, "char", "A2", "1", "1")
        assert code == EXIT_OK
        assert doc["char"]["value"] == -1

    def test_blocked_weight_reports_coroot(self, capsys):
        code, doc, _ = run_json(capsys, "char", "A2", "1", "0")
        assert code == EXIT_OK
        assert doc["char"]["value"] == 0
        assert doc["char"]["blocking_coroot"]["coroot"] == [1, 1]

    def test_oracle_agreement_flag(self, capsys):
        code, doc, _ = run_json(capsys, "char", "B2", "2", "1", "--oracle")
        assert code == EXIT_OK
        assert doc["agrees"] is True
        assert doc["oracle_value"] == doc["char"]["value"]

    def test_e8_fast_path_only(self, capsys):
        code, doc, _ = run_json(capsys, "char", "E8", *["0"] * 8)
        assert code == EXIT_OK
        assert doc["char"]["value"] == 1

    def test_large_weight_gets_a_value(self, capsys):
        code, doc, _ = run_json(capsys, "char", "A1", "5000000")
        assert code == EXIT_OK
        assert doc["char"]["value"] == 1
        assert doc["char"]["factors"][0]["steps"] == 2500000

    def test_large_weight_agrees_with_oracle(self, capsys):
        code, doc, _ = run_json(capsys, "char", "A2", "1000000", "1000000", "--oracle")
        assert code == EXIT_OK
        assert doc["char"]["value"] == -1
        assert doc["agrees"] is True

    def test_conductor_above_128_refused_exit_4(self, capsys):
        # the oracle keeps residues mod N in bytes; N = h * d = 132 for C33
        code, out, err = run(capsys, "char", "C33", *["0"] * 33, "--oracle",
                             "--weyl-cap", str(10**50))
        assert code == EXIT_CAP
        assert out == ""
        assert "refused:" in err and "N = 132" in err

    @pytest.mark.parametrize("t", ["A10", "A11", "A12", "A13", "A14", "A15", "E8"])
    def test_orbit_over_the_byte_budget_refused_exit_4(self, capsys, t):
        # past a raised Weyl cap, the orbit's |W| * (rank + 1) bytes are
        # refused before anything is allocated
        rank = int(t[1:])
        code, out, err = run(capsys, "char", t, *["0"] * rank, "--oracle",
                             "--weyl-cap", str(10**14))
        assert code == EXIT_CAP
        assert out == ""
        assert err.startswith("refused:") and "exceed the budget" in err

    def test_out_of_memory_refused_exit_4(self):
        # the E8 orbit passes --weyl-cap but not the child's 300 MB of
        # address space; the limit is set in the child only
        limit = 300 * 2**20

        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        proc = subprocess.run(
            [sys.executable, "-m", "coxchar", "char", "E8", *["0"] * 7, "1",
             "--oracle", "--weyl-cap", "1000000000"],
            capture_output=True, text=True, timeout=120, preexec_fn=limit_memory,
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        )
        assert proc.returncode == EXIT_CAP, proc.stderr
        assert proc.stdout == ""
        assert proc.stderr.startswith("refused:")

    def test_wrong_rank_exit_2(self, capsys):
        code, _, err = run(capsys, "char", "A2", "1")
        assert code == EXIT_USAGE
        assert "rank" in err

    def test_negative_weight_exit_2(self, capsys):
        code, _, _ = run(capsys, "char", "A2", "1", "-1")
        assert code == EXIT_USAGE

    def test_float_shadow_diagnostic_prints_its_witness(self, capsys, monkeypatch):
        # no shadow lies within a negative tolerance of its exact value
        monkeypatch.setattr(oracle, "FLOAT_SHADOW_TOLERANCE", -1)
        code, out, err = run(capsys, "char", "A2", "1", "1", "--oracle")
        assert code == EXIT_DIAGNOSTIC and out == ""
        assert err.startswith("diagnostic: float shadow")
        witness = json.loads(err.splitlines()[-1])
        assert set(witness) == {"type", "factor", "lambda", "exact", "shadow"}
        assert (witness["type"], witness["lambda"], witness["exact"]) == ("A2", [1, 1], -1)

    def test_orbit_build_diagnostic_prints_its_witness(self, capsys, monkeypatch):
        # a kernel that drops its last term reflects a column wrongly
        real = oracle._byte_residues
        monkeypatch.setattr(oracle, "_byte_residues", lambda n, terms, size: real(
            n, list(terms)[:-1], size))
        oracle._evaluation.cache_clear()
        try:
            code, out, err = run(capsys, "char", "B3", "1", "0", "0", "--oracle")
        finally:
            oracle._evaluation.cache_clear()
        assert code == EXIT_DIAGNOSTIC and out == ""
        assert err.startswith("diagnostic: reflected coordinate")
        witness = json.loads(err.splitlines()[1])
        assert witness["factor"] == "B3" and witness["residue_sum"] != witness["exact_sum"]

    def test_failed_build_exits_3_with_its_witness(self, capsys, monkeypatch):
        # the Smith form of 2A has order 4 |P/Q| = 12 on A2, not 1 + 2
        smith = rootdata.quotient
        monkeypatch.setattr(rootdata, "quotient", lambda r, basis: smith(r, basis.scale(2)))
        rootdata._build_factor.cache_clear()
        try:
            code, out, err = run(capsys, "info", "A2")
        finally:
            rootdata._build_factor.cache_clear()
        assert code == EXIT_DIAGNOSTIC and out == ""
        assert err.startswith("diagnostic: A2: |P/Q| != 1 + #{i : c_i = 1}")
        witness = json.loads(err.splitlines()[-1])
        assert (witness["factor"], witness["lhs"], witness["rhs"]) == ("A2", 12, 3)


class TestFs:
    def test_a1_standard(self, capsys):
        code, doc, _ = run_json(capsys, "fs", "A1", "1")
        assert code == EXIT_OK
        assert doc["fs_indicator"] == -1
        assert doc["self_dual"] is True

    def test_a2_standard(self, capsys):
        code, doc, _ = run_json(capsys, "fs", "A2", "1", "0")
        assert doc["fs_indicator"] == 0
        assert doc["dual_highest_weight"] == [0, 1]

    @pytest.mark.parametrize("coords", [["1"], ["1", "-1"]])
    def test_bad_weight_exit_2(self, capsys, coords):
        # a wrong rank or a negative coordinate
        code, out, _ = run(capsys, "fs", "A2", *coords)
        assert code == EXIT_USAGE
        assert out == ""

    def test_dual_is_walked_once(self, capsys, monkeypatch):
        # the indicator is read from the one dual that the output prints
        calls = []
        walk = weyl.make_dominant
        monkeypatch.setattr(weyl, "make_dominant", lambda *a: calls.append(a) or walk(*a))
        code, out, _ = run(capsys, "fs", "E8", *"1 0 0 0 0 0 0 1".split())
        assert code == EXIT_OK
        assert len(calls) == 1
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "9297f87bcc5dd19f667b0ad41ceaae9b604d806dd5b6927f1af5c85a2bdfb3e6"
        )
        for coords in (["1"], ["1", "-1"]):
            assert run(capsys, "fs", "A2", *coords)[0] == EXIT_USAGE
        assert len(calls) == 1  # a bad weight is refused before any walk


class TestTable:
    def test_a1_cycle_json(self, capsys):
        code, doc, _ = run_json(capsys, "table", "A1", "--max-coord", "3")
        assert code == EXIT_OK
        assert [r["value"] for r in doc["rows"]] == [1, 0, -1, 0]

    def test_g2_range(self, capsys):
        code, doc, _ = run_json(capsys, "table", "G2", "--max-coord", "1")
        assert code == EXIT_OK
        assert len(doc["rows"]) == 4
        assert all(r["value"] in (-1, 0, 1) for r in doc["rows"])

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "table", "A1", "--max-coord", "2", "--format", "csv")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "lambda,value,fs"
        assert lines[1] == "0,1,1"
        assert len(lines) == 4

    def test_negative_bound_usage_error(self, capsys):
        code, _, _ = run(capsys, "table", "A1", "--max-coord", "-1")
        assert code == EXIT_USAGE


class TestVerify:
    def test_box(self, capsys):
        code, doc, err = run_json(capsys, "verify", "A2", "--max-coord", "2")
        assert code == EXIT_OK
        assert doc["checked"] == 9
        assert doc["disagreements"] == []
        assert "verify A2" in err  # runtime on the diagnostics stream

    def test_random_seeded(self, capsys):
        code, doc, _ = run_json(
            capsys, "verify", "B2", "--random", "20", "--seed", "7"
        )
        assert code == EXIT_OK
        assert doc["checked"] == 20
        assert doc["agreements"] == 20

    def test_random_is_reproducible(self, capsys):
        _, out1, _ = run(capsys, "verify", "A3", "--random", "5", "--seed", "3")
        _, out2, _ = run(capsys, "verify", "A3", "--random", "5", "--seed", "3")
        assert out1 == out2

    def test_b4_box_stdout_is_pinned(self, capsys):
        code, out, _ = run(capsys, "verify", "B4", "--max-coord", "2")
        assert code == EXIT_OK
        assert out == (
            '{\n  "agreements": 81,\n  "checked": 81,\n  "disagreements": [],\n'
            '  "max_coord": 2,\n  "mode": "box",\n  "schema_version": "1",\n'
            '  "type": "B4"\n}\n'
        )

    def test_e8_refused_exit_4(self, capsys):
        code, _, err = run(capsys, "verify", "E8", "--max-coord", "1")
        assert code == EXIT_CAP
        assert "696729600" in err

    @pytest.mark.parametrize("argv, message", [
        (["--max-coord", "-1"], "--max-coord must be >= 0"),
        (["--random", "5", "--max-coord", "-1"], "--max-coord must be >= 0"),
        (["--random", "0"], "--random must be >= 1"),
        (["--random", "-3"], "--random must be >= 1"),
    ])
    def test_empty_sweep_usage_error(self, capsys, argv, message):
        # a sweep of no weights would check nothing and still exit 0
        code, out, err = run(capsys, "verify", "A2", *argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert message in err


TORSION_A5_6 = """\
{
  "duality": {
    "action_well_defined": true,
    "invariant_factors_coweight_side": [
      6,
      6,
      6,
      6,
      36
    ],
    "invariant_factors_weight_side": [
      6,
      6,
      6,
      6,
      36
    ],
    "isomorphic": true,
    "n": 6,
    "passed": true,
    "trials": 1000,
    "type": "A5",
    "witness": null
  },
  "orbits": {
    "n": 6,
    "regular_classes": 720,
    "regular_orbits": 1,
    "regular_orbits_with_image_order_n": 1,
    "rho_in_distinguished_orbit": true,
    "total_classes": 46656,
    "type": "A5"
  },
  "schema_version": "1"
}
"""

TORSION_F4_12 = """\
{
  "duality": {
    "action_well_defined": true,
    "invariant_factors_coweight_side": [
      12,
      12,
      12,
      12
    ],
    "invariant_factors_weight_side": [
      12,
      12,
      12,
      12
    ],
    "isomorphic": true,
    "n": 12,
    "passed": true,
    "trials": 1000,
    "type": "F4",
    "witness": null
  },
  "orbits": {
    "n": 12,
    "regular_classes": 1152,
    "regular_orbits": 1,
    "regular_orbits_with_image_order_n": 1,
    "rho_in_distinguished_orbit": true,
    "total_classes": 20736,
    "type": "F4"
  },
  "schema_version": "1"
}
"""


class TestTorsion:
    def test_a1_n2(self, capsys):
        code, doc, _ = run_json(capsys, "torsion", "A1", "2")
        assert code == EXIT_OK
        assert doc["duality"]["invariant_factors_weight_side"] == [4]
        assert doc["orbits"]["regular_orbits_with_image_order_n"] == 1
        assert doc["orbits"]["rho_in_distinguished_orbit"] is True

    def test_a2_n3(self, capsys):
        code, doc, _ = run_json(capsys, "torsion", "A2", "3")
        assert doc["orbits"]["total_classes"] == 27
        assert doc["orbits"]["rho_in_distinguished_orbit"] is True

    def test_a2_n1(self, capsys):
        code, doc, _ = run_json(capsys, "torsion", "A2", "1")
        assert doc["orbits"]["regular_orbits"] == 0

    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_no_trials_usage_error(self, value):
        # the exact certificate decides the duality check, so the torsion
        # command takes no witness-search options (the library still does)
        for option in ("--trials", "--seed"):
            with pytest.raises(SystemExit) as exc:
                main(["torsion", "A2", "3", option, value])
            assert exc.value.code == EXIT_USAGE

    def test_census_refused_past_the_table_limit(self, capsys):
        code, out, err = run(capsys, "torsion", "A1", "1000001")
        assert code == EXIT_CAP
        assert out == ""
        assert "exceeds the census table limit 1000000" in err

    @pytest.mark.parametrize("t, n, expected", [
        ("A5", "6", TORSION_A5_6), ("F4", "12", TORSION_F4_12)
    ])
    def test_stdout_is_pinned(self, capsys, t, n, expected):
        code, out, _ = run(capsys, "torsion", t, n)
        assert code == EXIT_OK
        assert out == expected


class TestCheckAll:
    def test_small_battery(self, capsys):
        code, doc, err = run_json(
            capsys, "check-all", "A1", "A2", "B2", "--max-coord", "1"
        )
        assert code == EXIT_OK
        assert doc["all_passed"] is True
        assert "PASS" in err

    def test_negative_bound_usage_error(self, capsys):
        # the oracle sweep over an empty box would report agreement
        code, out, err = run(capsys, "check-all", "A2", "--max-coord", "-1")
        assert code == EXIT_USAGE
        assert out == ""
        assert "--max-coord must be >= 0" in err

    def test_duality_check_runs_on_a16(self, capsys):
        # A16 at n = 2 has 2^16 * 17 = 1,114,112 classes; none is built
        code, doc, _ = run_json(capsys, "check-all", "A16", "--max-coord", "0")
        assert code == EXIT_OK
        assert doc["results"][0]["torsion_duality_ok"] is True
        assert doc["all_passed"] is True

    def test_seed_is_a_usage_error(self):
        # the duality certificate decides torsion_duality_ok and no witness
        # is printed, so a seed for the witness search would change nothing
        with pytest.raises(SystemExit) as exc:
            main(["check-all", "--seed", "1"])
        assert exc.value.code == EXIT_USAGE

    def test_cap_is_a_usage_error(self):
        for argv in (["check-all", "A16", "--max-coord", "0"], ["torsion", "A16", "2"]):
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--cap", "2000000"])
            assert exc.value.code == EXIT_USAGE

    def test_oracle_refusing_a_conductor_skips_only_its_check(self, capsys):
        # A11 is under the Weyl cap, but its orbit is over the byte budget:
        # the oracle refuses it, and the battery goes on without that check
        code, doc, _ = run_json(
            capsys, "check-all", "A1", "A11", "--weyl-cap", "1000000000", "--max-coord", "0"
        )
        assert code == EXIT_OK
        a1, a11 = doc["results"]
        assert a1["oracle_agreement_ok"] is True
        assert "oracle_agreement_ok" not in a11
        assert a11["passed"] is True and doc["all_passed"] is True

    def test_large_simple_types_get_the_census(self, capsys):
        code, doc, _ = run_json(capsys, "check-all", "E6", "E7", "E8", "A16", "--max-coord", "0")
        assert code == EXIT_OK
        assert [r["unique_regular_orbit_ok"] for r in doc["results"]] == [True] * 4


# (schema branch, argv): every subcommand, with and without the oracle
SCHEMA_CASES = [
    ("info", ["info", "A1xB3"]),
    ("char", ["char", "A2", "1", "0"]),
    ("char", ["char", "B3", "1", "0", "2", "--oracle"]),
    ("char", ["char", "A1xG2", "3", "1", "2", "--oracle"]),
    ("fs", ["fs", "B4", "0", "0", "0", "1"]),
    ("table", ["table", "G2", "--max-coord", "2"]),
    ("verify", ["verify", "A2xG2", "--max-coord", "1"]),
    ("verify", ["verify", "F4", "--random", "5", "--seed", "7"]),
    ("torsion", ["torsion", "A2", "3"]),
    ("torsion", ["torsion", "A5", "6"]),
    ("torsion", ["torsion", "F4", "12"]),
    ("check_all", ["check-all"]),
    ("check_all", ["check-all", "E8", "--max-coord", "0"]),
    ("check_all", ["check-all", "A1", "A11", "--weyl-cap", "1000000000", "--max-coord", "0"]),
]


@pytest.mark.parametrize("branch, argv", SCHEMA_CASES, ids=[" ".join(a) for _, a in SCHEMA_CASES])
def test_stdout_matches_schema(capsys, branch, argv):
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads(SCHEMA_PATH.read_text())
    code, doc, _ = run_json(capsys, *argv)
    assert code == EXIT_OK
    jsonschema.Draft202012Validator(schema).validate(doc)
    only_branch = {**schema, "oneOf": [{"$ref": f"#/$defs/{branch}"}]}
    jsonschema.Draft202012Validator(only_branch).validate(doc)


# Pinned stdout of the fast path: the byte-exact output of the scalar
# loop over the positive coroots that the packed pass replaced.
CHAR_E8_SINGULAR = """\
{
  "char": {
    "blocking_coroot": {
      "coroot": [
        0,
        1,
        1,
        2,
        2,
        2,
        2,
        1
      ],
      "factor": 0,
      "pairing_mod_h": 0,
      "root": [
        -1,
        0,
        0,
        0,
        0,
        0,
        1,
        0
      ],
      "simple_coords": [
        0,
        1,
        1,
        2,
        2,
        2,
        2,
        1
      ]
    },
    "factors": [
      {
        "regular": false,
        "value": 0
      }
    ],
    "regular": false,
    "value": 0
  },
  "lambda": [
    3,
    0,
    2,
    1,
    0,
    4,
    1,
    5
  ],
  "schema_version": "1",
  "type": "E8"
}
"""

CHAR_A20_REGULAR = """\
{
  "char": {
    "endpoint_is_rho": true,
    "factors": [
      {
        "regular": true,
        "sign_parity": 1,
        "steps": 1825,
        "value": -1
      }
    ],
    "regular": true,
    "sign_parity": 1,
    "value": -1
  },
  "lambda": [
    1,
    22,
    43,
    1,
    64,
    22,
    1,
    1,
    85,
    22,
    43,
    1,
    1,
    22,
    64,
    1,
    22,
    1,
    43,
    22
  ],
  "schema_version": "1",
  "type": "A20"
}
"""

# 256 rows (40,786 bytes): 241 values 0, 11 values 1, 4 values -1
TABLE_E8_SHA256 = "0ebe4d748e0b5d566f0389521202c16ff4c60eefb22d94c643216b24455e2d7e"

# stdout serialized from the report records' own fields
RECORD_STDOUT_SHA256 = {
    "info D4": "5944cd4252c9ec7a9b7583326be30087d297b990d0a2515f7eb113ebe7d1d0d8",
    "info A1xB3": "ec04106df6b1ddb9ca0294617a27d9b696b53689296a4561cd074520de45e1cc",
    "info A1": "4dc41903808c9e0fddb2f32bf253ebcae1d52dd07a74cb8620c964a613f0427e",
    "info B5": "94f460aaaf1dd83e95339651e53af85650f52618d0116d0d6b72864534e5675e",
    "info C4": "a8e612b72253d2655160ff66f21d0deec05f7c1d8a7353ad87a009b1877df40c",
    "info D5": "a362850a45c2750551e9a15ffe090a30c8193eeadec4a279e17e37a165028ff4",
    "info E6": "04a49c86acd577cfba140e3ea383023edd1faa560ebb4664800862798d0391c1",
    "info E7": "04c38db3aef37dfb4e5af598076e0d4409d3213f30de1e1425fe070ab8d60b1c",
    "info E8": "0a23ecc647482a0ca6ffb8b0ff1e3f2ca307b4df19ea3758c3e4b6b8f79f05ec",
    "info F4": "aa42723abfa2d1707327922d73ab657e5457a09a68767be354f63a569d3360a3",
    "info G2": "6dee17d13e53d9328ea3a4d83f9044f611a53f70f9ceed8858e697f7c7799ca8",
    "info A1xE8": "c09fe7359f32f1f05fb61291626bac45038c5f90999c7316da6b1a43902696b9",
    "info A2xG2": "c3884ffe23e9684f6351f413cbe8fff290c0672c43be0dfcbd12320e98c5dbac",
    "torsion B2xG2 7": "55e075913ad7df7119cc03b810209192c8fc8d376ce1a97ad0e264d938e1b66c",
    "torsion A5 6": "1dca02873765a290efe11b29fdd750aaf1e41745409c3b72af36c13a7f7dda0d",
    "check-all": "d010d6875f4871e6815dd72a9ef13697bc2fa3b3c10dd05f66cad97903047c8d",
    "check-all A1xG2 B3": "e6ff4c5801f957c491cba26292c8d9fa2760073e6d0ae78b843af25429539fd7",
}

# product types: a singular second factor, two singular factors, and a
# regular weight whose factors take 2 and 3 steps
CHAR_PRODUCT_SHA256 = {
    "char A2xG2 1 1 1 1": "cda214a79f231d105c271456d1fb5d37a459bd7edce9ef136bed6ceef83b4a0c",
    "char A1xA1 1 1": "aed70544724c04a4b275bfa9bbc77f346d50cccb3b73e0adf2e05d386e1bebcc",
    "char A2xG2 0 3 0 2": "1cddbd1855d5294a91eafbc48587dc9c1c1e9528c8dbbed687a03c4e41191033",
}

CHAR_CASES = [
    (["char", "E8", "3", "0", "2", "1", "0", "4", "1", "5"], CHAR_E8_SINGULAR),
    (["char", "A20", *"1 22 43 1 64 22 1 1 85 22 43 1 1 22 64 1 22 1 43 22".split()],
     CHAR_A20_REGULAR),
]


def assert_in_schema_branch(out, branch):
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads(SCHEMA_PATH.read_text())
    only_branch = {**schema, "oneOf": [{"$ref": f"#/$defs/{branch}"}]}
    jsonschema.Draft202012Validator(only_branch).validate(json.loads(out))


@pytest.mark.parametrize("argv, expected", CHAR_CASES, ids=["E8 singular", "A20 regular"])
def test_char_stdout_is_pinned(capsys, argv, expected):
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_OK
    assert out == expected
    assert_in_schema_branch(out, "char")


def test_table_e8_stdout_is_pinned(capsys):
    code, out, _ = run(capsys, "table", "E8", "--max-coord", "1")
    assert code == EXIT_OK
    assert len(out) == 40_786
    assert hashlib.sha256(out.encode()).hexdigest() == TABLE_E8_SHA256
    assert_in_schema_branch(out, "table")


@pytest.mark.parametrize("command", list(RECORD_STDOUT_SHA256))
def test_record_stdout_is_pinned(capsys, command):
    code, out, _ = run(capsys, *command.split())
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == RECORD_STDOUT_SHA256[command]


@pytest.mark.parametrize("command", list(CHAR_PRODUCT_SHA256))
def test_product_char_stdout_is_pinned(capsys, command):
    code, out, _ = run(capsys, *command.split())
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == CHAR_PRODUCT_SHA256[command]
    assert_in_schema_branch(out, "char")
