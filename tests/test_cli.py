import json
import os
import subprocess
import sys
from pathlib import Path

from jacrel.relations import family_from_json, family_to_json

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(*args: str) -> subprocess.CompletedProcess:
    # the package may be importable only through pytest's pythonpath setting,
    # which a child interpreter does not inherit
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-m", "jacrel.cli", *args],
                          capture_output=True, text=True, timeout=300,
                          env=dict(os.environ, PYTHONPATH=path))


class TestExitCodes:
    def test_identities_pass(self):
        result = run_cli("identities", "--max-n", "5", "--order", "8")
        assert result.returncode == 0
        assert "overall: pass" in result.stdout

    def test_identities_usage_error(self):
        result = run_cli("identities", "--max-n", "0")
        assert result.returncode == 2

    def test_relations_invalid_params(self):
        result = run_cli("relations", "--g", "0", "--d", "3", "--r", "1",
                         "--family", "vdgk6")
        assert result.returncode == 2

    def test_theorem1_requires_n(self):
        result = run_cli("relations", "--g", "4", "--d", "5", "--r", "2",
                         "--family", "theorem1")
        assert result.returncode == 2

    def test_grr_m_below_d(self):
        result = run_cli("grr", "--g", "3", "--d", "4", "--r", "1", "--M", "3")
        assert result.returncode == 2

    def test_empty_family_still_succeeds(self):
        result = run_cli("relations", "--g", "1", "--d", "2", "--r", "1",
                         "--family", "herbaut7")
        assert result.returncode == 0


class TestRelationOutput:
    def test_theorem1_element_text(self):
        result = run_cli("relations", "--g", "4", "--d", "5", "--r", "2",
                         "--family", "theorem1", "--N", "2")
        assert result.returncode == 0
        assert "12*C(0)*C(2) + 4*C(1)^2" in result.stdout

    def test_vdgk6_small_case(self):
        result = run_cli("relations", "--g", "3", "--d", "3", "--r", "1",
                         "--family", "vdgk6")
        assert result.returncode == 0
        assert "6*C(2)" in result.stdout

    def test_json_schema(self):
        result = run_cli("relations", "--g", "4", "--d", "5", "--r", "2",
                         "--family", "vdgk6", "--format", "json")
        payload = json.loads(result.stdout)
        assert payload["family"] == "vdgk6"
        assert (payload["g"], payload["d"], payload["r"]) == (4, 5, 2)
        for item in payload["items"]:
            assert set(item) >= {"s", "t_exp", "element"}
            for term in item["element"]:
                assert isinstance(term["monomial"], list)
                assert isinstance(term["coeff"], str)

    def test_json_round_trips_byte_identically(self):
        result = run_cli("relations", "--g", "4", "--d", "6", "--r", "2",
                         "--family", "strong8", "--format", "json")
        text = result.stdout.strip()
        assert family_to_json(family_from_json(text)) == text

    def test_output_deterministic(self):
        args = ("relations", "--g", "5", "--d", "6", "--r", "2",
                "--family", "strong8", "--format", "json")
        assert run_cli(*args).stdout == run_cli(*args).stdout

    def test_all_commands_byte_identical_across_runs(self):
        for args in (("identities", "--max-n", "4", "--order", "6",
                      "--format", "json"),
                     ("equivalence", "--g", "3", "--d", "4", "--r", "2",
                      "--format", "json"),
                     ("grr", "--g", "3", "--d", "4", "--r", "2", "--M", "4",
                      "--format", "json")):
            first, second = run_cli(*args), run_cli(*args)
            assert first.returncode == second.returncode == 0, args
            assert first.stdout == second.stdout, args

    def test_out_file(self, tmp_path):
        target = tmp_path / "family.json"
        result = run_cli("relations", "--g", "3", "--d", "3", "--r", "1",
                         "--family", "vdgk6", "--format", "json",
                         "--out", str(target))
        assert result.returncode == 0
        stored = target.read_text().strip()
        assert json.loads(stored)["family"] == "vdgk6"

    def test_unwritable_out_path_is_a_usage_error(self, tmp_path):
        target = tmp_path / "missing" / "family.json"
        result = run_cli("relations", "--g", "3", "--d", "3", "--r", "1",
                         "--family", "vdgk6", "--out", str(target))
        assert result.returncode == 2
        assert result.stderr.startswith("error:")
        assert len(result.stderr.splitlines()) == 1
        assert not target.exists()


class TestEquivalenceCommand:
    def test_small_equivalence(self):
        result = run_cli("equivalence", "--g", "4", "--d", "5", "--r", "2")
        assert result.returncode == 0
        assert "overall: equivalent" in result.stdout

    def test_json_report(self):
        result = run_cli("equivalence", "--g", "3", "--d", "4", "--r", "2",
                         "--format", "json")
        payload = json.loads(result.stdout)
        assert payload["ideal_equal"] is True
        assert payload["chain"]["identity9_ok"] is True
        assert payload["chain"]["scalar_ok"] is True

    def test_degenerate_case(self):
        result = run_cli("equivalence", "--g", "1", "--d", "2", "--r", "1")
        assert result.returncode == 0

    def test_x_order_below_one_is_a_usage_error(self):
        result = run_cli("equivalence", "--g", "3", "--d", "4", "--r", "2",
                         "--x-order", "0")
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr.startswith("error: x_order must be >= 1")

    def test_t_order_below_top_degree_is_inconclusive(self):
        result = run_cli("equivalence", "--g", "3", "--d", "5", "--r", "2",
                         "--t-order", "3")
        assert result.returncode == 3
        assert result.stdout == ""


class TestGrrCommand:
    def test_worked_example(self):
        result = run_cli("grr", "--g", "4", "--d", "5", "--r", "2", "--M", "5")
        assert result.returncode == 0
        assert "12*C(0)*C(2) + 4*C(1)^2" in result.stdout
        assert "overall: pass" in result.stdout

    def test_r1_beyond_genus_is_vacuous(self):
        # d-1 = 3 exceeds the largest generator weight, so the relation is 0
        result = run_cli("grr", "--g", "3", "--d", "4", "--r", "1", "--M", "4",
                         "--format", "json")
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert payload["gamma_top_matches_reference"] is True
        assert payload["derived_relation"] == []

    def test_r1_single_generator_vanishing(self):
        result = run_cli("grr", "--g", "4", "--d", "4", "--r", "1", "--M", "4",
                         "--format", "json")
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert payload["derived_relation"] == [{"monomial": [3], "coeff": "24"}]
