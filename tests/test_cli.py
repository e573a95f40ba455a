import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from jacrel import relations
from jacrel.cli import build_parser, main
from jacrel.relations import family_from_json, family_to_json
from jacrel.rings import TruncationError

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")


def run_cli(*args: str) -> subprocess.CompletedProcess:
    # the package may be importable only through pytest's pythonpath setting,
    # which a child interpreter does not inherit
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-m", "jacrel.cli", *args],
                          capture_output=True, text=True, timeout=300,
                          env=dict(os.environ, PYTHONPATH=path))


def test_golden_commands_print_their_recorded_bytes(capsys):
    # the benchmark's command mix with its recorded exit codes and stdout
    # SHA-256s, run in process so that a change in output bytes fails here
    for case in json.loads((ROOT / "perfbench" / "golden.json").read_text()):
        code = main(case["argv"])
        out = capsys.readouterr().out
        assert code == case["exit"], case["argv"]
        assert hashlib.sha256(out.encode()).hexdigest() == case["sha256"], case["argv"]


@pytest.mark.parametrize("argv, digest", [
    (("equivalence", "--g", "3", "--d", "1", "--r", "2"),
     "b45506fc2a31ca5179307e4606aad2ecdb4e32b27db6d85f50f71d3ab238bbf9"),
    (("equivalence", "--g", "5", "--d", "2", "--r", "3"),
     "f46333b4d9508bafbe42c0b15b3e14460375e262529e1679a383efffb6e3e453"),
    (("equivalence", "--g", "5", "--d", "2", "--r", "3", "--format", "json"),
     "ff287a6493749a8e0dc8bab497042ed775889de4728dcdff91bc91bd356272fe"),
])
def test_d_r_minus_one_equivalence_prints_its_recorded_bytes(argv, digest, capsys):
    # d = r-1, where herbaut7 is empty (its row at s is the u^(s-1)
    # coefficient of Q_m/(1+u), of u-valuation s), so its ideal differs from
    # strong8's wherever that is not zero, and those cells are reduced from
    # herbaut7's own rows; the command exits 1 and prints the bytes recorded
    # before the joint cells
    assert main(list(argv)) == 1
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv, digest", [
    (("identities", "--max-n", "6", "--order", "8", "--format", "json"),  # has expansion_n5
     "6d5d0e4e3d84dd8ba282a5e747efe20573f64f0a93954ab7cced0fb102a481bd"),
    (("grr", "--g", "4", "--d", "5", "--r", "2", "--M", "5", "--format", "json"),
     "a702c715b106e057758ebb9c33845677f4e6be8ad92cf2bb4d083fa2a49fb095"),
    (("equivalence", "--g", "4", "--d", "5", "--r", "2", "--format", "json"),
     "577dbf78784f90c429b8c4f679ace380fa45c9e19c3fd564544a0fc8ed27aa39"),
    (("relations", "--g", "1", "--d", "2", "--r", "1", "--family", "herbaut7"),
     "a7081d7abf6bea15167b9ba44375626db4e851af1dddf386b6891bd45be0ea37"),
    (("relations", "--g", "1", "--d", "2", "--r", "1", "--family", "herbaut7",
      "--format", "json"),
     "afe490e8b2d6204bb2a4cab1e9579e6558501f23a4fb0fe51fd25e206bbbce17"),
])
def test_json_reports_and_the_empty_family_print_their_recorded_bytes(argv, digest, capsys):
    # the output paths that the golden mix does not pin: the JSON form of
    # identities, grr and equivalence, and an empty family in both formats
    assert main(list(argv)) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


ONE_PER_COMMAND = [
    ("identities", "--max-n", "5", "--order", "4"),
    ("relations", "--g", "4", "--d", "5", "--r", "2", "--family", "vdgk6"),
    ("equivalence", "--g", "3", "--d", "4", "--r", "2"),
    ("grr", "--g", "4", "--d", "5", "--r", "2", "--M", "5"),
]


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("argv", ONE_PER_COMMAND)
def test_out_writes_the_bytes_that_stdout_prints(argv, fmt, tmp_path, capsys):
    argv = [*argv, "--format", fmt]
    assert main(argv) == 0
    printed = capsys.readouterr().out
    target = tmp_path / "report"
    assert main([*argv, "--out", str(target)]) == 0
    assert capsys.readouterr() == ("", "")
    assert target.read_bytes() == printed.encode()


def test_a_text_request_serializes_no_json(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("a text report serialized JSON")

    monkeypatch.setattr(json, "dumps", refuse)
    monkeypatch.setattr(relations, "family_to_json", refuse)
    for argv in ONE_PER_COMMAND:
        assert main(list(argv)) == 0, argv
        assert not capsys.readouterr().out.startswith("{"), argv


def test_each_subcommand_declares_its_options_in_order():
    # (flags, dest, type, required, default, choices) of every option but -h
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    report = [("--format", "format", None, False, "text", ("json", "text")),
              ("--out", "out", None, False, None, None)]
    gdr = [(f"--{x}", x, int, True, None, None) for x in "gdr"]
    expected = {
        "identities": [("--max-n", "max_n", int, False, 12, None),
                       ("--order", "order", int, False, 10, None)] + report,
        "relations": gdr + [("--family", "family", None, True, None,
                             ("theorem1", "vdgk6", "herbaut7", "strong8")),
                            ("--N", "N", int, False, None, None)] + report,
        "equivalence": gdr + report,
        "grr": gdr + [("--M", "M", int, True, None, None)] + report,
    }
    assert list(sub.choices) == list(expected)
    for name, options in expected.items():
        actions = sub.choices[name]._actions[1:]
        assert [(*a.option_strings, a.dest, a.type, a.required, a.default,
                 None if a.choices is None else tuple(a.choices))
                for a in actions] == options, name


@pytest.mark.parametrize("target", ["/dev/full", "closed pipe"])
def test_a_failed_stdout_write_exits_2_with_one_error_line(target):
    # with stdout block-buffered (PYTHONUNBUFFERED unset) the report stays in
    # the buffer until main flushes it; the failure must map to exit 2, not
    # surface at interpreter shutdown
    if target == "/dev/full" and not os.path.exists(target):
        pytest.skip("no /dev/full")
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    cmd = [sys.executable, "-m", "jacrel.cli", "grr", "--g", "4", "--d", "5", "--r", "2",
           "--M", "5"]
    if target == "/dev/full":
        with open(target, "w") as full:
            proc = subprocess.Popen(cmd, stdout=full, stderr=subprocess.PIPE,
                                    env=dict(env, PYTHONPATH=path))
    else:
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env=dict(env, PYTHONPATH=path))
        proc.stdout.close()  # the reader is gone before the command writes
    err = proc.communicate(timeout=300)[1].decode()
    assert proc.returncode == 2, err
    assert len(err.splitlines()) == 1, err
    assert err.startswith("error: cannot write the report:"), err


@pytest.mark.parametrize("argv, code, message", [
    (("relations", "--g", "0", "--d", "3", "--r", "1", "--family", "vdgk6"), 2,
     "error: g must be >= 1"),
    (("equivalence", "--g", "0", "--d", "3", "--r", "1"), 2, "error: g must be >= 1"),
    (("equivalence", "--g", "3", "--d", "5", "--r", "2"), 3,
     "inconclusive: coefficient at exponent 5 is beyond truncation order 3"),
    (("grr", "--g", "0", "--d", "1", "--r", "1", "--M", "1"), 2,
     "error: g, d, r must all be >= 1"),
    (("grr", "--g", "3", "--d", "4", "--r", "1", "--M", "3"), 2, "error: M must be >= d"),
    (("identities", "--max-n", "0"), 2, "error: --max-n and --order must be >= 1"),
    (("relations", "--g", "4", "--d", "5", "--r", "2", "--family", "vdgk6", "--N", "3"), 2,
     "error: --N applies only to --family theorem1"),
    (("relations", "--g", "4", "--d", "5", "--r", "2", "--family", "theorem1"), 2,
     "error: --family theorem1 requires --N"),
])
def test_library_errors_map_to_one_stderr_line_and_exit_code(argv, code, message,
                                                             monkeypatch, capsys):
    # every command leaves its own usage errors, ValueError and
    # TruncationError to main()'s mapping; no valid input leaves the chain
    # short of coefficients, so a stub chain raises the TruncationError
    def short_chain(*args):
        raise TruncationError("coefficient at exponent 5 is beyond truncation order 3")

    monkeypatch.setattr(relations, "verify_implication_chain", short_chain)
    assert main(list(argv)) == code
    out, err = capsys.readouterr()
    assert out == ""
    assert err == message + "\n"


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

    def test_n_only_with_theorem1(self):
        result = run_cli("relations", "--g", "4", "--d", "5", "--r", "2",
                         "--family", "vdgk6", "--N", "3")
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == "error: --N applies only to --family theorem1\n"

    def test_identities_report_the_first_b_grid_mismatch(self, monkeypatch, capsys):
        from jacrel import combinat
        real = combinat.b_gen
        bad = {(4, (1,)), (2, (3, 0))}  # (d, r, a) order meets d=2 first
        monkeypatch.setattr(combinat, "b_gen",
                            lambda d, a: real(d, a) + (1 if (d, a) in bad else 0))
        assert main(["identities", "--max-n", "2", "--order", "2"]) == 1
        out = capsys.readouterr().out
        assert ("  FAIL  b_sum_equals_b_gen(grid d<=5, r<=2, a_i<=3)  [d=2, a=(3, 0)]\n"
                in out)
        assert out.endswith("overall: FAIL\n")

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

    def test_failed_chain_is_a_verification_failure(self, monkeypatch, capsys):
        real = relations.verify_implication_chain
        monkeypatch.setattr(relations, "verify_implication_chain",
                            lambda g, d, r: real(g, d, r)._replace(identity9_ok=False))
        assert main(["equivalence", "--g", "3", "--d", "4", "--r", "2"]) == 1
        out = capsys.readouterr().out
        assert "  chain: identity9=False degree_bound=True scalars=True\n" in out
        assert out.endswith("overall: ideals equal, chain NOT certified\n")

    def test_json_carries_the_verdicts(self, monkeypatch, capsys):
        argv = ["equivalence", "--g", "3", "--d", "4", "--r", "2", "--format", "json"]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["chain"]["ok"] is True
        assert payload["overall"] == "equivalent"
        real = relations.verify_implication_chain
        monkeypatch.setattr(relations, "verify_implication_chain",
                            lambda g, d, r: real(g, d, r)._replace(identity9_ok=False))
        assert main(argv) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["chain"]["ok"] is False
        assert payload["overall"] == "ideals equal, chain NOT certified"

    def test_x_order_flag_is_gone(self):
        result = run_cli("equivalence", "--g", "3", "--d", "4", "--r", "2",
                         "--x-order", "8")
        assert result.returncode == 2
        assert result.stdout == ""
        assert "unrecognized arguments: --x-order 8" in result.stderr



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

    def test_d_below_r_minus_one_passes_at_every_m(self):
        # d = 1 < r-1 = 2: N = M-2r+1 reaches 0 at M = 5, where the
        # composition sum stops being zero; the verdict must not change
        for M in ("4", "5", "6"):
            result = run_cli("grr", "--g", "2", "--d", "1", "--r", "3", "--M", M)
            assert result.returncode == 0, (M, result.stderr)
            assert "overall: pass" in result.stdout


    def test_relations_and_grr_agree_below_d_r_minus_one(self, capsys):
        # d < r-1 bounds no family, yet the composition sum is a relation of
        # weight N = M-2r+1 >= 0; both commands take it and print the same one
        for g in (1, 2, 3):
            for r in (2, 3):
                for d in range(1, r - 1):
                    for M in range(2 * r - 1, 2 * r + 2):
                        N = M - 2 * r + 1
                        assert main(["relations", "--g", str(g), "--d", str(d), "--r", str(r),
                                     "--family", "theorem1", "--N", str(N),
                                     "--format", "json"]) == 0, (g, d, r, N)
                        items = json.loads(capsys.readouterr().out)["items"]
                        assert main(["grr", "--g", str(g), "--d", str(d), "--r", str(r),
                                     "--M", str(M), "--format", "json"]) == 0, (g, d, r, M)
                        derived = json.loads(capsys.readouterr().out)["derived_relation"]
                        assert derived == (items[0]["element"] if items else []), (g, d, r, M)

class TestReadmeExamples:
    README = (ROOT / "README.md").read_text()

    @classmethod
    def block(cls, heading, lang):
        """The first ``lang`` code block after the ``heading`` line."""
        after = cls.README.split(f"\n{heading}\n", 1)[1]
        return after.split(f"```{lang}\n", 1)[1].split("```", 1)[0]

    def test_cli_block_runs(self):
        lines = [line.split() for line in self.block("## CLI", "sh").splitlines()]
        assert lines and all(words[0] == "jacrel" for words in lines)
        for words in lines:
            result = run_cli(*words[1:])
            assert result.returncode == 0, (words, result.stderr)

    def test_library_example_prints_its_comments(self):
        code = self.block("## Library example", "python")
        expected = [line.split("# ", 1)[1].strip()
                    for line in code.splitlines() if line.startswith("print(")]
        assert expected == ["True", "12*C(0)*C(2) + 4*C(1)^2"]
        path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                timeout=300, env=dict(os.environ, PYTHONPATH=path))
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines() == expected
