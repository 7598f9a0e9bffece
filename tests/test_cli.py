"""Command-line driver: record emission, manifests, probes, exit codes."""

import csv
import json

import pytest

from holgal import all_subgroups, make_context
from holgal.cli import main
from holgal.criteria import RECORD_COLUMNS


def run(argv):
    return main([str(a) for a in argv])


class TestClassify:
    def test_writes_agreeing_records(self, tmp_path, capsys):
        out = tmp_path / "records.jsonl"
        assert run(["classify", 2, 2, "--out", out]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 7
        records = [json.loads(line) for line in lines]
        assert all(tuple(r.keys()) == RECORD_COLUMNS for r in records)
        assert all(r["agree"] is True for r in records)
        summary = capsys.readouterr().out
        assert "pairs=7" in summary and "disagreements=0" in summary

    def test_contains_central_translation_admit(self, tmp_path):
        out = tmp_path / "records.jsonl"
        run(["classify", 2, 2, "--out", out])
        records = [json.loads(line) for line in out.read_text().splitlines()]
        wanted = [
            r for r in records
            if r["g_order"] == 8 and r["h_order"] == 2 and r["h_cap_n"] == 2
        ]
        assert wanted and all(r["case"] == "ADMITS" for r in wanted)

    def test_odd_non_admits_pairs_not_conjugate_to_stabilizer(self, tmp_path):
        out = tmp_path / "records.jsonl"
        assert run(["classify", 3, 2, "--out", out]) == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        for r in records:
            if r["case"] != "ADMITS":
                assert r["case"] == "ODD_NOT_CONJUGATE"
                assert r["h_conj_stab"] is False

    def test_csv_mirror(self, tmp_path):
        out = tmp_path / "records.csv"
        assert run(["classify", 2, 2, "--format", "csv", "--out", out]) == 0
        with open(out) as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == list(RECORD_COLUMNS)
        assert len(rows) == 8
        assert all(row[-1] == "true" for row in rows[1:])

    def test_criteria_only_skips_oracle(self, tmp_path, capsys):
        out = tmp_path / "records.jsonl"
        assert run(["classify", 2, 2, "--criteria-only", "--out", out]) == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert all(r["oracle"] is None and r["agree"] is None for r in records)
        assert "disagreements" not in capsys.readouterr().out

    def test_manifest_sidecar(self, tmp_path):
        out = tmp_path / "records.jsonl"
        run(["classify", 2, 2, "--out", out])
        manifest = json.loads((tmp_path / "records.jsonl.manifest.json").read_text())
        assert manifest["schema"] == "v1"
        assert manifest["hol_order"] == 8
        assert len(manifest["subgroups"]) == 10
        assert manifest["transitive_indices"] == [7, 8, 9]
        records = [json.loads(line) for line in out.read_text().splitlines()]
        for record in records:
            entry = manifest["subgroups"][record["g_index"]]
            assert entry["order"] == record["g_order"]

    def test_capacity_exceeded_exits_2(self, capsys):
        assert run(["classify", 2, 6]) == 2
        assert "exceeds the enumeration bound" in capsys.readouterr().err

    def test_unwritable_output_exits_3(self, tmp_path, capsys):
        assert run(["classify", 2, 2, "--out", tmp_path / "missing" / "x.jsonl"]) == 3

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_jobs_below_one_exits_2(self, jobs, tmp_path, capsys):
        out = tmp_path / "records.jsonl"
        assert run(["classify", 2, 2, "--jobs", jobs, "--out", out]) == 2
        assert "--jobs must be at least 1" in capsys.readouterr().err
        assert not out.exists()



# the pair arguments probe needs; at (2, 3) they name a valid pair
COMMAND_ARGS = {
    "classify": [],
    "verify": [],
    "probe": ["--G", "[1,1];[0,3]", "--H", "[4,1]"],
}


@pytest.mark.parametrize("command", sorted(COMMAND_ARGS))
class TestBound:
    def test_default_bound_exits_before_output(self, command, monkeypatch, tmp_path, capsys):
        monkeypatch.chdir(tmp_path)
        assert run([command, 2, 6, *COMMAND_ARGS[command]]) == 2
        captured = capsys.readouterr()
        assert "bound 512" in captured.err and "--max-order" in captured.err
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_flag_bound_is_inclusive(self, command, monkeypatch, tmp_path, capsys):
        monkeypatch.chdir(tmp_path)
        # |Hol(C_8)| = 32
        assert run([command, 2, 3, *COMMAND_ARGS[command], "--max-order", 16]) == 2
        assert "bound 16" in capsys.readouterr().err
        assert run([command, 2, 3, *COMMAND_ARGS[command], "--max-order", 32]) == 0


def test_bound_does_not_outlive_the_command(tmp_path):
    assert run(["classify", 2, 2, "--max-order", 8, "--out", tmp_path / "r.jsonl"]) == 0
    assert len(all_subgroups(make_context(2, 3))) > 0


class TestDeterminism:
    def test_repeat_runs_are_byte_identical(self, tmp_path):
        first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert run(["classify", 2, 2, "--out", first]) == 0
        assert run(["classify", 2, 2, "--out", second]) == 0
        assert first.read_bytes() == second.read_bytes()
        assert (tmp_path / "a.jsonl.manifest.json").read_bytes() == (
            tmp_path / "b.jsonl.manifest.json"
        ).read_bytes()


class TestVerify:
    def test_verify_e2_passes_with_catalog_flag(self, capsys):
        assert run(["verify", 2, 2]) == 0
        out = capsys.readouterr().out
        assert "PASS power formula" in out
        assert "INFO regular isomorphism classes" in out
        assert "flagged" in out

    def test_verify_odd(self, capsys):
        assert run(["verify", 3, 2]) == 0
        out = capsys.readouterr().out
        assert "PASS Hall conjugacy transfer" in out
        assert "PASS odd criteria match the oracle" in out

    def test_verify_capacity(self, capsys):
        assert run(["verify", 2, 6]) == 2


class TestProbe:
    def test_outer_automorphism_pair_admits(self, capsys):
        assert run(["probe", 2, 2, "--G", "[1,1];[0,3]", "--H", "[1,3]"]) == 0
        out = capsys.readouterr().out
        assert "case = ADMITS" in out
        assert "witness: transitive subgroup index" in out
        assert "isomorphism" in out

    def test_normal_central_pair_admits_at_e3(self, capsys):
        # G contains the order-8 translation and H = <(4, 1)> is central of
        # translation meet 2, so the pair embeds.
        assert run(["probe", 2, 3, "--G", "[1,1];[0,3]", "--H", "[4,1]"]) == 0
        out = capsys.readouterr().out
        assert "case = ADMITS" in out
        assert "oracle = True" in out

    def test_rejected_witness_prints_fired_case(self, capsys):
        assert run(["probe", 2, 3, "--G", "[1,1];[0,3];[0,5]", "--H", "[2,1]"]) == 0
        out = capsys.readouterr().out
        assert "case = CASE_I" in out
        assert "fired case: CASE_I" in out

    def test_h_not_inside_g_exits_2(self, capsys):
        assert run(["probe", 2, 2, "--G", "[1,3]", "--H", "[1,1]"]) == 2
        assert "not contained" in capsys.readouterr().err

    def test_intransitive_g_exits_2(self, capsys):
        # <(1, 3)> has the orbits {0, 1} and {2, 3}; H is trivial, so H <= G
        assert run(["probe", 2, 2, "--G", "[1,3]", "--H", "[0,1]"]) == 2
        assert "transitive" in capsys.readouterr().err

    def test_wrong_index_exits_2(self, capsys):
        assert run(["probe", 2, 2, "--G", "[1,1];[0,3]", "--H", "[0,3];[2,1]"]) == 2
        assert "index" in capsys.readouterr().err

    def test_bad_generator_syntax_exits_2(self, capsys):
        assert run(["probe", 2, 2, "--G", "oops", "--H", "[1,1]"]) == 2
