import json
import logging
import os
import subprocess
import sys

import pytest

from covrough import (
    Universe,
    analyze,
    cov,
    covering_from_json,
    covering_to_dict,
    make_covering,
    read_covering,
    reduct,
    report_to_dict,
)
from covrough.cli import run


@pytest.fixture
def write_file(tmp_path):
    def _write(c, name="covering.json"):
        path = tmp_path / name
        path.write_text(json.dumps(covering_to_dict(c)))
        return str(path)

    return _write


def run_ok(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return captured.out


class TestCovCommand:
    def test_output_is_the_neighborhoods_file(self, capsys, write_file, overlapping_pair):
        out = run_ok(capsys, ["cov", write_file(overlapping_pair)])
        assert covering_from_json(out) == cov(overlapping_pair)

    def test_fixed_point_echoes_input(self, capsys, write_file, fixed_non_partition):
        out = run_ok(capsys, ["cov", write_file(fixed_non_partition)])
        assert covering_from_json(out) == fixed_non_partition


class TestReduceCommand:
    def test_removes_reducible_blocks(self, capsys, write_file, redundant_union, singletons3):
        out = run_ok(capsys, ["reduce", write_file(redundant_union)])
        assert covering_from_json(out) == singletons3
        assert covering_from_json(out) == reduct(redundant_union)


class TestAnalyzeCommand:
    def test_classification_line(self, capsys, write_file, fixed_non_partition):
        out = run_ok(capsys, ["analyze", write_file(fixed_non_partition)])
        assert "partition: no" in out
        assert "invariable: yes" in out
        assert "Cov(C)=C: yes" in out

    def test_runs_are_byte_identical(self, capsys, write_file, nested_with_tail):
        path = write_file(nested_with_tail)
        first = run_ok(capsys, ["analyze", path, "--lambda"])
        second = run_ok(capsys, ["analyze", path, "--lambda"])
        assert first == second

    def test_json_matches_text_verdicts(self, capsys, write_file, fixed_non_partition):
        path = write_file(fixed_non_partition)
        text = run_ok(capsys, ["analyze", path])
        data = json.loads(run_ok(capsys, ["analyze", path, "--json"]))
        cls = data["classification"]
        assert ("partition: yes" in text) == cls["partition"]
        assert ("invariable: yes" in text) == cls["invariable"]
        assert ("Cov(C)=C: yes" in text) == cls["cov_fixed_point"]
        assert data["cov_equals_covering"] is True

    def test_lambda_flag_controls_matrix(self, capsys, write_file, chain_of_overlaps):
        path = write_file(chain_of_overlaps)
        bare = json.loads(run_ok(capsys, ["analyze", path, "--json"]))
        assert bare["lambda"] is None
        full = json.loads(run_ok(capsys, ["analyze", path, "--json", "--lambda"]))
        assert full["lambda"]["matrix"][2][3] == 2

    def test_json_round_trips_covering(self, capsys, write_file, nested_with_tail):
        data = json.loads(run_ok(capsys, ["analyze", write_file(nested_with_tail), "--json"]))
        assert covering_from_json(json.dumps(data["covering"])) == nested_with_tail

    def test_json_is_json_dumps_with_indent_2(self, capsys, write_file):
        # Labels that need escapes: a quote, a backslash, non-ASCII, a
        # character outside the basic plane.
        u = Universe(('a"', "b\\", "\xe9", "\U0001f600", "e"))
        c = make_covering(
            u, [['a"', "b\\"], ["b\\", "\xe9"], ["\xe9"], ["\U0001f600", "e"], ["e"]]
        )
        path = write_file(c)
        out = run_ok(capsys, ["analyze", "--lambda", "--json", path])
        r = analyze(read_covering(path), include_lambda=True)
        assert out == json.dumps(report_to_dict(r), indent=2) + "\n"


class TestCheckNeighborhoodsCommand:
    def test_fixed_point(self, capsys, write_file, fixed_non_partition):
        assert "IS a neighborhoods" in run_ok(
            capsys, ["check-neighborhoods", write_file(fixed_non_partition)]
        )

    def test_not_fixed_point(self, capsys, write_file, overlapping_pair):
        out = run_ok(capsys, ["check-neighborhoods", write_file(overlapping_pair)])
        assert "is NOT a neighborhoods" in out

    def test_quick_reject_reason_shown(self, capsys, write_file, redundant_union):
        out = run_ok(capsys, ["check-neighborhoods", write_file(redundant_union)])
        assert "is NOT a neighborhoods" in out
        assert "more blocks than universe elements" in out


class TestPreimagesCommand:
    def test_lists_one_covering_per_line(self, capsys, write_file, singletons3):
        out = run_ok(capsys, ["preimages", write_file(singletons3)])
        lines = out.splitlines()
        assert len(lines) == 36
        parsed = [covering_from_json(line) for line in lines]
        assert singletons3 in parsed

    def test_limit(self, capsys, write_file, singletons3):
        out = run_ok(capsys, ["preimages", write_file(singletons3), "--limit", "4"])
        assert len(out.splitlines()) == 4

    def test_limit_zero_prints_nothing(self, capsys, write_file, singletons3):
        assert run_ok(capsys, ["preimages", write_file(singletons3), "--limit", "0"]) == ""

    def test_negative_limit_is_usage_error(self, capsys, write_file, singletons3):
        assert run(["preimages", write_file(singletons3), "--limit", "-1"]) == 2
        assert "--limit" in capsys.readouterr().err

    def test_non_int_limit_is_usage_error(self, capsys, write_file, singletons3):
        assert run(["preimages", write_file(singletons3), "--limit", "abc"]) == 2
        assert "invalid int value: 'abc'" in capsys.readouterr().err

    def test_empty_for_non_fixed_point(self, capsys, write_file, overlapping_pair):
        assert run_ok(capsys, ["preimages", write_file(overlapping_pair)]) == ""


class TestVerifyCommand:
    def test_json_summary(self, capsys):
        data = json.loads(run_ok(capsys, ["verify", "--n", "3", "--json"]))
        assert data == {
            "n": 3,
            "total": 109,
            "partitions": 5,
            "irreducible": 45,
            "invariable": 29,
            "fixed_points": 29,
            "violations": [],
        }

    def test_human_summary(self, capsys):
        out = run_ok(capsys, ["verify", "--n", "1"])
        assert "coverings checked:  1" in out
        assert "violations:         0" in out

    def test_n_five_runs(self, capsys, five_shard):
        data = json.loads(run_ok(capsys, ["verify", "--n", "5", "--json"]))
        assert data["n"] == 5
        assert data["total"] == five_shard
        assert data["violations"] == []

    @pytest.mark.parametrize("n", ["0", "-2"])
    def test_n_below_one_is_usage_error(self, capsys, n):
        assert run(["verify", "--n", n]) == 2
        assert "--n" in capsys.readouterr().err

    def test_n_above_five_is_refused(self, capsys):
        assert run(["verify", "--n", "6"]) == 1
        assert "capped at 5" in capsys.readouterr().err

    def test_progress_goes_to_stderr_once_per_record(self, capsys, monkeypatch):
        from covrough import oracle

        assert run(["verify", "--n", "4"]) == 0
        quiet = capsys.readouterr()
        assert quiet.err == ""
        # with no interval, n=4 logs one record, at 1024 of 1952 orbits,
        # and the closing one; repeated runs in one process must not stack
        # up handlers
        monkeypatch.setattr(oracle, "_PROGRESS_INTERVAL_S", 0.0)
        for _ in range(3):
            assert run(["verify", "--n", "4"]) == 0
            captured = capsys.readouterr()
            assert captured.out == quiet.out
            progress, end = captured.err.splitlines()
            assert progress.startswith("verify n=4: 1024/1952 orbits, ")
            assert end.startswith("verify n=4: 1952 orbits done, ")
            assert captured.err.count("\n") == 2
        log = logging.getLogger("covrough.oracle")
        assert log.handlers == []
        assert log.level == logging.NOTSET

    def test_interrupt_ends_with_one_line(self):
        # a KeyboardInterrupt raised while checking the 101st n=4
        # representative, as Ctrl-C would raise it: exit 130, nothing on
        # stdout, and one stderr line saying how far the run got
        script = "\n".join(
            [
                "import sys",
                "from covrough import cli, oracle",
                "check = oracle._check_covering",
                "calls = []",
                "def interrupted(*args):",
                "    if len(calls) == 100:",
                "        raise KeyboardInterrupt",
                "    calls.append(args)",
                "    return check(*args)",
                "oracle._check_covering = interrupted",
                "sys.argv = ['covrough', 'verify', '--n', '4']",
                "cli.main()",
            ]
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 130
        assert proc.stdout == ""
        assert proc.stderr == "verify n=4: interrupted after 100 of 1952 orbits\n"
        assert "Traceback" not in proc.stderr

    def test_exit_one_when_laws_fail(self, capsys, monkeypatch):
        from covrough import _laws

        monkeypatch.setattr(
            _laws, "_reducible_flags", lambda masks, unions=None: [False] * len(masks)
        )
        assert run(["verify", "--n", "2"]) == 1
        out = capsys.readouterr().out
        assert "invariable-iff-fixed-point" in out


class TestErrorHandling:
    def test_missing_file(self, capsys):
        assert run(["cov", "/no/such/file.json"]) == 1
        assert "file not found" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name", ["x" * 300, "."], ids=["name-too-long", "directory"]
    )
    def test_unreadable_path(self, capsys, tmp_path, name):
        assert run(["cov", str(tmp_path / name)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read ")
        assert len(err.splitlines()) == 1

    def test_byte_order_mark_is_skipped(self, capsys, tmp_path, fixed_non_partition):
        # Notepad and PowerShell's Out-File start UTF-8 files with a BOM.
        path = tmp_path / "bom.json"
        text = json.dumps(covering_to_dict(fixed_non_partition))
        path.write_bytes(b"\xef\xbb\xbf" + text.encode())
        out = run_ok(capsys, ["cov", str(path)])
        assert covering_from_json(out) == fixed_non_partition

    def test_non_utf8_file_is_named(self, capsys, tmp_path, fixed_non_partition):
        # a UTF-16 file, as PowerShell 5's Out-File writes it, starts ff fe
        path = tmp_path / "utf16.json"
        text = json.dumps(covering_to_dict(fixed_non_partition))
        path.write_bytes(text.encode("utf-16"))
        assert run(["cov", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read {path}: not UTF-8 text (")
        assert "0xff in position 0" in err
        assert len(err.splitlines()) == 1

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert run(["cov", str(path)]) == 1
        assert "malformed JSON" in capsys.readouterr().err

    def test_validation_error_names_block(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"universe": ["1", "2"], "blocks": [["1"], ["7"]]}')
        assert run(["cov", str(path)]) == 1
        err = capsys.readouterr().err
        assert "#1" in err and "'7'" in err

    def test_repeated_label_is_named(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"universe": ["a", "b", "a"], "blocks": [["a", "b"]]}')
        assert run(["cov", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [
            "error: element labels must be pairwise distinct; 'a' repeats"
        ]

    def test_non_string_universe_entry_is_named(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"universe": ["a", 2], "blocks": [["a"]]}')
        assert run(["cov", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [
            'error: "universe" must be a list of strings; entry #1 is int'
        ]

    def test_non_string_block_entry_is_named(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"universe": ["a", "b"], "blocks": [["a"], ["b", 2]]}')
        assert run(["cov", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [
            "error: block #1 must be a list of strings; entry #1 is int"
        ]

    def test_not_a_cover_reported(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"universe": ["1", "2"], "blocks": [["1"]]}')
        assert run(["cov", str(path)]) == 1
        assert "misses element" in capsys.readouterr().err

    def test_sparse_file_names_ten_missing_elements(self, capsys, tmp_path):
        # 100000 labels and one block: a single error line that names the
        # first 10 missing labels and counts the rest
        names = [f"e{i}" for i in range(100_000)]
        path = tmp_path / "sparse.json"
        path.write_text(json.dumps({"universe": names, "blocks": [["e0"]]}))
        assert run(["cov", str(path)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: union of blocks misses element(s): "
            + ", ".join(names[1:11]) + " and 99989 more"
        ]

    def test_deeply_nested_json(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        depth = 100_000
        path.write_text('{"universe": ' + "[" * depth + "]" * depth + "}")
        assert run(["cov", str(path)]) == 1
        assert "nested too deeply" in capsys.readouterr().err

    def test_usage_error(self, capsys):
        assert run(["frobnicate"]) == 2
        assert run([]) == 2
        capsys.readouterr()


class TestParserReuse:
    """One parser serves every call in a process; no option of one call may
    leak into the next."""

    def test_options_do_not_leak_between_calls(self, capsys, write_file, singletons3):
        path = write_file(singletons3)
        assert len(run_ok(capsys, ["preimages", path, "--limit", "1"]).splitlines()) == 1
        data = json.loads(run_ok(capsys, ["analyze", path, "--lambda", "--json"]))
        assert data["lambda"] is not None
        assert run_ok(capsys, ["verify", "--n", "2"]).startswith("universe size:")
        assert json.loads(run_ok(capsys, ["analyze", path, "--json"]))["lambda"] is None
        assert len(run_ok(capsys, ["preimages", path]).splitlines()) == 36
        assert not run_ok(capsys, ["analyze", path]).startswith("{")


class TestEntryPoint:
    def test_closed_stdout_ends_quietly(self, tmp_path, u4):
        # 19020 preimages, far more than a pipe buffers: the command is
        # still writing when the reader goes away
        discrete = make_covering(u4, [["1"], ["2"], ["3"], ["4"]])
        path = tmp_path / "discrete.json"
        path.write_text(json.dumps(covering_to_dict(discrete)))
        proc = subprocess.Popen(
            [sys.executable, "-m", "covrough", "preimages", str(path)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert covering_from_json(first) == discrete
        assert err == ""

    def test_module_invocation(self, tmp_path, fixed_non_partition):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(covering_to_dict(fixed_non_partition)))
        proc = subprocess.run(
            [sys.executable, "-m", "covrough", "check-neighborhoods", str(path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "IS a neighborhoods" in proc.stdout

    @pytest.mark.parametrize("label, encoding", [("\xe9", "ascii"), ("x\ud800", "utf-8")])
    def test_unencodable_label_is_named(self, tmp_path, label, encoding):
        c = make_covering(Universe(("a", label)), [["a"], ["a", label]])
        path = tmp_path / "c.json"
        path.write_text(json.dumps(covering_to_dict(c)))
        env = {**os.environ, "PYTHONIOENCODING": encoding}
        argv = [sys.executable, "-m", "covrough", "analyze", str(path)]
        proc = subprocess.run(argv, capture_output=True, text=True, env=env)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == (
            f"error: cannot write label {ascii(label)} in the output encoding "
            f"{encoding}; use --json, which writes ASCII only\n"
        )
        proc = subprocess.run([*argv, "--json"], capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["covering"] == covering_to_dict(c)
