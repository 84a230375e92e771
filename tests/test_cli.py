import json
import math
from pathlib import Path

import numpy as np
import pytest

from subspace_angles import conformal as cf
from subspace_angles.blades import blade_from_spanning_vectors
from subspace_angles import engine, problems
from subspace_angles.cli import (
    EXIT_AMBIGUOUS,
    EXIT_DEGENERATE,
    EXIT_FAILURE,
    EXIT_OK,
    EXIT_PARSE,
    main,
)
from subspace_angles.errors import ProblemFormatError
from subspace_angles.ga import name_from_mask
from subspace_angles.problems import parse_problem
from subspace_angles.sampling import random_problem_document

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"

EXAMPLES = ["perpendicular_planes", "identical_planes", "mixed_dimension"]


class TestGoldenOutputs:
    @pytest.mark.parametrize("name", EXAMPLES)
    def test_json_output_matches_golden(self, name, capsys):
        code = main(["run", str(DATA / f"{name}.json"), "--oracle"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert out == (GOLDEN / f"{name}.json.out").read_text(encoding="utf-8")

    @pytest.mark.parametrize("name", EXAMPLES)
    def test_output_is_deterministic(self, name, capsys):
        main(["run", str(DATA / f"{name}.json"), "--oracle"])
        first = capsys.readouterr().out
        main(["run", str(DATA / f"{name}.json"), "--oracle"])
        second = capsys.readouterr().out
        assert first == second

    @pytest.mark.parametrize("name", EXAMPLES)
    def test_report_round_trips_byte_identical(self, name, capsys):
        main(["run", str(DATA / f"{name}.json"), "--oracle"])
        out = capsys.readouterr().out
        doc = json.loads(out)
        assert json.dumps(doc, sort_keys=True, indent=2) + "\n" == out

    @pytest.mark.parametrize("name", EXAMPLES)
    def test_default_tolerance_flag_matches_golden(self, name, capsys):
        code = main(["run", str(DATA / f"{name}.json"), "--oracle", "--tolerance", "1e-9"])
        assert code == EXIT_OK
        assert capsys.readouterr().out == (GOLDEN / f"{name}.json.out").read_text(encoding="utf-8")


class TestExitCodes:
    def test_malformed_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"n": 3, "A": [[1,0,0]], "B": ')
        assert main(["run", str(bad)]) == EXIT_PARSE
        assert "line" in capsys.readouterr().err

    def test_dimension_mismatch(self, tmp_path, capsys):
        bad = tmp_path / "dim.json"
        bad.write_text('{"n": 3, "A": [[1, 0]], "B": [[0, 1, 0]]}')
        assert main(["run", str(bad)]) == EXIT_PARSE
        assert "A[0]" in capsys.readouterr().err

    def test_degenerate_span(self, tmp_path, capsys):
        bad = tmp_path / "degen.json"
        bad.write_text('{"n": 3, "A": [[1, 0, 0], [2, 0, 0]], "B": [[0, 1, 0]]}')
        assert main(["run", str(bad)]) == EXIT_DEGENERATE
        assert "DegenerateSpanError" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.json")]) == EXIT_PARSE

    def test_empty_span(self, tmp_path):
        bad = tmp_path / "empty.json"
        bad.write_text('{"n": 3, "A": [], "B": [[0, 1, 0]]}')
        assert main(["run", str(bad)]) == EXIT_PARSE

    def test_ambiguous_rank(self, monkeypatch, capsys):
        # a report that breaks its invariants is refused with exit 4
        monkeypatch.setattr(engine, "RESIDUAL_BOUND", -1.0)
        assert main(["run", str(DATA / "perpendicular_planes.json")]) == EXIT_AMBIGUOUS
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "AmbiguousRankError: report breaks its invariants" in captured.err

    def test_other_computation_error(self, tmp_path, capsys):
        # a conformal point has no Euclidean direction part
        point = tmp_path / "point.json"
        point.write_text('{"n": 3, "A": {"e4": -0.5, "e5": 0.5}, "B": {"e4": -0.5, "e5": 0.5}}')
        assert main(["run", str(point), "--mode", "conformal"]) == EXIT_FAILURE
        assert "CarrierError" in capsys.readouterr().err

    def test_file_not_utf8(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe{}")
        assert main(["run", str(bad)]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"{bad}: cannot read: 'utf-8' codec can't decode byte 0xff")
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize("a, message", [
        ("[[1e155, 0, 0]]", "vector 0 overflows"),
        ("[[1e153, 0, 0], [0, 1e153, 0]]", "blade magnitude overflows"),
    ])
    def test_overflowing_span_names_the_overflow(self, tmp_path, capsys, a, message):
        # once exit 4 with a count or residual message; the span overflows, nothing is ambiguous
        big = tmp_path / "big.json"
        big.write_text(f'{{"n": 3, "A": {a}, "B": [[1, 1, 0]]}}')
        assert main(["run", str(big)]) == EXIT_FAILURE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"{big}: ValueError: {message}")
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize("value", ["0", "-1", "1", "nan", "inf"])
    def test_tolerance_flag_outside_unit_interval(self, value, capsys):
        code = main(["run", str(DATA / "perpendicular_planes.json"), "--tolerance", value])
        captured = capsys.readouterr()
        assert code == EXIT_PARSE
        assert captured.out == ""
        assert "--tolerance: expected a number in (0, 1)" in captured.err


class TestParseProblem:
    def test_valid_problem(self):
        p = parse_problem('{"n":3,"A":[[1,0,0],[0,1,0]],"B":[[1,0,0],[0,0,1]]}')
        assert p.n == 3
        assert p.signature == (3, 0)
        assert len(p.a_span) == 2

    def test_short_vector_rejected(self):
        with pytest.raises(ProblemFormatError, match=r"A\[0\]"):
            parse_problem('{"n":3,"A":[[1,0]],"B":[[1,0,0]]}')

    def test_mixed_dimension_accepted(self):
        p = parse_problem('{"n":4,"A":[[1,0,0,0]],"B":[[0,1,0,0],[0,0,1,0]]}')
        assert len(p.a_span) == 1 and len(p.b_span) == 2

    def test_unknown_key_rejected(self):
        with pytest.raises(ProblemFormatError, match="unknown keys"):
            parse_problem('{"n":3,"A":[[1,0,0]],"B":[[0,1,0]],"extra":1}')

    def test_explicit_euclidean_signature(self, tmp_path, capsys):
        doc = json.loads((DATA / "perpendicular_planes.json").read_text())
        doc["signature"] = [3, 0]
        assert parse_problem(json.dumps(doc)).signature == (3, 0)
        path = tmp_path / "signed.json"
        path.write_text(json.dumps(doc))
        assert main(["run", str(path), "--oracle"]) == EXIT_OK
        golden = (GOLDEN / "perpendicular_planes.json.out").read_text(encoding="utf-8")
        assert capsys.readouterr().out == golden

    def test_bad_signature_rejected(self):
        with pytest.raises(ProblemFormatError, match="signature"):
            parse_problem('{"n":3,"signature":[2,2],"A":[[1,0,0]],"B":[[0,1,0]]}')

    def test_bad_options_rejected(self):
        with pytest.raises(ProblemFormatError, match="tolerance"):
            parse_problem('{"n":2,"A":[[1,0]],"B":[[0,1]],"options":{"tolerance":2}}')

    def test_nonfinite_rejected(self):
        with pytest.raises(ProblemFormatError, match="not finite"):
            parse_problem('{"n":2,"A":[[1,Infinity]],"B":[[0,1]]}')

    def test_integer_too_large_for_a_float_is_not_finite(self, tmp_path, capsys):
        huge = "9" * 400
        path = tmp_path / "huge.json"
        path.write_text(f'{{"n": 2, "A": [[1, 0]], "B": [[1, {huge}]]}}')
        assert main(["run", str(path)]) == EXIT_PARSE
        assert capsys.readouterr().err == f"{path}: ProblemFormatError: B[0][1]: not finite\n"
        dense = [0] * 32
        dense[3] = int(huge)
        with pytest.raises(ProblemFormatError, match=r"^A\[3\]: expected a finite number$"):
            parse_problem(json.dumps({"n": 3, "A": dense, "B": dense}), mode="conformal")
        with pytest.raises(ProblemFormatError, match=r"^A\['e12'\]: expected a finite number$"):
            parse_problem(f'{{"n": 3, "A": {{"e12": -{huge}}}, "B": {{"e1": 1}}}}', mode="conformal")
        with pytest.raises(ProblemFormatError, match=r"^options.tolerance: expected a number in \(0, 1\)$"):
            parse_problem(f'{{"n":2,"A":[[1,0]],"B":[[0,1]],"options":{{"tolerance":{huge}}}}}')


class TestFormatsAndModes:
    def test_text_format(self, capsys):
        code = main(["run", str(DATA / "perpendicular_planes.json"),
                     "--oracle", "--format", "text"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "s=1 t=1" in out
        assert "90.000000" in out
        assert "oracle max deviation" in out

    def test_text_format_lists_planes(self, tmp_path, capsys):
        path = tmp_path / "tilted.json"
        path.write_text('{"n": 3, "A": [[1, 0, 0], [0, 1, 0]], "B": [[0.8, 0, 0.6], [0, 1, 0]]}')
        assert main(["run", str(path), "--format", "text"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert "s=1 t=0 lowest_grade=0" in lines
        assert f"angles (rad): {math.atan2(0.6, 0.8):.9f}, 0.000000000" in lines
        # A reverse(B) = e1 (0.8 e1 + 0.6 e3) = cos(theta) + sin(theta) e13
        assert [line for line in lines if line.startswith("plane")] == ["plane 1: 1*e13"]

    def test_multiple_files_in_order(self, capsys):
        code = main(["run", str(DATA / "identical_planes.json"),
                     str(DATA / "mixed_dimension.json")])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        docs = [json.loads(chunk) for chunk in out.split("\n\n")]
        assert docs[0]["s"] == 2
        assert docs[1]["t"] == 1

    def test_conformal_mode(self, tmp_path, capsys):
        n = 3
        csig = cf.conformal_signature(n)
        d1 = blade_from_spanning_vectors([[1, 0, 0], [0, 1, 0]]).mv
        d2 = blade_from_spanning_vectors([[1, 0, 0], [0, 0, 1]]).mv
        xa = cf.flat(csig, [0.0, 0.0, 0.0], d1)
        xb = cf.flat(csig, [1.0, 2.0, 3.0], d2)
        doc = {
            "n": n,
            "A": {name_from_mask(int(m)): float(xa.coeffs[m]) for m in xa.support()},
            "B": [float(v) for v in xb.coeffs],
        }
        path = tmp_path / "conformal.json"
        path.write_text(json.dumps(doc))
        code = main(["run", str(path), "--mode", "conformal", "--oracle"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        rep = json.loads(out)
        assert rep["s"] == 1 and rep["t"] == 1
        assert rep["oracle"]["max_deviation"] <= 1e-9

    def test_selftest_passes(self, capsys):
        code = main(["selftest", "--seed", "1", "--cases", "25"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "selftest: PASS" in out

    def test_selftest_pass_output_names_no_case(self, capsys):
        assert main(["selftest", "--seed", "1", "--cases", "5"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines] == [
            "selftest", "max angle deviation vs oracle", "max reconstruction residual",
            "s/t mismatches", "selftest"]
        assert lines[-1] == "selftest: PASS"

    def test_selftest_needs_a_nonnegative_seed(self, capsys):
        code = main(["selftest", "--seed", "-1"])
        captured = capsys.readouterr()
        assert code == EXIT_PARSE
        assert captured.out == ""
        assert captured.err == "angles selftest: --seed: expected an integer >= 0\n"

    @pytest.mark.parametrize("cases", ["0", "-3"])
    def test_selftest_needs_a_positive_case_count(self, cases, capsys):
        code = main(["selftest", "--cases", cases])
        captured = capsys.readouterr()
        assert code == EXIT_PARSE
        assert captured.out == ""
        assert captured.err == "angles selftest: --cases: expected an integer >= 1\n"

    def test_selftest_failure_names_the_cases(self, monkeypatch, capsys):
        # case 2 gets wrong oracle counts and case 3 a large deviation
        counts, compare = problems.rank_counts, problems.oracle_comparison
        seen = {"counts": 0, "compare": 0}

        def wrong_counts(pairs):
            s, t = counts(pairs)
            seen["counts"] += 1
            return (s + 1, t) if seen["counts"] == 3 else (s, t)

        def deviating(pairs, report):
            out = compare(pairs, report)
            seen["compare"] += 1
            return {**out, "max_deviation": 0.5} if seen["compare"] == 4 else out

        monkeypatch.setattr(problems, "rank_counts", wrong_counts)
        monkeypatch.setattr(problems, "oracle_comparison", deviating)
        assert main(["selftest", "--seed", "1", "--cases", "6"]) == EXIT_FAILURE
        lines = capsys.readouterr().out.splitlines()
        assert "s/t mismatches: 1" in lines
        assert lines[-2:] == ["failing cases: worst deviation at case 3, s/t mismatches at cases 2",
                              "selftest: FAIL"]
        seen.update(counts=0, compare=0)
        summary = problems.selftest(seed=1, cases=6)
        assert (summary["worst_case"], summary["mismatch_cases"]) == (3, [2])


class TestRandomProblemDocuments:
    def test_generated_file_runs_with_small_deviation(self, tmp_path, capsys):
        rng = np.random.default_rng(99)
        for i in range(5):
            doc = random_problem_document(rng)
            path = tmp_path / f"random_{i}.json"
            path.write_text(json.dumps(doc))
            code = main(["run", str(path), "--oracle"])
            out = json.loads(capsys.readouterr().out)
            assert code == EXIT_OK
            assert out["oracle"]["max_deviation"] <= 1e-8


class TestProcessExitStatus:
    """The documented codes must reach the operating system."""

    def _run(self, *argv):
        import os
        import subprocess
        import sys
        # the child imports the same package as this process, installed or not
        src = str(Path(cf.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        return subprocess.run([sys.executable, "-m", "subspace_angles.cli", *argv],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": path})

    def test_success(self):
        proc = self._run("run", str(DATA / "identical_planes.json"))
        assert proc.returncode == EXIT_OK

    def test_degenerate_span(self, tmp_path):
        bad = tmp_path / "degen.json"
        bad.write_text('{"n": 2, "A": [[1, 0], [1, 0]], "B": [[0, 1]]}')
        proc = self._run("run", str(bad))
        assert proc.returncode == EXIT_DEGENERATE
        assert "DegenerateSpanError" in proc.stderr

    def test_parse_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        proc = self._run("run", str(bad))
        assert proc.returncode == EXIT_PARSE

    def test_overflowing_span_is_a_one_line_error(self, tmp_path):
        # finite input whose wedge overflows: exit 1 with the error line, no traceback
        big = tmp_path / "big.json"
        big.write_text('{"n": 3, "A": [[1e160, 0, 0], [0, 1e160, 0]], "B": [[1, 0, 0], [0, 0, 1]]}')
        proc = self._run("run", str(big))
        assert proc.returncode == EXIT_FAILURE
        assert "Traceback" not in proc.stderr
        assert proc.stderr == f"{big}: ValueError: coefficients must be finite\n"
        assert proc.stdout == ""
