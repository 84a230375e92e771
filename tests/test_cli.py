import argparse
import json
import math
import re
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
    build_parser,
    main,
)
from subspace_angles.errors import ProblemFormatError
from subspace_angles.ga import name_from_mask
from subspace_angles.problems import parse_problem
from subspace_angles.sampling import sample_spans

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

    def test_planes_that_do_not_fit_the_grades(self, tmp_path, monkeypatch, capsys):
        # each plane found twice: two planes for blades of grade 1, refused with exit 4
        read = engine._read_clusters
        monkeypatch.setattr(engine, "_read_clusters",
                            lambda *args: (lambda interior, flipped: (2 * interior, flipped))(*read(*args)))
        path = tmp_path / "lines.json"
        path.write_text('{"n": 2, "A": [[1, 0]], "B": [[1, 1]]}')
        assert main(["run", str(path)]) == EXIT_AMBIGUOUS
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "AmbiguousRankError: 2 principal planes and 0 reversed directions " \
               "do not fit blades of grades 1 and 1" in captured.err

    def test_other_computation_error(self, tmp_path, capsys):
        # a conformal point has no Euclidean direction part
        point = tmp_path / "point.json"
        point.write_text('{"n": 3, "A": {"e4": -0.5, "e5": 0.5}, "B": {"e4": -0.5, "e5": 0.5}}')
        assert main(["run", str(point), "--mode", "conformal"]) == EXIT_FAILURE
        assert "CarrierError" in capsys.readouterr().err

    def test_conformal_overflow_is_a_one_line_error(self, tmp_path, capsys):
        # finite coefficients whose wedge with e_inf overflows in the round: one error
        # line, and no overflow warning on the way (warnings are errors under pytest)
        big = tmp_path / "big_round.json"
        big.write_text('{"n": 3, "A": {"e4": 1e308, "e5": -1e308}, "B": {"e145": 1.0}}')
        assert main(["run", str(big), "--mode", "conformal"]) == EXIT_FAILURE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"{big}: ValueError: coefficients must be finite\n"

    def test_conformal_non_blade(self, tmp_path, capsys):
        # once accepted as a blade (its square is a scalar) and refused later by the carrier
        bad = tmp_path / "non_blade.json"
        bad.write_text('{"n": 4, "A": {"e123": 1, "e456": 1}, "B": {"e1256": 1}}')
        assert main(["run", str(bad), "--mode", "conformal"]) == EXIT_FAILURE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "NotABladeError" in captured.err
        assert "CarrierError" not in captured.err

    def test_file_not_utf8(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe{}")
        assert main(["run", str(bad)]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"{bad}: cannot read: 'utf-8' codec can't decode byte 0xff")
        assert len(captured.err.splitlines()) == 1

    def test_deeply_nested_json(self, tmp_path, capsys):
        # json.loads recurses once per bracket; the RecursionError is a parse error
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100000)
        assert main(["run", str(deep)]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"{deep}: ProblemFormatError: arrays or objects nested too deeply to parse\n"

    def test_non_euclidean_signature(self, tmp_path, capsys):
        # refused at parse, before any blade is built: blade frames are Euclidean
        bad = tmp_path / "minkowski.json"
        bad.write_text('{"n": 3, "signature": [2, 1], "A": [[0, 0, 1]], "B": [[0, 1, 0]]}')
        assert main(["run", str(bad)]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"{bad}: ProblemFormatError: signature: expected [3, 0], "
                                "the Euclidean signature of n=3\n")

    @pytest.mark.parametrize("a, message", [
        ("[[1e155, 0, 0]]", "vector 0 overflows"),
        ("[[1e-160, 0, 0]]", "vector 0 underflows"),
    ])
    def test_overflowing_span_names_the_overflow(self, tmp_path, capsys, a, message):
        # once exit 4 with a count or residual message; the span over- or underflows,
        # nothing is ambiguous
        big = tmp_path / "big.json"
        big.write_text(f'{{"n": 3, "A": {a}, "B": [[1, 1, 0]]}}')
        assert main(["run", str(big)]) == EXIT_FAILURE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"{big}: ValueError: {message}")
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize("a, got", [("[[1, 0, 0], [0, 1]]", 2), ("[[1, 0, 0], [0, 1, 0, 5]]", 4)])
    def test_ragged_span_refused_at_parse(self, tmp_path, capsys, a, got):
        # the document's rows are checked before any blade is built, so the library's
        # "need k >= 1 rows of 3 coordinates" is never reached from the command line
        ragged = tmp_path / "ragged.json"
        ragged.write_text(f'{{"n": 3, "A": {a}, "B": [[1, 1, 0]]}}')
        assert main(["run", str(ragged)]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"{ragged}: ProblemFormatError: A[1]: expected 3 components, got {got}\n"

    def test_span_whose_square_overflows_runs(self, tmp_path, capsys):
        # the 1e306 wedge of two 1e153 rows has a magnitude a float holds, though
        # its square does not: the document is that of the unit span
        docs = []
        for scale in ("1e153", "1"):
            path = tmp_path / f"span_{scale}.json"
            path.write_text(f'{{"n": 3, "A": [[{scale}, 0, 0], [0, {scale}, 0]], "B": [[1, 1, 0]]}}')
            assert main(["run", str(path)]) == EXIT_OK
            doc = json.loads(capsys.readouterr().out)
            del doc["input"]
            docs.append(doc)
        assert docs[0] == docs[1]
        assert docs[0]["angles_rad"] == [0.0] and docs[0]["s"] == 1

    def test_overflowing_magnitude_names_the_overflow(self, tmp_path, capsys):
        # three rows orthogonal to (1, 1, 1, 1): finite coefficients of 1.3e308, magnitude 2.6e308
        big = tmp_path / "big.json"
        big.write_text('{"n": 4, "A": [[2.8e102, -2.8e102, 0, 0], [2.8e102, 2.8e102, -5.6e102, 0], '
                       '[2.8e102, 2.8e102, 2.8e102, -8.4e102]], "B": [[1, 0, 0, 0]]}')
        assert main(["run", str(big)]) == EXIT_FAILURE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"{big}: ValueError: blade magnitude overflows")
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize("value", ["1e-9", "0.7", "0.99"])
    def test_tolerance_flag_is_unknown(self, value, capsys):
        # s and t have one cutoff: no flag moves it
        with pytest.raises(SystemExit) as exc:
            main(["run", str(DATA / "perpendicular_planes.json"), "--tolerance", value])
        captured = capsys.readouterr()
        assert exc.value.code == EXIT_PARSE
        assert captured.out == ""
        assert f"unrecognized arguments: --tolerance {value}" in captured.err

    @pytest.mark.parametrize("options", ['{"oracle": true}', '{"oracle": false}', '{"tolerance": 0.7}'])
    def test_document_options_are_an_unknown_key(self, options, tmp_path, capsys):
        # --oracle is the one switch for the matrix route; a document cannot turn it on or off
        path = tmp_path / "options.json"
        path.write_text(f'{{"n": 2, "A": [[1, 0]], "B": [[0, 1]], "options": {options}}}')
        assert main(["run", str(path), "--oracle"]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"{path}: ProblemFormatError: unknown keys: ['options']\n"


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

    @pytest.mark.parametrize("text, mode, message", [
        ('{"n":2,"A":[["x",0]],"B":[[0,1]]}', "euclidean", r"A\[0\]\[0\]: expected a number"),
        ('{"n":3,"A":"e12","B":{"e1":1}}', "conformal", "A: expected a coefficient list or a blade-name map"),
    ])
    def test_malformed_value_named(self, text, mode, message):
        with pytest.raises(ProblemFormatError, match=f"^{message}$"):
            parse_problem(text, mode=mode)

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

    @pytest.mark.parametrize("sig", [[2, 1], [0, 3], [3.0, 0], "[3, 0]"])
    def test_only_the_euclidean_signature_accepted(self, sig):
        doc = {"n": 3, "signature": sig, "A": [[0, 0, 1]], "B": [[0, 1, 0]]}
        with pytest.raises(ProblemFormatError, match=r"^signature: expected \[3, 0\]"):
            parse_problem(json.dumps(doc))
        doc["signature"] = [3, 0]
        assert parse_problem(json.dumps(doc)).signature == (3, 0)

    def test_deeply_nested_json_rejected(self):
        for text in ("[" * 100000, '{"a":' * 100000):
            with pytest.raises(ProblemFormatError, match="nested too deeply"):
                parse_problem(text)

    def test_descending_blade_name_rejected(self):
        # {"e21": 1.0} is -e12; reading it as +e12 would flip the term silently
        doc = {"n": 3, "A": {"e21": 1.0}, "B": {"e1": 1.0}}
        with pytest.raises(ProblemFormatError, match=r"^A\['e21'\]: indices .* ascend"):
            parse_problem(json.dumps(doc), mode="conformal")

    def test_lone_index_above_nine_named(self):
        # at n = 8 the conformal e- is e_10; 'e10' would read as e1 ^ e0
        doc = {"n": 8, "A": {"e_10": 1.0, "e1": 0.5}, "B": {"e1": 1.0}}
        assert parse_problem(json.dumps(doc), mode="conformal").a_span == {"e_10": 1.0, "e1": 0.5}
        doc["A"] = {"e10": 1.0}
        with pytest.raises(ProblemFormatError, match=r"^A\['e10'\]: index 0 out of range 1..10"):
            parse_problem(json.dumps(doc), mode="conformal")

    def test_repeated_top_level_key_rejected(self, tmp_path, capsys):
        # json.loads alone keeps the last "A" and drops the first silently
        text = '{"n": 3, "A": [[1, 0, 0]], "A": [[0, 1, 0]], "B": [[0, 0, 1]]}'
        with pytest.raises(ProblemFormatError, match=r"^repeated key 'A'$"):
            parse_problem(text)
        path = tmp_path / "twice.json"
        path.write_text(text)
        assert main(["run", str(path)]) == EXIT_PARSE
        assert capsys.readouterr().err == f"{path}: ProblemFormatError: repeated key 'A'\n"

    def test_repeated_option_rejected(self):
        text = '{"n": 2, "A": [[1, 0]], "B": [[0, 1]], "options": {"oracle": true, "oracle": false}}'
        with pytest.raises(ProblemFormatError, match=r"^repeated key 'oracle'$"):
            parse_problem(text)

    def test_aliased_blade_names_rejected(self):
        # e13 and e1_3 name one basis blade; summing the two would hide a typo
        doc = {"n": 3, "A": {"e13": 1.0, "e1_3": 2.0}, "B": {"e1": 1.0}}
        with pytest.raises(ProblemFormatError,
                           match=r"^A\['e1_3'\]: names the same basis blade as 'e13'$"):
            parse_problem(json.dumps(doc), mode="conformal")

    @pytest.mark.parametrize("alias", ["e", "e0", "scalar"])
    def test_scalar_aliases_rejected(self, alias):
        doc = {"n": 3, "A": {"e12": 1.0}, "B": {"1": 0.5, alias: 0.5, "e1": 1.0}}
        with pytest.raises(ProblemFormatError,
                           match=rf"^B\['{alias}'\]: names the same basis blade as '1'$"):
            parse_problem(json.dumps(doc), mode="conformal")

    def test_bad_options_rejected(self):
        with pytest.raises(ProblemFormatError, match=r"^unknown keys: \['options'\]$"):
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


class TestFormatsAndModes:
    def test_text_format(self, capsys):
        code = main(["run", str(DATA / "perpendicular_planes.json"),
                     "--oracle", "--format", "text"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "s=1 t=1" in out
        assert "90.000000" in out
        assert "oracle max deviation" in out

    def test_unknown_mode_names_the_parsers_modes(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", str(DATA / "perpendicular_planes.json"), "--mode", "spherical"])
        assert exc.value.code == EXIT_PARSE
        err = capsys.readouterr().err
        assert "invalid choice" in err and all(mode in err for mode in problems.MODES)

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
            "selftest", "max angle error vs truth", "max reconstruction residual",
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
        # case 2 gets a wrong count in its truth and case 3 wrong angles
        draw = problems.sample_spans
        seen = {"draws": 0}

        def wrong_truth(rng):
            a_rows, b_rows, meta = draw(rng)
            seen["draws"] += 1
            if seen["draws"] == 3:
                meta = {**meta, "shared": meta["shared"] + 1}
            if seen["draws"] == 4:
                meta = {**meta, "angles": [theta + 0.5 for theta in meta["angles"]]}
            return a_rows, b_rows, meta

        monkeypatch.setattr(problems, "sample_spans", wrong_truth)
        assert main(["selftest", "--seed", "1", "--cases", "6"]) == EXIT_FAILURE
        lines = capsys.readouterr().out.splitlines()
        assert "s/t mismatches: 1" in lines
        assert lines[-2:] == ["failing cases: worst deviation at case 3, s/t mismatches at cases 2",
                              "selftest: FAIL"]
        seen.update(draws=0)
        summary = problems.selftest(seed=1, cases=6)
        assert (summary["worst_case"], summary["mismatch_cases"]) == (3, [2])


class TestRandomProblemDocuments:
    def test_generated_file_runs_with_small_deviation(self, tmp_path, capsys):
        rng = np.random.default_rng(99)
        for i in range(5):
            a_rows, b_rows, _ = sample_spans(rng)
            doc = {"n": a_rows.shape[1], "A": a_rows.tolist(), "B": b_rows.tolist()}
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


class TestReadme:
    """The README's Command line section matches the parser it documents."""

    SECTION = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8") \
        .split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]

    def block(self, lang: str) -> str:
        return self.SECTION.split(f"```{lang}\n", 1)[1].split("```", 1)[0]

    @pytest.mark.parametrize("command", ["run", "selftest"])
    def test_synopsis_names_each_long_option(self, command):
        # a command's synopsis runs from its `angles <command>` line over the indented lines after it
        synopsis = re.search(rf"^angles {command} .*(?:\n .*)*", self.block("sh"), re.M).group(0)
        subparsers = next(action for action in build_parser()._actions
                          if isinstance(action, argparse._SubParsersAction))
        defined = {option for action in subparsers.choices[command]._actions
                   for option in action.option_strings if option.startswith("--")}
        assert set(re.findall(r"--[a-z][a-z-]*", synopsis)) == defined - {"--help"}

    def test_example_document_parses(self):
        problem = parse_problem(self.block("json"))
        assert (problem.n, len(problem.a_span), len(problem.b_span)) == (3, 2, 2)
