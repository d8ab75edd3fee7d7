import importlib.util
import json
from pathlib import Path

import numpy as np

from stressbasis._cache import write_tagged
from stressbasis.basis import _BASIS_FORMAT

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "diff_outputs.py"
_spec = importlib.util.spec_from_file_location("diff_outputs", SCRIPT)
diff_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(diff_outputs)


def _tree(root, report, csv_text, extra=None):
    (root / "p").mkdir(parents=True)
    (root / "p" / "report.json").write_text(json.dumps(report))
    (root / "p" / "convergence.csv").write_text(csv_text)
    for name, text in (extra or {}).items():
        (root / name).write_text(text)


def test_diff_outputs_reports_the_largest_move_per_file(tmp_path, capsys):
    """Numeric moves are relative to the first tree (CSV columns to their
    largest value) and exit 0, each printed with the two values that moved;
    a changed verdict or a file in one tree only exits 1."""
    report = {"true_energy": 2.0, "checks": {"slope": {"passed": True,
                                                       "value": -0.5}}}
    _tree(tmp_path / "a", report, "N,E_N\n1,0.5\n2,\n",
          {"same.txt": "x"})
    moved = {"true_energy": 2.0 + 2e-12,
             "checks": {"slope": {"passed": True, "value": -0.5}}}
    _tree(tmp_path / "b", moved, "N,E_N\n1,0.5000001\n2,\n",
          {"same.txt": "x"})
    assert diff_outputs.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 0
    out = dict(line.split(None, 1) for line in
               capsys.readouterr().out.strip().splitlines())
    assert out["same.txt"] == "identical"
    assert out["p/report.json"] == "1.00e-12  true_energy  2.0 -> 2.000000000002"
    assert out["p/convergence.csv"] == "2.00e-07  E_N  0.5 -> 0.5000001"

    moved["checks"]["slope"]["passed"] = False
    (tmp_path / "b" / "p" / "report.json").write_text(json.dumps(moved))
    (tmp_path / "b" / "same.txt").unlink()
    assert diff_outputs.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 1
    out = capsys.readouterr().out
    assert "checks.slope.passed: True -> False" in out
    assert f"only in {tmp_path / 'a'}" in next(
        line for line in out.splitlines() if line.startswith("same.txt"))


def test_diff_outputs_shows_a_round_off_zero_by_its_values(tmp_path, capsys):
    """A leaf at round-off whose relative move is large prints its two
    values, so the line shows the move is round-off in absolute terms."""
    report = {"cesaro": {"PT": [6.9e-18, 0.25]}, "true_energy": 2.0}
    _tree(tmp_path / "a", report, "N,E_N\n1,0.5\n")
    report = {"cesaro": {"PT": [1.4e-17, 0.25]}, "true_energy": 2.0 + 2e-12}
    _tree(tmp_path / "b", report, "N,E_N\n1,0.5\n")
    assert diff_outputs.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 0
    out = dict(line.split(None, 1) for line in
               capsys.readouterr().out.strip().splitlines())
    assert out["p/report.json"] == "1.03e+00  cesaro.PT[0]  6.9e-18 -> 1.4e-17"
    assert out["p/convergence.csv"] == "identical"


def test_diff_outputs_compares_cache_files_by_content(tmp_path, capsys):
    """A cache file compares by its arrays and its meta's provenance and
    report; the stored key, which holds the build identity, is skipped.
    Below the file's largest move, each array and the meta give their own,
    so a round-off figure of the report does not hide the arrays' moves."""
    def cache_file(root, key, eigenvalues, offdiag):
        root.mkdir()
        write_tagged(str(root / "basis-0.sbbasis"), _BASIS_FORMAT,
                     {"key": key, "provenance": {"h": 0.125},
                      "report": {"passed": True, "max_offdiag_l2": offdiag}},
                     {"eigenvalues": np.array(eigenvalues),
                      "m_tags": np.array([-1, -1])})

    def lines(other):
        assert diff_outputs.main([str(tmp_path / "a"),
                                  str(tmp_path / other)]) == 0
        out = capsys.readouterr().out.splitlines()
        return [out[0].split(None, 1)[1].strip()] + [
            " ".join(line.split()) for line in out[1:]]

    cache_file(tmp_path / "a", {"build": "parent"}, [1.0, 2.0], 1e-15)
    cache_file(tmp_path / "b", {"build": "change"}, [1.0, 2.0], 1e-15)
    cache_file(tmp_path / "c", {"build": "change"}, [1.0, 2.0 + 4e-12], 1e-15)
    cache_file(tmp_path / "d", {"build": "change"}, [1.0, 2.0 + 4e-12], 2e-15)
    assert lines("b") == ["0.00e+00", "eigenvalues identical",
                          "m_tags identical", "meta identical"]
    assert lines("c") == ["2.00e-12  eigenvalues  2.0 -> 2.000000000004",
                          "eigenvalues 2.00e-12 2.0 -> 2.000000000004",
                          "m_tags identical", "meta identical"]
    assert lines("d") == [
        "1.00e+00  report.max_offdiag_l2  1e-15 -> 2e-15",
        "eigenvalues 2.00e-12 2.0 -> 2.000000000004", "m_tags identical",
        "meta 1.00e+00 report.max_offdiag_l2 1e-15 -> 2e-15"]


def test_diff_outputs_reads_each_cache_file_by_its_own_tag(tmp_path, capsys):
    """Cache files of two layouts compare: the tag line, an array and the
    provenance entries found in one file only are structural lines, and the
    arrays and meta both files hold compare as usual."""
    def cache_file(root, tag, provenance, arrays):
        root.mkdir()
        write_tagged(str(root / "basis-0.sbbasis"), tag,
                     {"key": {}, "provenance": provenance,
                      "report": {"max_offdiag_l2": 1e-15}},
                     dict(arrays, eigenvalues=np.array([1.0, 2.0])))

    cache_file(tmp_path / "a", "SBBASIS 2",
               {"h": 0.125, "div_residuals": [0.5, 0.25]},
               {"gram_l2": np.eye(2)})
    cache_file(tmp_path / "b", _BASIS_FORMAT, {"h": 0.125}, {})
    assert diff_outputs.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0].split(None, 1)[1].strip() == "0.00e+00"
    assert [" ".join(line.split()) for line in out[1:]] == [
        "eigenvalues identical", "meta 0.00e+00",
        f"tag: 'SBBASIS 2' -> {_BASIS_FORMAT!r}", "gram_l2 in one tree only",
        "provenance.div_residuals in one tree only"]
