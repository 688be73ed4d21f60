"""End-to-end tests for the gsic command line, run in process."""

import base64
import json
import os
import stat
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import gsicdetect
from gsicdetect import cli, criteria, states
from gsicdetect import (construct_gsic, gell_mann_basis, max_entangled,
                        max_feasible_t, read_gsic, scan_family, write_gsic,
                        write_state)
from gsicdetect.cli import main
from gsicdetect.errors import MAX_DIM, MAX_STEPS
from gsicdetect.states import DensityMatrix


def test_build_flat_qubit_set(tmp_path, capsys):
    out = tmp_path / "flat.json"
    assert main(["build", "--dim", "2", "--t", "0", "--out", str(out)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary == {"d": 2, "t": 0.0, "a": 0.125, "cap": None}
    g = read_gsic(out)
    assert np.abs(g.operators - np.eye(2) / 4).max() < 1e-15


def test_build_max_t_qutrit(tmp_path, capsys):
    out = tmp_path / "d3.json"
    assert main(["build", "--dim", "3", "--max-t", "--out", str(out)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["cap"] == "positivity"
    assert summary["t"] == pytest.approx(0.012952932393, abs=1e-9)
    g = read_gsic(out)
    assert g.t == summary["t"] and g.a == summary["a"]


def test_build_qubit_cap_is_purity(tmp_path, capsys):
    out = tmp_path / "d2.json"
    assert main(["build", "--dim", "2", "--max-t", "--out", str(out)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["cap"] == "a-max"
    assert summary["t"] == pytest.approx(6.0 ** -1.5, abs=1e-12)
    assert summary["a"] == pytest.approx(0.25, abs=1e-12)


def test_build_output_is_deterministic(tmp_path, capsys):
    first = tmp_path / "one.json"
    second = tmp_path / "two.json"
    for out in (first, second):
        assert main(["build", "--dim", "3", "--max-t", "--out",
                     str(out)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()


def test_build_infeasible_t(tmp_path, capsys):
    out = tmp_path / "bad.json"
    rc = main(["build", "--dim", "3", "--t", "0.05", "--out", str(out)])
    assert rc == 2
    assert "operator" in capsys.readouterr().err
    assert not out.exists()


def test_detect_isotropic_json(capsys):
    rc = main(["detect", "--state", "isotropic:3:0.5", "--max-t", "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "ENTANGLED_DETECTED"
    assert payload["d"] == 3 and payload["N"] == 2
    assert payload["alpha"] == 0.5
    assert payload["margin"] > 0
    assert payload["j_value"] == pytest.approx(
        3 * payload["a"] * 0.5 + 0.5 / 9, abs=1e-12)


def test_detect_isotropic_below_threshold(capsys):
    rc = main(["detect", "--state", "isotropic:3:0.2", "--max-t", "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "INCONCLUSIVE"
    assert payload["margin"] < 0


def test_detect_human_readable(capsys):
    assert main(["detect", "--state", "maxent:2", "--max-t"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "state   maxent-d2"
    assert lines[-1] == "verdict ENTANGLED_DETECTED"
    assert any(line.startswith("j_value") for line in lines)


def test_detect_with_prebuilt_measurement(tmp_path, capsys):
    gfile = tmp_path / "g.json"
    assert main(["build", "--dim", "3", "--max-t", "--out", str(gfile)]) == 0
    capsys.readouterr()
    rc = main(["detect", "--state", "maxent:3", "--gsic", str(gfile),
               "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "ENTANGLED_DETECTED"
    assert payload["j_value"] == pytest.approx(3 * payload["a"], abs=1e-12)


def test_detect_same_pairing_misses_max_entangled(capsys):
    rc = main(["detect", "--state", "maxent:2", "--max-t",
               "--pairing", "same", "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "INCONCLUSIVE"
    assert abs(payload["margin"]) < 1e-12


@pytest.mark.parametrize("d", [2, 3])
def test_detect_reads_a_product_file_at_the_trace_tolerance_inconclusive(
        tmp_path, capsys, d):
    # |psi>|conj psi> sits on the bound against the conj pairing; at trace
    # 1 + 9e-11, within TRACE_TOL, its J sits about 9e-11 * J above it
    rng = np.random.default_rng(70 + d)
    psi = rng.normal(size=d) + 1j * rng.normal(size=d)
    psi = np.kron(psi, psi.conj()) / np.vdot(psi, psi).real
    mat = (1 + 9e-11) * np.outer(psi, psi.conj())
    path = tmp_path / "rho.json"
    write_state(DensityMatrix(local_dim=d, parties=2, matrix=mat), path)
    assert main(["detect", "--state", f"file:@{path}", "--max-t",
                 "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["margin"] > 0
    assert payload["verdict"] == "INCONCLUSIVE"


def test_detect_bell_diagonal_weights_file(tmp_path, capsys):
    wfile = tmp_path / "w.json"
    wfile.write_text(json.dumps({"0,0": 0.9, "0,1": 0.05, "1,0": 0.05}))
    rc = main(["detect", "--state", f"belldiag:2:@{wfile}", "--max-t",
               "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "ENTANGLED_DETECTED"
    assert payload["c"] == 0.9


def test_detect_diagonal_mixture(capsys):
    rc = main(["detect", "--state", "diagmix:2:0.9", "--max-t", "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "ENTANGLED_DETECTED"
    assert payload["a1"] == 0.9


def test_detect_state_from_file(tmp_path, capsys):
    rfile = tmp_path / "rho.json"
    write_state(max_entangled(2), rfile)
    rc = main(["detect", "--state", f"file:@{rfile}", "--max-t", "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "ENTANGLED_DETECTED"
    assert payload["state_label"] == "file:rho.json"


@pytest.mark.parametrize("spec", [
    "isotropic:3:1.5",
    "unknownfamily:2",
    "maxent:x",
    "maxent",
    "isotropic:3",
    "belldiag:2:w.json",
    "belldiag:2:@/nonexistent/w.json",
    "isotropic:3:0.5:1",
])
def test_detect_rejects_bad_state_specs(spec, capsys):
    assert main(["detect", "--state", spec, "--max-t"]) == 2
    assert "error:" in capsys.readouterr().err


def test_detect_dimension_cross_checks(tmp_path, capsys):
    assert main(["detect", "--state", "maxent:3", "--dim", "2",
                 "--max-t"]) == 2
    gfile = tmp_path / "g2.json"
    assert main(["build", "--dim", "2", "--max-t", "--out", str(gfile)]) == 0
    capsys.readouterr()
    assert main(["detect", "--state", "maxent:3", "--gsic", str(gfile)]) == 2
    assert "dimension" in capsys.readouterr().err


def test_detect_needs_a_measurement(capsys):
    # argparse names all three sources of the measurement set
    with pytest.raises(SystemExit) as exc:
        main(["detect", "--state", "maxent:2"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "one of the arguments --t --max-t --gsic is required" in (
        captured.err)


def test_scan_isotropic_threshold(tmp_path, capsys):
    csv = tmp_path / "iso.csv"
    rc = main(["scan", "--family", "isotropic", "--dim", "2", "--max-t",
               "--steps", "40", "--csv", str(csv)])
    assert rc == 0
    out_lines = capsys.readouterr().out.strip().splitlines()
    threshold = float(out_lines[0].split()[1])
    guaranteed = float(out_lines[1].split()[1])
    assert abs(threshold - 1 / 3) < 1e-6
    assert guaranteed == pytest.approx(1 / 3, abs=1e-15)

    rows = csv.read_text().strip().splitlines()
    assert rows[0] == "param,j_value,bound,margin,verdict"
    assert len(rows) == 1 + 40 + 2
    assert rows[-2].startswith("threshold,")
    assert rows[-1].startswith("guaranteed_threshold,")
    first = rows[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == pytest.approx(0.25, abs=1e-12)
    assert first[4] == "INCONCLUSIVE"
    last = rows[40].split(",")
    assert float(last[0]) == 1.0
    assert last[4] == "ENTANGLED_DETECTED"


def test_scan_output_is_deterministic(tmp_path, capsys):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path in paths:
        assert main(["scan", "--family", "isotropic", "--dim", "3",
                     "--max-t", "--steps", "25", "--csv", str(path)]) == 0
    capsys.readouterr()
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_scan_diagonal_mixture_thresholds(tmp_path, capsys):
    csv = tmp_path / "dm.csv"
    rc = main(["scan", "--family", "diagmix", "--dim", "2", "--max-t",
               "--steps", "60", "--csv", str(csv)])
    assert rc == 0
    out_lines = capsys.readouterr().out.strip().splitlines()
    threshold = float(out_lines[0].split()[1])
    guaranteed = float(out_lines[1].split()[1])
    assert abs(threshold - 0.5) < 1e-6
    assert guaranteed == pytest.approx(2 / 3, abs=1e-12)
    assert threshold < guaranteed


def test_scan_bell_diagonal_threshold(tmp_path, capsys):
    csv = tmp_path / "bd.csv"
    rc = main(["scan", "--family", "belldiag-c", "--dim", "2", "--max-t",
               "--steps", "50", "--csv", str(csv)])
    assert rc == 0
    threshold = float(
        capsys.readouterr().out.strip().splitlines()[0].split()[1])
    assert abs(threshold - 0.5) < 1e-6


@pytest.mark.parametrize("family", ["isotropic", "belldiag-c", "diagmix"])
@pytest.mark.parametrize("d", [2, 3, 6])
@pytest.mark.parametrize("fraction", [1.0, 0.5])
def test_scan_threshold_is_exact(tmp_path, capsys, family, d, fraction):
    t = fraction * max_feasible_t(gell_mann_basis(d))
    assert main(["scan", "--family", family, "--dim", str(d), "--t", repr(t),
                 "--steps", "40", "--csv", str(tmp_path / "s.csv")]) == 0
    threshold = float(capsys.readouterr().out.splitlines()[0].split()[1])
    exact = 1 / (d + 1) if family == "isotropic" else 1 / d
    assert abs(threshold - exact) <= 1e-12


def test_scan_threshold_below_rounding_is_nan(tmp_path, capsys):
    # at t = 1e-9 the margin (of order t**2) is below E's set term, the
    # part the sets' deviations set, and far above its rounding part:
    # every grid step raises it by less than 2E, even where the noisy
    # margins happen to rise
    csv = tmp_path / "noise.csv"
    for family in ("isotropic", "belldiag-c", "diagmix"):
        for d in (2, 3, 4, 6, 8):
            assert main(["scan", "--family", family, "--dim", str(d),
                         "--t", "1e-9", "--steps", "40", "--csv",
                         str(csv)]) == 0
            assert capsys.readouterr().out.splitlines()[0] == "threshold nan"
            assert csv.read_text().splitlines()[-2] == "threshold,nan,,,"


@pytest.mark.parametrize("family", ["isotropic", "belldiag-c", "diagmix"])
@pytest.mark.parametrize("d", [3, 8])
def test_scan_verdicts_agree_with_the_threshold(tmp_path, capsys, family, d):
    csv = tmp_path / "s.csv"
    assert main(["scan", "--family", family, "--dim", str(d), "--t", "1e-6",
                 "--steps", "40", "--csv", str(csv)]) == 0
    threshold = float(capsys.readouterr().out.splitlines()[0].split()[1])
    rows = [row.split(",") for row in csv.read_text().splitlines()[1:41]]
    params = [float(row[0]) for row in rows]
    # the first row at or past the crossing may read either way
    crossing = next(i for i, x in enumerate(params) if x >= threshold)
    for i, row in enumerate(rows):
        if i != crossing:
            assert (row[4] == "ENTANGLED_DETECTED") == (params[i] > threshold)


def test_scan_input_checks(tmp_path, capsys):
    csv = tmp_path / "x.csv"
    assert main(["scan", "--family", "isotropic", "--dim", "2", "--max-t",
                 "--steps", "5", "--csv", str(csv)]) == 2
    assert main(["scan", "--family", "isotropic", "--dim", "2", "--t", "0",
                 "--csv", str(csv)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("steps", [MAX_STEPS + 1, 10 ** 8, 10 ** 12])
def test_scan_steps_above_max_steps_exit_2_at_once(tmp_path, capsys, steps):
    csv = tmp_path / "x.csv"
    start = time.perf_counter()
    rc = main(["scan", "--family", "isotropic", "--dim", "3", "--t", "1e-6",
               "--steps", str(steps), "--csv", str(csv)])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert rc == 2
    assert elapsed < 1.0
    assert f"MAX_STEPS = {MAX_STEPS}" in captured.err
    assert captured.out == "" and not csv.exists()


def test_argparse_usage_errors():
    with pytest.raises(SystemExit) as exc:
        main(["build", "--dim", "2", "--out", "x.json"])  # no --t/--max-t
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["scan", "--family", "nope", "--dim", "2", "--max-t",
              "--csv", "x.csv"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main([])


@pytest.mark.parametrize("argv", [
    ["build", "--dim", "2", "--t", "0.01", "--max-t", "--out", "g.json"],
    ["detect", "--state", "maxent:2", "--t", "0.01", "--max-t"],
    ["detect", "--state", "maxent:2", "--gsic", "g.json", "--t", "0.01"],
    ["detect", "--state", "maxent:2", "--gsic", "g.json", "--max-t"],
    ["scan", "--family", "isotropic", "--dim", "2", "--t", "0.01",
     "--max-t", "--csv", "x.csv"],
])
def test_conflicting_t_sources_exit_2(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert not any(tmp_path.iterdir())


def test_detect_nan_weight_exits_2_without_invalid_json(tmp_path, capsys):
    wfile = tmp_path / "w.json"
    wfile.write_text('{"0,0": NaN, "0,1": 0.5, "1,0": 0.5}')
    rc = main(["detect", "--state", f"belldiag:2:@{wfile}", "--max-t",
               "--json"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "non-finite" in captured.err


def test_detect_rejects_a_measurement_file_with_a_forged_t(tmp_path, capsys,
                                                           edit_head):
    gfile = tmp_path / "g.json"
    assert main(["build", "--dim", "3", "--max-t", "--out", str(gfile)]) == 0
    edit_head(gfile, t=0.5)
    capsys.readouterr()
    rc = main(["detect", "--state", "maxent:3", "--gsic", str(gfile)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "t_purity" in captured.err


def test_detect_rejects_a_truncated_state_dimension(tmp_path, capsys,
                                                    edit_head):
    sfile = tmp_path / "rho.json"
    write_state(max_entangled(2), sfile)
    edit_head(sfile, local_dim=2.5)
    rc = main(["detect", "--state", f"file:@{sfile}", "--max-t"])
    captured = capsys.readouterr()
    assert rc == 2
    assert "malformed" in captured.err


@pytest.mark.parametrize("d", range(2, 9))
def test_detect_rejects_a_measurement_file_above_the_cap(tmp_path, capsys,
                                                         above_cap_set, d):
    gfile = tmp_path / "g.json"
    write_gsic(above_cap_set(gell_mann_basis(d), 1e-9), gfile)
    rc = main(["detect", "--state", f"maxent:{d}", "--gsic", str(gfile)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "is infeasible" in captured.err


def _written_file(path, kind):
    """A valid d=3 file of one kind, or the d=16 set for kind "gsic-d16",
    and the detect argv that reads it."""
    if kind.startswith("gsic"):
        d = 16 if kind == "gsic-d16" else 3
        basis = gell_mann_basis(d)
        write_gsic(construct_gsic(basis, max_feasible_t(basis)), path)
        return ["detect", "--state", f"maxent:{d}", "--gsic", str(path)]
    write_state(max_entangled(3), path)
    return ["detect", "--state", f"file:@{path}", "--max-t"]


@pytest.mark.parametrize("kind", ["gsic", "state"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(0, -np.inf)])
def test_detect_rejects_non_finite_file_bytes(tmp_path, capsys, edit_entries,
                                              kind, bad):
    def poison(z):
        z[4] = bad
        return z

    path = tmp_path / "in.json"
    argv = _written_file(path, kind)
    edit_entries(path, poison)
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "malformed" in captured.err and "non-finite" in captured.err


class _Reached(Exception):
    """Raised by a stand-in for code that allocates per dimension."""


def _refuse_allocation(monkeypatch):
    def reached(*args, **kwargs):
        raise _Reached

    monkeypatch.setattr(cli, "gell_mann_basis", reached)
    monkeypatch.setattr(states, "_bell_mixture", reached)


@pytest.mark.parametrize("argv", [
    ["build", "--dim", "{big}", "--max-t", "--out", "g.json"],
    ["build", "--dim", "{big}", "--t", "0", "--out", "g.json"],
    ["scan", "--family", "isotropic", "--dim", "{big}", "--t", "1e-6",
     "--csv", "s.csv"],
    ["detect", "--state", "maxent:{big}", "--max-t"],
    ["detect", "--state", "isotropic:{big}:0.5", "--t", "1e-6"],
    ["detect", "--state", "belldiag:{big}:@w.json", "--max-t"],
    ["detect", "--state", "diagmix:{big}:0.5", "--max-t"],
], ids=["build-max-t", "build-t", "scan", "maxent", "isotropic", "belldiag",
        "diagmix"])
@pytest.mark.parametrize("big", [MAX_DIM + 1, 100000])
def test_a_dimension_above_max_dim_exits_2_before_allocating(
        tmp_path, capsys, monkeypatch, argv, big):
    monkeypatch.chdir(tmp_path)
    Path("w.json").write_text('{"0,0": 1}')
    _refuse_allocation(monkeypatch)
    rc = main([arg.format(big=big) for arg in argv])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert f"dimension {big} exceeds MAX_DIM = {MAX_DIM}" in captured.err


@pytest.mark.parametrize("argv", [
    ["build", "--dim", str(MAX_DIM), "--max-t", "--out", "g.json"],
    ["detect", "--state", f"maxent:{MAX_DIM}", "--max-t"],
])
def test_max_dim_itself_passes_the_size_guard(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    _refuse_allocation(monkeypatch)
    with pytest.raises(_Reached):
        main(argv)


def test_detect_rejects_an_absurd_party_count_fast_in_a_raw_head(
        tmp_path, capsys, edit_head):
    sfile = tmp_path / "rho.json"
    write_state(max_entangled(3), sfile)
    edit_head(sfile, parties=10**8)
    start = time.perf_counter()
    rc = main(["detect", "--state", f"file:@{sfile}", "--max-t"])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert rc == 2
    assert (f"malformed state file {sfile}: 100000000 parties need more "
            "entries than a file holds") in captured.err
    assert elapsed < 0.5


@pytest.mark.parametrize("weight", ["[1]", "null", "{}", "true", '"1"'])
def test_detect_refuses_a_weight_that_is_not_a_number(tmp_path, capsys,
                                                      weight):
    path = tmp_path / "w.json"
    path.write_text('{"0,0": %s}' % weight)
    rc = main(["detect", "--state", f"belldiag:2:@{path}", "--max-t"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert f"malformed weights file {path}: " in captured.err


@pytest.mark.parametrize("text,reason", [
    ('{"a,0": 1}', "key 'a,0' is not of the form 's,t'"),
    ('{"1_0,0": 1}', "key '1_0,0' is not of the form 's,t'"),
    ('{" 0,0": 1}', "key ' 0,0' is not of the form 's,t'"),
    ('{"0,0": 0.5, "00,0": 1}', "key '00,0' names label (0, 0) again"),
    ('{"0,0": 0.5, "0,0": 1}', "key '0,0' appears twice"),
    ("[]", "the file must hold a nonempty object"),
    ("{}", "the file must hold a nonempty object"),
])
def test_detect_refuses_a_malformed_weights_key(tmp_path, capsys, text,
                                                reason):
    # a nonempty object of ASCII digit keys only, so no sign, space or
    # underscore that int() takes, and one key per label in any spelling
    path = tmp_path / "w.json"
    path.write_text(text)
    rc = main(["detect", "--state", f"belldiag:2:@{path}", "--max-t"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith(
        f"error: malformed weights file {path}: {reason}")


@pytest.mark.parametrize("argv,what", [
    (["--state", "maxent:2", "--gsic", "{path}"], "malformed measurement file"),
    (["--state", "file:@{path}", "--max-t"], "malformed state file"),
    (["--state", "belldiag:2:@{path}", "--max-t"], "malformed weights file"),
])
def test_detect_names_a_file_that_is_not_json(tmp_path, capsys, argv, what):
    path = tmp_path / "bad.json"
    path.write_text("not json")
    rc = main(["detect"] + [arg.format(path=path) for arg in argv])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert f"{what} {path}: Expecting value" in captured.err


@pytest.mark.parametrize("argv,what,text", [
    (["--state", "maxent:2", "--gsic", "{path}"], "measurement", "{deep}"),
    (["--state", "file:@{path}", "--max-t"], "state", "{deep}"),
    (["--state", "belldiag:2:@{path}", "--max-t"], "weights",
     '{{"0,0": {deep}}}'),
], ids=["gsic", "state", "weights"])
def test_detect_refuses_json_nested_past_the_recursion_limit(
        tmp_path, capsys, argv, what, text):
    # json.loads raises RecursionError there, which must read as a
    # malformed file and not escape as a traceback
    path = tmp_path / "deep.json"
    path.write_text(text.format(deep="[" * 200000 + "]" * 200000) + "\n")
    rc = main(["detect"] + [arg.format(path=path) for arg in argv])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: malformed {what} file {path}: ")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("spec,label", [
    ("file:@{dir}/s.bin", "file:s.bin"),
    ("belldiag:2:@{dir}/w.json", "belldiag-d2-c1"),
], ids=["file", "belldiag"])
def test_a_state_spec_path_may_hold_colons(tmp_path, capsys, spec, label):
    # the text after "@" is the path verbatim
    folder = tmp_path / "a:b"
    folder.mkdir()
    write_state(max_entangled(2), folder / "s.bin")
    (folder / "w.json").write_text('{"0,0": 1.0}')
    rc = main(["detect", "--state", spec.format(dir=folder), "--max-t",
               "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["state_label"] == label
    assert payload["verdict"] == "ENTANGLED_DETECTED"


@pytest.mark.parametrize("kind", ["gsic", "state"])
@pytest.mark.parametrize("damage", ["bom", "0xff"])
def test_detect_refuses_a_file_that_is_not_plain_utf8(tmp_path, capsys, kind,
                                                     damage):
    path = tmp_path / "in.json"
    argv = _written_file(path, kind)
    raw = path.read_bytes()
    if damage == "bom":
        raw = b"\xef\xbb\xbf" + raw
    else:  # 0xff is never part of UTF-8
        raw = raw.replace(b'"c16le-raw"', b'"c16le-raw\xff"', 1)
    path.write_bytes(raw)
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert f"malformed {'measurement' if kind == 'gsic' else 'state'} file" \
        in captured.err


def _damaged(raw: bytes, damage: str) -> bytes:
    """raw, a written raw file, damaged in one way."""
    line, payload = raw.split(b"\n", 1)
    head = json.loads(line)
    if damage == "cut-one-byte":
        return raw[:-1]
    if damage == "add-one-byte":
        return raw + b"\x00"
    if damage == "headless":
        return payload
    if damage == "not-utf8-head":
        return line.replace(b'"c16le-raw"', b'"c16le-raw\xff"') + b"\n" + payload
    if damage == "bom-head":
        return b"\xef\xbb\xbf" + raw
    if damage == "wrong-tag":
        return raw.replace(b'"c16le-raw"', b'"c16le-rax"', 1)
    if damage == "nan":
        z = np.frombuffer(payload, "<c16").copy()
        z[4] = complex(np.nan, 0.0)
        return line + b"\n" + z.tobytes()
    if damage == "key-twice":
        # later values that the payload fits, which json.loads alone keeps
        extra = (b', "basis_id": "other"' if "d" in head else
                 b', "local_dim": %d, "parties": 1' % head["local_dim"] ** 2)
        return line[:-1] + extra + b"}\n" + payload
    key = "operators" if "d" in head else "matrix"
    if damage == "base64":  # the layout written before the raw one
        head.update(encoding="c16le-base64",
                    **{key: base64.b64encode(payload).decode("ascii")})
        return json.dumps(head).encode()
    if damage == "untagged":  # and the [re, im] pairs written before that
        del head["encoding"]
        z = np.frombuffer(payload, "<c16")
        if key == "operators":
            z = z.reshape(head["d"] ** 2, -1)
        head[key] = np.stack([z.real, z.imag], -1).tolist()
        return json.dumps(head).encode()
    field = damage.removeprefix("wrong-")  # d, local_dim or parties
    head[field] += 1
    return json.dumps(head).encode() + b"\n" + payload


@pytest.mark.parametrize("kind,damage", [
    *((kind, damage) for kind in ("gsic", "state")
      for damage in ("cut-one-byte", "add-one-byte", "headless",
                     "not-utf8-head", "bom-head", "nan", "key-twice",
                     "base64", "untagged")),
    ("gsic", "wrong-d"), ("state", "wrong-local_dim"),
    ("state", "wrong-parties"), ("gsic", "wrong-tag"), ("state", "wrong-tag"),
    *(("gsic-d16", damage)
      for damage in ("cut-one-byte", "add-one-byte", "wrong-tag"))])
def test_a_damaged_raw_file_is_malformed(tmp_path, capsys, kind, damage):
    # the library raises ValueError "malformed ..." and detect exits 2
    path = tmp_path / "in.json"
    argv = _written_file(path, kind)
    path.write_bytes(_damaged(path.read_bytes(), damage))
    gsic = kind.startswith("gsic")
    what = "measurement" if gsic else "state"
    with pytest.raises(ValueError, match=f"^malformed {what} file {path}: "):
        (read_gsic if gsic else gsicdetect.read_state)(path)
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: malformed {what} file {path}: ")


@pytest.mark.parametrize("damage", [None, "cut-one-byte"])
def test_a_raw_file_is_read_from_a_pipe(tmp_path, capsys, damage):
    # fstat does not size a pipe: it is read to its end, then checked
    # against the head as a regular file is
    path = tmp_path / "in.json"
    argv = _written_file(path, "gsic")
    assert main(argv) == 0
    want = capsys.readouterr().out.encode()
    raw = path.read_bytes() if damage is None else _damaged(
        path.read_bytes(), damage)
    env = dict(os.environ, PYTHONPATH=str(Path(gsicdetect.__file__).parents[1]))
    child = subprocess.run(
        [sys.executable, "-m", "gsicdetect.cli", *argv[:-1], "/dev/stdin"],
        input=raw, capture_output=True, env=env, timeout=120)
    if damage is None:
        assert (child.returncode, child.stdout, child.stderr) == (0, want, b"")
    else:
        assert child.returncode == 2 and child.stderr.startswith(
            b"error: malformed measurement file /dev/stdin: payload holds ")


@pytest.mark.parametrize("field,value", [
    ("t", "0.0680413817439772"), ("t", 10**400), ("a", 10**400),
    ("a", "0.25"), ("t", True), ("a", None)],
    ids=["t-string", "t-huge-int", "a-huge-int", "a-string", "t-bool",
         "a-null"])
def test_detect_refuses_a_measurement_number_that_is_not_a_float(
        tmp_path, capsys, edit_head, field, value):
    gfile = tmp_path / "g.json"
    assert main(["build", "--dim", "2", "--max-t", "--out", str(gfile)]) == 0
    edit_head(gfile, **{field: value})
    capsys.readouterr()
    rc = main(["detect", "--state", "maxent:2", "--gsic", str(gfile)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert f"error: malformed measurement file {gfile}: " in captured.err


def test_detect_refuses_a_weight_beyond_the_float_range(tmp_path, capsys):
    path = tmp_path / "w.json"
    path.write_text('{"0,0": 1%s}' % ("0" * 400))
    rc = main(["detect", "--state", f"belldiag:2:@{path}", "--max-t"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert f"error: malformed weights file {path}: " in captured.err
    assert "float range" in captured.err


def test_a_closed_stdout_pipe_exits_141_quietly(tmp_path):
    # the read end is closed before the command writes, as after `| head -0`
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(Path(gsicdetect.__file__).parents[1]))
    try:
        child = subprocess.run(
            [sys.executable, "-m", "gsicdetect.cli", "build", "--dim", "2",
             "--t", "0", "--out", str(tmp_path / "g.json")],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert child.returncode == 141
    assert child.stderr == b""


# Each writer of an output file, given a path and whether to write its
# long or its short form: a measurement set and a state at d = 4 or
# d = 2, a scan CSV at 40 or 10 steps.
def _write_gsic_file(path, long):
    write_gsic(construct_gsic(gell_mann_basis(4 if long else 2), 0.0), path)


def _write_state_file(path, long):
    write_state(max_entangled(4 if long else 2), path)


def _write_scan_csv(path, long):
    rc = main(["scan", "--family", "isotropic", "--dim", "3", "--t", "1e-6",
               "--steps", "40" if long else "10", "--csv", str(path)])
    assert rc == 0


WRITERS = {"gsic": _write_gsic_file, "state": _write_state_file,
           "scan-csv": _write_scan_csv}


@pytest.mark.parametrize("kind", list(WRITERS))
def test_a_short_output_over_a_long_one_leaves_only_its_bytes(
        tmp_path, capsys, kind):
    write = WRITERS[kind]
    path, fresh = tmp_path / "out", tmp_path / "fresh"
    write(path, long=True)
    long_size, inode = path.stat().st_size, path.stat().st_ino
    write(path, long=False)
    write(fresh, long=False)
    capsys.readouterr()
    assert path.read_bytes() == fresh.read_bytes()
    assert path.stat().st_size < long_size
    assert path.stat().st_ino == inode  # the same file, rewritten


@pytest.mark.parametrize("kind", list(WRITERS))
def test_an_output_to_dev_null_succeeds(capsys, kind):
    WRITERS[kind](os.devnull, long=False)
    capsys.readouterr()


@pytest.mark.parametrize("kind", list(WRITERS))
@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
def test_a_new_output_gets_the_mode_of_open_w(tmp_path, capsys, kind, umask):
    old = os.umask(umask)
    try:
        WRITERS[kind](tmp_path / "new", long=False)
        with open(tmp_path / "ref", "w"):
            pass
    finally:
        os.umask(old)
    capsys.readouterr()
    assert (stat.S_IMODE((tmp_path / "new").stat().st_mode)
            == stat.S_IMODE((tmp_path / "ref").stat().st_mode))


@pytest.mark.parametrize("kind", list(WRITERS))
def test_an_output_through_a_symlink_updates_its_target(tmp_path, capsys,
                                                        kind):
    write = WRITERS[kind]
    target, link, fresh = (tmp_path / "target", tmp_path / "link",
                           tmp_path / "fresh")
    write(target, long=True)
    link.symlink_to(target)
    write(link, long=False)
    write(fresh, long=False)
    capsys.readouterr()
    assert link.is_symlink()
    assert target.read_bytes() == fresh.read_bytes()


@pytest.mark.skipif(not os.path.exists("/dev/stdout"),
                    reason="no /dev/stdout on this platform")
def test_scan_csv_into_a_pipe_is_written(tmp_path):
    # /dev/stdout is the child's pipe to this process
    env = dict(os.environ, PYTHONPATH=str(Path(gsicdetect.__file__).parents[1]))
    argv = ["scan", "--family", "isotropic", "--dim", "3", "--t", "1e-6",
            "--steps", "10"]
    child = subprocess.run(
        [sys.executable, "-m", "gsicdetect.cli", *argv, "--csv", "/dev/stdout"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, timeout=120)
    assert child.returncode == 0 and child.stderr == b""
    csv = tmp_path / "s.csv"
    summary = subprocess.run(
        [sys.executable, "-m", "gsicdetect.cli", *argv, "--csv", str(csv)],
        stdout=subprocess.PIPE, env=env, timeout=120).stdout
    assert child.stdout == csv.read_bytes() + summary


@pytest.mark.parametrize("argv", [
    ["--max-t", "--steps", str(MAX_STEPS + 1)],
    ["--t", "1e-6", "--steps", "9"],
])
def test_scan_steps_are_refused_before_the_set_is_built(tmp_path, capsys,
                                                        monkeypatch, argv):
    def reached(*args, **kwargs):
        raise _Reached

    for name in ("gell_mann_basis", "feasible_t", "construct_gsic"):
        monkeypatch.setattr(cli, name, reached)
    csv = tmp_path / "s.csv"
    rc = main(["scan", "--family", "isotropic", "--dim", "64", *argv,
               "--csv", str(csv)])
    captured = capsys.readouterr()
    assert rc == 2
    assert f"MAX_STEPS = {MAX_STEPS} grid steps" in captured.err
    assert captured.out == "" and not csv.exists()


def test_scan_builds_no_report(tmp_path, capsys, monkeypatch):
    def report(*args, **kwargs):
        raise AssertionError("a DetectionReport was built")

    monkeypatch.setattr(criteria, "DetectionReport", report)
    csv = tmp_path / "s.csv"
    for family in criteria.SCAN_FAMILIES:
        assert main(["scan", "--family", family, "--dim", "3", "--max-t",
                     "--csv", str(csv)]) == 0
        assert len(csv.read_text().splitlines()) == 43
    capsys.readouterr()


def _reference_csv(rows, scan) -> str:
    """The CSV of the per-point reference rows, then the scan's thresholds."""
    grid, j_values, margins, flagged, bound = rows
    lines = ["param,j_value,bound,margin,verdict"]
    for x, j, m, f in zip(grid, j_values, margins, flagged):
        lines.append(f"{x!r},{j!r},{bound!r},{m!r},{criteria.verdict(f)}")
    lines.append(f"threshold,{scan.threshold!r},,,")
    lines.append(f"guaranteed_threshold,{scan.guaranteed!r},,,")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("family", list(criteria.SCAN_FAMILIES))
@pytest.mark.parametrize("d", [2, 3, 8])
@pytest.mark.parametrize("t", ["cap", 1e-9])
def test_scan_csv_equals_the_rows_formatted_from_the_reports(
        tmp_path, capsys, scan_reference, family, d, t):
    basis = gell_mann_basis(d)
    p = construct_gsic(basis, max_feasible_t(basis) if t == "cap" else t)
    want = _reference_csv(scan_reference(family, p, 40),
                          scan_family(family, p, 40))
    csv = tmp_path / "s.csv"
    t_args = ["--max-t"] if t == "cap" else ["--t", repr(t)]
    assert main(["scan", "--family", family, "--dim", str(d), *t_args,
                 "--csv", str(csv)]) == 0
    capsys.readouterr()
    assert csv.read_bytes() == want.encode()
    if t == 1e-9:
        assert "\nthreshold,nan,,,\n" in want
