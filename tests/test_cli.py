"""End-to-end tests for the gsic command line, run in process."""

import json
import time

import numpy as np
import pytest

from gsicdetect import (gell_mann_basis, max_entangled, max_feasible_t,
                        read_gsic, write_gsic, write_state)
from gsicdetect.cli import main


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
    assert main(["detect", "--state", "maxent:2"]) == 2
    assert "--t" in capsys.readouterr().err


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
    # at t = 1e-9 the margin (of order t**2) is below the rounding of J
    csv = tmp_path / "noise.csv"
    assert main(["scan", "--family", "isotropic", "--dim", "3", "--t", "1e-9",
                 "--steps", "40", "--csv", str(csv)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "threshold nan"
    assert csv.read_text().splitlines()[-2] == "threshold,nan,,,"


def test_scan_input_checks(tmp_path, capsys):
    csv = tmp_path / "x.csv"
    assert main(["scan", "--family", "isotropic", "--dim", "2", "--max-t",
                 "--steps", "5", "--csv", str(csv)]) == 2
    assert main(["scan", "--family", "isotropic", "--dim", "2", "--t", "0",
                 "--csv", str(csv)]) == 2
    capsys.readouterr()


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


def test_detect_rejects_a_measurement_file_with_a_forged_t(tmp_path, capsys):
    gfile = tmp_path / "g.json"
    assert main(["build", "--dim", "3", "--max-t", "--out", str(gfile)]) == 0
    payload = json.loads(gfile.read_text())
    payload["t"] = 0.5
    gfile.write_text(json.dumps(payload))
    capsys.readouterr()
    rc = main(["detect", "--state", "maxent:3", "--gsic", str(gfile)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "t_purity" in captured.err


def test_detect_rejects_a_truncated_state_dimension(tmp_path, capsys):
    sfile = tmp_path / "rho.json"
    write_state(max_entangled(2), sfile)
    payload = json.loads(sfile.read_text())
    payload["local_dim"] = 2.5
    sfile.write_text(json.dumps(payload))
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


@pytest.mark.parametrize("kind", ["gsic", "state"])
def test_detect_rejects_a_non_finite_file_entry(tmp_path, capsys, kind):
    path = tmp_path / "in.json"
    if kind == "gsic":
        assert main(["build", "--dim", "3", "--max-t", "--out",
                     str(path)]) == 0
        argv = ["detect", "--state", "maxent:3", "--gsic", str(path)]
        payload = json.loads(path.read_text())
        payload["operators"][0][4][0] = float("nan")
    else:
        write_state(max_entangled(3), path)
        argv = ["detect", "--state", f"file:@{path}", "--max-t"]
        payload = json.loads(path.read_text())
        payload["matrix"][4][1] = float("inf")
    path.write_text(json.dumps(payload))
    capsys.readouterr()
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "malformed" in captured.err and "non-finite" in captured.err


def test_detect_rejects_an_absurd_party_count_fast(tmp_path, capsys):
    # 3**(10**8) must never be formed: the entry count decides first
    sfile = tmp_path / "rho.json"
    sfile.write_text(json.dumps({"local_dim": 3, "parties": 10**8,
                                 "matrix": [[1, 0]]}))
    start = time.perf_counter()
    rc = main(["detect", "--state", f"file:@{sfile}", "--max-t"])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert rc == 2
    assert "holds 1 entries" in captured.err
    assert elapsed < 0.5
