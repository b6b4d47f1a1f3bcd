import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

from lpdist import SphereGrid, load_lp
from lpdist.cli import main
OT_DATA = {
    "A": [[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0], [1.0, 0.0, 1.0, 0.0]],
    "b": [0.5, 0.5, 0.5],
    "c": [0.0, 1.0, 1.0, 0.0],
}


@pytest.fixture
def ot_file(write_json):
    return write_json("ot.json", OT_DATA)


def test_solve_outputs_certificate(ot_file, capsys):
    assert main(["solve", "--lp", ot_file]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert abs(payload["objective"]) < 1e-12
    assert np.allclose(payload["x_hat"], [0.5, 0.0, 0.0, 0.5])
    assert payload["basis"] in ([0, 1, 3], [0, 2, 3])
    assert payload["kkt_ok"] is True
    assert len(payload["dual"]) == 3 and len(payload["slack"]) == 4


def test_solve_emit_lp_round_trip(ot_file, tmp_path, capsys):
    out = tmp_path / "echo.json"
    assert main(["solve", "--lp", ot_file, "--emit-lp", str(out)]) == 0
    capsys.readouterr()
    again = load_lp(str(out))
    assert np.array_equal(again.A, np.array(OT_DATA["A"]))
    assert np.array_equal(again.b, np.array(OT_DATA["b"]))
    assert np.array_equal(again.c, np.array(OT_DATA["c"]))


def test_exit_codes(write_json, capsys):
    # missing file -> input error
    assert main(["solve", "--lp", "/nonexistent/prog.json"]) == 2
    # infeasible program -> solver error
    bad = write_json("bad.json", {"A": [[1.0, 1.0]], "b": [-1.0], "c": [0.0, 0.0]})
    assert main(["solve", "--lp", bad]) == 1
    # malformed flag -> argparse error propagated as exit code 2
    assert main(["solve", "--no-such-flag"]) == 2
    # unknown subcommand
    assert main(["frobnicate"]) == 2
    # malformed JSON payload
    capsys.readouterr()


def test_solve_of_a_vertex_below_zero_exits_2(write_json, capsys):
    # phase one keeps an artificial mass of 2e-10 <= FEAS_TOL, the row's whole
    # scale, and the only basis then gives x[0] = -1
    path = write_json("tiny.json", {"A": [[2e-10]], "b": [-2e-10], "c": [0.0]})
    assert main(["solve", "--lp", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "x[0] = -1.0" in captured.err


def test_stability_unconstrained_sentinel(write_json, capsys):
    ident = write_json("id.json", {"A": [[1.0, 0.0], [0.0, 1.0]], "b": [1.0, 2.0],
                                   "c": [1.0, 1.0]})
    assert main(["stability", "--lp", ident, "--slater", "1,2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["delta_b0"] == "unconstrained"
    assert abs(payload["tau"] - 1.0) < 1e-12
    assert abs(payload["delta_star"] - 1.0) < 1e-12


def test_stability_rejects_bad_point(ot_file, capsys):
    assert main(["stability", "--lp", ot_file, "--slater", "1,1,1,1"]) == 2
    capsys.readouterr()


def test_confidence_csv_matches_reported_values(ot_file, write_json, tmp_path, capsys):
    region = write_json("region.json", {"kind": "segment",
                                        "direction": [1.0, -1.0, 0.0],
                                        "half_width": 0.979981992270027})
    out = tmp_path / "intervals.csv"
    code = main(["confidence", "--lp", ot_file, "--region", region,
                 "--b", "0.55,0.45,0.5", "--n", "20", "--out", str(out)])
    assert code == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "coordinate,lower,upper"
    table = {int(r.split(",")[0]): tuple(map(float, r.split(",")[1:])) for r in rows[1:]}
    assert table[0] == (0.5, 0.5)
    assert table[2] == (0.0, 0.0)
    assert abs(table[1][0] - (-0.169)) < 1e-3 and abs(table[1][1] - 0.269) < 1e-3
    assert abs(table[3][0] - 0.231) < 1e-3 and abs(table[3][1] - 0.669) < 1e-3
    capsys.readouterr()


def test_confidence_mapped_out(ot_file, write_json, tmp_path, capsys):
    region = write_json("region.json", {"kind": "segment",
                                        "direction": [1.0, -1.0, 0.0],
                                        "half_width": 0.5})
    mapped_path = tmp_path / "mapped.json"
    code = main(["confidence", "--lp", ot_file, "--region", region,
                 "--b", "0.55,0.45,0.5", "--n", "20",
                 "--mapped-out", str(mapped_path), "--out", str(tmp_path / "i.csv")])
    assert code == 0
    mapped = json.loads(mapped_path.read_text())
    assert mapped["basis"] == [0, 1, 3]
    assert mapped["kind"] == "segment"
    assert np.allclose(mapped["generator"], [0.0, 1.0, -1.0])
    capsys.readouterr()


def test_coverage_csv_schema_and_determinism(tmp_path, capsys):
    out1 = tmp_path / "cov1.csv"
    out2 = tmp_path / "cov2.csv"
    argv = ["coverage", "--experiment", "ot2x2", "--replicates", "50",
            "--n-values", "1,10", "--seed", "7"]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    rows = out1.read_text().strip().splitlines()
    assert rows[0] == "n,replicates,covered,coverage,std_error,failed"
    assert len(rows) == 3
    first = rows[1].split(",")
    assert first[0] == "1" and first[1] == "50"
    capsys.readouterr()


def test_coverage_custom_requires_config(capsys):
    assert main(["coverage", "--experiment", "custom"]) == 2
    capsys.readouterr()


def test_coverage_custom_config(write_json, tmp_path, capsys):
    cfg = {
        "lp": OT_DATA,
        "b_sampler": {"kind": "multinomial_marginal", "probabilities": [0.5, 0.5],
                      "tail": [0.5]},
        "region": {"kind": "segment", "direction": [1.0, -1.0, 0.0],
                   "half_width": 0.979981992270027},
        "n_values": [10],
        "replicates": 25,
    }
    path = write_json("custom.json", cfg)
    out = tmp_path / "custom.csv"
    code = main(["coverage", "--experiment", "custom", "--config", path,
                 "--seed", "7", "--out", str(out)])
    assert code == 0
    rows = out.read_text().strip().splitlines()
    assert len(rows) == 2 and rows[1].startswith("10,25,")
    capsys.readouterr()


def test_limit_sample_csv(ot_file, write_json, tmp_path, capsys):
    sampler = write_json("sampler.json", {"kind": "multinomial_clt",
                                          "probabilities": [0.5, 0.5],
                                          "pad_to": 3})
    out = tmp_path / "draws.csv"
    support_out = tmp_path / "support.csv"
    code = main(["limit-sample", "--lp", ot_file, "--sampler", sampler,
                 "--draws", "5", "--seed", "3", "--grid-resolution", "8",
                 "--out", str(out), "--support-out", str(support_out)])
    assert code == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "draw,objective,distance,g_0,g_1,g_2"
    assert len(rows) == 6
    # deterministic rerun
    out2 = tmp_path / "draws2.csv"
    main(["limit-sample", "--lp", ot_file, "--sampler", sampler,
          "--draws", "5", "--seed", "3", "--out", str(out2)])
    assert out2.read_text() == out.read_text()
    srows = support_out.read_text().strip().splitlines()
    assert srows[0].startswith("draw,direction,value,alpha_0")
    assert len(srows) == 1 + 5 * 8
    capsys.readouterr()


def test_limit_sample_reads_the_sphere_grid_once(ot_file, write_json, tmp_path,
                                                 monkeypatch, capsys):
    reads = []
    directions = SphereGrid.directions

    def counted(grid):
        reads.append(grid.resolution)
        return directions.fget(grid)

    monkeypatch.setattr(SphereGrid, "directions", property(counted))
    sampler = write_json("sampler.json", {"kind": "gaussian", "sigma": np.eye(3).tolist()})
    code = main(["limit-sample", "--lp", ot_file, "--sampler", sampler, "--draws", "30",
                 "--grid-resolution", "8", "--out", str(tmp_path / "draws.csv"),
                 "--support-out", str(tmp_path / "support.csv")])
    assert code == 0
    assert reads == [8]
    assert len((tmp_path / "support.csv").read_text().splitlines()) == 1 + 30 * 8
    capsys.readouterr()


def test_limit_sample_verify_unique_rejects_a_tied_optimum(write_json, capsys):
    tied = write_json("tied.json", {"A": [[1, 1]], "b": [1], "c": [1, 1]})
    sampler = write_json("sampler.json", {"kind": "gaussian", "sigma": [[1.0]]})
    args = ["limit-sample", "--lp", tied, "--sampler", sampler, "--draws", "3"]
    assert main(args) == 0  # trusted, each draw reports one vertex
    capsys.readouterr()
    assert main(args + ["--verify-unique"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "optimal set has 2 vertices" in captured.err


def test_limit_compare_json(capsys):
    code = main(["limit-compare", "--experiment", "ot2x2", "--n", "200",
                 "--draws", "60", "--seed", "11"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n"] == 200 and payload["draws"] == 60
    assert 0.0 <= payload["ks_distance"] <= 1.0


def test_hausdorff_command(write_json, capsys):
    p1 = write_json("p1.json", [[0.0, 0.0], [1.0, 0.0]])
    p2 = write_json("p2.json", {"vertices": [[0.0, 0.0], [1.0, 0.0]]})
    assert main(["hausdorff", "--p1", p1, "--p2", p2]) == 0
    assert float(capsys.readouterr().out) == 0.0


def test_hausdorff_names_a_polytope_file_without_vertices(write_json, capsys):
    p1 = write_json("f.json", {"x": 1})
    p2 = write_json("g.json", [[0.0, 0.0]])
    assert main(["hausdorff", "--p1", p1, "--p2", p2]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {p1}: polytope JSON object has no 'vertices' key\n"


def test_module_entry_point_and_any_installed_script_solve(ot_file):
    """``python -m lpdist.cli`` always runs; the ``lpdist`` console script
    runs on the same input too when an installed one is on ``PATH``."""
    commands = [[sys.executable, "-m", "lpdist.cli"]]
    script = shutil.which("lpdist")
    if script is not None:
        commands.append([script])
    for command in commands:
        proc = subprocess.run(command + ["solve", "--lp", ot_file], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["kkt_ok"] is True


BOX_REGION = {"kind": "box", "lower": [-1.0, -1.0, -1.0], "upper": [1.0, 1.0, 1.0]}


def test_confidence_with_documented_box_region(ot_file, write_json, capsys):
    region = write_json("box.json", BOX_REGION)
    assert main(["confidence", "--lp", ot_file, "--region", region,
                 "--b", "0.55,0.45,0.5", "--n", "20"]) == 0
    assert capsys.readouterr().out.startswith("coordinate,lower,upper")


def test_unknown_region_key_is_an_input_error_without_traceback(ot_file, write_json):
    region = write_json("box.json", {"kind": "box", "half_widths": [1.0, 1.0, 1.0]})
    proc = subprocess.run([sys.executable, "-m", "lpdist.cli", "confidence", "--lp", ot_file,
                           "--region", region, "--b", "0.55,0.45,0.5", "--n", "20"],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "half_widths" in proc.stderr and "lower" in proc.stderr


@pytest.mark.parametrize("region", [
    {**BOX_REGION, "colour": "red"},
    {"kind": "segment", "direction": [1.0, -1.0, 0.0], "half_width": 0.5, "extra": 1},
    {"kind": "ellipsoid", "sigma": [[1.0]]},
])
def test_bad_region_spec_exits_2(ot_file, write_json, capsys, region):
    path = write_json("region.json", region)
    assert main(["confidence", "--lp", ot_file, "--region", path,
                 "--b", "0.55,0.45,0.5", "--n", "20"]) == 2
    assert "spec" in capsys.readouterr().err


@pytest.mark.parametrize("sampler", [
    {"kind": "multinomial_clt", "probabilities": [0.5, 0.5], "pad_to": 3, "seed": 1},
    {"kind": "gaussian", "sigma": [[1.0]], "support": [0]},
    {"kind": "empirical"},
])
def test_bad_noise_spec_exits_2(ot_file, write_json, capsys, sampler):
    path = write_json("sampler.json", sampler)
    assert main(["limit-sample", "--lp", ot_file, "--sampler", path, "--draws", "3"]) == 2
    assert "spec" in capsys.readouterr().err


@pytest.mark.parametrize("part, spec", [
    ("b_sampler", {"kind": "multinomial_marginal", "probabilities": [0.5, 0.5],
                   "tail": [0.5], "n": 10}),
    ("b_sampler", {"kind": "gaussian"}),
    ("region", {"kind": "segment", "direction": [1.0, -1.0, 0.0], "width": 1.0}),
])
def test_bad_custom_config_spec_exits_2(write_json, capsys, part, spec):
    cfg = {
        "lp": OT_DATA,
        "b_sampler": {"kind": "multinomial_marginal", "probabilities": [0.5, 0.5],
                      "tail": [0.5]},
        "region": {"kind": "segment", "direction": [1.0, -1.0, 0.0], "half_width": 1.0},
        "replicates": 5,
    }
    path = write_json("custom.json", {**cfg, part: spec})
    assert main(["coverage", "--experiment", "custom", "--config", path]) == 2
    assert "spec" in capsys.readouterr().err


def test_stability_names_both_lengths_of_a_slater_point_of_the_wrong_length(ot_file, capsys):
    assert main(["stability", "--lp", ot_file, "--slater", "0.25,0.25"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: slater point has shape (2,), expected (4,)\n"


@pytest.mark.parametrize("slater", ["nan,0.25,0.25,0.25", "0.25,inf,0.25,0.25"])
def test_stability_rejects_non_finite_point(ot_file, capsys, slater):
    assert main(["stability", "--lp", ot_file, "--slater", slater]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "NaN or infinity" in captured.err


@pytest.mark.parametrize("spec", [[1, 2], "box", 3, None])
def test_region_spec_that_is_not_an_object_exits_2(ot_file, write_json, capsys, spec):
    path = write_json("region.json", spec)
    assert main(["confidence", "--lp", ot_file, "--region", path,
                 "--b", "0.55,0.45,0.5", "--n", "20"]) == 2
    assert "JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("spec", [[1, 2], "gaussian"])
def test_noise_spec_that_is_not_an_object_exits_2(ot_file, write_json, capsys, spec):
    path = write_json("sampler.json", spec)
    assert main(["limit-sample", "--lp", ot_file, "--sampler", path, "--draws", "3"]) == 2
    assert "JSON object" in capsys.readouterr().err


CUSTOM_CONFIG = {
    "lp": OT_DATA,
    "b_sampler": {"kind": "multinomial_marginal", "probabilities": [0.5, 0.5], "tail": [0.5]},
    "region": {"kind": "segment", "direction": [1.0, -1.0, 0.0], "half_width": 1.0},
    "replicates": 5,
}


@pytest.mark.parametrize("config", [
    [CUSTOM_CONFIG],
    {**CUSTOM_CONFIG, "b_sampler": [0.5, 0.5]},
    {**CUSTOM_CONFIG, "region": [1, 2]},
])
def test_custom_config_part_that_is_not_an_object_exits_2(write_json, capsys, config):
    path = write_json("custom.json", config)
    assert main(["coverage", "--experiment", "custom", "--config", path]) == 2
    assert "JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("region", [
    {"kind": "ellipsoid", "sigma": [[1.0, 0.0], [0.0, 1.0]], "level": "high",
     "support_indices": [0, 1]},
    {"kind": "ellipsoid", "sigma": [[1.0, 0.0], [0.0, 1.0]], "level": [0.9],
     "support_indices": [0, 1]},
    {"kind": "segment", "direction": [1.0, -1.0, 0.0], "half_width": "wide"},
    {"kind": "segment", "direction": [1.0, -1.0, 0.0], "half_width": None},
    {**BOX_REGION, "lower": {"a": 1}},
    {**BOX_REGION, "coverage_target": [0.9]},
])
def test_region_value_of_the_wrong_type_exits_2(ot_file, write_json, capsys, region):
    path = write_json("region.json", region)
    assert main(["confidence", "--lp", ot_file, "--region", path,
                 "--b", "0.55,0.45,0.5", "--n", "20"]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("sampler", [
    {"kind": "gaussian", "sigma": {"a": 1}},
    {"kind": "gaussian", "sigma": [[1.0]], "support_indices": True},
    {"kind": "multinomial_clt", "probabilities": [0.5, 0.5], "pad_to": [3]},
    {"kind": "multinomial_clt", "probabilities": None},
    {"kind": "empirical", "vectors": {"a": [1.0]}},
])
def test_noise_value_of_the_wrong_type_exits_2(ot_file, write_json, capsys, sampler):
    path = write_json("sampler.json", sampler)
    assert main(["limit-sample", "--lp", ot_file, "--sampler", path, "--draws", "3"]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("part, spec", [
    ("b_sampler", {"kind": "gaussian", "sigma": [[1.0]], "support_indices": 2}),
    ("b_sampler", {"kind": "multinomial_marginal", "probabilities": {"a": 1}}),
    ("region", {"kind": "segment", "direction": [1.0, -1.0, 0.0], "half_width": [1.0]}),
])
def test_custom_config_value_of_the_wrong_type_exits_2(write_json, capsys, part, spec):
    path = write_json("custom.json", {**CUSTOM_CONFIG, part: spec})
    assert main(["coverage", "--experiment", "custom", "--config", path]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_wrong_type_region_value_exits_2_without_traceback(ot_file, write_json):
    region = write_json("region.json", {"kind": "ellipsoid", "sigma": [[1.0, 0.0], [0.0, 1.0]],
                                        "level": "high", "support_indices": [0, 1]})
    proc = subprocess.run([sys.executable, "-m", "lpdist.cli", "confidence", "--lp", ot_file,
                           "--region", region, "--b", "0.55,0.45,0.5", "--n", "20"],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "high" in proc.stderr


# --mapped-out payloads and intervals at b = (0.55, 0.45, 0.5), n = 20, for one
# region of each shape; recorded before regions became classes
MAPPED_CASES = {
    "ellipsoid": (
        {"kind": "ellipsoid", "sigma": [[0.25, 0.0, 0.0], [0.0, 0.25, 0.0], [0.0, 0.0, 0.1]],
         "level": 0.9},
        {"q": 6.251388631170327,
         "quadratic": [[14.0, 4.0, 0.0], [4.0, 4.0, 0.0], [0.0, 0.0, 4.0]],
         "generator": [[0.0, 0.0, 0.31622776601683794], [0.5, -0.0, -0.31622776601683794],
                       [0.0, 0.5, 0.0]]},
        [[0.3232036675837091, 0.6767963324162909], [-0.28075565156997795, 0.38075565156997804],
         [0.0, 0.0], [0.17046045380013036, 0.7295395461998697]],
    ),
    "ellipsoid_support": (
        {"kind": "ellipsoid", "sigma": [[1.0, 0.5], [0.5, 2.0]], "level": 0.95,
         "support_indices": [0, 1]},
        {"q": 5.991464547107979,
         "generator": [[0.0, 0.0], [1.0, -0.0], [0.5, 1.3228756555322954]]},
        [[0.5, 0.5], [-0.49733283051119714, 0.5973328305111972], [0.0, 0.0],
         [-0.3240455120409897, 1.2240455120409897]],
    ),
    "box": (
        {"kind": "box", "lower": [-1.0, -0.5, -2.0], "upper": [1.0, 1.5, 0.25]},
        {"inverse_basis": [[0.0, 0.0, 1.0], [1.0, -0.0, -1.0], [0.0, 1.0, 0.0]]},
        [[0.44409830056250527, 0.9472135954999579], [-0.6208203932499369, 0.32950849718747377],
         [0.0, 0.0], [0.11458980337503155, 0.5618033988749895]],
    ),
    "segment": (
        {"kind": "segment", "direction": [1.0, -1.0, 0.0], "half_width": 0.5},
        {"generator": [0.0, 1.0, -1.0], "half_width": 0.5},
        [[0.5, 0.5], [-0.06180339887498944, 0.1618033988749895], [0.0, 0.0],
         [0.33819660112501054, 0.5618033988749895]],
    ),
}


@pytest.mark.parametrize("name", sorted(MAPPED_CASES))
def test_mapped_out_payload_for_each_region_shape(ot_file, write_json, tmp_path, capsys, name):
    region, mapped_part, intervals = MAPPED_CASES[name]
    mapped_path = tmp_path / "mapped.json"
    out = tmp_path / "intervals.csv"
    assert main(["confidence", "--lp", ot_file, "--region", write_json("region.json", region),
                 "--b", "0.55,0.45,0.5", "--n", "20", "--mapped-out", str(mapped_path),
                 "--out", str(out)]) == 0
    mapped = json.loads(mapped_path.read_text())
    # the keys in their written order, then the values
    assert list(mapped) == ["basis", "kind", "rate", "center", *mapped_part]
    assert mapped["basis"] == [0, 1, 3] and mapped["kind"] == region["kind"]
    expected = {"rate": 20.0 ** 0.5, "center": [0.5, 0.05, 0.0, 0.45], **mapped_part}
    for key, value in expected.items():
        np.testing.assert_allclose(mapped[key], value, rtol=1e-12, atol=1e-15, err_msg=key)
    rows = out.read_text().strip().splitlines()[1:]
    got = [[float(v) for v in row.split(",")[1:]] for row in rows]
    np.testing.assert_allclose(got, intervals, rtol=1e-12, atol=1e-15)
    capsys.readouterr()


@pytest.mark.parametrize("change", [
    {"replicates": [5]},
    {"replicates": 0},
    {"n_values": 7},
    {"n_values": "10"},
    {"n_values": [[10]]},
    {"n_values": [0, 10]},
    {"seed": [1]},
    {"rate_exponent": "fast"},
    {"name": ["run"]},
    {"truth_b": {"a": 1}},
    {"truth_b": [0.5, 0.5]},
    {"replicate": 5},
    {"b_sampler": {"kind": "empirical", "vectors": [[0.1, -0.1, 0.0]]}},
], ids=lambda change: next(iter(change)))
def test_bad_custom_config_top_level_value_exits_2(write_json, capsys, change):
    path = write_json("custom.json", {**CUSTOM_CONFIG, **change})
    assert main(["coverage", "--experiment", "custom", "--config", path]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_wrong_type_top_level_value_exits_2_without_traceback(write_json):
    path = write_json("custom.json", {**CUSTOM_CONFIG, "replicates": [5]})
    proc = subprocess.run([sys.executable, "-m", "lpdist.cli", "coverage", "--experiment",
                           "custom", "--config", path], capture_output=True, text=True)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "experiment config spec" in proc.stderr


def test_custom_config_without_lp_names_the_missing_key(write_json, capsys):
    config = {key: value for key, value in CUSTOM_CONFIG.items() if key != "lp"}
    assert main(["coverage", "--experiment", "custom",
                 "--config", write_json("custom.json", config)]) == 2
    assert "lp" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["limit-sample", "confidence"])
def test_support_index_past_the_rows_exits_2_without_traceback(ot_file, write_json, command):
    spec = {"sigma": [[1.0]], "support_indices": [5]}
    if command == "limit-sample":
        path = write_json("sampler.json", {"kind": "gaussian", **spec})
        args = ["--sampler", path, "--draws", "3"]
    else:
        path = write_json("region.json", {"kind": "ellipsoid", "level": 0.95, **spec})
        args = ["--region", path, "--b", "0.55,0.45,0.5", "--n", "20"]
    proc = subprocess.run([sys.executable, "-m", "lpdist.cli", command, "--lp", ot_file, *args],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "support_indices [5]" in proc.stderr


def test_custom_config_with_a_non_positive_definite_region_exits_2(write_json, capsys):
    region = {"kind": "ellipsoid", "sigma": [[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
              "level": 0.9}
    path = write_json("custom.json", {**CUSTOM_CONFIG, "region": region})
    assert main(["coverage", "--experiment", "custom", "--config", path]) == 2
    assert "positive definite" in capsys.readouterr().err


def test_custom_config_support_index_past_the_rows_exits_2(write_json, capsys):
    sampler = {"kind": "gaussian", "sigma": [[1.0]], "support_indices": [3]}
    path = write_json("custom.json", {**CUSTOM_CONFIG, "b_sampler": sampler})
    assert main(["coverage", "--experiment", "custom", "--config", path]) == 2
    assert "support_indices [3]" in capsys.readouterr().err


def test_custom_config_multinomial_off_the_truth_exits_2(write_json, capsys):
    # the law draws frequencies around (0.2, 0.8), the program's b is 0.5 in both
    sampler = {"kind": "multinomial_marginal", "probabilities": [0.2, 0.8], "tail": [0.5]}
    path = write_json("custom.json", {**CUSTOM_CONFIG, "b_sampler": sampler})
    assert main(["coverage", "--experiment", "custom", "--config", path]) == 2
    err = capsys.readouterr().err
    assert "centred at [0.2, 0.8, 0.5]" in err and "[0.5, 0.5, 0.5]" in err


# min -x1 + x2 s.t. x0 - x1 + x2 = 1: x1 grows without bound along (1, 1, 0)
UNBOUNDED_CONFIG = {
    "lp": {"A": [[1, -1, 1]], "b": [1], "c": [0, -1, 1]},
    "b_sampler": {"kind": "gaussian", "sigma": [[1.0]]},
    "region": {"kind": "segment", "direction": [1.0], "half_width": 1.0},
    "n_values": [100], "replicates": 50,
}


def test_custom_config_on_an_unbounded_program_exits_1(write_json, tmp_path, capsys):
    path = write_json("unbounded.json", UNBOUNDED_CONFIG)
    out = tmp_path / "coverage.csv"
    assert main(["coverage", "--experiment", "custom", "--config", path, "--out", str(out)]) == 1
    assert "unbounded" in capsys.readouterr().err and not out.exists()


@pytest.mark.parametrize("part, spec", [
    ("b_sampler", {"kind": "gaussian", "sigma": [[1.0, 0.0], [0.0, 1.0]],
                   "support_indices": [2, 2]}),
    ("region", {"kind": "ellipsoid", "sigma": [[1.0, 0.0], [0.0, 1.0]], "level": 0.9,
                "support_indices": [2, 2]}),
])
def test_custom_config_repeated_support_index_exits_2(write_json, capsys, part, spec):
    path = write_json("custom.json", {**CUSTOM_CONFIG, part: spec})
    assert main(["coverage", "--experiment", "custom", "--config", path]) == 2
    assert "support_indices [2] repeat" in capsys.readouterr().err


@pytest.mark.parametrize("args, message", [
    (["--n", "200", "--draws", "0"], "draws must be positive, not 0"),
    (["--n", "200", "--draws", "-3"], "draws must be positive, not -3"),
    (["--n", "0", "--draws", "20"], "n must be positive, not 0"),
])
def test_bad_limit_compare_sizes_exit_2(args, message, capsys, recwarn):
    assert main(["limit-compare", "--experiment", "ot2x2", *args]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert message in err
    assert not recwarn.list


def test_negative_limit_sample_draws_exit_2(ot_file, write_json, capsys):
    sampler = write_json("sampler.json", {"kind": "multinomial_clt",
                                          "probabilities": [0.5, 0.5], "pad_to": 3})
    assert main(["limit-sample", "--lp", ot_file, "--sampler", sampler, "--draws", "-3"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "n_draws must be nonnegative, not -3" in err


@pytest.mark.parametrize("n", ["-4", "0"])
def test_confidence_sample_size_below_one_exits_2_without_traceback(ot_file, write_json, n):
    region = write_json("region.json", BOX_REGION)
    proc = subprocess.run([sys.executable, "-m", "lpdist.cli", "confidence", "--lp", ot_file,
                           "--region", region, "--b", "0.55,0.45,0.5", "--n", n],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert f"--n must be positive, not {n}" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("command, payload", [
    (["solve", "--lp"], [[1, 2], [3]]),
    (["solve", "--lp"], 5),
    (["solve", "--lp"], {"A": {"x": 1}, "b": [1.0], "c": [1.0]}),
    (["confidence", "--region", "box", "--n", "20", "--lp", "ot", "--b"], {"x": 1}),
    (["stability", "--lp", "ot", "--slater"], {"x": 1}),
    (["hausdorff", "--p2", "square", "--p1"], {"vertices": {"x": 1}}),
])
def test_json_input_of_the_wrong_type_exits_2(ot_file, write_json, capsys, command, payload):
    files = {"ot": ot_file, "box": write_json("box.json", BOX_REGION),
             "square": write_json("square.json", [[0.0, 0.0], [1.0, 1.0]])}
    path = write_json("input.json", payload)
    args = [files.get(arg, arg) for arg in command]
    args.append("@" + path if args[-1] in ("--b", "--slater") else path)
    assert main(args) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:")
