"""End-to-end command-line contract: reports, gates, config, determinism."""

import dataclasses
import importlib.util
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import dijkstra

import expmetric as em
from expmetric import backward, cli, dynamics, gridmetric, metrics, rays
from expmetric.render import RenderSpec


def run(argv, capsys=None):
    rc = cli.main(argv)
    assert rc == 0
    return capsys.readouterr().out if capsys is not None else None


def read_ppm(path):
    data = path.read_bytes()
    assert data.startswith(b"P6\n")
    header, rest = data.split(b"255\n", 1)
    w, h = map(int, header.split(b"\n")[1].split())
    rgb = np.frombuffer(rest, dtype=np.uint8).reshape(h, w, 3)
    return w, h, rgb


# ------------------------------------------------------------------ classify


def test_classify_chebyshev(tmp_path, capsys):
    out = run(["classify", "--c-re", "-2", "--out", str(tmp_path)], capsys)
    printed = json.loads(out)
    assert printed["kind"] == "bounded-nonrecurrent"
    assert printed["recurrence_gap"] == pytest.approx(2.0)
    report = json.loads((tmp_path / "classify.json").read_text())
    assert report["cloud_size"] == 2
    assert report["cloud_diameter"] == pytest.approx(4.0)
    assert report["version"]
    assert report["seed"] == 0


def test_classify_escaping(tmp_path, capsys):
    out = run(["classify", "--c-re", "1", "--out", str(tmp_path)], capsys)
    printed = json.loads(out)
    assert printed["kind"] == "escaping"
    assert printed["escape_index"] is not None
    report = json.loads((tmp_path / "classify.json").read_text())
    assert "cloud_diameter" not in report


def test_classify_overflowing_orbit_escapes(tmp_path, capsys):
    # (-2)^1000000 overflows: the second iterate has escaped
    out = run(["classify", "--d", "1000000", "--c-re", "-2", "--out", str(tmp_path)], capsys)
    assert json.loads(out) == {"escape_index": 2, "iterates_used": 2, "kind": "escaping",
                               "recurrence_gap": 2.0}
    # c^2 + c overflows to NaN + NaN i: inf - inf in its real part
    out = run(["classify", "--c-re", "1e200", "--c-im", "1e200", "--out", str(tmp_path)], capsys)
    assert json.loads(out) == {"escape_index": 2, "iterates_used": 2, "kind": "escaping",
                               "recurrence_gap": abs(complex(1e200, 1e200))}


def test_classify_recurrent_and_c_i(tmp_path, capsys):
    out = run(["classify", "--c-re", "0", "--out", str(tmp_path)], capsys)
    assert json.loads(out)["kind"] == "bounded-recurrent"
    out = run(["classify", "--c-re", "0", "--c-im", "1", "--out", str(tmp_path)],
              capsys)
    printed = json.loads(out)
    assert printed["kind"] == "bounded-nonrecurrent"
    assert json.loads((tmp_path / "classify.json").read_text())["cloud_size"] == 3


def test_flags_accepted_before_subcommand(tmp_path, capsys):
    out_a = run(["--c-re", "0", "classify", "--out", str(tmp_path / "a")], capsys)
    out_b = run(["classify", "--c-re", "0", "--out", str(tmp_path / "b")], capsys)
    assert json.loads(out_a)["kind"] == json.loads(out_b)["kind"] == "bounded-recurrent"


COMMANDS = ["classify", "expansion", "holder", "rays", "render"]
# every shared flag with a valid value that is not its default
SHARED_FLAGS = [("--config", "settings.json"), ("--d", "3"), ("--c-re", "-1e-3"),
                ("--c-im", "0.5"), ("--orbit-n", "100"), ("--epsilon", "0.01"),
                ("--grid-res", "64"), ("--orbits", "7"), ("--depth", "12"),
                ("--seed", "5"), ("--out", "elsewhere")]


def parsed_config(argv):
    return cli._config_from_args(cli._build_parser().parse_args(argv))


@pytest.mark.parametrize("flag, value", SHARED_FLAGS, ids=[f for f, _ in SHARED_FLAGS])
@pytest.mark.parametrize("command", COMMANDS)
def test_shared_flag_parses_the_same_on_either_side(command, flag, value, tmp_path,
                                                    monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(cli.OUTPUT_DIR_ENV, raising=False)
    (tmp_path / "settings.json").write_text('{"seed": 9}')
    before = parsed_config([flag, value, command])
    assert before == parsed_config([command, flag, value]) != cli.ExperimentConfig()


@pytest.mark.parametrize("command", COMMANDS)
def test_subcommand_flag_beats_top_level_flag(command, monkeypatch):
    monkeypatch.delenv(cli.OUTPUT_DIR_ENV, raising=False)
    cfg = parsed_config(["--seed", "1", "--c-im", "0.5", command, "--seed", "2"])
    assert cfg == cli.ExperimentConfig(seed=2, c=complex(-2.0, 0.5))


@pytest.mark.parametrize("command", [None, *COMMANDS])
def test_help_text_is_unchanged(command, monkeypatch, capsys):
    # tests/help holds the help text of each parser, as Python 3.11's argparse
    # prints it on 80 columns
    monkeypatch.setenv("COLUMNS", "80")
    argv = [command] if command else []
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--help"])
    assert exc.value.code == 0
    name = "-".join(["expmetric", *argv])
    expected = (Path(__file__).parent / "help" / f"{name}.txt").read_text()
    assert capsys.readouterr().out == expected


# --------------------------------------------------------------------- gates


def test_expansion_refuses_recurrent(tmp_path):
    with pytest.raises(SystemExit, match="bounded-recurrent"):
        cli.main(["expansion", "--c-re", "0", "--out", str(tmp_path)])


def test_expansion_refuses_escaping(tmp_path):
    with pytest.raises(SystemExit, match="escaping"):
        cli.main(["expansion", "--c-re", "1", "--out", str(tmp_path)])


def test_holder_refuses_recurrent(tmp_path):
    with pytest.raises(SystemExit, match="refusing to run"):
        cli.main(["holder", "--c-re", "0", "--out", str(tmp_path)])


def test_rays_refuses_escaping(tmp_path):
    with pytest.raises(SystemExit, match="escapes"):
        cli.main(["rays", "--c-re", "1", "--out", str(tmp_path)])


def test_rays_rejects_zero_depth(tmp_path):
    with pytest.raises(SystemExit, match="rays need depth >= 1, got 0") as exc:
        cli.main(["rays", "--c-re", "-2", "--depth", "0", "--out", str(tmp_path)])
    assert "\n" not in str(exc.value.code)


def test_rays_rejects_invalid_angle(tmp_path):
    with pytest.raises(SystemExit, match="invalid external angle 1.5"):
        cli.main(["rays", "--c-re", "-2", "--angles", "0,1.5",
                  "--out", str(tmp_path)])


@pytest.mark.parametrize("command", [["rays", "--angles"],
                                     ["render", "--width", "8", "--height", "8", "--rays"]],
                         ids=["rays", "render"])
@pytest.mark.parametrize("angle", ["x", "nan", "1.5", "-0.25", "inf"])
def test_invalid_angle_is_one_line(tmp_path, command, angle):
    with pytest.raises(SystemExit, match=f"invalid external angle {angle}: ") as exc:
        cli.main([*command, f"0.25,{angle}", "--c-re", "-2", "--out", str(tmp_path)])
    assert "\n" not in str(exc.value.code)
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("flags, reason", [
    # the disk holds the whole Julia set of z^2 - 2; this orbit meets the
    # critical value again at level 2, and without the limit its samples
    # would double every level until memory runs out
    (["--c-re", "-2", "--epsilon", "3", "--orbits", "1", "--seed", "4"],
     "level 2 is its second critical level"),
    (["--c-re", "0", "--c-im", "1", "--epsilon", "1", "--orbits", "2"],
     "boundary sampled too coarsely"),
], ids=["second-critical-level", "coarse-boundary"])
def test_expansion_refuses_oversized_disk(tmp_path, flags, reason):
    with pytest.raises(SystemExit, match=reason) as exc:
        cli.main(["expansion", *flags, "--depth", "10", "--out", str(tmp_path)])
    assert str(exc.value.code).startswith("refusing to continue: orbit ")
    assert "\n" not in str(exc.value.code)
    assert not any(tmp_path.iterdir())


def test_second_critical_level_stops_before_next_lift(tmp_path, monkeypatch):
    calls = []
    lifts = []
    extend = backward._extend

    def recording(fmap, orbits, *args):
        calls.append(orbits)
        return backward.pull_back_orbits(fmap, orbits, *args)

    def counting(fmap, orbits, roots):
        lifts.append(len(orbits))
        return extend(fmap, orbits, roots)

    monkeypatch.setattr(cli, "pull_back_orbits", recording)
    monkeypatch.setattr(backward, "_extend", counting)
    with pytest.raises(SystemExit, match="level 2 is its second critical level"):
        cli.main(["expansion", "--c-re", "-2", "--epsilon", "3", "--orbits", "1",
                  "--depth", "10", "--seed", "4", "--out", str(tmp_path)])
    [[orbit]] = calls
    assert orbit.depth == 2
    assert orbit.labels[1:] == [backward.CaseLabel.CRITICAL] * 2
    # each critical lift doubled the samples; a third lift never ran
    assert len(orbit.boundary[-1]) == 4 * backward.BOUNDARY_SAMPLES
    assert lifts == [1, 1]


@pytest.mark.parametrize("flags, reason", [
    # orbit 7 meets the critical value a second time at level 2, orbit 0 at 9
    (["--epsilon", "1.2", "--seed", "11"],
     "orbit 0 at epsilon 1.2: level 9 is its second critical level"),
    # orbit 1's boundary is too coarse to lift at level 1, orbit 0 stops at 2
    (["--epsilon", "0.9", "--seed", "4"],
     "orbit 0 at epsilon 0.9: level 2 is its second critical level"),
], ids=["later-second-critical", "later-coarse"])
def test_expansion_refusal_names_the_lowest_orbit(tmp_path, flags, reason):
    # all orbits advance one level at a time, so a higher-numbered orbit can
    # be refused first; the message still names the lowest-numbered one
    with pytest.raises(SystemExit, match=reason):
        cli.main(["expansion", "--c-re", "0", "--c-im", "1", "--orbits", "8", *flags,
                  "--depth", "10", "--out", str(tmp_path)])
    assert not any(tmp_path.iterdir())


def test_expansion_peak_traced_memory(tmp_path):
    # the level loop keeps only each orbit's current polygon and takes
    # diameters a few orbits at a time: 1.4 MB at this size, where keeping
    # every level's polygons peaks at 9.0 MB and taking a whole level's
    # diameters at once at 4.9 MB.  A small run first pays the lazy imports
    # and first-call allocations outside the traced one.
    argv = ["expansion", "--c-re", "-2", "--seed", "0", "--out", str(tmp_path)]
    with redirect_stdout(io.StringIO()):
        cli.main([*argv, "--orbits", "2", "--depth", "10"])
        tracemalloc.start()
        try:
            cli.main([*argv, "--orbits", "50", "--depth", "50"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 3e6


@pytest.mark.parametrize("argv, classified, clouds, orbits", [
    *[(["--c-re", "-2", *flags], 1, 1, 1) for flags in (
        ["classify"], ["expansion", "--orbits", "2", "--depth", "10"],
        ["holder", "--grid-res", "32"], ["rays", "--angles", "0", "--depth", "8"],
        ["render", "--layer", "density-rho", "--width", "8", "--height", "8"])],
    *[(["--c-re", "1", *flags], 1, 0, 1) for flags in (
        ["classify"], ["rays"], ["render", "--layer", "density-rho"])],
    # escape-time reads neither the classification nor P(f)
    *[(["--c-re", c_re, "render", "--width", "8", "--height", "8"], 0, 0, 0)
      for c_re in ("1", "-2")],
    (["--c-re", "0", "expansion"], 1, 0, 1),
    (["--c-re", "0", "holder"], 1, 0, 1),
], ids=["classify", "expansion", "holder", "rays", "render-density-rho",
        "escaping-classify", "escaping-rays", "escaping-render-density-rho",
        "escaping-render-escape-time", "render-escape-time", "recurrent-expansion",
        "recurrent-holder"])
def test_each_command_resolves_the_parameter_once(tmp_path, monkeypatch, argv, classified,
                                                  clouds, orbits):
    # one classification and at most one cloud a command, both read from one
    # iteration of the critical orbit; a refused parameter, escaping or
    # outside the gate, never builds a cloud
    calls = []

    def counting(name):
        fn = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *a: calls.append(name) or fn(*a))

    counting("classify_parameter")
    counting("build_postcritical_cloud")
    # wherever the orbit is looked up from, each iteration counts once
    orbit = dynamics.critical_orbit
    for module in (cli, dynamics):
        monkeypatch.setattr(module, "critical_orbit",
                            lambda *a: calls.append("critical_orbit") or orbit(*a),
                            raising=False)
    try:
        with redirect_stdout(io.StringIO()):
            cli.main([*argv, "--out", str(tmp_path)])
    except SystemExit as exc:
        assert str(exc.code).startswith("refusing to")
    assert calls.count("classify_parameter") == classified
    assert calls.count("build_postcritical_cloud") == clouds
    assert calls.count("critical_orbit") == orbits


# -------------------------------------------------------------------- config


def test_config_file_overrides_flags(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"c": [0.0, 1.0], "orbit_n": 500, "seed": 7, "out_dir": str(tmp_path)}))
    run(["classify", "--config", str(cfg), "--c-re", "-2"], capsys)
    report = json.loads((tmp_path / "classify.json").read_text())
    assert report["config"]["c"] == [0.0, 1.0]
    assert report["config"]["orbit_n"] == 500
    assert report["seed"] == 7
    assert report["cloud_size"] == 3


def test_config_syntax_error_reports_location(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text('{\n  "seed": 1,\n}\n')
    with pytest.raises(SystemExit, match=r"line 3, column"):
        cli.main(["classify", "--config", str(cfg), "--out", str(tmp_path)])


@pytest.mark.parametrize("value", [[1], "x", [1, "x"], [True, 0], [0, 1, 2]],
                         ids=["one-number", "string", "non-number", "bool", "three-numbers"])
def test_config_malformed_c_rejected(tmp_path, value):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"c": value}))
    with pytest.raises(SystemExit, match="c must be a list of two numbers") as exc:
        cli.main(["classify", "--config", str(cfg), "--out", str(tmp_path)])
    assert "\n" not in str(exc.value.code)
    assert not (tmp_path / "classify.json").exists()


def test_config_unknown_field_rejected(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text('{"sede": 1}')
    with pytest.raises(SystemExit, match="unknown field 'sede'"):
        cli.main(["classify", "--config", str(cfg), "--out", str(tmp_path)])


@pytest.mark.parametrize("argv, config, message", [
    (["--orbits", "0"], None, "orbits must be at least 1, got 0"),
    (["--depth", "5"], None, "expansion needs depth >= 10"),
    (["--epsilon", "-1"], None, "epsilon must be a positive number, got -1.0"),
    ([], {"d": "3"}, "d must be an integer, got '3'"),
    (["--seed", "-1"], None, "seed must be at least 0, got -1"),
    (["--c-re", "nan"], None, r"c must be finite, got \[nan, 0.0\]"),
    (["--c-im", "inf"], None, r"c must be finite, got \[-2.0, inf\]"),
    ([], {"c": [0, math.inf]}, r"c must be finite, got \[0.0, inf\]"),
    ([], {"c": [10**400, 0]}, "c must be finite, got "),
    ([], {"epsilon": 10**400}, "epsilon must be a positive number, got 1000"),
    ([], {"out_dir": 5}, "out_dir must be a string, got 5"),
    ([], {"fmap": 1}, "unknown field 'fmap'"),
    ([], [1, 2], "expected a JSON object, got list"),
    ([], {"orbit_n": 100001}, "orbit_n must be <= 100000, got 100001"),
], ids=["orbits-0", "depth-5", "epsilon-negative", "config-d-string", "seed-negative",
        "c-re-nan", "c-im-inf", "config-c-inf", "config-c-huge-int", "config-epsilon-huge-int",
        "config-out-dir-number",
        "config-method-name", "config-not-object", "config-orbit-n-100001"])
def test_expansion_rejects_bad_input(tmp_path, argv, config, message):
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = argv + ["--config", str(cfg)]
    with pytest.raises(SystemExit, match=message) as exc:
        cli.main(["expansion", "--c-re", "-2", *argv, "--out", str(tmp_path)])
    assert "\n" not in str(exc.value.code)
    assert not (tmp_path / "expansion.json").exists()


@pytest.mark.parametrize("argv, message", [
    (["holder", "--grid-res", "8"], "holder needs grid_res >= 16, got 8"),
    (["holder", "--grid-res", "1000000"], "holder needs grid_res <= 2048, got 1000000"),
    (["rays", "--depth", "61"], "rays need depth <= 60, got 61"),
    (["render", "--depth", "61", "--width", "8", "--height", "8"],
     "rays need depth <= 60, got 61"),
    (["classify", "--config", "missing.json"], "config parse error in missing.json: "),
    (["expansion", "--d", "100000"], "expansion needs d <= 256, got 100000"),
    # the cloud's deduplication is quadratic in the orbit's length
    (["classify", "--orbit-n", "100001"], "invalid config: orbit_n must be <= 100000, got 100001"),
    (["render", "--orbit-n", "1000000000"], "orbit_n must be <= 100000, got 1000000000"),
    # memory grows with the number of disks pulled back
    (["expansion", "--orbits", "100000000000"],
     "invalid config: orbits must be <= 10000, got 100000000000"),
    # exp overflows at the top of a degree-100 ray
    (["render", "--d", "100", "--rays", "0.1", "--width", "4", "--height", "4",
      "--depth", "2"], "refusing to render: the Boettcher-regime start overflows at degree 100"),
    (["rays", "--d", "100", "--c-re", "0.1", "--angles", "0.1", "--depth", "2"],
     "refusing to trace rays: the Boettcher-regime start overflows at degree 100"),
    # the disk's diameter 2 epsilon is past the float range
    (["expansion", "--epsilon", "1e308"], r"^refusing to continue: orbit 0 at epsilon 1e\+308: "
     "level 2 is its second critical level; try a smaller --epsilon$"),
    # the reports key each ray by its angle
    (["rays", "--angles", "0.5,0.5", "--depth", "50"], "invalid external angle 0.5: given twice"),
    # the report would hold no ray
    (["rays", "--angles", ","], "invalid --angles ',': no external angle given"),
    (["render", "--rays", "0.25,0.1,0.250", "--width", "4", "--height", "4"],
     "invalid external angle 0.250: given twice"),
    # past level 1024 at d = 2 the expansion ratio leaves the float range
    (["expansion", "--orbits", "2", "--depth", "1101"],
     "invalid config: expansion needs depth <= 1100, got 1101"),
    # memory grows with the disk-levels pulled back
    (["expansion", "--orbits", "300", "--depth", "1001"],
     "invalid config: expansion needs orbits x depth <= 300000, got 300 x 1001"),
    # a subnormal disk's diameters lose relative precision and underflow
    (["expansion", "--orbits", "3", "--epsilon", "1e-310", "--depth", "12"],
     r"^invalid config: epsilon must be at least the least normal float "
     r"2\.2250738585072014e-308, got 1e-310$"),
    (["expansion", "--orbits", "3", "--epsilon", "1e-320", "--depth", "12"],
     "least normal float 2.2250738585072014e-308, got 1e-320"),
    (["classify", "--epsilon", "5e-324"], "least normal float 2.2250738585072014e-308, got 5e-324"),
], ids=["holder-grid-res-8", "holder-grid-res-1000000", "rays-depth-61", "render-depth-61",
        "config-missing", "expansion-d-100000", "orbit-n-100001", "render-orbit-n-1e9",
        "expansion-orbits-1e11", "render-ray-overflow-d-100", "rays-ray-overflow-d-100",
        "expansion-epsilon-1e308", "rays-repeated-angle", "rays-no-angle", "render-repeated-ray",
        "expansion-depth-1101", "expansion-orbits-300-depth-1001", "expansion-epsilon-1e-310",
        "expansion-epsilon-1e-320", "classify-epsilon-5e-324"])
def test_commands_reject_bad_input(tmp_path, monkeypatch, capfd, argv, message):
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SystemExit, match=message) as exc:
            # c = -2 unless the row names its own
            cli.main([argv[0], "--c-re", "-2", *argv[1:], "--out", str(tmp_path / "out")])
    assert "\n" not in str(exc.value.code)
    assert not (tmp_path / "out").exists()
    assert capfd.readouterr().err == ""


@pytest.mark.parametrize("argv, dest, value", [
    (["classify", "--c-re", "-1e-3"], "c_re", -1e-3),
    (["--c-re", "-1E+2", "classify"], "c_re", -100.0),
    (["expansion", "--c-im", "-1e-10"], "c_im", -1e-10),
    (["expansion", "--c-im", "-.5e1"], "c_im", -5.0),
    (["expansion", "--c-im", "-0"], "c_im", 0.0),
    (["render", "--bbox", "-1e-1", "1e-1", "-1e-1", "1e-1"], "bbox", [-0.1, 0.1, -0.1, 0.1]),
])
def test_negative_floats_parse_as_values(argv, dest, value):
    # argparse's own pattern for negative numbers has no exponent; the parser
    # replaces the private attribute that holds it, so this pins the behaviour
    assert getattr(cli._build_parser().parse_args(argv), dest) == value


@pytest.mark.parametrize("argv", [["classify", "--bogus"], ["classify", "-1e-3"],
                                  ["classify", "--c-re", "-e3"], ["render", "--bbox", "-1", "1", "-1"]])
def test_unknown_flags_still_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli._build_parser().parse_args(argv)
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


def test_expansion_refuses_ratios_past_the_float_range(tmp_path, capfd):
    # at depth 1100 the expansion ratios at c=-2 overflow a float (and the
    # pulled-back diameters later underflow to 0): one line, no file, no warning
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SystemExit, match="refusing to report: orbit 0: the expansion "
                           "ratio at level 1025 overflows a float") as exc:
            cli.main(["expansion", "--c-re", "-2", "--orbits", "2", "--depth", "1100",
                      "--out", str(out)])
    assert "\n" not in str(exc.value.code)
    assert not out.exists()
    assert capfd.readouterr().err == ""


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
_FIELD_VALUES = {
    "d": st.integers(-3, 5), "c": st.lists(st.floats() | st.integers(), max_size=3),
    "orbit_n": st.integers(-3, 5), "epsilon": st.floats(), "grid_res": st.integers(-3, 40),
    "orbits": st.integers(-3, 5), "depth": st.integers(-3, 70), "seed": st.integers(-3, 5),
    "out_dir": st.text(max_size=8),
}


@settings(max_examples=300, deadline=None)
@given(
    command=st.sampled_from(["classify", "expansion", "holder", "rays", "render"]),
    config=st.dictionaries(
        st.sampled_from(list(_FIELD_VALUES)),
        st.one_of(_JSON, *_FIELD_VALUES.values()),
        max_size=4,
    ).flatmap(lambda cfg: st.just(cfg) if cfg else _JSON),
)
def test_config_values_parse_or_exit_with_one_line(tmp_path_factory, command, config):
    # any JSON value of any field either validates or ends in one line
    path = tmp_path_factory.getbasetemp() / "property-config.json"
    path.write_text(json.dumps(config))
    args = cli._build_parser().parse_args([command, "--config", str(path)])
    try:
        cfg = cli._config_from_args(args)
    except SystemExit as exc:
        message = str(exc.code)
        assert message and "\n" not in message
    else:
        assert isinstance(cfg, cli.ExperimentConfig)
        assert all(type(getattr(cfg, name)) is int
                   for name in ("d", "orbit_n", "grid_res", "orbits", "depth", "seed"))
        assert math.isfinite(cfg.c.real) and math.isfinite(cfg.c.imag)


def test_write_json_refuses_non_finite(tmp_path):
    path = tmp_path / "report.json"
    with pytest.raises(SystemExit, match="report.json") as exc:
        cli.write_json(path, {"theta": float("nan")})
    assert "\n" not in str(exc.value.code)
    assert not path.exists()


@pytest.mark.parametrize("command", ["classify", "expansion", "holder", "rays", "render"])
def test_bare_command_parses_to_default_config(command, monkeypatch):
    monkeypatch.delenv(cli.OUTPUT_DIR_ENV, raising=False)
    args = cli._build_parser().parse_args([command])
    assert cli._config_from_args(args) == cli.ExperimentConfig()


def test_output_env_var(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path / "envout"))
    run(["classify", "--c-re", "-2"], capsys)
    assert (tmp_path / "envout" / "classify.json").exists()


# ---------------------------------------------------------------------- rays


def test_rays_report_and_determinism(tmp_path, capsys):
    argv = ["rays", "--c-re", "-2", "--angles", "0,0.5", "--depth", "25",
            "--out", str(tmp_path)]
    run(argv, capsys)
    first = {name: (tmp_path / name).read_bytes()
             for name in ("rays.json", "rays.csv", "rho_length.csv")}
    report = json.loads(first["rays.json"])
    assert report["john"]["ray_count"] == 2
    assert 0 < report["john"]["constant"] <= 1.0
    land0 = report["landings"]["0.0"]
    assert abs(complex(*land0) - 2.0) < 1e-4
    land5 = report["landings"]["0.5"]
    assert abs(complex(*land5) + 2.0) < 1e-4
    assert first["rays.csv"].splitlines()[0] == b"theta,potential,re,im"
    assert first["rho_length.csv"].splitlines()[0] == b"theta,radius,rho_length"
    # rerun into the same directory must be byte-identical
    run(argv, capsys)
    for name, blob in first.items():
        assert (tmp_path / name).read_bytes() == blob


def test_rays_records_ray_point_on_julia_set_as_failure(tmp_path, capsys):
    # a point of the 1/48 ray lies within roundoff of J and never escapes:
    # that ray's John constant is a recorded failure, not a traceback, and
    # the other ray's values and the failed ray's rho-lengths still stand
    flags = ["rays", "--d", "3", "--c-re", "0", "--c-im", "0.2", "--depth", "40"]
    theta = 0.020833333333333332
    assert cli.main([*flags, "--angles", f"{theta!r},0.1", "--out", str(tmp_path / "both")]) == 0
    assert capsys.readouterr().err == "1 tracing failure(s) recorded\n"
    report = json.loads((tmp_path / "both" / "rays.json").read_text())
    [failure] = report["failures"]
    assert failure["theta"] == theta and "did not escape" in failure["error"]
    radii = [row.split(",")[:2] for row in
             (tmp_path / "both" / "rho_length.csv").read_text().splitlines()[1:]]
    assert radii.count([repr(theta), "0.025"]) == 1
    run([*flags, "--angles", "0.1", "--out", str(tmp_path / "one")], capsys)
    alone = json.loads((tmp_path / "one" / "rays.json").read_text())
    assert report["john"]["per_ray"] == alone["john"]["per_ray"]
    assert report["john"]["per_ray"][0]["theta"] == 0.1


def test_rays_records_a_disk_with_no_ray_point_as_failure(tmp_path, monkeypatch, capsys):
    # the 0.1-ray lies in the upper half-plane; with its landing moved 0.3
    # below the axis, B(base, 0.4) holds its tail and the smaller disks no
    # point of it, so its last three radii are failures, in radius order
    def traced(fmap, thetas, depth):
        moved, *others = rays.trace_rays(fmap, thetas, depth)
        return [dataclasses.replace(moved, landing=moved.landing - 0.3j), *others]

    monkeypatch.setattr(cli, "trace_rays", traced)
    assert cli.main(["rays", "--c-re", "-2", "--angles", "0.1,0.3", "--depth", "20",
                     "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().err == "3 tracing failure(s) recorded\n"
    report = json.loads((tmp_path / "rays.json").read_text())
    assert report["failures"] == [{"theta": 0.1, "radius": r, "error": "no ray points inside B(base, 2r)"}
                                  for r in (0.1, 0.05, 0.025)]
    rows = [row.split(",")[:2] for row in
            (tmp_path / "rho_length.csv").read_text().splitlines()[1:]]
    assert rows == [["0.1", "0.2"]] + [["0.3", repr(r)] for r in cli.RHO_LENGTH_RADII]


# ----------------------------------------------------------------- expansion


def test_expansion_report_and_csv(tmp_path, capsys):
    out = run(["expansion", "--c-re", "-2", "--orbits", "3", "--depth", "12",
               "--out", str(tmp_path)], capsys)
    assert "min fitted lambda" in out
    report = json.loads((tmp_path / "expansion.json").read_text())
    assert report["min_lambda"] > 1.0
    assert 0 < report["max_theta"] < 1.0
    assert len(report["orbits"]) == 3
    assert report["cloud_size"] == 2
    header = (tmp_path / "expansion_ratios.csv").read_text().splitlines()[0]
    assert header == "orbit,level,ratio"


def test_expansion_depth_60_writes_strict_json(tmp_path, capsys):
    # deep orbits: the derivative is accumulated along the stored centers and
    # the diameters are taken from center-relative offsets, so nothing
    # overflows or underflows to a non-finite fit
    run(["expansion", "--c-re", "-2", "--orbits", "50", "--depth", "60",
         "--seed", "0", "--out", str(tmp_path)], capsys)

    def refuse(token):
        raise ValueError(f"non-finite token {token}")

    report = json.loads((tmp_path / "expansion.json").read_text(), parse_constant=refuse)
    assert 0 < report["max_theta"] < 1.0
    assert report["min_lambda"] > 1.0


# -------------------------------------------------------------------- holder


def test_holder_report(tmp_path, capsys):
    out = run(["holder", "--c-re", "-2", "--grid-res", "128",
               "--out", str(tmp_path)], capsys)
    assert "fitted exponent" in out
    report = json.loads((tmp_path / "holder.json").read_text())
    assert 0.0 < report["fit"]["exponent"] <= 1.05
    assert report["lower_bound_audit"]["violations"] == 0
    assert report["uniform_upper_constant"] > 0
    header, *rows = (tmp_path / "holder_pairs.csv").read_text().splitlines()
    assert header == "z0_re,z0_im,z1_re,z1_im,separation,d_rho"
    # every field is a plain float, not a NumPy repr such as np.float64(...)
    assert len(rows) == report["fit"]["samples"]
    for row in rows:
        fields = row.split(",")
        assert len(fields) == 6
        assert all(math.isfinite(float(field)) for field in fields)
        assert float(fields[5]) > 0


@pytest.mark.parametrize("c", [["--c-re", "-2"], ["--c-re", "0", "--c-im", "1"]],
                         ids=["c=-2", "c=i"])
@pytest.mark.parametrize("seed", ["0", "1"])
def test_holder_pairs_equal_whole_grid_dijkstra(tmp_path, monkeypatch, c, seed):
    # each pair's search runs on its ellipse of the grid graph; every d_rho
    # must equal the unbounded whole-grid search plus the two snap terms
    grids = []
    build = cli.build_grid

    def keep_grid(*args):
        grids.append(build(*args))
        return grids[-1]

    monkeypatch.setattr(cli, "build_grid", keep_grid)
    cli.main(["holder", *c, "--grid-res", "128", "--seed", seed, "--out", str(tmp_path)])
    (grid,) = grids
    _, *rows = (tmp_path / "holder_pairs.csv").read_text().splitlines()
    for row in rows:
        x0, y0, x1, y1, _, d = map(float, row.split(","))
        z0, z1 = complex(x0, y0), complex(x1, y1)
        (n0, p0), (n1, p1) = grid.nearest_node(z0), grid.nearest_node(z1)
        a, b = min(n0, n1), max(n0, n1)
        whole = float(dijkstra(grid.graph, directed=False, indices=a)[b])
        rho0, rho1 = grid.local_density(np.array([z0, z1]))
        snap = abs(z0 - p0) * rho0 + abs(z1 - p1) * rho1
        assert d == whole + snap


# -------------------------------------------------------------------- render


def test_render_escape_time_silhouette(tmp_path, capsys):
    out_dir = tmp_path / "new" / "dir"  # write_ppm makes the missing parents
    out = run(["render", "--c-re", "0", "--width", "64", "--height", "48",
               "--bbox", "-2", "2", "-1.5", "1.5", "--out", str(out_dir)],
              capsys)
    assert out.strip().endswith("render.ppm")
    # written through a temporary file that is renamed into place
    assert [p.name for p in out_dir.iterdir()] == ["render.ppm"]
    w, h, rgb = read_ppm(out_dir / "render.ppm")
    assert (w, h) == (64, 48)
    center = rgb[h // 2, w // 2]
    corner = rgb[0, 0]
    # interior of the filled disk never escapes; the corner escapes at once
    assert tuple(center) != tuple(corner)


def test_render_density_bright_on_cloud(tmp_path, capsys):
    run(["render", "--c-re", "-2", "--layer", "density-rho", "--width", "101",
         "--height", "101", "--bbox", "-2.5", "2.5", "-2.5", "2.5",
         "--out", str(tmp_path)], capsys)
    _, _, rgb = read_ppm(tmp_path / "render.ppm")
    # pixel centers: x = -2.5 + 5*i/100, so x = 2 at i = 90, y = 0 at j = 50
    at_cloud = int(rgb[50, 90, 0])
    far = int(rgb[5, 50, 0])
    assert at_cloud > far + 100


def test_render_ray_overlay_marks_white(tmp_path, capsys):
    run(["render", "--c-re", "-2", "--width", "64", "--height", "64",
         "--rays", "0.25", "--depth", "15", "--out", str(tmp_path)], capsys)
    _, _, rgb = read_ppm(tmp_path / "render.ppm")
    white = np.all(rgb == 255, axis=-1)
    assert white.any()


def test_render_spec_limits():
    with pytest.raises(ValueError, match="16384"):
        RenderSpec((-1 - 1j, 1 + 1j), 20000, 100)
    with pytest.raises(ValueError, match="at least 1, got 0x100"):
        RenderSpec((-1 - 1j, 1 + 1j), 0, 100)
    with pytest.raises(ValueError, match="unknown layer"):
        RenderSpec((-1 - 1j, 1 + 1j), 10, 10, layer="potential")
    for bbox in [(0j, 0j), (1 - 1j, -1 + 1j), (-1 + 1j, 1 - 1j),
                 (complex(math.nan, -1), 1 + 1j), (-1 - 1j, complex(math.inf, 1))]:
        with pytest.raises(ValueError, match="bbox needs finite corners"):
            RenderSpec(bbox, 10, 10)
    with pytest.raises(ValueError, match="bbox width and height must be finite, got inf x 2.0"):
        RenderSpec((-1e308 - 1j, 1e308 + 1j), 10, 10)


@pytest.mark.parametrize("size", [["--width", "0"], ["--height", "-3"]],
                         ids=["width-0", "height-negative"])
def test_render_rejects_empty_pixmap(tmp_path, size):
    with pytest.raises(SystemExit, match="pixel dimensions must be at least 1") as exc:
        cli.main(["render", "--c-re", "-2", *size, "--out", str(tmp_path)])
    assert "\n" not in str(exc.value.code)
    assert not (tmp_path / "render.ppm").exists()


@pytest.mark.parametrize("argv, message", [
    *[(["render", "--layer", layer, "--c-re", "1"],
       f"refusing to render {layer}: critical orbit escapes")
      for layer in ("density-rho", "density-sigma", "distance-to-P")],
    (["holder", "--c-re", "-2", "--grid-res", "16"],
     "degenerate fitted exponent .* at grid_res 16; try a larger --grid-res"),
    (["rays", "--c-re", "1"], "refusing to run: critical orbit escapes; no bounded rays"),
    # the second critical iterate overflows to NaN: the orbit escapes
    (["holder", "--c-re", "1e200", "--c-im", "1e200"], "parameter classified escaping "),
    (["expansion", "--c-re", "1e200", "--c-im", "1e200"], "parameter classified escaping "),
    (["rays", "--c-re", "1e200", "--c-im", "1e200"], "critical orbit escapes; no bounded rays"),
    # |c| overflows a float: c itself has escaped, and the recurrence gap |c|
    # has no JSON form
    *[([cmd, "--c-re", "1.7e308", "--c-im", "1.7e308"], message) for cmd, message in (
        ("classify", "^refusing to write .*classify.json: Out of range float values "),
        ("holder", "parameter classified escaping "),
        ("expansion", "parameter classified escaping "),
        ("rays", "critical orbit escapes; no bounded rays"))],
    # the disk's diameters fall below the least normal float by level 2, even
    # at the least depth allowed
    (["expansion", "--c-re", "-2", "--orbits", "3", "--epsilon", "2.2250738585072014e-308",
      "--depth", "10"],
     r"^refusing to report: orbit 0: the diameter at level 2 underflows to 1\.39405580834"
     r".*; try a larger --epsilon or a smaller --depth$"),
    (["render", "--c-re", "-2", "--bbox", "0", "0", "0", "0", "--rays", "0.25"],
     "bbox needs finite corners"),
    (["render", "--c-re", "-2", "--bbox", "0", "0", "0", "0"], "bbox needs finite corners"),
    (["render", "--c-re", "-2", "--bbox", "nan", "1", "-1", "1"],
     "bbox needs finite corners with XMIN < XMAX and YMIN < YMAX, got nan 1.0 -1.0 1.0"),
    # XMAX - XMIN overflows: the pixel centres would be NaN
    (["render", "--c-re", "-2", "--bbox", "-1e308", "1e308", "-1e308", "1e308",
      "--width", "4", "--height", "4", "--layer", "density-rho"],
     "invalid render: bbox width and height must be finite, got inf x inf"),
], ids=["escaping-density-rho", "escaping-density-sigma", "escaping-distance-to-P",
        "holder-degenerate-fit", "rays-escaping", "holder-nan-orbit", "expansion-nan-orbit",
        "rays-nan-orbit", "classify-c-past-float-range", "holder-c-past-float-range",
        "expansion-c-past-float-range", "rays-c-past-float-range", "expansion-subnormal-diameter",
        "bbox-empty-with-ray", "bbox-empty", "bbox-nan", "bbox-span-overflows"])
def test_commands_refuse_what_they_cannot_report(tmp_path, capfd, argv, message):
    with pytest.raises(SystemExit, match=message) as exc:
        cli.main([*argv, "--out", str(tmp_path / "out")])
    assert "\n" not in str(exc.value.code)
    assert not (tmp_path / "out").exists()
    assert capfd.readouterr().err == ""


@pytest.mark.parametrize("argv", [["classify"], ["rays", "--angles", "0.25", "--depth", "5"],
                                  ["render", "--width", "4", "--height", "4", "--depth", "5"]],
                         ids=["classify", "rays", "render"])
@pytest.mark.parametrize("under", ["", "sub"], ids=["file", "under-file"])
def test_commands_refuse_an_out_that_is_a_file(tmp_path, capfd, argv, under):
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    out = taken / under if under else taken
    with pytest.raises(SystemExit, match=f"^refusing to write: .*'{re.escape(str(out))}'$") as exc:
        cli.main([*argv, "--c-re", "-2", "--out", str(out)])
    assert "\n" not in str(exc.value.code)
    assert taken.read_text() == "kept\n" and sorted(tmp_path.iterdir()) == [taken]
    assert capfd.readouterr().err == ""


@pytest.mark.parametrize("argv, report", [
    (["classify"], "classify.json"),
    (["rays", "--angles", "0.25", "--depth", "5"], "rays.csv"),
    (["render", "--width", "4", "--height", "4", "--depth", "5"], "render.ppm"),
], ids=["json", "csv", "ppm"])
def test_a_failed_write_leaves_no_tmp_file(tmp_path, capfd, argv, report):
    # a directory at the report's name makes the final rename fail
    out = tmp_path / "out"
    (out / report).mkdir(parents=True)
    with pytest.raises(SystemExit, match=f"^refusing to write: .*'{re.escape(str(out / report))}'$") as exc:
        cli.main([*argv, "--c-re", "-2", "--out", str(out)])
    assert "\n" not in str(exc.value.code)
    assert [p.name for p in out.iterdir()] == [report]
    assert capfd.readouterr().err == ""


def test_render_escape_time_needs_no_cloud(tmp_path):
    # at |c| past the float range every pixel's first iterate has escaped
    for c in (["--c-re", "1"], ["--c-re", "1.7e308", "--c-im", "1.7e308"]):
        cli.main(["render", *c, "--width", "8", "--height", "8", "--out", str(tmp_path)])
        assert (tmp_path / "render.ppm").stat().st_size == len(b"P6\n8 8\n255\n") + 8 * 8 * 3


@pytest.mark.parametrize("c, layer", [(["--c-re", "-2"], "density-rho"),
                                      (["--c-re", "0", "--c-im", "1"], "distance-to-P")],
                         ids=["c=-2-density-rho", "c=i-distance-to-P"])
def test_render_past_the_squares_float_range_is_silent(tmp_path, c, layer):
    # pixel centres near 1e200 square past the float range in the direct
    # cloud search: every distance is inf, as the tree gives it, with no warning
    argv = ["render", *c, "--bbox", "-1e200", "1e200", "-1e200", "1e200", "--width", "4",
            "--height", "4", "--layer", layer, "--out", str(tmp_path)]
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])]))
    done = subprocess.run([sys.executable, "-m", "expmetric.cli", *argv], env=env,
                          capture_output=True, text=True)
    assert (done.returncode, done.stderr) == (0, "")
    assert (tmp_path / "render.ppm").exists()


# ------------------------------------------------------- benchmark harness


def test_bench_tracer_finds_every_wrapped_name(tmp_path):
    # bench/run.py builds this tracer on every run and wraps the program's
    # functions by the names their callers use; a renamed one must fail here
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    modules = {"cli": cli, "backward": backward, "gridmetric": gridmetric,
               "metrics": metrics, "rays": rays}
    before = {name: dict(vars(m)) for name, m in modules.items()}
    density_array = metrics.SingularMetric.density_array
    tracer = tracing.Tracer(modules)
    tracer.install()
    try:
        assert cli.trace_ray is not before["cli"]["trace_ray"]
        assert metrics.SingularMetric.density_array is not density_array
        # the SciPy search runs behind gridmetric's own dijkstra, so the
        # tracer's wrapper there must see every search
        assert gridmetric.dijkstra is not before["gridmetric"]["dijkstra"]
        grid = gridmetric.build_grid(None, (0j, 1 + 1j), 16)
        assert gridmetric.grid_distance(grid, 0j, 1 + 1j) == pytest.approx(math.sqrt(2))
        assert tracer.counts["gridmetric.dijkstra_sources"] == 1
        assert [(s[0], s[3]) for s in tracer.spans] == [
            ("gridmetric.grid_distance", -1), ("gridmetric.dijkstra", 0)]
        # the hooks read pull_back's orbit and steps and holder_fit's pairs by
        # position, so a reordered signature must fail here too
        fmap = em.UnicriticalMap(2, -2)
        orbit = backward.BackwardDiskOrbit(fmap, 0.5 + 0.5j, 0.01)
        cli.pull_back(fmap, orbit, 2, 0)
        assert tracer.counts["backward.levels"] == 2
        assert tracer.counts["backward.lift_samples"] == 2 * backward.BOUNDARY_SAMPLES
        assert tracer.counts["backward.critical_levels"] == 0
        # pairs along the bottom row, 1 to 100 spacings apart, lie on nodes
        grid = gridmetric.build_grid(None, (0j, 1 + 1j), 128)
        pairs = [(0j, complex(k * grid.h, 0.0)) for k in range(1, 101)]
        fit = cli.holder_fit([abs(b - a) for a, b in pairs],
                             [gridmetric.grid_distance(grid, a, b) for a, b in pairs])
        assert fit.exponent == pytest.approx(1.0)
        assert tracer.counts["gridmetric.pairs"] == len(pairs)
        # the holder command measures each pair once, and the tracer reads the
        # size of the grid's distance cache when the command returns
        tracer.take_pass()
        run(["holder", "--c-re", "-2", "--grid-res", "64", "--out", str(tmp_path)])
        counts = tracer.take_pass()[0]
        assert counts["gridmetric.grid_distance_calls"] == counts["gridmetric.pairs"] == 80
        assert counts.get("gridmetric.dist_cache_mb", 0) > 0
        # the tracer sees P(f) through cli's names, however a command builds it
        run(["rays", "--c-re", "-2", "--angles", "0", "--depth", "8", "--out", str(tmp_path)])
        counts, spans = tracer.take_pass()
        assert {"dynamics.classify", "dynamics.cloud"} <= {s[0] for s in spans}
        assert counts["dynamics.cloud_points"] == 2
    finally:
        tracer.uninstall()
    for name, m in modules.items():
        assert all(vars(m)[k] is v for k, v in before[name].items())
    assert metrics.SingularMetric.density_array is density_array


def test_scipy_loads_only_for_holder(tmp_path):
    # SciPy takes most of the package's import time, and only the grid
    # metric (and clouds past DIRECT_SEARCH_MAX points) needs it
    script = f"""
import sys
from expmetric import cli

def run(*argv):
    assert cli.main([*argv, "--out", {str(tmp_path)!r}]) == 0

run("classify", "--c-re", "-2")
run("classify", "--c-re", "0.25", "--orbit-n", "200")  # a 200-point cloud
run("expansion", "--c-re", "-2", "--orbits", "2", "--depth", "10")
run("rays", "--c-re", "0", "--c-im", "1", "--angles", "0,0.5", "--depth", "8")
run("render", "--width", "16", "--height", "16", "--rays", "0.25", "--depth", "8")
run("render", "--layer", "density-rho", "--width", "16", "--height", "16")
print("scipy modules:", sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
run("holder", "--c-re", "-2", "--grid-res", "64")
print("scipy modules:", "scipy" in sys.modules)
"""
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])]))
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout.splitlines()
    assert [line for line in out if line.startswith("scipy")] == [
        "scipy modules: []", "scipy modules: True"]
