import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from tverlab import cli, constraints
from tverlab.config_io import format_scalar, parse_configuration
from tverlab.errors import DimensionMismatch, ParseError
from tverlab.svg import _hull_order
from tverlab.tverberg import tverberg_records

GOOD = """\
# demo configuration
d=2 q=3
17 1
20 -20
-9 -19
8 -15
-18 7
14 10
20 -11
"""


def format_configuration(config):
    """The configuration-file text of `config`, the inverse of parsing it."""
    lines = [f"d={config.d} q={config.q}"]
    lines += [" ".join(map(format_scalar, p)) for p in config.points]
    return "\n".join(lines) + "\n"


def test_parse_roundtrip():
    config = parse_configuration(GOOD)
    assert config.d == 2 and config.q == 3
    assert len(config.points) == 7
    assert parse_configuration(format_configuration(config)) == config


def test_parse_minimal_d1():
    config = parse_configuration("d=1 q=2\n0\n1\n2\n")
    assert config.points == ((0,), (1,), (2,))


def test_parse_fraction_coordinate():
    config = parse_configuration("d=1 q=2\n0\n1/3\n2\n")
    assert config.points[1] == (Fraction(1, 3),)


def test_parse_arity_error():
    text = "d=2 q=3\n" + "\n".join(f"{i} {i * i}" for i in range(6))
    with pytest.raises(DimensionMismatch, match=r"^d=2, q=3 needs 7 points, got 6$"):
        parse_configuration(text)


def test_parse_error_has_line_number():
    with pytest.raises(ParseError) as exc:
        parse_configuration("d=1 q=2\n0\nx\n2\n")
    assert exc.value.line == 3


def test_parse_missing_header():
    with pytest.raises(ParseError):
        parse_configuration("0 0\n1 1\n")


@pytest.mark.parametrize("header", ["d=1 q=2 junk", "d=1 q=2 d=2", "d=1 q=2 q=2", "d=1"])
def test_parse_header_is_exactly_d_and_q(header):
    with pytest.raises(ParseError, match="header") as exc:
        parse_configuration(header + "\n0\n1\n2\n")
    assert exc.value.line == 1


def run_cli(*args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "tverlab.cli", *args],
        capture_output=True,
        text=True,
        **kwargs,
    )


def test_enumerate_counts():
    proc = run_cli("enumerate", "--d", "1", "--q", "3")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["schema"] == 1
    assert report["candidates"] == 15


def test_count_reports_and_exit_zero():
    proc = run_cli("count", "--d", "1", "--q", "3", "--samples", "5", "--seed", "7")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["ok"]
    assert len(report["reports"]) == 5


def test_reports_byte_identical():
    args = ("count", "--d", "1", "--q", "3", "--samples", "5", "--seed", "7")
    assert run_cli(*args).stdout == run_cli(*args).stdout


def test_timing_flag_adds_wall_clock():
    without = json.loads(run_cli("count", "--d", "1", "--q", "3", "--samples", "2").stdout)
    with_flag = json.loads(
        run_cli("--timing", "count", "--d", "1", "--q", "3", "--samples", "2").stdout
    )
    assert "wall_clock" not in without
    assert "wall_clock" in with_flag


def test_usage_error_exit_2():
    assert run_cli("bogus").returncode == 2
    assert run_cli("count").returncode == 2  # missing required --d/--q


@pytest.mark.parametrize(
    "args, env",
    [
        pytest.param(("search", "--q", "3", "--d", "2", "--graph", "blob3"), {}, id="family"),
        pytest.param(("search", "--q", "3", "--d", "2", "--graph", "edges:0-x"), {}, id="edge"),
        # Every l is at least 1 (3 for a cycle), and a spec must fit on the
        # labels: K_{10^9} is refused before any of its edges is built.
        pytest.param(("search", "--q", "3", "--d", "2", "--graph", "cycle0"), {}, id="cycle0"),
        pytest.param(("search", "--q", "3", "--d", "2", "--graph", "cycle2"), {}, id="cycle2"),
        pytest.param(("search", "--q", "3", "--d", "2", "--graph", "k0"), {}, id="k0"),
        pytest.param(
            ("search", "--q", "3", "--d", "2", "--graph", "k1000000000"), {}, id="k1000000000"
        ),
        pytest.param(("classify", "--input", "no-such-file.cfg"), {}, id="missing-input"),
        # Each command refuses every flag it does not read.
        pytest.param(("enumerate", "--input", "{cfg}"), {}, id="enumerate-input"),
        pytest.param(("constrain", "--input", "{cfg}"), {}, id="constrain-input"),
        pytest.param(
            ("constrain", "--graph", "star2", "--samples", "1", "--seed", "3"),
            {},
            id="graph-without-input",
        ),
        pytest.param(("classify", "--input", "{cfg}", "--d", "2"), {}, id="classify-d"),
        pytest.param(("classify", "--input", "{cfg}", "--q", "3"), {}, id="classify-q"),
        pytest.param(("classify", "--input", "{cfg}", "--samples", "9"), {}, id="classify-samples"),
        pytest.param(("classify", "--input", "{cfg}", "--seed", "4"), {}, id="classify-seed"),
        pytest.param(("complex", "--check", "lemmas", "--max", "3"), {}, id="lemmas-max"),
        pytest.param(("complex", "--check", "goodness", "--max", "3"), {}, id="goodness-max"),
        pytest.param(("count", "--d", "0", "--q", "3", "--samples", "1"), {}, id="d0"),
        pytest.param(("count", "--d", "2", "--q", "1", "--samples", "1"), {}, id="q1"),
        pytest.param(("count", "--d", "2", "--q", "3", "--samples", "-1"), {}, id="samples-1"),
        pytest.param(("verify-all", "--samples", "0"), {}, id="samples0"),
        pytest.param(("complex", "--check", "chessboard", "--max", "0"), {}, id="max0"),
        pytest.param(
            ("search", "--q", "3", "--d", "2", "--graph", "star2", "--budget", "0"),
            {},
            id="budget0",
        ),
        pytest.param(("verify-all", "--budget", "0"), {}, id="verify-all-budget0"),
        # The single-edge claim is K_2's admissibility, which the family list
        # states only for prime-power q > 2: at q = 2 the Radon partition is
        # unique, so some edge lies in one of its blocks; 6 is no prime power.
        pytest.param(("constrain", "--d", "2", "--q", "2", "--samples", "3"), {}, id="constrain-q2"),
        pytest.param(("constrain", "--d", "1", "--q", "6"), {}, id="constrain-q6"),
        # No configuration is a witness for a graph with no edges; refused
        # before any draw, not after the default budget of 100000 placements.
        pytest.param(("search", "--q", "3", "--d", "2", "--graph", "k1"), {}, id="search-k1"),
        pytest.param(
            ("search", "--q", "3", "--d", "2", "--graph", "k1+k1"), {}, id="search-k1+k1"
        ),
        # K_4 leaves no avoiding candidate at (2, 3), so there is nothing to check.
        pytest.param(
            ("search", "--q", "3", "--d", "2", "--graph", "k4", "--seed", "1"),
            {},
            id="search-no-candidates",
        ),
        pytest.param(
            ("render", "--input", "{cfg}", "--out", "{out}", "--records", "-1"),
            {},
            id="records-1",
        ),
        pytest.param(("render", "--input", "{cfg}", "--out", "{dir}"), {}, id="out-directory"),
        pytest.param(("classify", "--input", "{bad}"), {}, id="classify-not-utf8"),
        pytest.param(("render", "--input", "{bad}", "--out", "{out}"), {}, id="render-not-utf8"),
        pytest.param(
            ("render", "--input", "{cfg}", "--out", "{dir}/no-such-dir/demo.svg"),
            {},
            id="out-missing-parent",
        ),
    ],
)
def test_bad_input_exit_2(args, env, tmp_path):
    cfg = tmp_path / "demo.cfg"  # "{cfg}" in args names a readable configuration
    cfg.write_text(GOOD)
    bad = tmp_path / "bad.cfg"  # "{bad}" names a file that is not valid UTF-8
    bad.write_bytes(b"\xff\xfe\x00bad")
    args = [a.format(cfg=cfg, bad=bad, out=tmp_path / "demo.svg", dir=tmp_path) for a in args]
    proc = run_cli(*args, env={**os.environ, **env}, timeout=60)
    assert proc.returncode == 2
    assert "error:" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_closed_stdout_exits_141_without_traceback():
    # The report (about 130 kB) outgrows the pipe, so its writer is still
    # blocked when the reader closes the pipe after the first line.
    proc = subprocess.Popen(
        [sys.executable, "-m", "tverlab.cli", "count", "--d", "1", "--q", "3",
         "--samples", "400", "--seed", "7"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    stderr = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait() == 141
    assert stderr == ""


# The flags each command reads; every other flag of the CLI is a usage error.
READS = {
    "enumerate": {"--d", "--q"},
    "constrain": {"--d", "--q", "--samples", "--seed"},
    "classify": {"--input", "--graph"},
}
ALL_FLAGS = {
    "--d", "--q", "--samples", "--seed", "--input", "--graph", "--budget", "--check", "--max",
    "--out", "--records",
}


@pytest.mark.parametrize("command", sorted(READS))
def test_commands_refuse_every_flag_they_do_not_read(command, tmp_path, capsys):
    cfg = tmp_path / "demo.cfg"
    cfg.write_text(GOOD)
    base = [command, "--input", str(cfg)] if command == "classify" else [command]
    for flag in sorted(ALL_FLAGS - READS[command]):
        with pytest.raises(SystemExit) as exc:
            cli.main([*base, flag, "1"])
        assert exc.value.code == 2, flag
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err


def test_classify_report_has_one_shape(tmp_path, capsys):
    cfg = tmp_path / "demo.cfg"
    cfg.write_text(GOOD)
    assert cli.main(["classify", "--input", str(cfg)]) == 0
    plain = json.loads(capsys.readouterr().out)
    assert cli.main(["classify", "--input", str(cfg), "--graph", "k2"]) == 0
    constrained = json.loads(capsys.readouterr().out)
    keys = ["schema", "command", "d", "q", "T", "histogram", "checks", "ok", "edges", "avoiding",
            "records"]
    assert list(plain) == list(constrained) == keys
    # With no graph every record avoids it.
    assert plain["edges"] == []
    assert plain["avoiding"] == plain["T"] == len(plain["records"])


def test_classify_with_star2_lists_exactly_the_constrained_records(tmp_path, capsys):
    cfg = tmp_path / "demo.cfg"
    cfg.write_text(GOOD)
    assert cli.main(["classify", "--input", str(cfg), "--graph", "star2"]) == 0
    report = json.loads(capsys.readouterr().out)
    config = parse_configuration(GOOD)
    graph = constraints.instantiate(constraints.Star(2), len(config.points))
    kept = constraints.constrained_records(tverberg_records(config), graph)
    assert report["edges"] == sorted(list(e) for e in graph.edges)
    assert report["avoiding"] == len(kept)
    assert [r["partition"] for r in report["records"]] == [
        [list(b) for b in r.partition] for r in kept
    ]
    assert report["avoiding"] < report["T"]


def test_classify_exit_code_follows_checks(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "demo.cfg"
    cfg.write_text(GOOD)
    assert cli.main(["classify", "--input", str(cfg)]) == 0
    assert json.loads(capsys.readouterr().out)["ok"]
    monkeypatch.setattr(cli, "tverberg_records", lambda config: [])
    assert cli.main(["classify", "--input", str(cfg)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["T"] == 0
    assert not report["checks"]["lower_bound_(q-d)!"]["ok"]
    assert not report["ok"]


def test_readme_configuration_classifies(tmp_path, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    after = readme.split("Configuration files are exact and human-writable:", 1)[1]
    block = after.split("```", 2)[1]
    cfg = tmp_path / "readme.cfg"
    cfg.write_text(block)
    assert cli.main(["classify", "--input", str(cfg)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["T"] == 4 and report["histogram"] == {"I": 2, "II(2)": 2}
    assert report["avoiding"] == 4


def test_degenerate_exit_3(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("d=1 q=2\n0\n1\n1\n")
    proc = run_cli("classify", "--input", str(path))
    assert proc.returncode == 3
    assert "error" in json.loads(proc.stdout)


def test_constrain_with_graph(tmp_path):
    path = tmp_path / "demo.cfg"
    path.write_text(GOOD)
    proc = run_cli("classify", "--input", str(path), "--graph", "edges:0-1")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["edges"] == [[0, 1]]
    assert report["avoiding"] >= 1
    for record in report["records"]:
        assert not any(0 in b and 1 in b for b in record["partition"])


def test_search_single_edge_absent():
    proc = run_cli(
        "search", "--q", "3", "--d", "2", "--graph", "edges:0-1",
        "--budget", "40", "--seed", "1",
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["found"] is False


def test_search_budget_bounds_the_placements_of_one_draw(capsys):
    # path12 fills the 13 labels at (2, 5): about 6 * 10^9 placements a draw
    start = time.perf_counter()
    code = cli.main(["search", "--d", "2", "--q", "5", "--graph", "path12", "--budget", "50"])
    elapsed = time.perf_counter() - start
    assert code == 0
    assert json.loads(capsys.readouterr().out)["found"] is False
    assert elapsed < 1.0


@pytest.mark.parametrize(
    "graph,extra,found",
    [("star2", (), True), ("edges:0-1", ("--budget", "40"), False)],
    ids=["witness", "no-witness"],
)
def test_search_report_ok(capsys, graph, extra, found):
    code = cli.main(["search", "--q", "3", "--d", "2", "--graph", graph, "--seed", "1", *extra])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["found"] is found
    assert report.get("verified", True) is True
    assert report["ok"] is True


def test_search_verified_is_the_lp_verdict(capsys, monkeypatch):
    # Records that list no Tverberg partition turn the first placement on the
    # first draw into a witness, which the exact LP then refutes.
    monkeypatch.setattr(constraints, "tverberg_records", lambda config: [])
    code = cli.main(["search", "--q", "3", "--d", "2", "--graph", "star2", "--seed", "1"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert report["found"] is True
    assert report["verified"] is False
    assert report["ok"] is False


def test_render_svg(tmp_path):
    cfg = tmp_path / "demo.cfg"
    cfg.write_text(GOOD)
    out = tmp_path / "demo.svg"
    proc = run_cli(
        "render", "--input", str(cfg), "--out", str(out),
        "--graph", "edges:0-1", "--records", "2",
    )
    assert proc.returncode == 0
    svg = out.read_text()
    assert svg.startswith("<svg")
    assert svg.count("stroke-dasharray") == 1
    assert "<text" in svg


def test_hull_order_turns_a_clockwise_triangle_counterclockwise():
    clockwise = [(0, 0), (0, 4), (4, 0)]
    for shift in range(3):
        given = clockwise[shift:] + clockwise[:shift]
        assert _hull_order(given) == [(0, 0), (4, 0), (0, 4)]
    assert _hull_order([(4, 0), (0, 4)]) == [(4, 0), (0, 4)]


def test_render_without_graph_has_no_dashes(tmp_path):
    cfg = tmp_path / "demo.cfg"
    cfg.write_text(GOOD)
    out = tmp_path / "plain.svg"
    run_cli("render", "--input", str(cfg), "--out", str(out), "--records", "0")
    svg = out.read_text()
    assert "stroke-dasharray" not in svg
    assert svg.count("<circle") == 7  # points only, no Tverberg markers


def test_complex_lemmas_command():
    proc = run_cli("complex", "--check", "lemmas")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["ok"]
