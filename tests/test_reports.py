"""The byte gate: pinned CLI reports keep their exact bytes.

Each case runs `cli.main` in-process and compares the sha256 of its stdout
with the digest of the reference report.  Two outputs that no report
prints in full are pinned the same way: the Birch campaign's rows, of
which `verify-all` reports only `ok`, and the SVG that `render` writes.  A
change that alters any of these outputs on purpose records the old and
new digests in CHANGES.md.
"""

import hashlib
import json
from pathlib import Path

import pytest

from tverlab import cli, drivers

README = Path(__file__).resolve().parents[1] / "README.md"

PINNED = {
    "count-d3-q3": (
        ["count", "--d", "3", "--q", "3", "--samples", "3", "--seed", "7"],
        "07b78bb882324fd86f17c644e482c270b05e65ea13097d24872b192bc2dcd63b",
    ),
    "count-d2-q4": (
        ["count", "--d", "2", "--q", "4", "--samples", "2", "--seed", "7"],
        "7addf3f9f421f32089772ba9d9c3e0b702a1671c28ace76a621d6b30679e96d0",
    ),
    "count-d1-q5": (
        ["count", "--d", "1", "--q", "5", "--samples", "5", "--seed", "7"],
        "29367459b86dc10e17df34879284be9eeb2cbf7fd4a29fb2b87ba235395c4939",
    ),
    "search-star2": (
        ["search", "--q", "3", "--d", "2", "--graph", "star2", "--seed", "1"],
        "304dc69ff4e0637134594c4a235c6fea673ea1cf51cd0a29afc9c89cabe93350",
    ),
    "search-star3": (
        ["search", "--q", "4", "--d", "2", "--graph", "star3", "--seed", "1"],
        "d7ab4bb83143c814cc7ae37cb0e162b9cfd7bc406bca6acadfce87ff43c25299",
    ),
    "constrain-single-edges": (
        ["constrain", "--samples", "3", "--seed", "3"],
        "4b770fedaf8e702591aae9395bde90b6ec715fb45eac345b18fb5acbd5507577",
    ),
    "complex-chessboard-6": (
        ["complex", "--check", "chessboard", "--max", "6"],
        "489cbcd84c203575cf76f60e7600a80f98d2e3710a8dcdf8433dae7c10335a2e",
    ),
    "complex-chessboard-7": (
        ["complex", "--check", "chessboard", "--max", "7"],
        "85f0258765ad993b02f1327f8b9a4af846fb3cdd56f6d910313e7f896a5609b9",
    ),
    "complex-lemmas": (
        ["complex", "--check", "lemmas"],
        "d12e72a4290feef79b5d3c0eb6930a0b3b7f57d89a6b0b28759a6c2939f77785",
    ),
    "complex-identities": (
        ["complex", "--check", "identities"],
        "46e3b9090fc4248f9a3d27c5d557c70a82a92be3c17a1ff8d4176dff9ca033e1",
    ),
    "complex-goodness": (
        ["complex", "--check", "goodness"],
        "b0ce1751a623cc6586b93b2d9924f84a97ad14029980ee1d93ed8618fbb37cf1",
    ),
}
README_CLASSIFY = "73d29e3c79635de1970e3bc5ff1ef3473ac2fd26751ef9c28b4079aef22513d6"
README_RENDER_SVG = "3e9141230c79c887df50106e6eea7751809abac93c6cbd010404db091182a8a2"
BIRCH_CAMPAIGN_40 = "5d4c52166c6a789171941427596f77d2d77aef8e6737d2799d0b656942a8d20e"


def _digest(argv, capsys):
    assert cli.main(argv) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(PINNED))
def test_pinned_report_bytes(case, capsys):
    argv, digest = PINNED[case]
    assert _digest(argv, capsys) == digest


def test_pinned_reports_keep_their_bytes_in_one_process(capsys):
    # One parser serves every call in a process: the pins, run in reverse
    # order with a usage error after each, keep their digests.
    for case in reversed(PINNED):
        argv, digest = PINNED[case]
        assert _digest(argv, capsys) == digest, case
        with pytest.raises(SystemExit) as exc:
            cli.main(["count", "--d", "2", "--q", "3", "--samples", "0"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--samples must be >= 1, got 0" in captured.err


def _readme_config(tmp_path):
    """The configuration block under "Configuration files are exact and
    human-writable:" in README.md, saved as a file."""
    after = README.read_text().split("Configuration files are exact and human-writable:", 1)[1]
    cfg = tmp_path / "readme.cfg"
    cfg.write_text(after.split("```", 2)[1])
    return cfg


def test_readme_classify_report_bytes(tmp_path, capsys):
    cfg = _readme_config(tmp_path)
    assert _digest(["classify", "--input", str(cfg)], capsys) == README_CLASSIFY


def test_readme_render_svg_bytes(tmp_path, capsys):
    out = tmp_path / "readme.svg"
    argv = ["render", "--input", str(_readme_config(tmp_path)), "--out", str(out)]
    assert cli.main(argv + ["--records", "50", "--graph", "star2"]) == 0
    assert json.loads(capsys.readouterr().out)["records_drawn"] == 4
    assert hashlib.sha256(out.read_bytes()).hexdigest() == README_RENDER_SVG


def test_birch_campaign_counts():
    rows = drivers.birch_campaign(samples=2, seed=11)["results"]
    assert [row["B"] for row in rows] == [0, 2, 6, 6, 2, 2]
    report = json.dumps(drivers.birch_campaign(samples=40, seed=11))
    assert hashlib.sha256(report.encode()).hexdigest() == BIRCH_CAMPAIGN_40
