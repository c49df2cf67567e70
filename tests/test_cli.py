import json

import pytest

from intprob.cli import main


def _write(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def interval_doc(tmp_path):
    return _write(
        tmp_path / "system.json",
        {
            "frame": ["x", "y", "z"],
            "lower": {"x": 0.2, "y": 0.4, "z": 0.3},
            "upper": {"x": 0.8, "y": 1.0, "z": 0.3},
        },
    )


@pytest.fixture
def mass_doc(tmp_path):
    return _write(
        tmp_path / "mass.json",
        {
            "frame": ["x", "y", "z"],
            "masses": [
                {"set": ["x"], "mass": 0.2},
                {"set": ["y"], "mass": 0.1},
                {"set": ["z"], "mass": 0.3},
                {"set": ["x", "y"], "mass": 0.1},
                {"set": ["y", "z"], "mass": 0.2},
                {"set": ["x", "y", "z"], "mass": 0.1},
            ],
        },
    )


def test_transform_interval(interval_doc, tmp_path, capsys):
    out = tmp_path / "out.json"
    code = main(
        ["transform", "--input", interval_doc, "--transform", "intersection", "--output", str(out)]
    )
    assert code == 0
    result = json.loads(out.read_text())
    assert result == pytest.approx({"x": 0.25, "y": 0.45, "z": 0.3})


def test_transform_mass_relative_belief(mass_doc, capsys):
    code = main(["transform", "--input", mass_doc, "--transform", "relative_belief"])
    assert code == 0
    result = json.loads(capsys.readouterr().out)
    assert result == pytest.approx({"x": 1 / 3, "y": 1 / 6, "z": 1 / 2})


def test_transform_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["transform", "--input", str(bad), "--transform", "pignistic"]) == 1
    missing = tmp_path / "missing.json"
    assert main(["transform", "--input", str(missing), "--transform", "pignistic"]) == 1
    wrong = _write(tmp_path / "wrong.json", {"frame": ["x"]})
    assert main(["transform", "--input", wrong, "--transform", "pignistic"]) == 1


def test_transform_non_finite_mass_is_a_parse_error(tmp_path, capsys):
    masses = [{"set": ["x"], "mass": float("nan")}, {"set": ["y"], "mass": 1.0}]
    doc = _write(tmp_path / "nan.json", {"frame": ["x", "y"], "masses": masses})
    assert main(["transform", "--input", doc, "--transform", "pignistic"]) == 1
    assert capsys.readouterr().err.startswith("parse error:")


def test_transform_domain_errors(tmp_path, interval_doc, capsys):
    singleton_free = _write(
        tmp_path / "nf.json",
        {
            "frame": ["x", "y"],
            "masses": [{"set": ["x", "y"], "mass": 1.0}],
        },
    )
    assert (
        main(["transform", "--input", singleton_free, "--transform", "relative_belief"])
        == 2
    )
    # pignistic is not defined for a bare interval system
    assert main(["transform", "--input", interval_doc, "--transform", "pignistic"]) == 2


def test_geometry_export(mass_doc, tmp_path, capsys):
    out = tmp_path / "geom.json"
    assert main(["geometry", "--input", mass_doc, "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert len(doc["credal_vertices"]) == 5
    assert doc["special_focus"]["common_alpha"] == pytest.approx(4 / 9, abs=1e-9)


def test_geometry_frame_too_large(tmp_path, capsys):
    labels = [f"e{i}" for i in range(9)]
    big = _write(
        tmp_path / "big.json",
        {"frame": labels, "masses": [{"set": labels, "mass": 1.0}]},
    )
    assert main(["geometry", "--input", big]) == 2


def test_verify_exits_three_on_failed_theorem(capsys):
    """The default suite contains one honestly failing identity, so the
    verify command reports failure."""
    code = main(["verify", "--seed", "42", "--trials", "10", "--max-n", "4"])
    captured = capsys.readouterr()
    assert code == 3
    lines = [json.loads(line) for line in captured.out.strip().splitlines()]
    failed = [r["theorem"] for r in lines if not r["passed"]]
    assert failed == ["combination-equivalence"]
    assert "FAILED combination-equivalence" in captured.err


def test_verify_zero_trials(capsys):
    """A run of no trials checks nothing, so it is a usage error, not a pass."""
    for trials in ("0", "-1"):
        assert main(["verify", "--trials", trials]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "trials" in captured.err


def test_decide(interval_doc, tmp_path, capsys):
    utilities = _write(
        tmp_path / "util.json",
        {
            "bet-x": {"x": 1, "y": 0, "z": 0},
            "bet-y": {"x": 0, "y": 1, "z": 0},
            "bet-z": {"x": 0, "y": 0, "z": 1},
        },
    )
    assert main(["decide", "--input", interval_doc, "--utilities", utilities]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[-1] == "chosen: bet-y"
    assert out[0].startswith("bet-y 0.45")


def test_decide_tie_breaks_lexicographically(interval_doc, tmp_path, capsys):
    utilities = _write(
        tmp_path / "util.json",
        {
            "b": {"x": 1, "y": 1, "z": 1},
            "a": {"x": 1, "y": 1, "z": 1},
        },
    )
    assert main(["decide", "--input", interval_doc, "--utilities", utilities]) == 0
    assert capsys.readouterr().out.strip().splitlines()[-1] == "chosen: a"


def test_decide_missing_payoff(interval_doc, tmp_path, capsys):
    utilities = _write(tmp_path / "util.json", {"opt": {"x": 1}})
    assert main(["decide", "--input", interval_doc, "--utilities", utilities]) == 2


@pytest.mark.parametrize(
    "utilities, code",
    [({}, 2), ([], 1), (["a"], 1), ({"o": 5}, 1)],
    ids=["no-options", "array", "array-of-names", "number-row"],
)
def test_decide_malformed_utilities(interval_doc, tmp_path, capsys, utilities, code):
    path = _write(tmp_path / "util.json", utilities)
    assert main(["decide", "--input", interval_doc, "--utilities", path]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert len(captured.err.strip().splitlines()) == 1


def test_decide_scale_invariance(interval_doc, tmp_path, capsys):
    base = {
        "a": {"x": 3, "y": 1, "z": 2},
        "b": {"x": 1, "y": 4, "z": 0},
    }
    u1 = _write(tmp_path / "u1.json", base)
    u2 = _write(
        tmp_path / "u2.json",
        {k: {x: 10 * v for x, v in p.items()} for k, p in base.items()},
    )
    main(["decide", "--input", interval_doc, "--utilities", u1])
    first = capsys.readouterr().out.strip().splitlines()[-1]
    main(["decide", "--input", interval_doc, "--utilities", u2])
    second = capsys.readouterr().out.strip().splitlines()[-1]
    assert first == second


def test_random_roundtrip(tmp_path, capsys):
    out = tmp_path / "m.json"
    assert main(["random", "--n", "4", "--seed", "9", "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert len(doc["frame"]) == 4
    assert sum(e["mass"] for e in doc["masses"]) == pytest.approx(1.0)
    # same seed reproduces the same document
    out2 = tmp_path / "m2.json"
    main(["random", "--n", "4", "--seed", "9", "--output", str(out2)])
    assert out.read_text() == out2.read_text()
    # parse -> serialize -> parse is the identity
    code = main(["transform", "--input", str(out), "--transform", "pignistic"])
    assert code == 0
