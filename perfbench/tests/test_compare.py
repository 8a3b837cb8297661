"""Every compare verdict, the pairs rule and the result-file tool."""

import json

import pytest

import compare
from compare import verdict


def _pairs(base, new):
    return list(zip(base, new))


BASE = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]


def test_improved_needs_pairs_and_a_gap_beyond_the_base_iqr():
    new = [v * 1.05 for v in BASE]
    assert verdict(BASE, new, "higher", 0.1, _pairs(BASE, new)) == "improved"


def test_lower_is_better_direction():
    new = [v * 0.95 for v in BASE]
    assert verdict(BASE, new, "lower", 0.1, _pairs(BASE, new)) == "improved"
    assert verdict(BASE, new, "higher", 0.1, _pairs(BASE, new)) == "unchanged"


def test_worse_beyond_the_bound():
    new = [v * 0.8 for v in BASE]
    assert verdict(BASE, new, "higher", 0.1, _pairs(BASE, new)) == "worse"
    assert verdict(BASE, [v * 1.25 for v in BASE], "lower", 0.1,
                   _pairs(BASE, BASE)) == "worse"


def test_unchanged_within_noise():
    new = list(reversed(BASE))
    assert verdict(BASE, new, "higher", 0.1, _pairs(BASE, new)) == "unchanged"


def test_eight_of_ten_pairs_is_not_a_gain():
    new = [v * 1.05 for v in BASE]
    pairs = _pairs(BASE, new)
    pairs[0] = (pairs[0][0], pairs[0][0])      # a tie counts for neither
    pairs[1] = (pairs[1][0], pairs[1][0] - 1)  # a loss
    assert verdict(BASE, new, "higher", 0.1, pairs) == "unchanged"
    pairs[1] = (pairs[1][0], pairs[1][0] + 1)
    assert verdict(BASE, new, "higher", 0.1, pairs) == "improved"


def test_gap_inside_the_base_iqr_is_not_a_gain():
    base = [90.0, 95.0, 100.0, 105.0, 110.0] * 2
    new = [v + 1.0 for v in base]
    assert verdict(base, new, "higher", 0.5, _pairs(base, new)) == "unchanged"


def test_unresolved_when_spread_exceeds_the_bound():
    wide = [50.0, 80.0, 100.0, 120.0, 150.0] * 2
    new = [v * 1.02 for v in wide]
    assert verdict(wide, new, "higher", 0.1, _pairs(wide, new)) \
        == "unresolved"
    assert verdict(BASE, wide, "higher", 0.1, _pairs(BASE, wide)) \
        == "unresolved"


def test_wide_spread_but_every_new_run_better_is_improved():
    wide = [50.0, 80.0, 100.0, 120.0, 150.0] * 2
    new = [v + 200.0 for v in wide]
    assert verdict(wide, new, "higher", 0.1, _pairs(wide, new)) == "improved"


def _result_file(path, workload, values):
    runs = [{"workload": workload, "seed": seed,
             "result": {"correct": True, "attempted": 1, "failed": 0,
                        "metrics": {name: {"value": value, "unit": "x"}
                                    for name, value in metrics.items()}}}
            for seed, metrics in enumerate(values, start=1)]
    path.write_text(json.dumps({"runs": runs}))
    return path


def _metrics(scale):
    names = [m["name"] for m in json.loads(
        (compare.HERE.parent / "BENCHMARK.json").read_text())["end_to_end"]]
    return [{name: v * scale for name in names} for v in BASE]


def test_tool_compares_two_files(tmp_path, capsys):
    base = _result_file(tmp_path / "a.json", "fleet32", _metrics(1.0))
    new = _result_file(tmp_path / "b.json", "fleet32", _metrics(1.0))
    assert compare.main([str(base), str(new)]) == 0
    out = capsys.readouterr().out
    assert "ratio new/base 1.0000 (base median" in out
    assert "-> unchanged" in out


def test_tool_flags_a_regression(tmp_path, capsys):
    base = _result_file(tmp_path / "a.json", "fleet32", _metrics(1.0))
    new = _result_file(tmp_path / "b.json", "fleet32", _metrics(2.0))
    assert compare.main([str(base), str(new)]) == 1
    assert "-> worse" in capsys.readouterr().out


def test_tool_checks_the_spread_of_one_file(tmp_path, capsys):
    steady = _result_file(tmp_path / "a.json", "fleet32", _metrics(1.0))
    assert compare.main([str(steady)]) == 0
    assert "-> ok" in capsys.readouterr().out


def test_a_repeated_seed_is_an_error(tmp_path):
    path = _result_file(tmp_path / "a.json", "fleet32", _metrics(1.0))
    data = json.loads(path.read_text())
    data["runs"].append(data["runs"][0])
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match="seed 1 appears twice"):
        compare.load_runs(path)


def test_failed_runs_are_left_out(tmp_path):
    path = _result_file(tmp_path / "a.json", "fleet32", _metrics(1.0))
    data = json.loads(path.read_text())
    data["runs"][0]["result"]["correct"] = False
    path.write_text(json.dumps(data))
    assert len(compare.load_runs(path)["fleet32"]) == len(BASE) - 1
