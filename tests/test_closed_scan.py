"""tools/closed_scan.py: --compare on synthetic three-cell scans."""

import importlib.util
import json
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "closed_scan", Path(__file__).resolve().parents[1] / "tools" / "closed_scan.py")
closed_scan = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(closed_scan)

CASES = ("s2g", "a2a-im-ic", "a2a-p-ic")


def _write_scan(path, closed, cpu=(0.01, 0.01, 0.01)):
    """A scan of config 0 whose closed cells are closed, each a value or an
    error text, and took cpu seconds, in CASES order."""
    lines = [{"index": 0, "case": case, "below_knee": False,
              "closed": None if isinstance(cell, str) else cell,
              "closed_error": cell if isinstance(cell, str) else None,
              "integral": 0.5, "integral_error": None, "closed_cpu_s": seconds}
             for case, cell, seconds in zip(CASES, closed, cpu)]
    lines.append({"cells": 3})
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))
    return path


def _compare(tmp_path, old, new, old_cpu=(0.01, 0.01, 0.01), new_cpu=(0.01, 0.01, 0.01)):
    return closed_scan.compare(
        closed_scan.read_scan(_write_scan(tmp_path / "old.jsonl", old, old_cpu)),
        closed_scan.read_scan(_write_scan(tmp_path / "new.jsonl", new, new_cpu)))


def test_compare_counts_each_kind_of_change(tmp_path, capsys):
    kinds = _compare(tmp_path, [0.25, 0.5, "lost"], [0.25 + 2.0 ** -20, "lost", "truncated"])
    assert kinds == {"compared": 3, "value_moved": 1, "blank_to_filled": 0,
                     "filled_to_blank": 1, "message_changed": 1}
    *changes, summary = map(json.loads, capsys.readouterr().out.splitlines())
    assert [(line["case"], line["change"]) for line in changes] == [
        ("s2g", "value_moved"), ("a2a-im-ic", "filled_to_blank"),
        ("a2a-p-ic", "message_changed")]
    assert summary == {"cells": 3, **kinds, "max_abs_moved": {
        "all": {"value": 2.0 ** -20, "index": 0, "case": "s2g"},
        "not_below_knee": {"value": 2.0 ** -20, "index": 0, "case": "s2g"}},
        "max_rel_moved": {
        "all": {"value": 2.0 ** -18, "index": 0, "case": "s2g"},
        "not_below_knee": {"value": 2.0 ** -18, "index": 0, "case": "s2g"}},
        "toward_integral": {"closer": 1, "further": 0},
        "closed_cpu_s": {"old": 0.01 + 0.01 + 0.01, "new": 0.01 + 0.01 + 0.01},
        "median_cpu_ratio": {"value": 1.0, "cells": 1}}


def test_compare_of_unchanged_cells_prints_only_the_counts(tmp_path, capsys):
    kinds = _compare(tmp_path, [0.25, "lost", 1.0], [0.25, "lost", 1.0])
    assert kinds == {"compared": 3, "value_moved": 0, "blank_to_filled": 0,
                     "filled_to_blank": 0, "message_changed": 0}
    summary, = map(json.loads, capsys.readouterr().out.splitlines())
    assert summary["max_abs_moved"] == {"all": None, "not_below_knee": None}
    assert summary["max_rel_moved"] == {"all": None, "not_below_knee": None}


def test_compare_gives_the_largest_relative_move(tmp_path, capsys):
    # moves of 2^-20 at 0.5, 2^-30 at 2^-12 and 2^-40 at 1 - 2^-24: the first is
    # the largest absolute move; relative to min(OP, 1 - OP) they are 2^-19,
    # 2^-18 and 2^-16, so the third is the largest
    old = [0.5, 2.0 ** -12, 1.0 - 2.0 ** -24]
    new = [0.5 + 2.0 ** -20, 2.0 ** -12 + 2.0 ** -30, 1.0 - 2.0 ** -24 + 2.0 ** -40]
    _compare(tmp_path, old, new)
    *_, summary = map(json.loads, capsys.readouterr().out.splitlines())
    assert summary["max_abs_moved"]["all"] == {"value": 2.0 ** -20, "index": 0, "case": "s2g"}
    assert summary["max_rel_moved"]["all"] == {"value": 2.0 ** -16, "index": 0,
                                               "case": "a2a-p-ic"}


def test_a_move_from_0_or_1_is_infinitely_large_relative_to_it(tmp_path, capsys):
    # both moves from an end are infinite; the first cell keeps the maximum
    _compare(tmp_path, [0.0, 0.25, 1.0], [2.0 ** -30, 0.5, 1.0 - 2.0 ** -40])
    *_, summary = map(json.loads, capsys.readouterr().out.splitlines())
    assert summary["max_abs_moved"]["all"]["case"] == "a2a-im-ic"
    assert summary["max_rel_moved"]["all"] == {"value": float("inf"), "index": 0, "case": "s2g"}


def test_compare_counts_the_moves_toward_the_integral(tmp_path, capsys):
    # every integral is 0.5: the first cell moves closer to it, the second
    # further, and the third crosses it at the same distance, so counts in neither
    old = [0.25, 0.75, 0.5 - 2.0 ** -10]
    new = [0.375, 0.875, 0.5 + 2.0 ** -10]
    assert _compare(tmp_path, old, new)["value_moved"] == 3
    *_, summary = map(json.loads, capsys.readouterr().out.splitlines())
    assert summary["toward_integral"] == {"closer": 1, "further": 1}


def _cpu_summary(capsys, tmp_path, old, new, old_cpu, new_cpu):
    _compare(tmp_path, old, new, old_cpu, new_cpu)
    *_, summary = map(json.loads, capsys.readouterr().out.splitlines())
    return summary["closed_cpu_s"], summary["median_cpu_ratio"]


def test_compare_gives_the_cpu_totals_and_the_median_ratio(tmp_path, capsys):
    # only cells filled in both scans that took at least 1 ms in each give a
    # ratio; the others count in the totals alone
    filled = [0.25, 0.5, "lost"]
    assert _cpu_summary(capsys, tmp_path, filled, filled, (0.5, 0.25, 1.0),
                        (0.25, 0.0625, 2.0)) == ({"old": 1.75, "new": 2.3125},
                                                 {"value": 0.375, "cells": 2})
    assert _cpu_summary(capsys, tmp_path, filled, [0.25, 0.5, 0.75], (0.5, 0.0005, 1.0),
                        (0.25, 0.5, 2.0)) == ({"old": 1.5005, "new": 2.75},
                                              {"value": 0.5, "cells": 1})
    assert _cpu_summary(capsys, tmp_path, ["lost"] * 3, ["lost"] * 3, (0.5, 0.5, 0.5),
                        (0.25, 0.25, 0.25)) == ({"old": 1.5, "new": 0.75},
                                                {"value": None, "cells": 0})


def test_scan_exits_1_only_when_a_cell_went_blank(tmp_path, monkeypatch, capsys):
    # every cell of the new scan is blank: a filled old cell went blank, a blank
    # one with the same message did not change
    monkeypatch.setattr(closed_scan, "_evaluate", lambda fn, gamma, cfg, kwargs: (None, "lost"))
    went_blank = _write_scan(tmp_path / "went.jsonl", ["lost", 0.5, "lost"])
    stayed_blank = _write_scan(tmp_path / "stayed.jsonl", ["lost", "lost", "lost"])
    assert closed_scan.main(["1", "--compare", str(went_blank)]) == 1
    assert closed_scan.main(["1", "--compare", str(stayed_blank)]) == 0
    assert closed_scan.main(["1"]) == 0


def test_summary_counts_the_cells_off_the_integral(monkeypatch, capsys):
    # config 0's cells, as (closed, integral): 4e-7 off at 0.5 is past 3e-7 but
    # within 1e-5 of 0.5; 2e-8 off at 1e-3 is within 3e-7 but past 1e-5 of 1e-3;
    # and any difference from an integral of 1 counts as relative
    cells = iter([(0.5 + 4e-7, 0.5), (1e-3 + 2e-8, 1e-3), (1.0 - 1e-12, 1.0)])
    pair = []

    def evaluate(fn, gamma, cfg, kwargs):
        if not pair:
            pair.extend(next(cells))
        return pair.pop(0), None

    monkeypatch.setattr(closed_scan, "_evaluate", evaluate)
    assert closed_scan.main(["1"]) == 0
    *_, summary = map(json.loads, capsys.readouterr().out.splitlines())
    assert (summary["closed_off_abs"], summary["closed_off_rel"]) == (1, 2)
    assert summary["closed_off_integral"] == 0


def test_each_cell_says_whether_it_is_settled(monkeypatch, capsys):
    # configs 0-4 of the scan: every a2a im-IC cell from config 1 on and the
    # s2g cell of config 4 are settled at 1 without a series
    monkeypatch.setattr(closed_scan, "_evaluate", lambda fn, gamma, cfg, kwargs: (0.5, None))
    assert closed_scan.main(["5"]) == 0
    *cells, summary = map(json.loads, capsys.readouterr().out.splitlines())
    settled = {(line["index"], line["case"]) for line in cells if line["settled"]}
    assert settled == {(1, "a2a-im-ic"), (2, "a2a-im-ic"), (3, "a2a-im-ic"),
                       (4, "s2g"), (4, "a2a-im-ic")}
    assert summary["settled"] == 5
