"""tools/closed_scan.py: --compare on synthetic three-cell scans."""

import importlib.util
import json
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "closed_scan", Path(__file__).resolve().parents[1] / "tools" / "closed_scan.py")
closed_scan = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(closed_scan)

CASES = ("s2g", "a2a-im-ic", "a2a-p-ic")


def _write_scan(path, closed):
    """A scan of config 0 whose closed cells are closed, each a value or an
    error text, in CASES order."""
    lines = [{"index": 0, "case": case, "below_knee": False,
              "closed": None if isinstance(cell, str) else cell,
              "closed_error": cell if isinstance(cell, str) else None,
              "integral": 0.5, "integral_error": None, "closed_cpu_s": 0.01}
             for case, cell in zip(CASES, closed)]
    lines.append({"cells": 3})
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))
    return path


def _compare(tmp_path, old, new):
    return closed_scan.compare(closed_scan.read_scan(_write_scan(tmp_path / "old.jsonl", old)),
                               closed_scan.read_scan(_write_scan(tmp_path / "new.jsonl", new)))


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
        "not_below_knee": {"value": 2.0 ** -20, "index": 0, "case": "s2g"}}}


def test_compare_of_unchanged_cells_prints_only_the_counts(tmp_path, capsys):
    kinds = _compare(tmp_path, [0.25, "lost", 1.0], [0.25, "lost", 1.0])
    assert kinds == {"compared": 3, "value_moved": 0, "blank_to_filled": 0,
                     "filled_to_blank": 0, "message_changed": 0}
    summary, = map(json.loads, capsys.readouterr().out.splitlines())
    assert summary["max_abs_moved"] == {"all": None, "not_below_knee": None}


def test_scan_exits_1_only_when_a_cell_went_blank(tmp_path, monkeypatch, capsys):
    # every cell of the new scan is blank: a filled old cell went blank, a blank
    # one with the same message did not change
    monkeypatch.setattr(closed_scan, "_evaluate", lambda fn, gamma, cfg, kwargs: (None, "lost"))
    went_blank = _write_scan(tmp_path / "went.jsonl", ["lost", 0.5, "lost"])
    stayed_blank = _write_scan(tmp_path / "stayed.jsonl", ["lost", "lost", "lost"])
    assert closed_scan.main(["1", "--compare", str(went_blank)]) == 1
    assert closed_scan.main(["1", "--compare", str(stayed_blank)]) == 0
    assert closed_scan.main(["1"]) == 0
