"""README names every config key and every field the outputs write.

Each name must appear in backticks: every `ProblemConfig` field (a
config key), every report field of `LevelRecord` and `FinalRecord`
(limit_report.json's `levels` and `final` blocks), every `HistoryRow`
field (history.csv's columns after `level`) and every
`StateDiagnostics` field (diagnostics.json's keys, and the
`obstacle_diagnostics` block).  A field added without its README entry
fails here.
"""

import dataclasses
from pathlib import Path

import pytest

from quenchctrl.config import ProblemConfig
from quenchctrl.optimize import FinalRecord, HistoryRow, LevelRecord
from quenchctrl.state import StateDiagnostics

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")

# LevelRecord's arrays go to control_<L>.csv and history.csv, not the report
RECORDS = {
    "config": (ProblemConfig, ()),
    "level": (LevelRecord, ("control", "history")),
    "final": (FinalRecord, ()),
    "history": (HistoryRow, ()),
    "diagnostics": (StateDiagnostics, ()),
}


@pytest.mark.parametrize("record, unwritten", RECORDS.values(), ids=RECORDS.keys())
def test_readme_names_every_field(record, unwritten):
    names = [f.name for f in dataclasses.fields(record) if f.name not in unwritten]
    assert [name for name in names if f"`{name}`" not in README] == []
