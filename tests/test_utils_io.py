"""Tests for repro.utils.io and repro.utils.progress."""

from __future__ import annotations

import io
import os

import numpy as np
import pytest

from repro.utils.io import atomic_text_file, load_json, save_json
from repro.utils.progress import ProgressReporter, track


class TestJsonIO:
    def test_round_trip(self, tmp_path):
        document = {"name": "corel-20", "map": 0.471, "cutoffs": [20, 30]}
        path = save_json(document, tmp_path / "result.json")
        assert load_json(path) == document

    def test_numpy_values_serialised(self, tmp_path):
        document = {"value": np.float64(0.5), "count": np.int64(3), "row": np.arange(3)}
        path = save_json(document, tmp_path / "np.json")
        loaded = load_json(path)
        assert loaded["value"] == 0.5
        assert loaded["count"] == 3
        assert loaded["row"] == [0, 1, 2]

    def test_creates_parent_directories(self, tmp_path):
        path = save_json({"a": 1}, tmp_path / "nested" / "deep" / "doc.json")
        assert path.exists()

    def test_unserialisable_document_keeps_previous_file(self, tmp_path):
        path = save_json({"a": 1}, tmp_path / "doc.json")
        with pytest.raises(TypeError):
            save_json({"a": object()}, path)
        assert load_json(path) == {"a": 1}
        assert os.listdir(tmp_path) == ["doc.json"]


class TestAtomicTextFile:
    def test_file_appears_only_when_the_body_completes(self, tmp_path):
        path = tmp_path / "nested" / "out.txt"
        with atomic_text_file(path) as handle:
            handle.write("new\n")
            assert not path.exists()
        assert path.read_text(encoding="utf-8") == "new\n"
        assert os.listdir(path.parent) == ["out.txt"]

    def test_failed_body_keeps_previous_file_and_leaves_no_temp(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old\n", encoding="utf-8")
        with pytest.raises(RuntimeError, match="mid-write"):
            with atomic_text_file(path) as handle:
                handle.write("torn")
                raise RuntimeError("crash mid-write")
        assert path.read_text(encoding="utf-8") == "old\n"
        assert os.listdir(tmp_path) == ["out.txt"]


class TestProgress:
    def test_reporter_writes_final_line(self):
        stream = io.StringIO()
        reporter = ProgressReporter(3, label="work", stream=stream, min_interval=0.0)
        for _ in range(3):
            reporter.update()
        output = stream.getvalue()
        assert "3/3" in output
        assert output.endswith("\n")

    def test_disabled_reporter_is_silent(self):
        stream = io.StringIO()
        reporter = ProgressReporter(2, stream=stream, enabled=False)
        reporter.update()
        reporter.update()
        assert stream.getvalue() == ""

    def test_track_yields_all_items(self):
        items = list(track([1, 2, 3], enabled=False))
        assert items == [1, 2, 3]
