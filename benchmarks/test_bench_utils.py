"""``print_figure``: one file per table, and no table silently replaces another."""

import pytest

import bench_utils


def test_a_second_write_to_one_table_file_raises(tmp_path, monkeypatch):
    monkeypatch.setattr(bench_utils, "RESULTS_DIR", str(tmp_path))
    monkeypatch.setattr(bench_utils, "_WRITTEN", set())
    rows = [{"index": "Bx", "query_io": 1.5, "query_ms": 0.25}]

    bench_utils.print_figure("one", "One — first table", rows)
    bench_utils.print_figure("two", "Two — second table", rows)
    with pytest.raises(ValueError, match="one.txt"):
        bench_utils.print_figure("one", "One — same file again", rows)

    written = (tmp_path / "one.txt").read_text(encoding="utf-8")
    assert written.startswith("One — first table")
    assert "query_io" in written and "query_ms" not in written
    assert sorted(path.name for path in tmp_path.iterdir()) == ["one.txt", "two.txt"]
