"""Tests for the ``compressdb`` command-line tool."""

from pathlib import Path

import pytest

from repro.cli import main

# A file handle the CLI (or a test) leaves open fails the test.
pytestmark = [
    pytest.mark.filterwarnings("error::ResourceWarning"),
    pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning"),
]


@pytest.fixture
def image(tmp_path):
    path = str(tmp_path / "store.img")
    assert main(["init", path, "--block-size", "256"]) == 0
    return path


@pytest.fixture
def corpus(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_bytes(b"the quick brown fox jumps over the lazy dog " * 40)
    return str(path)


class TestLifecycle:
    def test_init_creates_image(self, tmp_path, capsys):
        path = str(tmp_path / "fresh.img")
        assert main(["init", path, "--block-size", "256"]) == 0
        assert "initialised" in capsys.readouterr().out
        assert (tmp_path / "fresh.img").exists()

    def test_put_ls_get_roundtrip(self, image, corpus, tmp_path, capsys):
        assert main(["put", image, corpus, "/corpus.txt"]) == 0
        assert main(["ls", image]) == 0
        out = capsys.readouterr().out
        assert "/corpus.txt" in out
        target = str(tmp_path / "out.txt")
        assert main(["get", image, "/corpus.txt", "-o", target]) == 0
        assert Path(target).read_bytes() == Path(corpus).read_bytes()

    def test_get_to_stdout(self, image, corpus, capsys):
        main(["put", image, corpus, "/c"])
        capsys.readouterr()
        assert main(["get", image, "/c"]) == 0

    def test_rm(self, image, corpus, capsys):
        main(["put", image, corpus, "/c"])
        assert main(["rm", image, "/c"]) == 0
        capsys.readouterr()
        main(["ls", image])
        assert "/c" not in capsys.readouterr().out

    def test_missing_source_file_errors(self, image, capsys):
        assert main(["put", image, "/no/such/file", "/x"]) == 2
        assert "error" in capsys.readouterr().err


class TestManipulation:
    def test_insert_persists(self, image, corpus, tmp_path, capsys):
        main(["put", image, corpus, "/c"])
        assert main(["insert", image, "/c", "4", "INSERTED "]) == 0
        target = str(tmp_path / "after.txt")
        main(["get", image, "/c", "-o", target])
        assert Path(target).read_bytes().startswith(b"the INSERTED quick")

    def test_delete_persists(self, image, corpus, tmp_path):
        main(["put", image, corpus, "/c"])
        assert main(["delete", image, "/c", "0", "4"]) == 0
        target = str(tmp_path / "after.txt")
        main(["get", image, "/c", "-o", target])
        assert Path(target).read_bytes().startswith(b"quick brown")

    def test_replace(self, image, corpus, tmp_path):
        main(["put", image, corpus, "/c"])
        assert main(["replace", image, "/c", "0", "THE"]) == 0
        target = str(tmp_path / "after.txt")
        main(["get", image, "/c", "-o", target])
        assert Path(target).read_bytes().startswith(b"THE quick")

    def test_append_from_file(self, image, corpus, tmp_path):
        main(["put", image, corpus, "/c"])
        extra = tmp_path / "extra.bin"
        extra.write_bytes(b"[tail]")
        assert main(["append", image, "/c", "--from-file", str(extra)]) == 0
        target = str(tmp_path / "after.txt")
        main(["get", image, "/c", "-o", target])
        assert Path(target).read_bytes().endswith(b"[tail]")

    def test_missing_payload_errors(self, image, corpus, capsys):
        main(["put", image, corpus, "/c"])
        assert main(["append", image, "/c"]) == 2
        assert "provide DATA" in capsys.readouterr().err


class TestQueries:
    def test_search(self, image, corpus, capsys):
        main(["put", image, corpus, "/c"])
        capsys.readouterr()
        assert main(["search", image, "/c", "fox"]) == 0
        captured = capsys.readouterr()
        offsets = [int(line) for line in captured.out.split()]
        assert len(offsets) == 40
        assert "40 occurrence(s)" in captured.err

    def test_count(self, image, corpus, capsys):
        main(["put", image, corpus, "/c"])
        capsys.readouterr()
        assert main(["count", image, "/c", "the"]) == 0
        assert capsys.readouterr().out.strip() == "80"

    def test_stats(self, image, corpus, capsys):
        main(["put", image, corpus, "/c"])
        main(["put", image, corpus, "/c2"])  # duplicate content
        capsys.readouterr()
        assert main(["stats", image]) == 0
        out = capsys.readouterr().out
        assert "compression ratio" in out
        ratio = float(out.split("compression ratio:")[1].split()[0])
        assert ratio > 1.5  # the duplicate file dedups

    def test_stats_json_is_byte_stable(self, image, corpus, capsys):
        import json

        main(["put", image, corpus, "/c"])
        capsys.readouterr()
        assert main(["stats", image, "--json"]) == 0
        first = capsys.readouterr().out
        payload = json.loads(first)
        assert payload["version"] == 1
        assert payload["gauges"]["engine.space.files"] == 1
        assert payload["counters"]["storage.device.block_reads"] > 0
        assert main(["stats", image, "--json"]) == 0
        assert capsys.readouterr().out == first

    def test_stats_prom_validates(self, image, corpus, capsys):
        from tests.test_obs import validate_prometheus_text

        main(["put", image, corpus, "/c"])
        capsys.readouterr()
        assert main(["stats", image, "--prom"]) == 0
        out = capsys.readouterr().out
        assert validate_prometheus_text(out) > 0
        assert "repro_engine_space_compression_ratio" in out


class TestTrace:
    def test_trace_subcommand_writes_chrome_json(
        self, image, corpus, tmp_path, capsys
    ):
        import json

        main(["put", image, corpus, "/c"])
        capsys.readouterr()
        out = str(tmp_path / "trace.json")
        assert main(["trace", "--out", out, "search", image, "/c", "fox"]) == 0
        captured = capsys.readouterr()
        assert "40 occurrence(s)" in captured.err  # workload still ran
        with open(out) as handle:
            payload = json.load(handle)
        events = payload["traceEvents"]
        assert events, "trace must contain spans"
        cats = {event["cat"] for event in events}
        assert "device" in cats  # the scan's block reads are traced

    def test_trace_script_covers_four_layers(self, tmp_path, capsys):
        import json
        import os

        quickstart = os.path.join(
            os.path.dirname(__file__), "..", "examples", "quickstart.py"
        )
        out = str(tmp_path / "trace.json")
        assert main(["trace", "--out", out, quickstart]) == 0
        capsys.readouterr()
        with open(out) as handle:
            payload = json.load(handle)
        events = payload["traceEvents"]
        cats = {event["cat"] for event in events}
        assert {"vfs", "engine", "journal", "device"} <= cats
        # Parent/child links resolve within the trace.
        ids = {event["args"]["span_id"] for event in events}
        parented = [
            event for event in events if event["args"]["parent_id"] is not None
        ]
        assert parented
        assert all(event["args"]["parent_id"] in ids for event in parented)

    def test_trace_without_workload_errors(self, tmp_path, capsys):
        assert main(["trace", "--out", str(tmp_path / "t.json")]) == 2
        assert "workload" in capsys.readouterr().err


class TestMaintenance:
    def test_fsck_on_healthy_image(self, image, corpus, capsys):
        main(["put", image, corpus, "/c"])
        capsys.readouterr()
        assert main(["fsck", image]) == 0
        out = capsys.readouterr().out
        assert "refcounts fixed:  0" in out
        assert "blocks reclaimed: 0" in out

    def test_defrag(self, image, corpus, capsys):
        main(["put", image, corpus, "/c"])
        for offset in (10, 50, 90):
            main(["insert", image, "/c", str(offset), "frag"])
        capsys.readouterr()
        assert main(["defrag", image, "/c"]) == 0
        assert "reclaimed" in capsys.readouterr().out
        # Content still correct after defrag.
        main(["count", image, "/c", "frag"])
        assert capsys.readouterr().out.strip() == "3"


class TestClone:
    def test_cp_is_metadata_only(self, image, corpus, capsys):
        main(["put", image, corpus, "/a"])
        size_before = __import__("os").path.getsize(image)
        assert main(["cp", image, "/a", "/b"]) == 0
        capsys.readouterr()
        main(["ls", image])
        out = capsys.readouterr().out
        assert "/a" in out and "/b" in out
        # Image grows by metadata only, not another copy of the data.
        size_after = __import__("os").path.getsize(image)
        data_size = __import__("os").path.getsize(corpus)
        assert size_after - size_before < data_size / 2

    def test_clone_content_identical(self, image, corpus, tmp_path):
        main(["put", image, corpus, "/a"])
        main(["cp", image, "/a", "/b"])
        out_a = str(tmp_path / "a.out")
        out_b = str(tmp_path / "b.out")
        main(["get", image, "/a", "-o", out_a])
        main(["get", image, "/b", "-o", out_b])
        assert Path(out_a).read_bytes() == Path(out_b).read_bytes()


class TestDescribe:
    def test_describe_reports_structure(self, image, corpus, capsys):
        main(["put", image, corpus, "/c"])
        main(["cp", image, "/c", "/c2"])
        main(["insert", image, "/c", "10", "holey"])
        capsys.readouterr()
        assert main(["describe", image, "/c"]) == 0
        out = capsys.readouterr().out
        assert "slots" in out and "hole_bytes" in out
        assert "depth             2" in out.replace("  ", " ") or "depth" in out

    def test_describe_shared_blocks(self, image, corpus, capsys):
        main(["put", image, corpus, "/c"])
        main(["cp", image, "/c", "/clone"])
        capsys.readouterr()
        main(["describe", image, "/clone"])
        out = capsys.readouterr().out
        shared = int(out.split("shared_blocks")[1].split()[0])
        distinct = int(out.split("distinct_blocks")[1].split()[0])
        assert shared == distinct  # every block shared with the original


class TestWordcountCommand:
    def test_wordcount_top(self, image, corpus, capsys):
        main(["put", image, corpus, "/c"])
        capsys.readouterr()
        assert main(["wordcount", image, "/c", "--top", "2"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 2
        assert out[0].split()[0] == "80"  # "the" appears 2x per sentence


# Each image subcommand with arguments naming something the image lacks.
MISSING = {
    "put": ["/no/such/source", "/x"],
    "get": ["/missing"],
    "rm": ["/missing"],
    "cp": ["/missing", "/copy"],
    "insert": ["/missing", "0", "x"],
    "replace": ["/missing", "0", "x"],
    "append": ["/missing", "x"],
    "delete": ["/missing", "0", "1"],
    "search": ["/missing", "x"],
    "count": ["/missing", "x"],
    "describe": ["/missing"],
    "wordcount": ["/missing"],
    "defrag": ["/missing"],
    "snap delete": ["ghost"],
    "snap rollback": ["ghost"],
    "snap clone": ["ghost", "/restore"],
    "snap diff": ["ghost"],
    "serve": ["/no/such/dir/s.sock"],
}


@pytest.fixture
def devices(monkeypatch):
    """Every FileBlockDevice constructed while the test runs."""
    from repro.storage.block_device import FileBlockDevice

    opened = []
    init = FileBlockDevice.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        opened.append(self)

    monkeypatch.setattr(FileBlockDevice, "__init__", recording)
    return opened


def _contents(image):
    """Every file in ``image`` with its bytes."""
    from repro.cli import _close, _mount

    engine = _mount(image)
    try:
        return {path: engine.read_file(path) for path in engine.list_files()}
    finally:
        _close(engine, flush=False)


class TestImageLifetime:
    def test_every_image_command_naming_a_path_is_probed(self):
        from repro.cli import COMMANDS

        image_commands = {row.name for row in COMMANDS if row.image}
        assert set(MISSING) <= image_commands
        # What is left names nothing inside the image.
        assert image_commands - set(MISSING) == {
            "init", "ls", "stats", "fsck", "snap create", "snap list"
        }

    @pytest.mark.parametrize("name", sorted(MISSING))
    def test_missing_path_exits_2_and_closes_the_image(
        self, name, image, devices, capsys
    ):
        argv = [*name.split(), image, *MISSING[name]]
        assert main(argv) == 2
        assert "error" in capsys.readouterr().err
        assert [d for d in devices if not d._file.closed] == []

    def test_failed_mutation_is_never_made_durable(
        self, image, corpus, devices, monkeypatch
    ):
        from repro.core.engine import CompressDB
        from repro.fs.errors import FSError

        assert main(["put", image, corpus, "/c"]) == 0
        before = _contents(image)
        fsyncs = []
        monkeypatch.setattr(CompressDB, "fsync", lambda self: fsyncs.append(self))

        def write_then_fail(self, source, dest):
            self.write_file(dest, b"half a copy")
            raise FSError("injected failure")

        monkeypatch.setattr(CompressDB, "copy_file", write_then_fail)
        assert main(["cp", image, "/c", "/d"]) == 2
        assert fsyncs == []
        monkeypatch.undo()
        assert _contents(image) == before
        assert main(["fsck", image]) == 0

    def test_image_closes_when_the_fsync_raises(
        self, image, corpus, devices, monkeypatch, capsys
    ):
        from repro.core import superblock as sb
        from repro.core.engine import CompressDB

        assert main(["put", image, corpus, "/c"]) == 0

        def failing_fsync(self):
            raise sb.PersistenceError("injected fsync failure")

        monkeypatch.setattr(CompressDB, "fsync", failing_fsync)
        assert main(["rm", image, "/c"]) == 2
        out = capsys.readouterr()
        assert "removed" not in out.out  # the report waits for durability
        assert "injected fsync failure" in out.err
        assert [d for d in devices if not d._file.closed] == []

    def test_verify_only_fsck_leaves_the_image_byte_identical(self, image, corpus):
        assert main(["put", image, corpus, "/c"]) == 0
        assert main(["insert", image, "/c", "10", "holey"]) == 0
        before = Path(image).read_bytes()
        assert main(["fsck", image]) == 0
        assert Path(image).read_bytes() == before

    @pytest.mark.parametrize("size", [2048, 2000])
    def test_a_foreign_file_exits_2_and_is_closed(self, size, tmp_path, devices, capsys):
        foreign = tmp_path / "foreign.img"
        foreign.write_bytes(b"not an image".ljust(size, b"!"))
        assert main(["ls", str(foreign)]) == 2
        assert "error" in capsys.readouterr().err
        assert all(d._file.closed for d in devices)
