"""Atomic write-then-rename helper (repro.util.files)."""

import os

import pytest

from repro.util.files import atomic_write_bytes, atomic_write_text


class TestAtomicWriteBytes:
    def test_round_trip(self, tmp_path):
        target = tmp_path / "out.bin"
        result = atomic_write_bytes(target, b"\x00\x01payload")
        assert result == target
        assert target.read_bytes() == b"\x00\x01payload"

    def test_overwrite_replaces_content(self, tmp_path):
        target = tmp_path / "out.bin"
        target.write_bytes(b"old")
        atomic_write_bytes(target, b"new")
        assert target.read_bytes() == b"new"

    def test_no_temp_files_left_behind(self, tmp_path):
        atomic_write_bytes(tmp_path / "out.bin", b"data")
        assert {p.name for p in tmp_path.iterdir()} == {"out.bin"}

    def test_failure_leaves_original_intact(self, tmp_path):
        target = tmp_path / "out.bin"
        target.write_bytes(b"original")

        class Exploding:
            def __bytes__(self):
                raise RuntimeError("boom")

            def __len__(self):
                return 4

        with pytest.raises(TypeError):
            atomic_write_bytes(target, Exploding())  # not bytes -> write fails
        assert target.read_bytes() == b"original"
        assert {p.name for p in tmp_path.iterdir()} == {"out.bin"}

    def test_missing_parent_directory_raises_cleanly(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            atomic_write_bytes(tmp_path / "nope" / "out.bin", b"data")

    def test_accepts_str_paths(self, tmp_path):
        result = atomic_write_bytes(str(tmp_path / "out.bin"), b"data")
        assert result.read_bytes() == b"data"

    def test_temp_file_lands_in_target_directory(self, tmp_path, monkeypatch):
        # same-directory temp file is what makes os.replace atomic: the
        # rename never crosses a filesystem boundary
        seen = {}
        real_mkstemp = __import__("tempfile").mkstemp

        def spy(*args, **kwargs):
            seen["dir"] = kwargs.get("dir")
            return real_mkstemp(*args, **kwargs)

        monkeypatch.setattr("repro.util.files.tempfile.mkstemp", spy)
        atomic_write_bytes(tmp_path / "sub.bin", b"data")
        assert seen["dir"] == str(tmp_path)


class TestAtomicWriteText:
    def test_round_trip(self, tmp_path):
        target = tmp_path / "out.txt"
        atomic_write_text(target, "hello\n")
        assert target.read_text() == "hello\n"

    def test_encoding(self, tmp_path):
        target = tmp_path / "out.txt"
        atomic_write_text(target, "café", encoding="latin-1")
        assert target.read_bytes() == b"caf\xe9"

    def test_concurrent_writers_leave_a_complete_file(self, tmp_path):
        # interleaved writes to the same path: the survivor is always
        # one complete payload, never a mix
        target = tmp_path / "out.txt"
        payloads = [f"payload-{i}\n" * 64 for i in range(8)]
        for text in payloads:
            atomic_write_text(target, text)
        assert target.read_text() in payloads
        assert os.listdir(tmp_path) == ["out.txt"]


class TestPublishedMode:
    def test_mode_is_what_open_gives(self, tmp_path):
        # mkstemp creates 0o600; the published file must not stay private
        atomic_write_bytes(tmp_path / "atomic.bin", b"data")
        (tmp_path / "plain.bin").write_bytes(b"data")
        atomic_mode = (tmp_path / "atomic.bin").stat().st_mode
        assert atomic_mode == (tmp_path / "plain.bin").stat().st_mode
