"""The offline parts of the downloader: storing a gz or tar payload, and the
download branch of ``fetch_matrix`` against a stand-in ``urlopen``."""

import gzip
import io
import tarfile
import urllib.error

import pytest

from saiprec import datasets

BODY = b"%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 2.5\n"


def _gz(data: bytes) -> bytes:
    return gzip.compress(data)


def _tar(members) -> bytes:
    """A tar.gz holding ``members``: (name, bytes) for a file, (name, None)
    for a directory."""
    buf = io.BytesIO()
    with tarfile.open(fileobj=buf, mode="w:gz") as tar:
        for name, data in members:
            info = tarfile.TarInfo(name)
            if data is None:
                info.type = tarfile.DIRTYPE
                tar.addfile(info)
            else:
                info.size = len(data)
                tar.addfile(info, io.BytesIO(data))
    return buf.getvalue()


def _only(path):
    """The names in the directory of ``path``."""
    return sorted(p.name for p in path.parent.iterdir())


class TestStore:
    def test_gz_payload_is_decompressed(self, tmp_path):
        dest = tmp_path / "sherman4.mtx"
        datasets._store_gz(_gz(BODY), dest)
        assert dest.read_bytes() == BODY
        assert _only(dest) == ["sherman4.mtx"]

    def test_truncated_gz_leaves_no_file(self, tmp_path):
        dest = tmp_path / "sherman4.mtx"
        with pytest.raises(EOFError):
            datasets._store_gz(_gz(BODY * 50)[:-30], dest)
        assert list(tmp_path.iterdir()) == []

    def test_tar_takes_the_regular_file_with_the_exact_basename(self, tmp_path):
        dest = tmp_path / "sherman4.mtx"
        payload = _tar([
            ("sherman4", None),
            ("sherman4/sherman4.mtx", None),  # a directory with the name
            ("x/notsherman4.mtx", b"wrong\n"),
            ("sherman4/sherman4_b.mtx", b"wrong\n"),
            ("sherman4/real/sherman4.mtx", BODY),
        ])
        datasets._store_tar(payload, "sherman4", dest)
        assert dest.read_bytes() == BODY

    @pytest.mark.parametrize("members", [
        [("x/notsherman4.mtx", b"wrong\n")],
        [("sherman4/sherman4.mtx", None)],
        [],
    ])
    def test_tar_without_the_file_raises_and_writes_nothing(self, tmp_path, members):
        dest = tmp_path / "sherman4.mtx"
        with pytest.raises(RuntimeError, match="no sherman4.mtx inside archive"):
            datasets._store_tar(_tar(members), "sherman4", dest)
        assert list(tmp_path.iterdir()) == []


class _Response(io.BytesIO):
    """What ``urlopen`` returns: a readable context manager."""


class TestFetchMatrix:
    def _serve(self, monkeypatch, replies):
        """Stand in for ``urlopen``: ``replies`` maps a URL to bytes or to an
        exception; every requested URL is logged."""
        asked = []

        def urlopen(url, timeout):
            asked.append(url)
            reply = replies[url]
            if isinstance(reply, Exception):
                raise reply
            return _Response(reply)

        monkeypatch.setattr(datasets.urllib.request, "urlopen", urlopen)
        return asked

    def test_first_mirror_fails_then_the_tar_mirror_succeeds(self, monkeypatch, tmp_path):
        gz_url, tar_url = datasets.BY_NAME["sherman4"].urls
        asked = self._serve(monkeypatch, {
            gz_url: urllib.error.URLError("unreachable"),
            tar_url: _tar([("sherman4/sherman4.mtx", BODY)]),
        })
        dest = datasets.fetch_matrix("sherman4", tmp_path / "data", download=True)
        assert asked == [gz_url, tar_url]
        assert dest == tmp_path / "data" / "sherman4.mtx"
        assert dest.read_bytes() == BODY
        assert _only(dest) == ["sherman4.mtx"]

    def test_truncated_first_mirror_leaves_nothing_for_the_next_call(self, monkeypatch, tmp_path):
        gz_url, tar_url = datasets.BY_NAME["sherman4"].urls
        self._serve(monkeypatch, {
            gz_url: _gz(BODY * 50)[:-30],
            tar_url: urllib.error.URLError("unreachable"),
        })
        with pytest.raises(RuntimeError, match="all download sources failed") as err:
            datasets.fetch_matrix("sherman4", tmp_path, download=True)
        assert gz_url in str(err.value) and tar_url in str(err.value)
        assert list(tmp_path.iterdir()) == []
        with pytest.raises(FileNotFoundError, match="opt-in"):
            datasets.fetch_matrix("sherman4", tmp_path)

    def test_gz_mirror_is_taken_first(self, monkeypatch, tmp_path):
        gz_url, tar_url = datasets.BY_NAME["sherman4"].urls
        asked = self._serve(monkeypatch, {gz_url: _gz(BODY), tar_url: b""})
        dest = datasets.fetch_matrix("sherman4", tmp_path, download=True)
        assert asked == [gz_url]
        assert dest.read_bytes() == BODY

    def test_present_file_is_returned_without_downloading(self, monkeypatch, tmp_path):
        asked = self._serve(monkeypatch, {})
        (tmp_path / "sherman4.mtx").write_bytes(BODY)
        assert datasets.fetch_matrix("sherman4", tmp_path, download=True) == tmp_path / "sherman4.mtx"
        assert asked == []

    def test_unknown_name(self, tmp_path):
        with pytest.raises(KeyError, match="unknown matrix"):
            datasets.fetch_matrix("not_a_matrix", tmp_path, download=True)
