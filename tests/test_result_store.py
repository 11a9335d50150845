"""The shared result store: HTTP server, client, cache read-through."""

from __future__ import annotations

import http.client
import pickle
import socket
import threading

import pytest

from repro.harness import cache as cache_mod
from repro.harness.cache import RemoteResultStore, SweepCache
from repro.harness.distributed.store import MAX_ENTRY_BYTES, ResultStoreServer

from .conftest import small_config


@pytest.fixture
def store(tmp_path):
    server = ResultStoreServer(tmp_path / "store")
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def _key(n: int = 0) -> str:
    return f"{n:064x}"


class TestServer:
    def test_put_get_roundtrip_and_stats(self, store):
        client = RemoteResultStore(store.url)
        assert client.get(_key(1)) is None  # 404 is not an error
        assert client.errors == 0
        assert client.put(_key(1), b"payload-bytes")
        assert client.get(_key(1)) == b"payload-bytes"
        assert client.errors == 0
        assert (store.served, store.stored) == (1, 1)
        assert store.stats() == {
            "entries": 1,
            "bytes": len(b"payload-bytes"),
            "stored": 1,
            "served": 1,
        }

    def test_bad_paths_are_rejected(self, store):
        client = RemoteResultStore(store.url)
        assert client.get("not-a-sha256") is None
        assert client.errors == 1  # 400, unlike a 404 miss, is counted
        assert not client.put("deadbeef", b"x")  # short key
        assert client.errors == 2

    def test_overwrite_is_atomic_and_idempotent(self, store, tmp_path):
        client = RemoteResultStore(store.url)
        assert client.put(_key(2), b"first")
        assert client.put(_key(2), b"second")
        assert client.get(_key(2)) == b"second"
        assert store.stats()["entries"] == 1
        assert not list((tmp_path / "store").glob("**/.tmp-*"))

    def test_torn_upload_never_touches_disk(self, store):
        """A PUT whose body dies mid-transfer is rejected before any
        bytes land on disk — a concurrent reader can never see a tear."""
        host, port = store.server_address[:2]
        sock = socket.create_connection((host, port), timeout=5)
        try:
            head = (
                f"PUT /entry/{_key(3)} HTTP/1.1\r\n"
                f"Host: {host}\r\nContent-Length: 100\r\n\r\n"
            )
            sock.sendall(head.encode("ascii") + b"only-a-few-bytes")
            sock.shutdown(socket.SHUT_WR)  # the "connection died" moment
            response = sock.recv(1024)
        finally:
            sock.close()
        assert b"400" in response.split(b"\r\n", 1)[0]
        assert store.stats()["entries"] == 0
        assert RemoteResultStore(store.url).get(_key(3)) is None

    def test_failed_write_replies_507_and_leaves_no_temp_file(
        self, store, tmp_path, monkeypatch
    ):
        """The store writes through the sweep cache's atomic writer: a
        write that fails midway answers 507 and cleans up its temp file."""

        def boom(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr("repro.harness.cache.os.replace", boom)
        host, port = store.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=5)
        try:
            connection.request("PUT", f"/entry/{_key(5)}", body=b"payload")
            assert connection.getresponse().status == 507
        finally:
            connection.close()
        monkeypatch.undo()
        assert store.stats() == {"entries": 0, "bytes": 0, "stored": 0,
                                 "served": 0}
        assert not list((tmp_path / "store").glob("**/.tmp-*"))

    def test_oversized_upload_is_refused_without_reading_it(self, store):
        host, port = store.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=5)
        try:
            connection.putrequest("PUT", f"/entry/{_key(4)}")
            connection.putheader("Content-Length", str(MAX_ENTRY_BYTES + 1))
            connection.endheaders()
            response = connection.getresponse()
            assert response.status == 413
        finally:
            connection.close()
        assert store.stats()["entries"] == 0


class TestClientDegradation:
    def test_unreachable_store_degrades_to_local_only(self, tmp_path):
        # Nothing listens on port 1; every operation fails soft.
        client = RemoteResultStore("http://127.0.0.1:1")
        assert client.get(_key(5)) is None
        assert not client.put(_key(5), b"x")
        assert client.errors == 2
        cache = SweepCache(tmp_path / "cache", remote=client)
        config = small_config(rate=0.2, warmup=100, measure=400)
        cache.store(config, "computed")
        assert cache.load(config) == "computed"  # local entry still fine
        assert cache.remote_stores == 0


class TestCacheReadThrough:
    def _config(self, rate: float = 0.2):
        return small_config(rate=rate, warmup=100, measure=400)

    def test_one_hosts_store_is_every_hosts_hit(self, store, tmp_path):
        config = self._config()
        # Host A computes and pushes.
        cache_a = SweepCache(
            tmp_path / "a", remote=RemoteResultStore(store.url)
        )
        cache_a.store(config, "result-bytes")
        assert cache_a.remote_stores == 1
        # Host B (cold local directory) is answered by the shared store
        # and writes the entry through locally.
        cache_b = SweepCache(
            tmp_path / "b", remote=RemoteResultStore(store.url)
        )
        assert cache_b.load(config) == "result-bytes"
        assert cache_b.remote_hits == 1
        assert cache_b.entry_path(config).is_file()  # write-through
        # A third load is purely local.
        served_before = store.served
        assert cache_b.load(config) == "result-bytes"
        assert store.served == served_before
        assert "shared store: 1 hits" in cache_b.describe()

    def test_corrupt_remote_payload_is_ignored_not_written(self, store, tmp_path):
        config = self._config()
        cache = SweepCache(tmp_path / "b", remote=RemoteResultStore(store.url))
        key = cache._key(config.fingerprint())
        assert cache.remote.put(key, b"\x80tornpickle")
        assert cache.load(config) is None
        assert cache.remote.errors == 1
        assert not cache.entry_path(config).exists()  # never written through

    def test_mismatched_fingerprint_is_rejected(self, store, tmp_path):
        config = self._config()
        other = self._config(0.4)
        cache = SweepCache(tmp_path / "b", remote=RemoteResultStore(store.url))
        key = cache._key(config.fingerprint())
        wrong = pickle.dumps(
            {
                "epoch": cache.epoch,
                "fingerprint": other.fingerprint(),
                "result": "stale",
            }
        )
        assert cache.remote.put(key, wrong)
        assert cache.load(config) is None
        assert cache.remote.errors == 1

    def test_cache_from_env_attaches_the_store(self, store, tmp_path, monkeypatch):
        monkeypatch.setenv(cache_mod.CACHE_ENV, str(tmp_path / "env-cache"))
        monkeypatch.setenv(cache_mod.RESULT_STORE_ENV, store.url + "/")
        cache = cache_mod.cache_from_env()
        assert cache is not None and cache.remote is not None
        assert cache.remote.base_url == store.url  # trailing slash stripped
        config = self._config()
        cache.store(config, "via-env")
        fresh = SweepCache(tmp_path / "other", remote=RemoteResultStore(store.url))
        assert fresh.load(config) == "via-env"
