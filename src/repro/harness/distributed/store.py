"""HTTP front end promoting the sweep cache to a shared result store.

``repro cache-server`` serves a content-addressed result directory over
two verbs::

    GET  /entry/<sha256-key>   -> 200 + entry bytes | 404
    PUT  /entry/<sha256-key>   -> 204 (stored atomically)
    GET  /stats                -> 200 + JSON {"entries": N, "bytes": M,
                                              "stored": S, "served": G}

``stored`` and ``served`` count the PUTs accepted and the entries
served since the server started.

Keys are exactly the sweep cache's keys — ``sha256(epoch + "\\n" +
fingerprint)`` — so the server needs no knowledge of epochs or configs:
clients (:class:`~repro.harness.cache.RemoteResultStore`) compute keys,
validate payloads, and treat the server as a dumb, durable byte store.
Any previously computed ``(epoch, config)`` point uploaded by one host
is a cache hit for every other host and every later campaign.

Robustness mirrors the on-disk cache: PUTs land through the same
:func:`~repro.harness.cache.write_atomic` (temp file + atomic
``os.replace``), so two workers storing the same key concurrently never
interleave partial writes and a crashed upload leaves no torn entry
behind; bodies that do not match their declared ``Content-Length`` are
rejected before anything touches disk. The server never *validates*
pickles — a byte-level corrupt entry is detected (and ignored) by the
reading client, which recomputes and re-uploads a clean copy.

Built on stdlib ``http.server`` (threading variant): no dependencies,
good enough for a lab-scale fabric. It is an internal, trusted-network
service — there is no authentication, and clients unpickle what they
fetch (after content addressing limits damage to stale-but-wellformed
entries under the same key).
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Optional

from ..cache import write_atomic

#: Length of a hex sha256 key.
_KEY_HEX_LEN = 64

#: Upper bound on one uploaded entry; a pickled SimulationResult is far
#: below this, so anything larger is abuse, not data.
MAX_ENTRY_BYTES = 256 * 1024 * 1024


def _key_of(path: str) -> Optional[str]:
    """The validated sha256 key in an ``/entry/<key>`` path, else None."""
    prefix = "/entry/"
    if not path.startswith(prefix):
        return None
    key = path[len(prefix):]
    if len(key) != _KEY_HEX_LEN:
        return None
    if any(c not in "0123456789abcdef" for c in key):
        return None
    return key


class ResultStoreHandler(BaseHTTPRequestHandler):
    """One request against the shared result store."""

    server: "ResultStoreServer"
    #: Quiet by default; the CLI flips this for foreground serving.
    log_requests = False
    protocol_version = "HTTP/1.1"

    def _entry_path(self, key: str) -> Path:
        return self.server.root / key[:2] / f"{key}.pkl"

    def _reply(self, status: int, body: bytes = b"",
               content_type: str = "application/octet-stream") -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        if body:
            self.wfile.write(body)

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        if self.path == "/stats":
            self._reply(
                200,
                json.dumps(self.server.stats()).encode("utf-8"),
                content_type="application/json",
            )
            return
        key = _key_of(self.path)
        if key is None:
            self._reply(400, b"bad path; expected /entry/<sha256>")
            return
        try:
            body = self._entry_path(key).read_bytes()
        except FileNotFoundError:
            self._reply(404)
            return
        except OSError:
            self._reply(500, b"entry unreadable")
            return
        self.server.served += 1
        self._reply(200, body)

    def do_PUT(self) -> None:  # noqa: N802 - http.server API
        key = _key_of(self.path)
        if key is None:
            self._reply(400, b"bad path; expected /entry/<sha256>")
            return
        try:
            length = int(self.headers.get("Content-Length", ""))
        except ValueError:
            self._reply(411, b"Content-Length required")
            return
        if not 0 < length <= MAX_ENTRY_BYTES:
            self._reply(413, b"entry size out of bounds")
            return
        body = self.rfile.read(length)
        if len(body) != length:
            # Torn upload: the connection died mid-body. Nothing touches
            # disk, so a concurrent reader can never observe the tear.
            self._reply(400, b"short body")
            return
        try:
            write_atomic(self._entry_path(key), body)
        except OSError:
            self._reply(507, b"store failed")
            return
        self.server.stored += 1
        self._reply(204)

    def log_message(self, format: str, *args: object) -> None:
        if self.log_requests:
            super().log_message(format, *args)


class ResultStoreServer(ThreadingHTTPServer):
    """A shared result store over *root*; one thread per connection."""

    daemon_threads = True

    def __init__(self, root: str | Path, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        self.root = Path(root).expanduser()
        self.root.mkdir(parents=True, exist_ok=True)
        self.served = 0
        self.stored = 0
        super().__init__((host, port), ResultStoreHandler)

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def stats(self) -> dict[str, int]:
        """Entries and bytes on disk, plus PUTs stored and GETs served."""
        entries = 0
        size = 0
        try:
            for path in self.root.glob("*/*.pkl"):
                entries += 1
                try:
                    size += path.stat().st_size
                except OSError:
                    pass
        except OSError:
            pass
        return {
            "entries": entries,
            "bytes": size,
            "stored": self.stored,
            "served": self.served,
        }


def serve_result_store(root: str | Path, host: str = "127.0.0.1",
                       port: int = 8750, *, verbose: bool = True) -> None:
    """Blocking entry point behind ``repro cache-server``."""
    server = ResultStoreServer(root, host, port)
    if verbose:
        ResultStoreHandler.log_requests = True
        stats = server.stats()
        print(
            f"result store serving {server.root} at {server.url} "
            f"({stats['entries']} entries, {stats['bytes']} bytes)"
        )
    try:
        server.serve_forever()
    finally:
        server.server_close()
