"""Content-addressed on-disk memoization of sweep simulation results.

A simulation is fully described by its (frozen, picklable)
:class:`~repro.config.SimulationConfig` — the workload seed included — so
its :class:`~repro.network.simulator.SimulationResult` can be cached on
disk and reused across processes and sessions. Every execution backend
(:mod:`repro.harness.backends`) consults the cache transparently: a sweep
re-run only simulates points it has never seen.

Key construction
    ``sha256(code_epoch + "\\n" + config.fingerprint())`` where the
    fingerprint is the config's canonical JSON (sorted keys, fixed
    separators — see :func:`~repro.harness.serialization.canonical_json`)
    and :data:`CODE_EPOCH` names the current simulated semantics. Bump
    the epoch whenever a change alters simulation output for the same
    config; old entries are simply never looked up again.

Safety
    Entries verify their stored fingerprint on load (hash collisions and
    stale schema both degrade to a miss), and writes go through a temp
    file + ``os.replace`` so concurrent sweep processes never observe a
    torn entry. Store failures are swallowed: a read-only cache directory
    slows a sweep down, it never breaks one. A corrupt or unreadable
    entry is *quarantined* — renamed to ``<key>.corrupt`` and counted in
    :attr:`SweepCache.corrupted` — so it is recomputed exactly once
    instead of being silently re-parsed (and re-missed) forever.

Checkpointing
    :meth:`~repro.harness.backends.ExecutionBackend.run` partitions each
    batch with :meth:`SweepCache.partition` and stores every fresh result
    the moment its chunk lands — point by point on the serial backend,
    chunk by chunk (in completion order) on the pool and the fabric — so
    an interrupt or crash at point 99/100 keeps the 99 computed results.
    Re-running an interrupted campaign — e.g. via the CLI's ``--resume``
    — replays finished points from disk and recomputes only the missing
    ones.

Shared result store
    Point ``REPRO_RESULT_STORE`` at a ``repro cache-server`` URL
    (:mod:`repro.harness.distributed.store`) and the local directory
    becomes a *read-through* layer over a shared, content-addressed
    result service: a local miss consults the store (GET by sha256 key),
    a validated remote entry is written through to the local directory,
    and every fresh local store is pushed (PUT) so any previously
    computed ``(epoch, config)`` point is a hit for every host. Remote
    traffic is strictly best-effort — an unreachable or corrupt store
    degrades to local-only behavior and is counted, never raised.

Escape hatches
    ``REPRO_CACHE=off`` (also ``0``/``no``/``none``/``disabled``)
    disables caching; any other non-empty value is used as the cache
    directory; unset picks ``$XDG_CACHE_HOME/repro/sweeps`` (falling back
    to ``~/.cache``). The CLI's ``--no-cache`` flag and tests use
    :func:`set_cache` to override programmatically.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
import urllib.error
import urllib.request
from pathlib import Path
from typing import Optional, Sequence

from ..config import SimulationConfig
from .chaos import inject_store_fault

#: Environment variable controlling the cache location (or disabling it).
CACHE_ENV = "REPRO_CACHE"

#: Environment variable naming a shared result store URL (empty = none).
RESULT_STORE_ENV = "REPRO_RESULT_STORE"

#: Name of the current simulated semantics. Bump on any change that
#: alters simulation output for an unchanged config.
CODE_EPOCH = "pr9-integer-femtojoule-energy"

_DISABLE_VALUES = frozenset({"0", "off", "no", "none", "disabled", "false"})


def write_atomic(path: Path, payload: bytes) -> None:
    """Write *payload* to *path* via temp file + atomic ``os.replace``.

    Two processes storing the same key concurrently each write their own
    temp file and race on the final rename; a reader observes either no
    entry or one complete entry, never interleaved bytes. The sweep cache
    and the shared result store both write entries through here.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class RemoteResultStore:
    """Best-effort HTTP client for a shared result store.

    Talks the tiny GET/PUT-by-key protocol served by ``repro
    cache-server`` (:mod:`repro.harness.distributed.store`). Every
    failure mode — connection refused, timeout, non-404 errors, torn
    payloads — degrades to "not available" and bumps :attr:`errors`;
    the shared store may speed a sweep up, it must never break one.
    """

    def __init__(self, base_url: str, *, timeout_s: float = 5.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout_s = timeout_s
        self.errors = 0

    def _url(self, key: str) -> str:
        return f"{self.base_url}/entry/{key}"

    def get(self, key: str) -> Optional[bytes]:
        """The raw entry payload for *key*, or ``None`` when unavailable."""
        try:
            with urllib.request.urlopen(
                self._url(key), timeout=self.timeout_s
            ) as response:
                return bytes(response.read())
        except urllib.error.HTTPError as exc:
            if exc.code != 404:
                self.errors += 1
            return None
        except (OSError, ValueError):
            self.errors += 1
            return None

    def put(self, key: str, payload: bytes) -> bool:
        """Push an entry payload; ``True`` when the store accepted it."""
        request = urllib.request.Request(
            self._url(key), data=payload, method="PUT"
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout_s):
                return True
        except (OSError, ValueError):
            self.errors += 1
            return False

    def __repr__(self) -> str:
        return f"RemoteResultStore(base_url={self.base_url!r})"


class SweepCache:
    """One on-disk result store plus in-process hit/miss counters.

    With *remote* set, the directory is a read-through layer over a
    shared result store: local misses consult the store, validated
    remote entries are written through locally, fresh results are pushed
    back. See :class:`RemoteResultStore`.
    """

    def __init__(
        self,
        root: str | Path,
        *,
        epoch: str = CODE_EPOCH,
        remote: Optional[RemoteResultStore] = None,
    ) -> None:
        self.root = Path(root).expanduser()
        self.epoch = epoch
        self.remote = remote
        self.hits = 0
        self.misses = 0
        self.corrupted = 0
        self.remote_hits = 0
        self.remote_stores = 0

    # -- keys ------------------------------------------------------------

    def _key(self, fingerprint: str) -> str:
        digest = hashlib.sha256()
        digest.update(self.epoch.encode("utf-8"))
        digest.update(b"\n")
        digest.update(fingerprint.encode("utf-8"))
        return digest.hexdigest()

    def _path(self, fingerprint: str) -> Path:
        key = self._key(fingerprint)
        return self.root / self.epoch / key[:2] / f"{key}.pkl"

    def entry_path(self, config: SimulationConfig) -> Path:
        """Where *config*'s result lives (whether or not it exists yet)."""
        return self._path(config.fingerprint())

    # -- single-entry operations ----------------------------------------

    def contains(self, config: SimulationConfig) -> bool:
        """Whether an entry file exists for *config*.

        A cheap existence probe (no integrity check, no counter bumps)
        for resume previews; the authoritative answer is :meth:`load`.
        """
        return self.entry_path(config).is_file()

    def load(self, config: SimulationConfig) -> object | None:
        """The cached result for *config*, or ``None`` on any miss.

        An entry that exists but cannot be read back (torn write, disk
        corruption, stale pickle schema, fingerprint mismatch) is
        quarantined via :meth:`_quarantine` rather than silently skipped,
        so the recompute-and-store that follows repairs the cache.
        """
        fingerprint = config.fingerprint()
        path = self._path(fingerprint)
        try:
            with open(path, "rb") as handle:
                entry = pickle.load(handle)
        except FileNotFoundError:
            return self._load_remote(fingerprint, path)
        except (OSError, pickle.PickleError, EOFError, AttributeError,
                ImportError, IndexError):
            self._quarantine(path)
            return None
        if not isinstance(entry, dict) or entry.get("fingerprint") != fingerprint:
            self._quarantine(path)
            return None
        return entry.get("result")

    def _load_remote(self, fingerprint: str, path: Path) -> object | None:
        """Consult the shared result store for a local miss.

        A payload that unpickles to a valid entry for *fingerprint* is
        written through to the local directory (atomically — another
        process racing on the same key sees either nothing or the whole
        entry) and served; a torn or mismatched payload is *ignored*,
        never written locally, and counted as a remote error — a corrupt
        shared store degrades to recompute, exactly like a quarantined
        local entry.
        """
        if self.remote is None:
            return None
        payload = self.remote.get(self._key(fingerprint))
        if payload is None:
            return None
        try:
            entry = pickle.loads(payload)
        except (pickle.PickleError, EOFError, AttributeError, ImportError,
                IndexError, ValueError, TypeError, MemoryError):
            self.remote.errors += 1
            return None
        if not isinstance(entry, dict) or entry.get("fingerprint") != fingerprint:
            self.remote.errors += 1
            return None
        self.remote_hits += 1
        try:
            write_atomic(path, payload)
        except OSError:
            pass
        return entry.get("result")

    def _quarantine(self, path: Path) -> None:
        """Move a bad entry aside as ``<key>.corrupt`` and count it."""
        self.corrupted += 1
        try:
            path.replace(path.with_suffix(".corrupt"))
        except OSError:
            pass

    def store(self, config: SimulationConfig, result: object) -> None:
        """Persist *result* for *config*; best-effort (never raises OSError).

        The entry also goes to the shared result store (when configured)
        so other hosts — and other campaigns — see the point as computed.
        """
        fingerprint = config.fingerprint()
        payload = pickle.dumps(
            {
                "epoch": self.epoch,
                "fingerprint": fingerprint,
                "result": result,
            },
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        path = self._path(fingerprint)
        try:
            write_atomic(path, payload)
            inject_store_fault(fingerprint, path)
        except OSError:
            pass
        if self.remote is not None and self.remote.put(
            self._key(fingerprint), payload
        ):
            self.remote_stores += 1

    # -- batch operation (the backend entry point) -----------------------

    def partition(
        self, configs: Sequence[SimulationConfig]
    ) -> tuple[list, list[int], list[SimulationConfig]]:
        """Split *configs* into cached results and misses.

        Returns ``(results, miss_indices, miss_configs)`` where *results*
        has the cached value at every hit index and ``None`` holes at the
        miss indices; hit/miss counters are updated. The backend fills
        the holes and stores each fresh result as it lands.
        """
        configs = list(configs)
        results: list = [None] * len(configs)
        miss_indices: list[int] = []
        miss_configs: list[SimulationConfig] = []
        for index, config in enumerate(configs):
            cached = self.load(config)
            if cached is None:
                self.misses += 1
                miss_indices.append(index)
                miss_configs.append(config)
            else:
                self.hits += 1
                results[index] = cached
        return results, miss_indices, miss_configs

    def describe(self) -> str:
        """One-line human summary for sweep output."""
        quarantined = (
            f", {self.corrupted} corrupted entries quarantined"
            if self.corrupted
            else ""
        )
        remote = ""
        if self.remote is not None:
            remote = (
                f", shared store: {self.remote_hits} hits / "
                f"{self.remote_stores} stores"
            )
            if self.remote.errors:
                remote += f" / {self.remote.errors} errors"
        return (
            f"{self.hits} hits, {self.misses} misses{quarantined}{remote} "
            f"({self.root})"
        )

    def __repr__(self) -> str:
        remote = f", remote={self.remote!r}" if self.remote is not None else ""
        return f"SweepCache(root={str(self.root)!r}, epoch={self.epoch!r}{remote})"


# ---------------------------------------------------------------------------
# Process-wide selection
# ---------------------------------------------------------------------------

_UNSET = object()
#: Explicit override installed by set_cache(); _UNSET defers to the env.
_override = _UNSET
#: Root path -> instance, so hit/miss counters accumulate per process.
_instances: dict[str, SweepCache] = {}


def default_cache_root() -> Path:
    """``$XDG_CACHE_HOME/repro/sweeps``, falling back to ``~/.cache``."""
    base = os.environ.get("XDG_CACHE_HOME", "").strip()
    root = Path(base).expanduser() if base else Path("~/.cache").expanduser()
    return root / "repro" / "sweeps"


def cache_from_env() -> SweepCache | None:
    """The cache selected by ``REPRO_CACHE`` (``None`` when disabled).

    ``REPRO_RESULT_STORE`` (a ``repro cache-server`` URL) attaches the
    shared-result-store read-through layer; worker processes inherit
    both variables, so a whole distributed sweep shares one store.
    """
    raw = os.environ.get(CACHE_ENV, "").strip()
    if raw.lower() in _DISABLE_VALUES:
        return None
    root = Path(raw).expanduser() if raw else default_cache_root()
    store_url = os.environ.get(RESULT_STORE_ENV, "").strip()
    key = f"{root}\n{store_url}"
    cache = _instances.get(key)
    if cache is None:
        remote = RemoteResultStore(store_url) if store_url else None
        cache = _instances[key] = SweepCache(root, remote=remote)
    return cache


def get_cache() -> SweepCache | None:
    """The active sweep cache: the override if set, else the environment."""
    if _override is not _UNSET:
        return _override  # type: ignore[return-value]
    return cache_from_env()


def set_cache(cache: SweepCache | None) -> None:
    """Install an explicit cache (or ``None`` to disable caching)."""
    global _override
    _override = cache


def reset_cache() -> None:
    """Drop any explicit override; revert to environment selection."""
    global _override
    _override = _UNSET
