"""The persistent results ledger: a durable store of manifests.

Every ``--json`` document the toolkit emits is a one-shot file; the
ledger gives them memory.  It is a **dependency-free SQLite store**
(stdlib ``sqlite3`` only) that ingests every manifest schema —
``repro.run/1``, ``repro.experiment/1``, ``repro.bench/1``,
``repro.compare/1``, ``repro.critpath/1`` and ``repro.hotspots/1`` —
into normalized tables keyed by

    (trace_digest, config_digest, code_version)

so "the same simulation, across code versions" is one indexed query.
On top of it sit ``repro dash`` (:mod:`repro.obs.dash`) and ``repro
watch`` (:mod:`repro.obs.watch`).

Design rules:

* **Idempotent ingest.**  A manifest's identity is the SHA-256 of its
  canonical JSON; re-ingesting the same document is a no-op (enforced
  by a UNIQUE constraint, so it holds under concurrent ingest from
  several engine workers too).
* **The document is the truth.**  Normalized columns exist for
  indexing and trending; the full document is stored verbatim and can
  always be re-read (:meth:`Ledger.document`).
* **Keys come from the manifest alone.**  ``trace_digest`` hashes the
  workload identity (workload, scale, seed, trace_file) and
  ``config_digest`` the configuration block *as recorded*, never
  reconstructed from current code — a preset that changed meaning
  across versions must not silently collide.  Bench cells only record
  a configuration *name*, so their config digest covers ``{"name":
  ...}``.
* **Rebuilt, not migrated.**  ``meta`` carries the ledger schema
  version, and every other table but ``manifests`` is derived from the
  stored documents.  A store older than :data:`LEDGER_DB_VERSION` is
  rebuilt on open by re-ingesting its manifests into the current
  layout, so a layout change is a version bump and nothing more.
* **Text export.**  :meth:`Ledger.export_jsonl` /
  :meth:`Ledger.import_jsonl` round-trip the store through a diffable
  JSONL format (one manifest per line, ingest-time metadata
  preserved), which is how the committed seed fixture is maintained.
"""

from __future__ import annotations

import datetime
import hashlib
import json
import os
import sqlite3

from ..atomic import atomic_write

__all__ = [
    "LEDGER_DB_VERSION",
    "Ledger",
    "LedgerError",
    "config_digest_of",
    "detect_kind",
    "manifest_digest",
    "resolve_ledger_path",
    "trace_digest_of",
]

#: Current on-disk layout version; bump it whenever ``_SCHEMA`` changes.
LEDGER_DB_VERSION = 4

#: Environment variable naming the default ledger database.
LEDGER_ENV = "REPRO_LEDGER"

#: schema tag -> ledger kind.
_KINDS = {
    "repro.run/1": "run",
    "repro.experiment/1": "experiment",
    "repro.bench/1": "bench",
    "repro.compare/1": "compare",
    "repro.critpath/1": "critpath",
    "repro.hotspots/1": "hotspots",
}

#: Stamp recorded when a manifest predates code-version stamping.
UNKNOWN_VERSION = "unknown"


class LedgerError(ValueError):
    """A document could not be ingested or the store is unusable."""


# ----------------------------------------------------------------------
# Keys
# ----------------------------------------------------------------------
def _canonical(document: object) -> str:
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def manifest_digest(document: dict) -> str:
    """The identity of a manifest: SHA-256 over its canonical JSON."""
    return _sha256(_canonical(document))


def trace_digest_of(workload: str | None, scale: str | None,
                    seed: int | None, trace_file: str | None) -> str:
    """Digest of a simulation's *input* identity."""
    return _sha256(_canonical({"workload": workload, "scale": scale,
                               "seed": seed, "trace_file": trace_file}))


def config_digest_of(config: dict) -> str:
    """Digest of a simulation's *configuration* identity, hashed as
    recorded in the manifest (a run report's full ``config`` block, or
    ``{"name": ...}`` for a bench cell)."""
    return _sha256(_canonical(config))


def detect_kind(document: dict) -> str:
    """``run`` / ``experiment`` / ``bench`` / ``compare``; raises
    :class:`LedgerError` for anything else."""
    schema = document.get("schema") if isinstance(document, dict) else None
    kind = _KINDS.get(schema)
    if kind is None:
        raise LedgerError(
            f"cannot ingest schema {schema!r}; the ledger accepts "
            + ", ".join(sorted(_KINDS)))
    return kind


def _document_code_version(document: dict) -> str | None:
    value = document.get("code_version")
    if isinstance(value, str) and value:
        return value
    return None


# ----------------------------------------------------------------------
# Schema
# ----------------------------------------------------------------------
#: The one layout.  ``meta`` and ``manifests`` hold what was ingested;
#: every other table is derived from the stored documents.
_SCHEMA = """
CREATE TABLE meta (
    key TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE manifests (
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    digest TEXT NOT NULL UNIQUE,
    kind TEXT NOT NULL,
    schema TEXT NOT NULL,
    code_version TEXT NOT NULL,
    ingested_at TEXT NOT NULL,
    document TEXT NOT NULL,
    source TEXT
);
CREATE TABLE runs (
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    manifest_id INTEGER NOT NULL REFERENCES manifests(id)
        ON DELETE CASCADE,
    run_index INTEGER NOT NULL,
    trace_digest TEXT NOT NULL,
    config_digest TEXT NOT NULL,
    code_version TEXT NOT NULL,
    workload TEXT,
    scale TEXT,
    seed INTEGER,
    trace_file TEXT,
    config_name TEXT NOT NULL,
    cycles INTEGER NOT NULL,
    instructions INTEGER NOT NULL,
    ipc REAL NOT NULL,
    wall_time_s REAL,
    sim_ips REAL,
    has_metrics INTEGER NOT NULL
);
CREATE INDEX runs_by_key
    ON runs (trace_digest, config_digest, code_version);
CREATE TABLE experiments (
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    manifest_id INTEGER NOT NULL REFERENCES manifests(id)
        ON DELETE CASCADE,
    experiment TEXT NOT NULL,
    scale TEXT NOT NULL,
    code_version TEXT NOT NULL,
    title TEXT
);
CREATE INDEX experiments_by_name ON experiments (experiment, scale);
CREATE TABLE experiment_cells (
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    experiment_id INTEGER NOT NULL REFERENCES experiments(id)
        ON DELETE CASCADE,
    row_label TEXT NOT NULL,
    column_name TEXT NOT NULL,
    number REAL,
    text TEXT
);
CREATE TABLE bench (
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    manifest_id INTEGER NOT NULL REFERENCES manifests(id)
        ON DELETE CASCADE,
    mode TEXT NOT NULL,
    code_version TEXT NOT NULL,
    hostname TEXT
);
CREATE TABLE bench_cells (
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    bench_id INTEGER NOT NULL REFERENCES bench(id) ON DELETE CASCADE,
    label TEXT NOT NULL,
    trace_digest TEXT NOT NULL,
    config_digest TEXT NOT NULL,
    workload TEXT NOT NULL,
    scale TEXT NOT NULL,
    config_name TEXT NOT NULL,
    instructions INTEGER NOT NULL,
    cycles INTEGER NOT NULL,
    ipc REAL NOT NULL,
    kips_median REAL NOT NULL,
    kips_iqr REAL NOT NULL,
    seconds_median REAL NOT NULL
);
CREATE INDEX bench_cells_by_label ON bench_cells (label);
CREATE TABLE compares (
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    manifest_id INTEGER NOT NULL REFERENCES manifests(id)
        ON DELETE CASCADE,
    code_version TEXT NOT NULL,
    equal INTEGER NOT NULL,
    delta_count INTEGER NOT NULL,
    tolerance REAL NOT NULL
);
CREATE TABLE critpaths (
    id INTEGER PRIMARY KEY,
    manifest_id INTEGER NOT NULL REFERENCES manifests (id),
    trace_digest TEXT NOT NULL,
    config_digest TEXT NOT NULL,
    code_version TEXT NOT NULL,
    workload TEXT,
    scale TEXT,
    seed INTEGER,
    trace_file TEXT,
    config_name TEXT NOT NULL,
    cycles INTEGER NOT NULL,
    instructions INTEGER NOT NULL,
    ipc REAL NOT NULL,
    window INTEGER NOT NULL,
    windows INTEGER NOT NULL
);
CREATE TABLE critpath_stack (
    id INTEGER PRIMARY KEY,
    critpath_id INTEGER NOT NULL REFERENCES critpaths (id),
    edge_class TEXT NOT NULL,
    cycles INTEGER NOT NULL,
    share REAL NOT NULL
);
CREATE INDEX idx_critpaths_key ON critpaths (trace_digest, config_digest);
CREATE TABLE hotspots (
    id INTEGER PRIMARY KEY,
    manifest_id INTEGER NOT NULL REFERENCES manifests (id),
    trace_digest TEXT NOT NULL,
    config_digest TEXT NOT NULL,
    code_version TEXT NOT NULL,
    workload TEXT,
    scale TEXT,
    seed INTEGER,
    trace_file TEXT,
    config_name TEXT NOT NULL,
    cycles INTEGER NOT NULL,
    instructions INTEGER NOT NULL,
    ipc REAL NOT NULL,
    static_pcs INTEGER NOT NULL,
    kernel_instructions INTEGER NOT NULL,
    user_instructions INTEGER NOT NULL,
    kernel_port_conflict INTEGER NOT NULL,
    user_port_conflict INTEGER NOT NULL
);
CREATE TABLE hotspot_rows (
    id INTEGER PRIMARY KEY,
    hotspot_id INTEGER NOT NULL REFERENCES hotspots (id),
    rank INTEGER NOT NULL,
    pc INTEGER NOT NULL,
    kernel INTEGER NOT NULL,
    kind TEXT NOT NULL,
    disasm TEXT,
    executions INTEGER NOT NULL,
    port_conflict_slots INTEGER NOT NULL,
    stall_total INTEGER NOT NULL,
    port_uses INTEGER NOT NULL,
    misses INTEGER NOT NULL
);
CREATE INDEX idx_hotspots_key ON hotspots (trace_digest, config_digest);
"""


def _db_version(conn: sqlite3.Connection) -> int:
    row = conn.execute(
        "SELECT value FROM meta WHERE key = 'ledger_schema_version'"
    ).fetchone()
    if row is None:
        raise LedgerError("ledger database has no schema version")
    return int(row[0])


def _identity(report: dict, kind: str, version: str) -> dict:
    """The columns ``runs``, ``critpaths`` and ``hotspots`` share: the
    trace and config digests, then the report's code version, input
    identity, config name and simulated counts."""
    config = report.get("config")
    if not isinstance(config, dict):
        raise LedgerError(f"{kind} report has no config block")
    cycles = report.get("cycles")
    instructions = report.get("instructions")
    if not isinstance(cycles, int) or \
            not isinstance(instructions, int):
        raise LedgerError(
            f"{kind} report lacks integer cycles/instructions; "
            "cannot ingest")
    # Back-compat: pre-metrics run reports (no ``metrics`` block,
    # sometimes no ``ipc``/``host``) still carry the simulated counts;
    # derive what is derivable instead of rejecting the vintage.
    ipc = report.get("ipc")
    if ipc is None:
        ipc = instructions / cycles if cycles else 0.0
    workload, scale = report.get("workload"), report.get("scale")
    seed, trace_file = report.get("seed"), report.get("trace_file")
    return {
        "trace_digest": trace_digest_of(workload, scale, seed,
                                        trace_file),
        "config_digest": config_digest_of(config),
        "code_version": _document_code_version(report) or version,
        "workload": workload, "scale": scale, "seed": seed,
        "trace_file": trace_file,
        "config_name": config.get("name", "?"),
        "cycles": cycles, "instructions": instructions, "ipc": ipc,
    }


# ----------------------------------------------------------------------
# The store
# ----------------------------------------------------------------------
class Ledger:
    """One SQLite-backed results ledger.  Usable as a context manager;
    safe for concurrent ingest from several processes (SQLite locking
    plus a busy timeout plus idempotent inserts)."""

    def __init__(self, path: str | os.PathLike,
                 timeout: float = 30.0) -> None:
        self.path = os.fspath(path)
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        self._conn = sqlite3.connect(self.path, timeout=timeout)
        self._conn.row_factory = sqlite3.Row
        self._open()
        # Foreign keys are enforced only after the open: a rebuild
        # drops the old tables in whatever order the store lists them.
        self._conn.execute("PRAGMA foreign_keys = ON")

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "Ledger":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _open(self) -> None:
        # BEGIN IMMEDIATE serializes openers: a second process opening
        # the same fresh or older database blocks here (busy timeout)
        # until the first commits the complete layout, then re-checks.
        # executescript would be wrong — it autocommits per statement,
        # exposing a half-built schema to concurrent openers.
        self._conn.execute("BEGIN IMMEDIATE")
        try:
            tables = [row[0] for row in self._conn.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table' "
                "AND name NOT LIKE 'sqlite_%'")]
            if "meta" not in tables:
                self._create()
            else:
                version = _db_version(self._conn)
                if version > LEDGER_DB_VERSION:
                    raise LedgerError(
                        f"{self.path} uses ledger schema v{version}; "
                        f"this build understands up to "
                        f"v{LEDGER_DB_VERSION}")
                if version < LEDGER_DB_VERSION:
                    self._rebuild(tables)
            self._conn.commit()
        except BaseException:
            self._conn.rollback()
            raise

    def _create(self) -> None:
        for statement in _SCHEMA.split(";"):
            if statement.strip():
                self._conn.execute(statement)
        self._conn.execute(
            "INSERT INTO meta (key, value) VALUES "
            "('ledger_schema_version', ?)", (str(LEDGER_DB_VERSION),))

    def _rebuild(self, tables: list[str]) -> None:
        """Replace an older layout with the current one, re-ingesting
        every stored manifest in ``id`` order with its stored source,
        code version and ingest time (a v1 store records no source)."""
        stored = [dict(row) for row in self._conn.execute(
            "SELECT * FROM manifests ORDER BY id")]
        for table in tables:
            self._conn.execute(f"DROP TABLE {table}")
        self._create()
        for row in stored:
            try:
                self._store(json.loads(row["document"]),
                            row.get("source"), row["code_version"],
                            row["ingested_at"])
            except (KeyError, TypeError, ValueError) as exc:
                raise LedgerError(
                    f"{self.path}: cannot rebuild manifest "
                    f"{row['digest']} into ledger schema "
                    f"v{LEDGER_DB_VERSION}: {exc}") from exc

    @property
    def db_version(self) -> int:
        return _db_version(self._conn)

    # -- ingest --------------------------------------------------------
    def ingest(self, document: dict, source: str | None = None,
               code_version: str | None = None,
               ingested_at: str | None = None) -> bool:
        """Ingest one manifest.  Returns True if it was new, False if
        this exact document was already in the ledger (no-op).

        ``code_version`` overrides the stamp for documents that
        predate stamping (otherwise the document's own ``code_version``
        is used, falling back to ``"unknown"``); ``ingested_at``
        preserves the original timestamp on JSONL import.
        """
        try:
            with self._conn:
                self._store(document, source, code_version, ingested_at)
        except sqlite3.IntegrityError:
            return False    # lost a race or re-ingested: both no-ops
        return True

    def _insert(self, table: str, **columns: object) -> int:
        """Insert one row; returns its id."""
        cursor = self._conn.execute(
            f"INSERT INTO {table} ({', '.join(columns)}) "
            f"VALUES ({', '.join('?' * len(columns))})",
            tuple(columns.values()))
        return cursor.lastrowid

    def _store(self, document: dict, source: str | None,
               code_version: str | None, ingested_at: str | None) -> None:
        """Insert *document* and every row derived from it, inside the
        caller's transaction."""
        kind = detect_kind(document)
        version = (_document_code_version(document) or code_version
                   or UNKNOWN_VERSION)
        stamp = ingested_at or datetime.datetime.now(
            datetime.timezone.utc).isoformat(timespec="seconds")
        manifest_id = self._insert(
            "manifests", digest=manifest_digest(document), kind=kind,
            schema=document["schema"], code_version=version,
            ingested_at=stamp, document=_canonical(document),
            source=source)
        derive = {"run": self._ingest_run,
                  "experiment": self._ingest_experiment,
                  "bench": self._ingest_bench,
                  "compare": self._ingest_compare,
                  "critpath": self._ingest_critpath,
                  "hotspots": self._ingest_hotspots}[kind]
        derive(manifest_id, document, version)

    def _ingest_run(self, manifest_id: int, report: dict, version: str,
                    run_index: int = 0) -> None:
        host = report.get("host") or {}
        self._insert("runs", manifest_id=manifest_id, run_index=run_index,
                     **_identity(report, "run", version),
                     wall_time_s=host.get("wall_time_s"),
                     sim_ips=host.get("sim_ips"),
                     has_metrics=1 if report.get("metrics") else 0)

    def _ingest_experiment(self, manifest_id: int, manifest: dict,
                           version: str) -> None:
        table = manifest.get("table") or {}
        experiment_id = self._insert(
            "experiments", manifest_id=manifest_id,
            experiment=manifest["experiment"], scale=manifest["scale"],
            code_version=version, title=table.get("title"))
        columns = table.get("columns") or []
        for row in table.get("rows") or []:
            if not row:
                continue
            row_label = str(row[0])
            for name, value in zip(columns[1:], row[1:]):
                number = (float(value)
                          if isinstance(value, (int, float))
                          and not isinstance(value, bool) else None)
                self._insert(
                    "experiment_cells", experiment_id=experiment_id,
                    row_label=row_label, column_name=str(name),
                    number=number,
                    text=None if number is not None else str(value))
        for index, report in enumerate(manifest.get("runs") or ()):
            self._ingest_run(manifest_id, report, version, index)

    def _ingest_bench(self, manifest_id: int, manifest: dict,
                      version: str) -> None:
        host = manifest.get("host") or {}
        bench_id = self._insert(
            "bench", manifest_id=manifest_id,
            mode=manifest.get("mode", "?"), code_version=version,
            hostname=host.get("hostname"))
        for cell in manifest.get("results") or ():
            self._insert(
                "bench_cells", bench_id=bench_id, label=cell["label"],
                trace_digest=trace_digest_of(cell["workload"],
                                             cell["scale"], None, None),
                config_digest=config_digest_of({"name": cell["config"]}),
                workload=cell["workload"], scale=cell["scale"],
                config_name=cell["config"],
                instructions=cell["instructions"], cycles=cell["cycles"],
                ipc=cell["ipc"], kips_median=cell["kips"]["median"],
                kips_iqr=cell["kips"]["iqr"],
                seconds_median=cell["seconds"]["median"])

    def _ingest_critpath(self, manifest_id: int, report: dict,
                         version: str) -> None:
        identity = _identity(report, "critpath", version)
        critpath_id = self._insert(
            "critpaths", manifest_id=manifest_id, **identity,
            window=int(report.get("window") or 0),
            windows=int(report.get("windows") or 0))
        stack = report.get("stack")
        if not isinstance(stack, dict):
            raise LedgerError("critpath report has no stack block")
        total = identity["cycles"] or 1
        for edge_class, charged in stack.items():
            self._insert("critpath_stack", critpath_id=critpath_id,
                         edge_class=edge_class, cycles=int(charged),
                         share=int(charged) / total)

    #: per-PC rows normalized per hotspots manifest (the full row set
    #: stays in the stored document).
    _HOTSPOT_ROW_LIMIT = 32

    def _ingest_hotspots(self, manifest_id: int, report: dict,
                         version: str) -> None:
        identity = _identity(report, "hotspots", version)
        rows = report.get("rows")
        if not isinstance(rows, list):
            raise LedgerError("hotspots report has no rows block")
        split = report.get("split") or {}
        kernel = split.get("kernel") or {}
        user = split.get("user") or {}
        hotspot_id = self._insert(
            "hotspots", manifest_id=manifest_id, **identity,
            static_pcs=len(rows),
            kernel_instructions=int(kernel.get("executions") or 0),
            user_instructions=int(user.get("executions") or 0),
            kernel_port_conflict=int(kernel.get("port_conflict_slots")
                                     or 0),
            user_port_conflict=int(user.get("port_conflict_slots") or 0))
        # Manifest rows arrive ranked by port-conflict slots already.
        for rank, row in enumerate(rows[:self._HOTSPOT_ROW_LIMIT]):
            dcache = row.get("dcache") or {}
            stall = row.get("stall") or {}
            self._insert(
                "hotspot_rows", hotspot_id=hotspot_id, rank=rank,
                pc=int(row["pc"]), kernel=1 if row.get("kernel") else 0,
                kind=str(row.get("kind", "?")), disasm=row.get("disasm"),
                executions=int(row["executions"]),
                port_conflict_slots=int(stall.get("dcache_port") or 0),
                stall_total=int(row.get("stall_total") or 0),
                port_uses=int(dcache.get("port_uses") or 0),
                misses=int(dcache.get("load_misses") or 0)
                + int(dcache.get("store_misses") or 0))

    def _ingest_compare(self, manifest_id: int, report: dict,
                        version: str) -> None:
        self._insert("compares", manifest_id=manifest_id,
                     code_version=version,
                     equal=1 if report.get("equal") else 0,
                     delta_count=len(report.get("deltas") or ()),
                     tolerance=float(report.get("tolerance") or 0.0))

    # -- queries -------------------------------------------------------
    def counts(self) -> dict[str, int]:
        """Row counts per table (manifests broken down by kind)."""
        out: dict[str, int] = {}
        for table in ("manifests", "runs", "experiments",
                      "experiment_cells", "bench", "bench_cells",
                      "compares", "critpaths", "critpath_stack",
                      "hotspots", "hotspot_rows"):
            out[table] = self._conn.execute(
                f"SELECT COUNT(*) FROM {table}").fetchone()[0]
        for kind in sorted(set(_KINDS.values())):
            out[f"manifests.{kind}"] = 0
        for row in self._conn.execute(
                "SELECT kind, COUNT(*) FROM manifests GROUP BY kind"):
            out[f"manifests.{row[0]}"] = row[1]
        return out

    def code_versions(self) -> list[str]:
        """Distinct code versions, in first-ingest order."""
        return [row[0] for row in self._conn.execute(
            "SELECT code_version FROM manifests GROUP BY code_version "
            "ORDER BY MIN(id)")]

    def document(self, digest: str) -> dict | None:
        """The verbatim manifest with this digest, or None."""
        row = self._conn.execute(
            "SELECT document FROM manifests WHERE digest = ?",
            (digest,)).fetchone()
        return json.loads(row[0]) if row is not None else None

    def run_document(self, manifest_digest: str,
                     run_index: int) -> dict | None:
        """The run report at *run_index* inside a stored manifest (the
        manifest itself for a bare run report)."""
        document = self.document(manifest_digest)
        if document is None:
            return None
        if document.get("schema") == "repro.run/1":
            return document
        runs = document.get("runs") or []
        return runs[run_index] if run_index < len(runs) else None

    def bench_labels(self) -> list[str]:
        return [row[0] for row in self._conn.execute(
            "SELECT DISTINCT label FROM bench_cells ORDER BY label")]

    def bench_history(self, label: str, limit: int | None = None,
                      exclude_digest: str | None = None) -> list[dict]:
        """Entries for one bench cell label, oldest -> newest.  With
        *limit*, the newest N.  ``exclude_digest`` drops the manifest
        a candidate was loaded from (so a watch never compares a
        document against itself)."""
        sql = ("SELECT m.digest AS manifest_digest, m.ingested_at, "
               "b.mode, b.code_version, c.* FROM bench_cells c "
               "JOIN bench b ON c.bench_id = b.id "
               "JOIN manifests m ON b.manifest_id = m.id "
               "WHERE c.label = ?")
        params: list[object] = [label]
        if exclude_digest is not None:
            sql += " AND m.digest != ?"
            params.append(exclude_digest)
        sql += " ORDER BY m.id DESC"
        if limit is not None:
            sql += " LIMIT ?"
            params.append(limit)
        rows = [dict(row) for row in self._conn.execute(sql, params)]
        rows.reverse()
        return rows

    def kips_trend(self) -> dict[str, list[dict]]:
        """Per bench-cell label, the full history (oldest -> newest)."""
        return {label: self.bench_history(label)
                for label in self.bench_labels()}

    def run_keys(self) -> list[dict]:
        """Distinct (trace_digest, config_digest) run keys with their
        human identity and entry count, most-recorded first."""
        return [dict(row) for row in self._conn.execute(
            "SELECT trace_digest, config_digest, workload, scale, "
            "seed, trace_file, config_name, COUNT(*) AS entries, "
            "COUNT(DISTINCT code_version) AS versions "
            "FROM runs GROUP BY trace_digest, config_digest "
            "ORDER BY entries DESC, config_name, workload")]

    def run_history(self, trace_digest: str, config_digest: str,
                    limit: int | None = None,
                    exclude_digest: str | None = None) -> list[dict]:
        """Entries for one run key, oldest -> newest (newest N with
        *limit*)."""
        sql = ("SELECT m.digest AS manifest_digest, m.ingested_at, "
               "m.kind, r.* FROM runs r "
               "JOIN manifests m ON r.manifest_id = m.id "
               "WHERE r.trace_digest = ? AND r.config_digest = ?")
        params: list[object] = [trace_digest, config_digest]
        if exclude_digest is not None:
            sql += " AND m.digest != ?"
            params.append(exclude_digest)
        sql += " ORDER BY r.id DESC"
        if limit is not None:
            sql += " LIMIT ?"
            params.append(limit)
        rows = [dict(row) for row in self._conn.execute(sql, params)]
        rows.reverse()
        return rows

    def latest_run(self, trace_digest: str,
                   config_digest: str) -> dict | None:
        history = self.run_history(trace_digest, config_digest, limit=1)
        return history[-1] if history else None

    def critpath_keys(self) -> list[dict]:
        """Distinct (trace_digest, config_digest) critpath keys with
        their human identity and entry count, most-recorded first."""
        return [dict(row) for row in self._conn.execute(
            "SELECT trace_digest, config_digest, workload, scale, "
            "seed, trace_file, config_name, COUNT(*) AS entries "
            "FROM critpaths GROUP BY trace_digest, config_digest "
            "ORDER BY entries DESC, config_name, workload")]

    def latest_critpath(self, trace_digest: str,
                        config_digest: str) -> dict | None:
        """The newest critpath entry for one key, with its CPI stack
        attached as ``stack`` (edge class -> {cycles, share})."""
        row = self._conn.execute(
            "SELECT m.digest AS manifest_digest, m.ingested_at, c.* "
            "FROM critpaths c JOIN manifests m ON c.manifest_id = m.id "
            "WHERE c.trace_digest = ? AND c.config_digest = ? "
            "ORDER BY c.id DESC LIMIT 1",
            (trace_digest, config_digest)).fetchone()
        if row is None:
            return None
        entry = dict(row)
        entry["stack"] = {
            stack_row["edge_class"]: {"cycles": stack_row["cycles"],
                                      "share": stack_row["share"]}
            for stack_row in self._conn.execute(
                "SELECT edge_class, cycles, share FROM critpath_stack "
                "WHERE critpath_id = ? ORDER BY id", (entry["id"],))}
        return entry

    def hotspot_keys(self) -> list[dict]:
        """Distinct (trace_digest, config_digest) hotspot keys with
        their human identity and entry count, most-recorded first."""
        return [dict(row) for row in self._conn.execute(
            "SELECT trace_digest, config_digest, workload, scale, "
            "seed, trace_file, config_name, COUNT(*) AS entries "
            "FROM hotspots GROUP BY trace_digest, config_digest "
            "ORDER BY entries DESC, config_name, workload")]

    def latest_hotspots(self, trace_digest: str,
                        config_digest: str) -> dict | None:
        """The newest hotspots entry for one key, with its normalized
        top per-PC rows attached as ``rows`` (rank order)."""
        row = self._conn.execute(
            "SELECT m.digest AS manifest_digest, m.ingested_at, h.* "
            "FROM hotspots h JOIN manifests m ON h.manifest_id = m.id "
            "WHERE h.trace_digest = ? AND h.config_digest = ? "
            "ORDER BY h.id DESC LIMIT 1",
            (trace_digest, config_digest)).fetchone()
        if row is None:
            return None
        entry = dict(row)
        entry["rows"] = [dict(pc_row) for pc_row in self._conn.execute(
            "SELECT rank, pc, kernel, kind, disasm, executions, "
            "port_conflict_slots, stall_total, port_uses, misses "
            "FROM hotspot_rows WHERE hotspot_id = ? ORDER BY rank",
            (entry["id"],))]
        return entry

    def experiment_history(self, experiment: str, row_label: str,
                           column_name: str,
                           scale: str | None = None) -> list[dict]:
        """One table cell over time (oldest -> newest): e.g. F2's
        ``("MEAN (all)", "tech/2P")`` headline ratio per code
        version."""
        sql = ("SELECT m.digest AS manifest_digest, m.ingested_at, "
               "e.code_version, e.scale, c.number, c.text "
               "FROM experiment_cells c "
               "JOIN experiments e ON c.experiment_id = e.id "
               "JOIN manifests m ON e.manifest_id = m.id "
               "WHERE e.experiment = ? AND c.row_label = ? "
               "AND c.column_name = ?")
        params: list[object] = [experiment, row_label, column_name]
        if scale is not None:
            sql += " AND e.scale = ?"
            params.append(scale)
        sql += " ORDER BY m.id"
        return [dict(row) for row in self._conn.execute(sql, params)]

    # -- JSONL export / import -----------------------------------------
    def export_jsonl(self, path: str | os.PathLike) -> int:
        """Write every manifest (plus ingest metadata) as one JSON
        object per line; returns the line count."""
        count = 0
        with atomic_write(path) as handle:
            for row in self._conn.execute(
                    "SELECT digest, kind, schema, code_version, "
                    "ingested_at, source, document FROM manifests "
                    "ORDER BY id"):
                handle.write(json.dumps({
                    "digest": row["digest"],
                    "kind": row["kind"],
                    "schema": row["schema"],
                    "code_version": row["code_version"],
                    "ingested_at": row["ingested_at"],
                    "source": row["source"],
                    "document": json.loads(row["document"]),
                }, sort_keys=True) + "\n")
                count += 1
        return count

    def import_jsonl(self, path: str | os.PathLike) -> tuple[int, int]:
        """Ingest an exported JSONL file; returns ``(added,
        skipped)``.  Idempotent like :meth:`ingest`."""
        added = skipped = 0
        with open(path, encoding="utf-8") as handle:
            for number, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise LedgerError(
                        f"{path}:{number}: not JSON ({exc})")
                if not isinstance(entry, dict) \
                        or "document" not in entry:
                    raise LedgerError(
                        f"{path}:{number}: expected an export entry "
                        f"with a 'document' key")
                if self.ingest(entry["document"],
                               source=entry.get("source"),
                               code_version=entry.get("code_version"),
                               ingested_at=entry.get("ingested_at")):
                    added += 1
                else:
                    skipped += 1
        return added, skipped


def resolve_ledger_path(flag: str | None) -> str | None:
    """The active ledger database: an explicit ``--ledger PATH`` flag
    wins, else the ``REPRO_LEDGER`` environment variable, else None
    (the zero-overhead default: no ledger, nothing happens)."""
    if flag:
        return flag
    env = os.environ.get(LEDGER_ENV, "").strip()
    return env or None
