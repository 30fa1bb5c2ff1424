(** The HTTP observability plane: {!Perm_obs.Httpd} wired to an engine.

    Serves, read-only and loopback-only:
    - [GET /metrics] — the full metrics registry in Prometheus text
      exposition, plus per-fingerprint statement families labelled with
      the (escaped) fingerprint and query text
    - [GET /stats/<relation>] — any [perm_stat_*] virtual relation as
      JSON, via the engine's own provider closures
    - [GET /healthz], [GET /readyz] — liveness, governor, watchdog and
      flight-recorder state
    - [GET /trace] — the Chrome trace export of the statement spans the
      flight recorder retains ({!Engine.trace_log})
    - [GET /events] — server-sent events: the flight recorder replayed and
      tailed, interleaved with live [Progress] snapshots of the running
      statement ([?max_ms=N] bounds the stream, for tests and CI).
      Finished statements at or past the slow-query threshold arrive as
      [event: statement] frames; forensics notifications as
      [event: anomaly] frames
    - [GET /debug/bundles] — the forensics bundle index (newest first:
      id, timestamp, class, fingerprint, detail, SQL), and
      [GET /debug/bundles/<id>] — one full bundle document (404 for
      unknown or evicted ids)
    - [GET /] — a plain-text index of the above

    All handlers read snapshot/atomic state under {!Engine.locked} (or
    from the wait-free recorder and lock-free atomics) and never execute
    SQL, so a scrape cannot
    block or skew the query path. The server accounts for itself in the
    engine's registry: [http.requests] (counter), [http.responses.NNN]
    (per-status counters), [http.bytes.out], [http.rejected] (gauge) and
    per-endpoint latency histograms [http.endpoint.<name>.ms]. *)

type t

val start :
  ?max_connections:int -> port:int -> Engine.t -> (t, string) result
(** Start serving on loopback [port] (0 picks an ephemeral port) on its
    own domain(s). Also registers an {!Engine.at_close} hook so the
    server drains when the engine closes. *)

val stop : t -> unit
(** Graceful drain; idempotent. *)

val port : t -> int
val generation : t -> int

val handler : Engine.t -> Perm_obs.Httpd.handler
(** The route table itself, exposed for tests that exercise handlers
    without a socket. *)
