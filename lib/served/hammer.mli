(** The load harness: simulate 10^4..10^6 transient workers against a
    {!Server}.

    One worker model, three transports. The model ({!fleet}) is written
    once: each worker asks for a batch of [k] tasks, runs them
    sequentially with heavy-tailed (bounded Pareto) service latencies,
    reports each [Complete], thinks briefly, and asks again;
    [Retry_after] backpressure is honoured. Churn comes from an
    {!Ic_fault.Plan} churn stream ({!Ic_fault.Plan.Churn}): a crashed
    worker goes silent forever, a disconnected one drops its in-flight
    batch (so its leases expire and re-issue) and resumes on rejoin.
    Stragglers arise naturally from the Pareto tail: a worker slower
    than the lease expiry completes a task the server has already
    re-issued, exercising the duplicate-completion path.

    The transports only carry the model's requests and replies:
    - {!run_virtual}/{!drive} call {!Server.handle} directly under a
      discrete-event virtual clock — no sockets, no wall time — so a
      fixed seed yields byte-identical metrics and traces at any worker
      count; it is the exactly-once/determinism acceptance vehicle and
      the lock-amortization bench;
    - {!run_chaos} routes every frame through a pair of {!Chaos}
      manglers, still in virtual time;
    - {!Tcp.hammer} multiplexes the workers over a few real sockets in
      real time against a listening server. *)

type config = private {
  workers : int;
  k : int;  (** lease batch size requested per [Lease_req] *)
  mean_service_s : float;  (** mean task service time *)
  pareto_alpha : float;
      (** tail shape of the service distribution (> 1; smaller =
          heavier tail); draws are capped at 100 x the mean *)
  think_s : float;  (** idle time between finishing a batch and re-asking *)
  churn : Ic_fault.Plan.t;  (** crash/disconnect stream per worker *)
  seed : int;
}

val config :
  ?workers:int ->
  ?k:int ->
  ?mean_service_s:float ->
  ?pareto_alpha:float ->
  ?think_s:float ->
  ?churn:Ic_fault.Plan.t ->
  ?seed:int ->
  unit ->
  config
(** Defaults: 1024 workers, [k 8], [mean_service_s 0.01],
    [pareto_alpha 1.5], [think_s 0.001], no churn, seed [0x5E4D].
    Raises [Invalid_argument] on out-of-range values. *)

type result = {
  n_tasks : int;
  completed : int;  (** tasks applied exactly once; = [n_tasks] on success *)
  makespan_s : float;  (** virtual (or real) time of the last event *)
  wall_s : float;  (** real time the harness itself took *)
  server : Server.stats;
  crashed : int;  (** workers lost to the churn plan *)
  disconnects : int;
  lease_grant_p50_s : float;
      (** median time from a worker's first unanswered [Lease_req] to
          its [Lease] — 0 under no backpressure in virtual time *)
  lease_grant_p99_s : float;
  task_service_p50_s : float;  (** alloc-to-complete, per applied task *)
  task_service_p99_s : float;
  busy_s : float array;
      (** per-worker virtual time spent holding a lease batch; divided
          by [makespan_s] it is the worker's utilization, also emitted
          as the [served.worker_utilization] histogram when a metrics
          registry is given *)
}

val run_virtual :
  ?metrics:Ic_obs.Metrics.t ->
  ?sink:Ic_obs.Trace.t ->
  ?live:Ic_obs.Live.t ->
  ?flight:Ic_obs.Flight.t ->
  server:Server.config ->
  config ->
  Ic_dag.Dag.t ->
  result
(** Run to completion (or to starvation, if churn killed every worker)
    under the virtual clock. [metrics]/[sink] are handed to the embedded
    {!Server}; with a fixed seed the registry's JSON dump and the trace
    are byte-identical across runs. [live]/[flight] are likewise handed
    to the server: the live registry mirrors the [served.*] meters
    concurrently-readably, and neither perturbs the deterministic
    [metrics]/[sink] artifacts. *)

val drive : ?metrics:Ic_obs.Metrics.t -> Server.t -> config -> result
(** {!run_virtual} against an {e existing} server — the recovery
    acceptance vehicle: journal a partial drain, crash, {!Server.recover}
    the state, then [drive] the worker fleet against the recovered server
    and watch it reach exactly-once completion. [metrics] only receives
    the harness-side instruments ([served.makespan_s],
    [served.inflight_final], [served.worker_utilization]); pass the same
    registry to {!Server.recover} for the server's own counters. *)

(** {1 Wire chaos}

    The same worker model with every message routed through a pair of
    {!Chaos} manglers (direction 0 client-to-server, direction 1 back),
    still in virtual time: drops, duplicates, reorders, truncations and
    bit flips hit real encoded frames and the server sees whatever
    survives the {!Wire.Reader}. Workers cover for the lossy link with a
    reply timeout: an unanswered request is re-sent as a fresh frame
    (counted in [retries]), so duplicate [Lease_req]s/[Complete]s reach
    the server and its absorption paths are exercised for real. A fixed
    seed still yields byte-identical metrics. *)

type chaos_result = {
  base : result;
  c2s : Chaos.stats;
  s2c : Chaos.stats;
  retries : int;  (** requests re-sent after an unanswered timeout *)
}

val run_chaos :
  ?metrics:Ic_obs.Metrics.t ->
  ?sink:Ic_obs.Trace.t ->
  ?live:Ic_obs.Live.t ->
  ?flight:Ic_obs.Flight.t ->
  server:Server.config ->
  wire:Ic_fault.Plan.Wire.t ->
  ?reply_timeout_s:float ->
  config ->
  Ic_dag.Dag.t ->
  chaos_result
(** [reply_timeout_s] (default 1.0, positive) is how long a worker waits
    for a reply before re-sending. With [metrics], the per-link
    [served.chaos.{c2s,s2c}.*] counters and [served.chaos.retries] are
    recorded alongside the usual served instruments. *)

(** {1 The worker model}

    The fleet state every transport shares, exposed for {!Tcp.hammer}.
    A driver pops events off {!events} and hands each to {!step}, whose
    callbacks put a worker's [Lease_req] or [Complete] on the driver's
    wire and run the driver's own [Transport] events; each reply that
    reaches a worker goes to {!react}. Times are the driver's clock:
    event time in virtual time, elapsed wall time over TCP. *)

type 'a ev =
  | Request of int * int  (** worker, epoch: ask for a lease *)
  | Complete_due of int * int
      (** worker, epoch: report the head of the batch *)
  | Churn_ev of int * Ic_fault.Plan.Churn.kind
  | Transport of 'a  (** an event of the driver's own *)
(** Worker events carry the worker's session epoch: churn (and a lost
    connection) bump it, and an event of an earlier session is dropped. *)

type 'a fleet
(** The workers of one run and their pending events. *)

val fleet :
  ?on_end_session:(int -> unit) -> retry_floor:float -> config -> 'a fleet
(** A fleet of [config.workers] idle workers whose opening requests are
    staggered over one mean service time and whose churn streams are
    scheduled. [retry_floor] is the least delay a [Retry_after] is
    honoured with. [on_end_session] is called with a worker whose
    session churn or {!requeue} ended. *)

val events : 'a fleet -> (float, 'a ev) Ic_heuristics.Heap.t
(** The pending events, keyed by due time; ties pop in push order. *)

val step :
  'a fleet ->
  float ->
  'a ev ->
  lease:(int -> float -> unit) ->
  complete:(int -> float -> int -> unit) ->
  transport:('a -> float -> unit) ->
  unit
(** [step f t ev] fires [ev] at time [t]: an idle worker's [Request]
    calls [lease worker t], a busy worker's [Complete_due] takes the
    head of its batch and calls [complete worker t task], churn is
    applied, and [Transport x] calls [transport x t]. Stale events do
    nothing. *)

val react : 'a fleet -> int -> float -> Wire.msg -> bool
(** [react f worker t reply] applies a server reply: [Lease] (to an idle
    worker) starts the batch, [Retry_after] (idle) asks again after the
    delay, [Ack] (busy) moves to the next task or, batch done, thinks
    and asks again, and [Done] finishes any worker that is not dead.
    Returns whether the reply was taken. *)

val alive : 'a fleet -> int -> bool
(** Idle or busy: in a session. *)

val epoch : 'a fleet -> int -> int

val finish : 'a fleet -> int -> float -> unit
(** The worker stops for good without a [Done] (its transport is gone). *)

val requeue : 'a fleet -> int -> float -> at:float -> unit
(** The transport under a live worker's request failed: end its session
    (the batch is dropped, its leases expire server-side) and ask again
    at time [at]. No-op for a worker not {!alive}. *)

val settled : 'a fleet -> int
(** Workers finished or dead. *)

val close : 'a fleet -> float -> unit
(** End of run: close every open busy interval at the given time. *)

val crashed : 'a fleet -> int
val disconnects : 'a fleet -> int

val busy_s : 'a fleet -> float array
(** Per-worker time spent holding a lease batch. *)

val lease_grant_s : 'a fleet -> float -> float
(** [lease_grant_s f q]: the [q]-quantile (nearest rank, nan when
    empty) of the time from a worker's first unanswered [Lease_req] to
    its [Lease]. *)

val task_service_s : 'a fleet -> float -> float
(** The [q]-quantile of alloc-to-complete time per reported task. *)
