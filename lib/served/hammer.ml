module Plan = Ic_fault.Plan
module Heap = Ic_heuristics.Heap
module Monotonic = Ic_prof.Monotonic

type config = {
  workers : int;
  k : int;
  mean_service_s : float;
  pareto_alpha : float;
  think_s : float;
  churn : Plan.t;
  seed : int;
}

let config ?(workers = 1024) ?(k = 8) ?(mean_service_s = 0.01)
    ?(pareto_alpha = 1.5) ?(think_s = 0.001) ?(churn = Plan.none)
    ?(seed = 0x5E4D) () =
  if workers < 1 then invalid_arg "Hammer.config: workers must be >= 1";
  if k < 1 || k > 0xFFFF then
    invalid_arg "Hammer.config: k must be in 1..65535";
  if (not (Float.is_finite mean_service_s)) || mean_service_s <= 0.0 then
    invalid_arg "Hammer.config: mean_service_s must be finite and positive";
  if (not (Float.is_finite pareto_alpha)) || pareto_alpha <= 1.0 then
    invalid_arg "Hammer.config: pareto_alpha must be finite and > 1";
  if (not (Float.is_finite think_s)) || think_s < 0.0 then
    invalid_arg "Hammer.config: think_s must be finite and >= 0";
  { workers; k; mean_service_s; pareto_alpha; think_s; churn; seed }

(* bounded Pareto: x_m * u^(-1/alpha) has mean x_m * alpha/(alpha-1), so
   scale x_m to hit the configured mean; the 100x cap keeps a single
   draw from freezing a virtual run without flattening the tail *)
let service_s cfg ~worker ~draw =
  let rng = Random.State.make [| cfg.seed; 0x5E; worker; draw |] in
  let u = 1.0 -. Random.State.float rng 1.0 (* (0, 1] *) in
  let x_m = cfg.mean_service_s *. (cfg.pareto_alpha -. 1.0) /. cfg.pareto_alpha in
  Float.min (x_m *. (u ** (-1.0 /. cfg.pareto_alpha))) (100.0 *. cfg.mean_service_s)

type result = {
  n_tasks : int;
  completed : int;
  makespan_s : float;
  wall_s : float;
  server : Server.stats;
  crashed : int;
  disconnects : int;
  lease_grant_p50_s : float;
  lease_grant_p99_s : float;
  task_service_p50_s : float;
  task_service_p99_s : float;
  busy_s : float array;
}

(* ----------------------------------------------------- the worker model *)

type status = Idle | Busy | Offline | Dead | Finished

(* worker events carry the worker's churn epoch: an event scheduled
   before a disconnect/crash must not fire into the session that follows
   the rejoin, so churn bumps the epoch and stale events are dropped *)
type 'a ev =
  | Request of int * int
  | Complete_due of int * int
  | Churn_ev of int * Plan.Churn.kind
  | Transport of 'a

(* a growing float sample buffer; quantiles are computed at the end *)
type samples = { mutable xs : float array; mutable n : int }

let samples () = { xs = Array.make 1024 0.0; n = 0 }

let sample s x =
  if s.n = Array.length s.xs then begin
    let grown = Array.make (2 * s.n) 0.0 in
    Array.blit s.xs 0 grown 0 s.n;
    s.xs <- grown
  end;
  s.xs.(s.n) <- x;
  s.n <- s.n + 1

(* nearest-rank quantile, nan when empty *)
let quantile s q =
  if s.n = 0 then nan
  else begin
    let xs = Array.sub s.xs 0 s.n in
    Array.sort compare xs;
    let i = int_of_float (Float.of_int (s.n - 1) *. q +. 0.5) in
    xs.(max 0 (min (s.n - 1) i))
  end

type 'a fleet = {
  cfg : config;
  retry_floor : float;
  on_end_session : int -> unit;
  events : (float, 'a ev) Heap.t;
  status : status array;
  batch : int list array;
  batch_t0 : float array;  (* alloc time of the batch *)
  draws : int array;
  epoch : int array;
  first_req : float array;
  churn : Plan.Churn.cursor array;
  (* per-worker utilization: a busy interval opens on a Lease and closes
     when the batch empties (or churn/finish cuts it) *)
  busy : float array;
  busy_since : float array;
  grant_lat : samples;
  service_lat : samples;
  mutable crashed : int;
  mutable disconnects : int;
  mutable settled : int;
}

let schedule_churn f i =
  match Plan.Churn.next f.churn.(i) with
  | None -> ()
  | Some { Plan.Churn.time; kind } ->
    Heap.push f.events time (Churn_ev (i, kind))

let fleet ?(on_end_session = ignore) ~retry_floor cfg =
  let w = cfg.workers in
  let f =
    {
      cfg;
      retry_floor;
      on_end_session;
      events = Heap.create ();
      status = Array.make w Idle;
      batch = Array.make w [];
      batch_t0 = Array.make w 0.0;
      draws = Array.make w 0;
      epoch = Array.make w 0;
      first_req = Array.make w nan;
      churn = Array.init w (fun i -> Plan.Churn.create cfg.churn ~client:i);
      busy = Array.make w 0.0;
      busy_since = Array.make w nan;
      grant_lat = samples ();
      service_lat = samples ();
      crashed = 0;
      disconnects = 0;
      settled = 0;
    }
  in
  for i = 0 to w - 1 do
    (* stagger the opening burst deterministically over one mean service
       time so the first leases do not all carry time 0 *)
    let rng = Random.State.make [| cfg.seed; 0x0F; i |] in
    Heap.push f.events
      (Random.State.float rng cfg.mean_service_s)
      (Request (i, 0));
    schedule_churn f i
  done;
  f

let events f = f.events
let epoch f i = f.epoch.(i)
let alive f i = match f.status.(i) with Idle | Busy -> true | _ -> false
let settled f = f.settled
let crashed f = f.crashed
let disconnects f = f.disconnects
let busy_s f = f.busy
let lease_grant_s f q = quantile f.grant_lat q
let task_service_s f q = quantile f.service_lat q

let end_busy f i t =
  if not (Float.is_nan f.busy_since.(i)) then begin
    f.busy.(i) <- f.busy.(i) +. (t -. f.busy_since.(i));
    f.busy_since.(i) <- nan
  end

let set_status f i t st =
  end_busy f i t;
  (match (f.status.(i), st) with
  | (Idle | Busy | Offline), (Dead | Finished) -> f.settled <- f.settled + 1
  | _ -> ());
  f.status.(i) <- st;
  if st = Busy then f.busy_since.(i) <- t

let close f t =
  for i = 0 to Array.length f.busy - 1 do
    end_busy f i t
  done

let ask f i at = Heap.push f.events at (Request (i, f.epoch.(i)))

let serve_next f i t =
  f.draws.(i) <- f.draws.(i) + 1;
  Heap.push f.events
    (t +. service_s f.cfg ~worker:i ~draw:(f.draws.(i) - 1))
    (Complete_due (i, f.epoch.(i)))

(* the session ends: events already scheduled for it go stale and the
   batch is forgotten, so its leases expire and re-issue server-side *)
let end_session f i t st =
  f.epoch.(i) <- f.epoch.(i) + 1;
  set_status f i t st;
  f.batch.(i) <- [];
  f.first_req.(i) <- nan;
  f.on_end_session i

let finish f i t = set_status f i t Finished

let requeue f i t ~at =
  if alive f i then begin
    end_session f i t Idle;
    ask f i at
  end

let churn f i kind t =
  (match kind with
  | Plan.Churn.Crash ->
    if f.status.(i) <> Finished then begin
      f.crashed <- f.crashed + 1;
      end_session f i t Dead
    end
  | Plan.Churn.Disconnect _downtime ->
    if alive f i then begin
      f.disconnects <- f.disconnects + 1;
      end_session f i t Offline
    end
  | Plan.Churn.Rejoin ->
    if f.status.(i) = Offline then begin
      f.epoch.(i) <- f.epoch.(i) + 1;
      set_status f i t Idle;
      ask f i t
    end);
  schedule_churn f i

let step f t ev ~lease ~complete ~transport =
  match ev with
  | Request (i, ep) ->
    if ep = f.epoch.(i) && f.status.(i) = Idle then begin
      if Float.is_nan f.first_req.(i) then f.first_req.(i) <- t;
      lease i t
    end
  | Complete_due (i, ep) -> (
    if ep = f.epoch.(i) && f.status.(i) = Busy then
      match f.batch.(i) with
      | [] -> (* batch vanished to churn *) ()
      | task :: rest ->
        f.batch.(i) <- rest;
        sample f.service_lat (t -. f.batch_t0.(i));
        complete i t task)
  | Churn_ev (i, kind) -> churn f i kind t
  | Transport x -> transport x t

let react f i t (reply : Wire.msg) =
  match reply with
  | Wire.Lease { tasks; expires_in_s = _ } when f.status.(i) = Idle ->
    if not (Float.is_nan f.first_req.(i)) then begin
      sample f.grant_lat (t -. f.first_req.(i));
      f.first_req.(i) <- nan
    end;
    set_status f i t Busy;
    f.batch.(i) <- Array.to_list tasks;
    f.batch_t0.(i) <- t;
    serve_next f i t;
    true
  | Wire.Retry_after { delay_s } when f.status.(i) = Idle ->
    ask f i (t +. Float.max delay_s f.retry_floor);
    true
  | Wire.Ack when f.status.(i) = Busy ->
    if f.batch.(i) <> [] then serve_next f i t
    else begin
      set_status f i t Idle;
      ask f i (t +. f.cfg.think_s)
    end;
    true
  | Wire.Done _ ->
    if f.status.(i) <> Dead then finish f i t;
    true
  | _ -> false

(* ------------------------------------------------------ virtual drivers *)

let utilization_buckets =
  [| 0.01; 0.02; 0.05; 0.1; 0.2; 0.3; 0.4; 0.5; 0.6; 0.7; 0.8; 0.9; 1.0 |]

(* pop events in virtual time until the server is done or the fleet has
   nothing left to do, firing lease expiries due before each event;
   returns the time of the last event *)
let run_events f srv ~lease ~complete ~transport =
  let now = ref 0.0 in
  let running = ref true in
  while !running && not (Server.is_done srv) do
    match Heap.pop f.events with
    | None -> running := false
    | Some (t, ev) ->
      while Server.next_expiry srv <= t do
        ignore (Server.expire srv ~now:(Server.next_expiry srv))
      done;
      now := t;
      step f t ev ~lease ~complete ~transport
  done;
  !now

(* end of a virtual run at time [now]: close the busy intervals, record
   the harness-side served.* instruments, build the result *)
let finalise ?metrics f srv ~t_start ~now =
  close f now;
  (match metrics with
  | None -> ()
  | Some m ->
    if now > 0.0 then begin
      let h =
        Ic_obs.Metrics.histogram m "served.worker_utilization"
          ~buckets:utilization_buckets
      in
      Array.iter (fun b -> Ic_obs.Metrics.observe h (b /. now)) f.busy
    end;
    Ic_obs.Metrics.set (Ic_obs.Metrics.gauge m "served.makespan_s") now;
    Ic_obs.Metrics.set
      (Ic_obs.Metrics.gauge m "served.inflight_final")
      (float_of_int (Server.stats srv).Server.inflight));
  {
    n_tasks = Server.n_tasks srv;
    completed = Server.completed srv;
    makespan_s = now;
    wall_s = Monotonic.now () -. t_start;
    server = Server.stats srv;
    crashed = f.crashed;
    disconnects = f.disconnects;
    lease_grant_p50_s = lease_grant_s f 0.5;
    lease_grant_p99_s = lease_grant_s f 0.99;
    task_service_p50_s = task_service_s f 0.5;
    task_service_p99_s = task_service_s f 0.99;
    busy_s = f.busy;
  }

let drive ?metrics srv cfg =
  let t_start = Monotonic.now () in
  let f = fleet ~retry_floor:1e-6 cfg in
  let call i t msg = ignore (react f i t (Server.handle srv ~now:t msg)) in
  let now =
    run_events f srv
      ~lease:(fun i t -> call i t (Wire.Lease_req { worker = i; k = cfg.k }))
      ~complete:(fun i t task -> call i t (Wire.Complete { worker = i; task }))
      ~transport:(fun () _ -> ())
  in
  finalise ?metrics f srv ~t_start ~now

let run_virtual ?metrics ?sink ?live ?flight ~server:scfg cfg g =
  drive ?metrics (Server.create ?metrics ?sink ?live ?flight scfg g) cfg

(* ----------------------------------------------------------- chaos run *)

type chaos_result = {
  base : result;
  c2s : Chaos.stats;
  s2c : Chaos.stats;
  retries : int;
}

(* the chaos link's own events: deliveries each way and reply-timeout
   probes *)
type link_ev =
  | To_server of Wire.msg
  | To_worker of int * int * Wire.msg  (* worker, epoch at emission *)
  | Retry of int * int * int  (* worker, epoch, request seq *)

let run_chaos ?metrics ?sink ?live ?flight ~server:scfg ~wire
    ?(reply_timeout_s = 1.0) cfg g =
  if (not (Float.is_finite reply_timeout_s)) || reply_timeout_s <= 0.0 then
    invalid_arg "Hammer.run_chaos: reply_timeout_s must be finite and positive";
  let t_start = Monotonic.now () in
  let srv = Server.create ?metrics ?sink ?live ?flight scfg g in
  let w = cfg.workers in
  let c2s = Chaos.create wire ~dir:0 in
  let s2c = Chaos.create wire ~dir:1 in
  let retries = ref 0 in
  (* an unanswered request keeps its sequence number until any reply that
     can answer it lands; the timeout probe resends while it is open *)
  let seq = Array.make w 0 in
  let awaiting = Array.make w (-1) in
  let last_msg : Wire.msg option array = Array.make w None in
  let reset_session i =
    awaiting.(i) <- -1;
    last_msg.(i) <- None
  in
  let f = fleet ~on_end_session:reset_session ~retry_floor:1e-6 cfg in
  let uplink i t msg =
    List.iter
      (fun (dt, m) -> Heap.push f.events dt (Transport (To_server m)))
      (Chaos.send c2s ~now:t msg);
    Heap.push f.events (t +. reply_timeout_s)
      (Transport (Retry (i, f.epoch.(i), seq.(i))))
  in
  let transmit i t msg =
    seq.(i) <- seq.(i) + 1;
    awaiting.(i) <- seq.(i);
    last_msg.(i) <- Some msg;
    uplink i t msg
  in
  (* a Done always lands; any other reply only answers an open request
     the worker is in a state to take it for — a duplicated or stale
     Lease is dropped here and its tasks re-issue by expiry *)
  let deliver i t m =
    match m with
    | Wire.Done _ ->
      reset_session i;
      ignore (react f i t m)
    | _ -> if awaiting.(i) >= 0 && react f i t m then reset_session i
  in
  let link ev t =
    match ev with
    | To_server m -> (
      let reply = Server.handle srv ~now:t m in
      let target =
        match m with
        | Wire.Hello { worker }
        | Wire.Lease_req { worker; _ }
        | Wire.Complete { worker; _ }
        | Wire.Heartbeat { worker } ->
          worker
        | _ -> -1
      in
      if target >= 0 && target < w then
        List.iter
          (fun (dt, r) ->
            Heap.push f.events dt
              (Transport (To_worker (target, f.epoch.(target), r))))
          (Chaos.send s2c ~now:t reply))
    | To_worker (i, ep, m) -> if ep = f.epoch.(i) then deliver i t m
    | Retry (i, ep, s) -> (
      (* the request is still open: the frame (or its reply) died on
         the wire — resend the same message as a fresh frame *)
      if ep = f.epoch.(i) && awaiting.(i) = s && alive f i then begin
        incr retries;
        match last_msg.(i) with Some m -> uplink i t m | None -> ()
      end)
  in
  let now =
    run_events f srv
      ~lease:(fun i t ->
        (* a request still open is the retry probe's to resend *)
        if awaiting.(i) < 0 then
          transmit i t (Wire.Lease_req { worker = i; k = cfg.k }))
      ~complete:(fun i t task ->
        transmit i t (Wire.Complete { worker = i; task }))
      ~transport:link
  in
  let base = finalise ?metrics f srv ~t_start ~now in
  (match metrics with
  | None -> ()
  | Some m ->
    let link name (s : Chaos.stats) =
      let c field v =
        Ic_obs.Metrics.incr ~by:v
          (Ic_obs.Metrics.counter m
             (Printf.sprintf "served.chaos.%s.%s" name field))
      in
      c "frames" s.Chaos.frames;
      c "delivered" s.Chaos.delivered;
      c "dropped" s.Chaos.dropped;
      c "duplicated" s.Chaos.duplicated;
      c "reordered" s.Chaos.reordered;
      c "truncated" s.Chaos.truncated;
      c "corrupted" s.Chaos.corrupted;
      c "reader_errors" s.Chaos.reader_errors;
      c "resyncs" s.Chaos.resyncs
    in
    link "c2s" (Chaos.stats c2s);
    link "s2c" (Chaos.stats s2c);
    Ic_obs.Metrics.incr ~by:!retries
      (Ic_obs.Metrics.counter m "served.chaos.retries"));
  { base; c2s = Chaos.stats c2s; s2c = Chaos.stats s2c; retries = !retries }
