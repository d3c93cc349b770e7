(* The in-process half of the repo benchmark; perfbench/run.py drives it.

   icbench run     one `ic_sched run` workload: Payload.make (repeated,
                   for the set-up median), the sequential Engine
                   reference, then Runtime.executor executions of the
                   same payload until the time budget is spent.
   icbench hammer  the Tcp.hammer worker model (the engine behind
                   `ic_sched hammer`) against a running `ic_sched serve`,
                   reporting its own CPU next to the hammer's result.
   icbench replay  the serve layers without sockets: the served dag, k
                   and worker count pushed through Wire.encode,
                   Wire.Reader and Server.handle, timed per call, plus
                   direct calls into Shards, Shard_view and Journal.

   Arguments are [--key value] pairs. Each mode prints one JSON object
   as its last line of standard output. *)

module Dag = Ic_dag.Dag
module Shard_view = Ic_dag.Shard_view
module Payload = Ic_par.Payload
module Runtime = Ic_par.Runtime
module Wire = Ic_served.Wire
module Server = Ic_served.Server
module Shards = Ic_served.Shards
module Journal = Ic_served.Journal
module Tcp = Ic_served.Tcp
module Hammer = Ic_served.Hammer

let now = Ic_prof.Monotonic.now

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n land 1 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let per x n = x /. float_of_int (max 1 n)

(* peak resident set of this process, from the kernel's high-water mark *)
let vm_hwm_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
    | _ -> scan ()
    | exception End_of_file -> 0
  in
  let kb = scan () in
  close_in ic;
  float_of_int kb /. 1024.0

let remove_file path = try Sys.remove path with Sys_error _ -> ()

(* ------------------------------------------------------------ output *)

type value = F of float | I of int | B of bool

let emit fields =
  let field (k, v) =
    Printf.sprintf "%S: %s" k
      (match v with
      | F x when Float.is_finite x -> Printf.sprintf "%.9g" x
      | F _ -> "null"
      | I i -> string_of_int i
      | B b -> string_of_bool b)
  in
  print_endline ("{" ^ String.concat ", " (List.map field fields) ^ "}")

(* ------------------------------------------------------------- spans *)

(* Spans recorded from this file only, around its calls into the repo's
   layers: name, request id, parent span, start and end. Spans of one
   request share its id. They stay in memory, up to [cap] (later ones
   are counted in [dropped], not kept), and are written out once, at
   the end of the run. *)
module Spans = struct
  type t = {
    cap : int;
    mutable n : int;
    mutable dropped : int;
    names : string array;
    ids : int array;
    parents : int array;
    t0 : float array;
    t1 : float array;
  }

  let create cap =
    {
      cap;
      n = 0;
      dropped = 0;
      names = Array.make cap "";
      ids = Array.make cap 0;
      parents = Array.make cap (-1);
      t0 = Array.make cap 0.0;
      t1 = Array.make cap 0.0;
    }

  (* the span's index, or -1 once the buffer is full *)
  let add t ?(parent = -1) ~id name t0 t1 =
    if t.n < t.cap then begin
      let i = t.n in
      t.n <- i + 1;
      t.names.(i) <- name;
      t.ids.(i) <- id;
      t.parents.(i) <- parent;
      t.t0.(i) <- t0;
      t.t1.(i) <- t1;
      i
    end
    else begin
      t.dropped <- t.dropped + 1;
      -1
    end

  let finish t i t1 = if i >= 0 then t.t1.(i) <- t1

  (* [f ()] inside a span of its own *)
  let time t ~id name f =
    let i = add t ~id name (now ()) nan in
    let r = f () in
    finish t i (now ());
    r

  let write t path =
    let oc = open_out path in
    for i = 0 to t.n - 1 do
      Printf.fprintf oc
        "{\"span\": %d, \"name\": %S, \"id\": %d, \"parent\": %d, \
         \"start_s\": %.9f, \"end_s\": %.9f}\n"
        i t.names.(i) t.ids.(i) t.parents.(i) t.t0.(i) t.t1.(i)
    done;
    close_out oc
end

(* --------------------------------------------------------- arguments *)

let args =
  let a = Sys.argv in
  let rec go i acc =
    if i + 1 >= Array.length a then acc
    else
      let k = a.(i) in
      if String.length k > 2 && String.sub k 0 2 = "--" then
        go (i + 2) ((String.sub k 2 (String.length k - 2), a.(i + 1)) :: acc)
      else invalid_arg ("icbench: expected --key value, got " ^ k)
  in
  go 2 []

let arg k =
  match List.assoc_opt k args with
  | Some v -> v
  | None -> invalid_arg ("icbench: missing --" ^ k)

let arg_opt k = List.assoc_opt k args
let int_arg k = int_of_string (arg k)
let float_arg k = float_of_string (arg k)

(* ---------------------------------------------------------------- run *)

(* [ic_sched run]'s path in-process. The set-up is repeated (at least 3
   times and for at least [setup-seconds]) for its median. Every parallel
   execution's fingerprint must be bit-identical to the sequential
   engine's, and the sequential one must pass the payload's independent
   check. *)
let run_mode () =
  let family = arg "family" and size = int_arg "size" in
  let domains = int_arg "domains" and seconds = float_arg "seconds" in
  let setup_budget = float_arg "setup-seconds" and trace = arg "trace" = "1" in
  let order =
    match arg "order" with
    | "ic" -> Runtime.Ic_priority
    | "steal" -> Runtime.Steal
    | o -> invalid_arg ("icbench: unknown order " ^ o)
  in
  let sp = Spans.create (if trace then 65536 else 0) in
  let make_s = ref [] in
  let payload = ref None and makes = ref 0 in
  let setup_end = now () +. setup_budget in
  while !makes < 3 || now () < setup_end do
    incr makes;
    payload := None;
    Gc.full_major ();
    let t0 = now () in
    let p =
      Spans.time sp ~id:!makes "payload.make" (fun () ->
          Payload.make ~family ~size ())
    in
    make_s := (now () -. t0) :: !make_s;
    payload := Some p
  done;
  let p = Option.get !payload in
  let n = Dag.n_nodes (Payload.dag p) in
  let seq_s = ref [] and reference = ref [||] in
  for i = 1 to if trace then 3 else 1 do
    let t0 = now () in
    reference := Spans.time sp ~id:i "engine.execute" (fun () -> Payload.execute p);
    seq_s := (now () -. t0) :: !seq_s
  done;
  let reference = !reference in
  let check_ok =
    Spans.time sp ~id:0 "payload.check" (fun () -> Payload.check p reference)
  in
  (* a task's value may span several fingerprint slots (fft: re, im) *)
  let stride = Array.length reference / n in
  let bad_tasks fp =
    if Array.length fp <> Array.length reference then n
    else begin
      let bad = ref 0 in
      for v = 0 to n - 1 do
        let differs = ref false in
        for s = 0 to stride - 1 do
          let i = (v * stride) + s in
          if Int64.bits_of_float fp.(i) <> Int64.bits_of_float reference.(i)
          then differs := true
        done;
        if !differs then incr bad
      done;
      !bad
    end
  in
  let priority =
    match order with
    | Runtime.Ic_priority -> Some (Payload.rank p)
    | Runtime.Steal -> None
  in
  let rep ~traced id =
    let stats = ref None and cpu = ref 0.0 in
    let inner =
      Runtime.executor ~domains ~order ?priority
        ~on_stats:(fun st -> stats := Some st)
        ()
    in
    (* CPU of the whole process over the parallel phase only *)
    let executor g step =
      let c0 = cpu_s () in
      inner g step;
      cpu := cpu_s () -. c0
    in
    let fp =
      if traced then
        Spans.time sp ~id "runtime.executor" (fun () ->
            Payload.execute ~executor p)
      else Payload.execute ~executor p
    in
    (Option.get !stats, !cpu, bad_tasks fp)
  in
  let attempted = ref 0 and failed = ref (if check_ok then 0 else n) in
  let tally (st, _, bad) =
    attempted := !attempted + st.Runtime.tasks;
    failed := !failed + bad
  in
  (* warm-up: caches filled and lazy set-up done before timing *)
  tally (rep ~traced:false 0);
  let walls = ref [] and traced_walls = ref [] and cpus = ref [] in
  let steals = ref 0 and attempts = ref 0 and overflows = ref 0 in
  let parks = ref 0 and imbalance = ref [] and reps = ref 0 in
  let t_end = now () +. seconds in
  while now () < t_end || !reps < 5 do
    incr reps;
    (* in a traced run every other repetition carries a span: the
       difference between the two halves is the tracing overhead *)
    let traced = trace && !reps land 1 = 0 in
    let ((st, cpu, _) as r) = rep ~traced !reps in
    tally r;
    if traced then traced_walls := st.Runtime.wall_s :: !traced_walls
    else begin
      walls := st.Runtime.wall_s :: !walls;
      cpus := per cpu st.Runtime.tasks :: !cpus
    end;
    steals := !steals + st.Runtime.steals;
    attempts := !attempts + st.Runtime.steal_attempts;
    overflows := !overflows + st.Runtime.overflows;
    parks := !parks + st.Runtime.parks;
    let pdt = st.Runtime.per_domain_tasks in
    let mean = per (float_of_int st.Runtime.tasks) (Array.length pdt) in
    imbalance :=
      (float_of_int (Array.fold_left max 0 pdt) /. mean) :: !imbalance
  done;
  Option.iter (Spans.write sp) (arg_opt "spans");
  let wall = median !walls and seq = median !seq_s in
  let tasks_run = n * !reps in
  emit
    [
      ("correct", B (!failed = 0 && check_ok));
      ("attempted", I !attempted);
      ("failed", I !failed);
      ("tasks", I n);
      ("reps", I !reps);
      ("makes", I !makes);
      ("setup_s", F (median !make_s));
      ("cpu_us_per_task", F (median !cpus *. 1e6));
      ("peak_rss_mb", F (vm_hwm_mb ()));
      ("payload.make_s", F (median !make_s));
      ("engine.seq_ns_per_task", F (per seq n *. 1e9));
      ("par.ns_per_task", F (per wall n *. 1e9));
      ("par.tasks_per_s", F (float_of_int n /. wall));
      ("par.speedup", F (seq /. wall));
      ("par.steal_hit_ratio", F (per (float_of_int !steals) !attempts));
      ("par.steal_attempts_per_task", F (per (float_of_int !attempts) tasks_run));
      ("par.overflows_per_task", F (per (float_of_int !overflows) tasks_run));
      ("par.parks_per_task", F (per (float_of_int !parks) tasks_run));
      ("par.imbalance", F (median !imbalance));
      ( "trace.overhead",
        F (if trace then (median !traced_walls /. wall) -. 1.0 else 0.0) );
      ("spans", I sp.Spans.n);
      ("spans_dropped", I sp.Spans.dropped);
    ]

(* ------------------------------------------------------------- hammer *)

let hammer_mode () =
  let cfg =
    Hammer.config ~workers:(int_arg "workers") ~k:(int_arg "k")
      ~mean_service_s:(float_arg "mean-service-s")
      ~think_s:(float_arg "think-s") ~seed:(int_arg "seed") ()
  in
  let c0 = cpu_s () in
  let r =
    Tcp.hammer ~connections:(int_arg "connections")
      ~log:(fun line -> prerr_endline ("icbench hammer: " ^ line))
      ~port:(int_arg "port") cfg
  in
  let cpu = cpu_s () -. c0 in
  emit
    [
      ("done_seen", B r.Tcp.done_seen);
      ("completes_sent", I r.Tcp.completes_sent);
      ("crashed", I r.Tcp.crashed);
      ("reconnects", I r.Tcp.reconnects);
      ("wall_s", F r.Tcp.wall_s);
      ("cpu_s", F cpu);
      ("lease_grant_p50_s", F r.Tcp.lease_grant_p50_s);
      ("lease_grant_p99_s", F r.Tcp.lease_grant_p99_s);
    ]

(* ------------------------------------------------------------- replay *)

(* Per-layer totals of one replay pass; all-float so the fields are
   stored unboxed in the hot loop. *)
type acc = {
  mutable decode_s : float;
  mutable lease_s : float;
  mutable complete_s : float;
  mutable encode_s : float;
  mutable words : float;
  mutable bytes : float;
}

type pass = {
  loop_s : float;
  layers : acc;
  requests : int;
  completions : int;
  retry_afters : int;
  ok : bool;
}

let next_msg reader =
  match Wire.Reader.next reader with
  | Ok (Some m) -> m
  | Ok None -> failwith "replay: incomplete frame"
  | Error e -> failwith ("replay: " ^ e)

(* One drain of [dag] by [workers] closed-loop workers asking for [k]
   tasks at a time, as `ic_sched serve` runs it but without sockets:
   each client message is encoded, fed through the server's
   Wire.Reader, handled, and its reply encoded. Workers take turns
   round-robin; a worker holding a lease sends one Complete per turn.
   [traced] times every call and records its spans; otherwise only the
   whole loop is timed. *)
let replay_pass ~dag ~cfg ~workers ~k ~journal ~live ~traced ~sp =
  let j =
    Option.map
      (fun path ->
        remove_file path;
        match Journal.open_ path with
        | Ok j -> j
        | Error e -> failwith ("replay: " ^ e))
      journal
  in
  let live = if live then Some (Ic_obs.Live.create ()) else None in
  let srv =
    Server.create ~metrics:(Ic_obs.Metrics.create ()) ?journal:j ?live cfg dag
  in
  let reader = Wire.Reader.create () in
  let cbuf = Buffer.create 256 and sbuf = Buffer.create 256 in
  let a =
    {
      decode_s = 0.0;
      lease_s = 0.0;
      complete_s = 0.0;
      encode_s = 0.0;
      words = 0.0;
      bytes = 0.0;
    }
  in
  (* words the measurement itself allocates around an empty call *)
  let words_base =
    let w0 = Gc.minor_words () in
    let t1 = now () in
    let t2 = now () in
    let w1 = Gc.minor_words () in
    ignore (Sys.opaque_identity (t2 -. t1));
    w1 -. w0
  in
  let requests = ref 0 in
  let step msg =
    incr requests;
    Buffer.clear cbuf;
    Wire.encode cbuf msg;
    let len = Buffer.length cbuf in
    let bytes = Buffer.to_bytes cbuf in
    let t0 = now () in
    if not traced then begin
      Wire.Reader.feed reader bytes 0 len;
      let reply = Server.handle srv ~now:t0 (next_msg reader) in
      Buffer.clear sbuf;
      Wire.encode sbuf reply;
      reply
    end
    else begin
      Wire.Reader.feed reader bytes 0 len;
      let m = next_msg reader in
      let w0 = Gc.minor_words () in
      let t1 = now () in
      let reply = Server.handle srv ~now:t1 m in
      let t2 = now () in
      let w1 = Gc.minor_words () in
      Buffer.clear sbuf;
      Wire.encode sbuf reply;
      let t3 = now () in
      a.decode_s <- a.decode_s +. (t1 -. t0);
      (match m with
      | Wire.Complete _ -> a.complete_s <- a.complete_s +. (t2 -. t1)
      | _ -> a.lease_s <- a.lease_s +. (t2 -. t1));
      a.encode_s <- a.encode_s +. (t3 -. t2);
      a.words <- a.words +. (w1 -. w0 -. words_base);
      a.bytes <- a.bytes +. float_of_int (len + Buffer.length sbuf);
      let id = !requests in
      (* the first requests' spans leave room for the later ones *)
      if id <= 8192 then begin
        let r = Spans.add sp ~id "request" t0 t3 in
        ignore (Spans.add sp ~parent:r ~id "wire.decode" t0 t1);
        ignore (Spans.add sp ~parent:r ~id "server.handle" t1 t2);
        ignore (Spans.add sp ~parent:r ~id "wire.encode" t2 t3)
      end;
      reply
    end
  in
  let batch = Array.make workers [||] and pos = Array.make workers 0 in
  let turns = Queue.create () in
  for w = 0 to workers - 1 do
    Queue.add w turns
  done;
  let t_start = now () in
  (* one Hello per connection, as Tcp.hammer's two dials send *)
  ignore (step (Wire.Hello { worker = 0 }));
  ignore (step (Wire.Hello { worker = 1 }));
  while not (Queue.is_empty turns) do
    let w = Queue.pop turns in
    let msg =
      if pos.(w) < Array.length batch.(w) then begin
        let task = batch.(w).(pos.(w)) in
        pos.(w) <- pos.(w) + 1;
        Wire.Complete { worker = w; task }
      end
      else Wire.Lease_req { worker = w; k }
    in
    match step msg with
    | Wire.Lease { tasks; _ } ->
      batch.(w) <- tasks;
      pos.(w) <- 0;
      Queue.add w turns
    | Wire.Retry_after _ | Wire.Ack -> Queue.add w turns
    | Wire.Done _ -> ()
    | _ -> failwith "replay: unexpected reply"
  done;
  let loop_s = now () -. t_start in
  Option.iter Journal.close j;
  let st = Server.stats srv in
  {
    loop_s;
    layers = a;
    requests = !requests;
    completions = st.Server.completions;
    retry_afters = st.Server.retry_afters;
    ok =
      Server.is_done srv
      && st.Server.completions = Dag.n_nodes dag
      && st.Server.protocol_errors = 0
      && st.Server.duplicate_completes = 0;
  }

(* Shards.pop_batch alone: a pool holding every task, drained k at a
   time. *)
let pop_batch_ns ~n ~k =
  let pools = Shards.create ~n_shards:1 () in
  for v = 0 to n - 1 do
    Shards.push pools ~shard:0 v
  done;
  let out = Array.make k 0 in
  let got = ref 0 in
  let t0 = now () in
  while !got < n do
    got := !got + Shards.pop_batch pools ~shard:0 ~max:k out
  done;
  per (now () -. t0) n *. 1e9

(* Shard_view.complete alone: every task completed in an eligible
   order, each newly ready successor pushed on a stack. *)
let shard_view_complete_ns dag =
  let n = Dag.n_nodes dag in
  let sv = Shard_view.create dag in
  let stack = Array.make n 0 and top = ref 0 in
  let push ~shard:_ v =
    stack.(!top) <- v;
    incr top
  in
  Shard_view.iter_initial sv push;
  let t0 = now () in
  while !top > 0 do
    decr top;
    Shard_view.complete sv stack.(!top) ~ready:push
  done;
  let dt = now () -. t0 in
  if not (Shard_view.is_complete sv) then failwith "replay: shard view stalled";
  per dt n *. 1e9

(* Journal.append and Journal.checkpoint alone, on the record stream a
   drain of [n] tasks in lease batches of [k] produces: one Lease record
   per batch, one Complete per task, a checkpoint whenever the journal
   says one is due (as Server.handle does). Bytes count everything
   written to the file, checkpoint rewrites included. *)
let journal_direct ~sp ~path ~n ~k =
  remove_file path;
  let j =
    match Journal.open_ path with
    | Ok j -> j
    | Error e -> failwith ("journal: " ^ e)
  in
  let size () = (Unix.stat path).Unix.st_size in
  let done_ = Bytes.make (Journal.bitmap_len n) '\000' in
  let leased = Bytes.make (Journal.bitmap_len n) '\000' in
  let set bits v =
    Bytes.set bits (v lsr 3)
      (Char.chr (Char.code (Bytes.get bits (v lsr 3)) lor (1 lsl (v land 7))))
  in
  let append_s = ref 0.0 and ckpt_s = ref [] in
  let written = ref 0 and since = ref (size ()) in
  let v = ref 0 in
  while !v < n do
    let b = min k (n - !v) in
    let ids = Array.init b (fun i -> !v + i) in
    let t0 = now () in
    Journal.append j (Journal.Lease ids);
    append_s := !append_s +. (now () -. t0);
    Array.iter (set leased) ids;
    Array.iter
      (fun task ->
        let t0 = now () in
        Journal.append j (Journal.Complete task);
        append_s := !append_s +. (now () -. t0);
        set done_ task;
        if Journal.checkpoint_due j then begin
          written := !written + (size () - !since);
          let t0 = now () in
          Journal.checkpoint j ~n ~done_ ~leased;
          let t1 = now () in
          ckpt_s := (t1 -. t0) :: !ckpt_s;
          ignore
            (Spans.add sp ~id:(List.length !ckpt_s) "journal.checkpoint" t0 t1);
          since := size ();
          written := !written + !since
        end)
      ids;
    v := !v + b
  done;
  written := !written + (size () - !since);
  Journal.close j;
  remove_file path;
  (per !append_s n *. 1e9, per (float_of_int !written) n, median !ckpt_s *. 1e3)

let replay_mode () =
  let spec = arg "spec" and workers = int_arg "workers" and k = int_arg "k" in
  let journal = arg_opt "journal" and live = arg "live" = "1" in
  let passes = int_arg "passes" in
  let sp = Spans.create 65536 in
  (* the set-up `ic_sched serve` does before listening, in-process *)
  let parse () =
    match Ic_cli.Family_spec.parse spec with
    | Ok f -> f.Ic_cli.Family_spec.dag
    | Error e -> failwith ("replay: " ^ e)
  in
  let build_s = ref [] and dag = ref None in
  for i = 1 to 3 do
    dag := None;
    Gc.full_major ();
    let t0 = now () in
    dag := Some (Spans.time sp ~id:i "family_spec.parse" parse);
    build_s := (now () -. t0) :: !build_s
  done;
  let dag = Option.get !dag in
  let n = Dag.n_nodes dag in
  let cfg = Server.config ~n_shards:1 ~max_lease:64 ~expected_s:1.0 () in
  let create_s = ref [] in
  for i = 1 to 3 do
    let t0 = now () in
    Spans.time sp ~id:i "server.create" (fun () ->
        let j =
          Option.map
            (fun path ->
              remove_file path;
              match Journal.open_ path with
              | Ok j -> j
              | Error e -> failwith ("replay: " ^ e))
            journal
        in
        let live = if live then Some (Ic_obs.Live.create ()) else None in
        ignore
          (Server.create ~metrics:(Ic_obs.Metrics.create ()) ?journal:j ?live
             cfg dag);
        Option.iter Journal.close j);
    create_s := (now () -. t0) :: !create_s
  done;
  let pass ~traced ~live =
    Gc.full_major ();
    replay_pass ~dag ~cfg ~workers ~k ~journal ~live ~traced ~sp
  in
  let traced = pass ~traced:true ~live in
  (* Untraced passes, each followed by one with the Live registry
     removed where the workload's server has one: the difference is the
     mirror's cost. Each side's fastest pass is its cost, since
     interference only adds time. *)
  let untraced, bare =
    List.split
      (List.init passes (fun _ ->
           let u = pass ~traced:false ~live in
           (u, if live then Some (pass ~traced:false ~live:false) else None)))
  in
  let bare = List.filter_map Fun.id bare in
  let fastest ps = List.fold_left (fun m p -> Float.min m p.loop_s) infinity ps in
  let untraced_s = fastest untraced in
  let mirror_ns =
    if bare = [] then 0.0 else per (untraced_s -. fastest bare) n *. 1e9
  in
  let pop_ns =
    Spans.time sp ~id:0 "shards.pop_batch" (fun () -> pop_batch_ns ~n ~k)
  in
  let complete_ns =
    Spans.time sp ~id:0 "shard_view.complete" (fun () ->
        shard_view_complete_ns dag)
  in
  let append_ns, journal_bytes, checkpoint_ms =
    match journal with
    | Some path ->
      Spans.time sp ~id:0 "journal.append" (fun () ->
          journal_direct ~sp ~path:(path ^ ".direct") ~n ~k)
    | None -> (0.0, 0.0, 0.0)
  in
  Option.iter (Spans.write sp) (arg_opt "spans");
  let l = traced.layers in
  let ns x = per x n *. 1e9 in
  let replay_us =
    per (l.decode_s +. l.lease_s +. l.complete_s +. l.encode_s) n *. 1e6
  in
  emit
    [
      ("ok", B (List.for_all (fun p -> p.ok) ((traced :: untraced) @ bare)));
      ("tasks", I n);
      ("requests", I traced.requests);
      ("completions", I traced.completions);
      ("retry_afters", I traced.retry_afters);
      ("dag.build_s", F (median !build_s));
      ("server.create_s", F (median !create_s));
      ("wire.decode_ns", F (ns l.decode_s));
      ("wire.encode_ns", F (ns l.encode_s));
      ("wire.bytes_per_task", F (per l.bytes n));
      ("server.handle_lease_ns", F (ns l.lease_s));
      ("server.handle_complete_ns", F (ns l.complete_s));
      ("server.alloc_words_per_task", F (per l.words n));
      ("replay.us_per_task", F replay_us);
      ("live.mirror_ns_per_task", F mirror_ns);
      ("shards.pop_batch_ns", F pop_ns);
      ("shard_view.complete_ns", F complete_ns);
      ("journal.append_ns", F append_ns);
      ("journal.bytes_per_task", F journal_bytes);
      ("journal.checkpoint_ms", F checkpoint_ms);
      ("trace.overhead", F ((traced.loop_s /. untraced_s) -. 1.0));
      ("spans", I sp.Spans.n);
      ("spans_dropped", I sp.Spans.dropped);
    ]

let () =
  match if Array.length Sys.argv > 1 then Sys.argv.(1) else "" with
  | "run" -> run_mode ()
  | "hammer" -> hammer_mode ()
  | "replay" -> replay_mode ()
  | m ->
    prerr_endline ("usage: icbench (run|hammer|replay) --key value ... (got " ^ m ^ ")");
    exit 2
