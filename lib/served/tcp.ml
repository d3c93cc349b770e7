module Heap = Ic_heuristics.Heap
module Monotonic = Ic_prof.Monotonic
module Recovery = Ic_fault.Recovery
module Live = Ic_obs.Live

(* ------------------------------------------------------- I/O hardening *)

(* EINTR is a retry, not a failure, on every blocking call; a peer that
   vanished (ECONNRESET/EPIPE) is a connection-level event the caller
   turns into close+log, never an exception out of the loop.

   For EPIPE to arrive as an error at all, SIGPIPE's default
   kill-the-process disposition must go: forced (process-wide) on entry
   to both drivers — a chaos-dropped connection must not take the whole
   harness down with it. *)

let ignore_sigpipe =
  lazy
    (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
     with Invalid_argument _ | Sys_error _ -> ())

let rec write_retry fd b off len =
  try Unix.write fd b off len
  with Unix.Unix_error (Unix.EINTR, _, _) -> write_retry fd b off len

let send_all fd bytes len =
  let off = ref 0 in
  while !off < len do
    off := !off + write_retry fd bytes !off (len - !off)
  done

(* a whole buffer in one [send_all], through its one copy *)
let send_buffer fd b =
  let bytes = Buffer.to_bytes b in
  Buffer.clear b;
  send_all fd bytes (Bytes.length bytes)

let rec read_retry fd buf =
  try Unix.read fd buf 0 (Bytes.length buf)
  with Unix.Unix_error (Unix.EINTR, _, _) -> read_retry fd buf

let rec select_retry r w e timeout =
  try Unix.select r w e timeout
  with Unix.Unix_error (Unix.EINTR, _, _) -> select_retry r w e timeout

(* ---------------------------------------------------------------- serve *)

(* a lease client; [out] collects the replies of one round *)
type conn = { fd : Unix.file_descr; reader : Wire.Reader.t; out : Buffer.t }

(* one OpenMetrics scrape response; we never parse the request — any
   bytes on a telemetry connection ask for the one page there is *)
let scrape_response live =
  let body = Live.openmetrics live in
  Printf.sprintf
    "HTTP/1.0 200 OK\r\n\
     Content-Type: application/openmetrics-text; version=1.0.0; \
     charset=utf-8\r\n\
     Content-Length: %d\r\n\
     Connection: close\r\n\
     \r\n\
     %s"
    (String.length body) body

let csv_header =
  "time_s,completions,leases,leased_tasks,inflight,frontier_depth,reissues,\
   retry_afters,rss_bytes\n"

let serve ?metrics ?sink ?on_listen ?(once = false) ?journal ?(recover = false)
    ?(log = fun _ -> ()) ?live ?flight ?telemetry_port ?on_telemetry_listen
    ?telemetry_csv ?(telemetry_every_s = 1.0) ~port scfg dag =
  Lazy.force ignore_sigpipe;
  (* the scrape endpoint and the CSV both read the Live registry; make
     one internally when telemetry is requested without one *)
  let live =
    match (live, telemetry_port, telemetry_csv) with
    | (Some _ as l), _, _ -> l
    | None, None, None -> None
    | None, _, _ -> Some (Live.create ())
  in
  let srv =
    match journal with
    | Some j when recover -> (
      match Server.recover ?metrics ?sink ?live ?flight ~journal:j scfg dag with
      | Ok t -> t
      | Error e -> invalid_arg ("Tcp.serve: recovery failed: " ^ e))
    | _ -> Server.create ?metrics ?sink ?journal ?live ?flight scfg dag
  in
  let lsock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt lsock Unix.SO_REUSEADDR true;
  Unix.bind lsock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.listen lsock 128;
  let bound =
    match Unix.getsockname lsock with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> port
  in
  (match on_listen with Some f -> f bound | None -> ());
  let tsock =
    match telemetry_port with
    | None -> None
    | Some tp ->
      let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt s Unix.SO_REUSEADDR true;
      Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, tp));
      Unix.listen s 16;
      let tp_bound =
        match Unix.getsockname s with Unix.ADDR_INET (_, p) -> p | _ -> tp
      in
      (match on_telemetry_listen with Some f -> f tp_bound | None -> ());
      Some s
  in
  let is_tsock fd = match tsock with Some s -> fd == s | None -> false in
  let tconns = ref [] in
  let csv_oc =
    match telemetry_csv with
    | None -> None
    | Some path ->
      let oc = open_out path in
      output_string oc csv_header;
      flush oc;
      Some oc
  in
  let last_csv = ref neg_infinity in
  let t0 = Monotonic.now () in
  let now () = Monotonic.now () -. t0 in
  let csv_row t =
    match (csv_oc, live) with
    | Some oc, Some l ->
      let st = Server.stats srv in
      Printf.fprintf oc "%.3f,%d,%d,%d,%d,%d,%d,%d,%d\n" t
        st.Server.completions st.Server.leases st.Server.leased_tasks
        st.Server.inflight
        (int_of_float
           (Live.gauge_value (Live.gauge l "served.frontier_depth")))
        st.Server.reissues st.Server.retry_afters (Live.rss_bytes ());
      flush oc
    | _ -> ()
  in
  let conns = ref [] in
  let accepted = ref 0 in
  let rbuf = Bytes.create 65536 in
  let close_conn ?reason c =
    (match reason with Some r -> log r | None -> ());
    (try Unix.close c.fd with Unix.Unix_error _ -> ());
    conns := List.filter (fun c' -> c'.fd != c.fd) !conns
  in
  let running = ref true in
  while !running do
    let t = now () in
    ignore (Server.expire srv ~now:t);
    if csv_oc <> None && t -. !last_csv >= telemetry_every_s then begin
      last_csv := t;
      csv_row t
    end;
    let next = Server.next_expiry srv in
    let timeout =
      if Float.is_finite next then Float.max 0.001 (Float.min 0.05 (next -. t))
      else 0.05
    in
    let fds = lsock :: List.map (fun c -> c.fd) !conns in
    let fds = match tsock with Some s -> s :: fds | None -> fds in
    let fds = List.rev_append !tconns fds in
    let ready, _, _ = select_retry fds [] [] timeout in
    List.iter
      (fun fd ->
        if fd == lsock then begin
          match Unix.accept lsock with
          | cfd, _ ->
            (* replies leave in one write per round; without NODELAY a
               write behind an unacknowledged one waits out the peer's
               delayed ACK *)
            (try Unix.setsockopt cfd Unix.TCP_NODELAY true
             with Unix.Unix_error _ -> ());
            incr accepted;
            conns :=
              {
                fd = cfd;
                reader = Wire.Reader.create ();
                out = Buffer.create 4096;
              }
              :: !conns
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
          | exception Unix.Unix_error _ -> ()
        end
        else if is_tsock fd then begin
          match Unix.accept fd with
          | cfd, _ -> tconns := cfd :: !tconns
          | exception Unix.Unix_error _ -> ()
        end
        else if List.memq fd !tconns then begin
          (* one-shot scrape: any readable bytes (or a close) on a
             telemetry connection get the whole exposition back *)
          tconns := List.filter (fun f -> f != fd) !tconns;
          (try ignore (read_retry fd rbuf) with Unix.Unix_error _ -> ());
          (match live with
          | Some l ->
            let resp = Bytes.of_string (scrape_response l) in
            (try send_all fd resp (Bytes.length resp)
             with Unix.Unix_error _ -> ())
          | None -> ());
          try Unix.close fd with Unix.Unix_error _ -> ()
        end
        else
          match List.find_opt (fun c -> c.fd == fd) !conns with
          | None -> ()
          | Some c -> (
            let n =
              match read_retry c.fd rbuf with
              | n -> n
              | exception
                  Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
                log "read: connection reset by peer";
                0
              | exception Unix.Unix_error (e, _, _) ->
                log ("read: " ^ Unix.error_message e);
                0
            in
            if n = 0 then close_conn c
            else begin
              Wire.Reader.feed c.reader rbuf 0 n;
              (* one round: answer every complete frame of the read as
                 one journal group, then send the replies in one write
                 once the group's records are flushed; a corrupt frame
                 ends the round, and the connection, after the replies
                 to the frames before it *)
              let corrupt =
                Server.group srv (fun () ->
                    let rec frames () =
                      match Wire.Reader.next c.reader with
                      | Ok None -> None
                      | Error e -> Some ("wire: " ^ e)
                      | Ok (Some msg) ->
                        Wire.encode c.out (Server.handle srv ~now:(now ()) msg);
                        frames ()
                    in
                    frames ())
              in
              match send_buffer c.fd c.out with
              | () -> (
                match corrupt with
                | Some reason -> close_conn ~reason c
                | None -> ())
              | exception Unix.Unix_error (e, _, _) ->
                close_conn ~reason:("write: " ^ Unix.error_message e) c
            end))
      ready;
    (* [once]: stay up while clients may still reconnect — exit only when
       the drain actually finished and the last connection has gone; a
       mid-drain disconnect (chaos, a restarting hammer) is a window, not
       the end *)
    if once && !accepted > 0 && !conns = [] && Server.is_done srv then
      running := false
  done;
  (try Unix.close lsock with Unix.Unix_error _ -> ());
  (match tsock with
  | Some s -> ( try Unix.close s with Unix.Unix_error _ -> ())
  | None -> ());
  List.iter
    (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
    !tconns;
  (match csv_oc with
  | Some oc ->
    csv_row (now ());
    close_out_noerr oc
  | None -> ());
  Server.stats srv

(* --------------------------------------------------------------- hammer *)

type hammer_result = {
  workers : int;
  completes_sent : int;
  done_seen : bool;
  crashed : int;
  disconnects : int;
  reconnects : int;
  wall_s : float;
  lease_grant_p50_s : float;
  lease_grant_p99_s : float;
  task_service_p50_s : float;
  task_service_p99_s : float;
  busy_s : float array;
}

(* an outstanding request on a connection, awaiting its FIFO-matched
   reply: [p_worker] is -1 for the connection's Hello, [p_ep] lets a
   reply to a pre-churn request be discarded, [p_t] ages the queue head
   so a desynced connection (lost frame, stuck server) is cut and
   redialed *)
type pending = { p_worker : int; p_ep : int; p_t : float }

(* dial-again policy for a lost server: 50 ms doubling to a 2 s cap —
   a dozen attempts rides out a kill -9 + restart window of ~15 s *)
let reconnect_policy =
  Recovery.make ~backoff_base:0.05 ~backoff_factor:2.0 ~backoff_max:2.0 ()

let max_reconnect_attempts = 12

let hammer ?(host = "127.0.0.1") ?(connections = 4) ?chaos
    ?(reply_timeout_s = 2.0) ?(log = fun _ -> ()) ~port (cfg : Hammer.config) =
  Lazy.force ignore_sigpipe;
  let t_start = Monotonic.now () in
  let elapsed () = Monotonic.now () -. t_start in
  let w = cfg.Hammer.workers in
  let nconn = max 1 (min connections w) in
  let addr =
    Unix.ADDR_INET
      ( (if host = "127.0.0.1" || host = "localhost" then
           Unix.inet_addr_loopback
         else Unix.inet_addr_of_string host),
        port )
  in
  let socks = Array.make nconn Unix.stdin in
  (* frames [send] queued since the last select, one buffer per
     connection, flushed in one write each just before the select *)
  let outs = Array.init nconn (fun _ -> Buffer.create 4096) in
  let readers = Array.init nconn (fun _ -> Wire.Reader.create ()) in
  let pendings : pending Queue.t array =
    Array.init nconn (fun _ -> Queue.create ())
  in
  let open_ = Array.make nconn false in
  let dead = Array.make nconn false in
  let attempts = Array.make nconn 0 in
  let frames = Array.make nconn 0 in  (* chaos frame counter, per direction *)
  let total_pending = ref 0 in
  let reconnects = ref 0 in
  let conn_of i = i mod nconn in
  let completes_sent = ref 0 in
  let done_seen = ref false in
  let rbuf = Bytes.create 65536 in
  (* dial connection [c] and queue the Hello that announces the session;
     [strict] (the initial dial) lets a refused connection raise out to
     the caller, a redial just reports failure *)
  let connect_conn ~strict c =
    let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    match
      Unix.connect s addr;
      (try Unix.setsockopt s Unix.TCP_NODELAY true
       with Unix.Unix_error _ -> ())
    with
    | () ->
      socks.(c) <- s;
      Wire.encode outs.(c) (Wire.Hello { worker = c });
      readers.(c) <- Wire.Reader.create ();
      open_.(c) <- true;
      attempts.(c) <- 0;
      Queue.add { p_worker = -1; p_ep = 0; p_t = elapsed () } pendings.(c);
      incr total_pending;
      true
    | exception e ->
      (try Unix.close s with Unix.Unix_error _ -> ());
      if strict then raise e else false
  in
  for c = 0 to nconn - 1 do
    ignore (connect_conn ~strict:true c)
  done;
  (* the driver's own events: [Transport c] redials connection [c] *)
  let f : int Hammer.fleet = Hammer.fleet ~retry_floor:1e-4 cfg in
  let events = Hammer.events f in
  (* the connection under a worker's in-flight request died: forget the
     batch (its leases will expire and re-issue server-side) and ask
     again shortly, into whichever socket is alive by then *)
  let requeue_worker i t =
    Hammer.requeue f i t
      ~at:(t +. 0.05 +. (0.002 *. float_of_int (i land 63)))
  in
  let close_conn c t =
    if open_.(c) then begin
      open_.(c) <- false;
      Buffer.clear outs.(c);
      (try Unix.close socks.(c) with Unix.Unix_error _ -> ());
      (* outstanding replies on this connection will never arrive *)
      total_pending := !total_pending - Queue.length pendings.(c);
      Queue.iter
        (fun p -> if p.p_worker >= 0 then requeue_worker p.p_worker t)
        pendings.(c);
      Queue.clear pendings.(c);
      if not dead.(c) then
        Heap.push events
          (t +. Recovery.backoff reconnect_policy ~task:c ~retry:attempts.(c))
          (Hammer.Transport c)
    end
  in
  let send i msg =
    let c = conn_of i in
    if dead.(c) then Hammer.finish f i (elapsed ())
    else if not open_.(c) then requeue_worker i (elapsed ())
    else begin
      (match chaos with
      | None -> Wire.encode outs.(c) msg
      | Some plan ->
        let fr = frames.(c) in
        frames.(c) <- fr + 1;
        List.iter (Buffer.add_bytes outs.(c))
          (Chaos.mangle plan ~dir:c ~frame:fr
             (Bytes.of_string (Wire.to_string msg))));
      Queue.add
        { p_worker = i; p_ep = Hammer.epoch f i; p_t = elapsed () }
        pendings.(c);
      incr total_pending
    end
  in
  (* a failed write loses the connection like a failed read: its queued
     workers, these frames' senders included, are requeued *)
  let flush_all () =
    for c = 0 to nconn - 1 do
      if open_.(c) && Buffer.length outs.(c) > 0 then
        try send_buffer socks.(c) outs.(c)
        with Unix.Unix_error _ -> close_conn c (elapsed ())
    done
  in
  let reconnect c t =
    if (not dead.(c)) && not open_.(c) then begin
      if connect_conn ~strict:false c then incr reconnects
      else begin
        attempts.(c) <- attempts.(c) + 1;
        if attempts.(c) > max_reconnect_attempts then dead.(c) <- true
        else
          Heap.push events
            (t +. Recovery.backoff reconnect_policy ~task:c ~retry:attempts.(c))
            (Hammer.Transport c)
      end
    end
  in
  let lease i _ = send i (Wire.Lease_req { worker = i; k = cfg.Hammer.k }) in
  let complete i _ task =
    incr completes_sent;
    send i (Wire.Complete { worker = i; task })
  in
  let handle_reply c msg =
    let { p_worker = i; p_ep; p_t = _ } = Queue.pop pendings.(c) in
    decr total_pending;
    let t = elapsed () in
    match msg with
    | Wire.Done _ ->
      (* a Done ends a worker in session even when it answers a request
         from an earlier one: the drain is over either way *)
      done_seen := true;
      if i >= 0 && Hammer.alive f i then ignore (Hammer.react f i t msg)
    | _ ->
      if i >= 0 && p_ep = Hammer.epoch f i then
        ignore (Hammer.react f i t msg)
  in
  let progress_possible () =
    (not (Heap.is_empty events)) || !total_pending > 0
  in
  (* a socket-level failure that escapes the per-call guards (a select
     on a descriptor the kernel yanked, an exotic errno) used to raise
     out of the run and lose every metric with it; the harness instead
     abandons the wire and falls through to the same finalization the
     clean-drain and reconnect-timeout exits use, so the caller always
     gets a result to write its artifacts from *)
  (try
    while Hammer.settled f < w && progress_possible () do
    (* fire every event that is due *)
    let due = ref true in
    while !due do
      match Heap.peek events with
      | Some (te, _) when te <= elapsed () -> (
        match Heap.pop events with
        | Some (_, ev) ->
          Hammer.step f (elapsed ()) ev ~lease ~complete ~transport:reconnect
        | None -> due := false)
      | _ -> due := false
    done;
    (* a queue head older than the reply timeout means the request or
       its reply died on the wire (chaos, a crashed server): the FIFO is
       unrecoverable, cut the connection and let reconnect heal it *)
    let tnow = elapsed () in
    for c = 0 to nconn - 1 do
      if open_.(c) && not (Queue.is_empty pendings.(c)) then begin
        let head = Queue.peek pendings.(c) in
        if tnow -. head.p_t > reply_timeout_s then close_conn c tnow
      end
    done;
    if Hammer.settled f < w && progress_possible () then begin
      let timeout =
        match Heap.peek events with
        | Some (te, _) -> Float.max 0.0 (Float.min 0.05 (te -. elapsed ()))
        | None -> 0.05
      in
      flush_all ();
      let fds = ref [] in
      Array.iteri (fun c s -> if open_.(c) then fds := s :: !fds) socks;
      if !fds = [] then
        (* between connections: sleep to the next event (reconnect) *)
        (if timeout > 0.0 then ignore (select_retry [] [] [] timeout))
      else begin
        let ready, _, _ = select_retry !fds [] [] timeout in
        List.iter
          (fun fd ->
            let c = ref (-1) in
            Array.iteri
              (fun j s -> if open_.(j) && s == fd then c := j)
              socks;
            let c = !c in
            if c >= 0 && open_.(c) then begin
              let n =
                try read_retry socks.(c) rbuf
                with Unix.Unix_error _ -> 0
              in
              if n = 0 then close_conn c (elapsed ())
              else begin
                Wire.Reader.feed readers.(c) rbuf 0 n;
                let continue = ref true in
                while !continue do
                  match Wire.Reader.next readers.(c) with
                  | Ok None -> continue := false
                  | Error _ ->
                    close_conn c (elapsed ());
                    continue := false
                  | Ok (Some msg) ->
                    if Queue.is_empty pendings.(c) then begin
                      (* unsolicited reply: protocol break, cut the conn
                         and let the redial resynchronize *)
                      close_conn c (elapsed ());
                      continue := false
                    end
                    else handle_reply c msg
                done
              end
            end)
          ready
      end
    end
    done
  with Unix.Unix_error (e, fn, _) ->
    log
      (Printf.sprintf "hammer: %s: %s — finalizing with partial results" fn
         (Unix.error_message e)));
  flush_all ();
  let tend = elapsed () in
  Array.iteri
    (fun c _ ->
      dead.(c) <- true;
      close_conn c tend)
    socks;
  Hammer.close f tend;
  {
    workers = w;
    completes_sent = !completes_sent;
    done_seen = !done_seen;
    crashed = Hammer.crashed f;
    disconnects = Hammer.disconnects f;
    reconnects = !reconnects;
    wall_s = tend;
    lease_grant_p50_s = Hammer.lease_grant_s f 0.5;
    lease_grant_p99_s = Hammer.lease_grant_s f 0.99;
    task_service_p50_s = Hammer.task_service_s f 0.5;
    task_service_p99_s = Hammer.task_service_s f 0.99;
    busy_s = Hammer.busy_s f;
  }
