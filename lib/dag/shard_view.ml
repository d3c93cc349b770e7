type t = {
  dag : Dag.t;
  n_shards : int;
  block : int;  (* nodes per shard: shard of v = v / block *)
  remaining : Frontier.Counts.t;
  done_count : int Atomic.t;
}

let create ?(n_shards = 1) g =
  let n = Dag.n_nodes g in
  let n_shards = max 1 (min n_shards (max 1 n)) in
  let block = if n = 0 then 1 else ((n - 1) / n_shards) + 1 in
  {
    dag = g;
    n_shards;
    block;
    remaining = Frontier.Counts.create g;
    done_count = Atomic.make 0;
  }

let dag t = t.dag
let n_nodes t = Dag.n_nodes t.dag
let n_shards t = t.n_shards

let shard_of t v =
  if v < 0 || v >= n_nodes t then invalid_arg "Shard_view.shard_of: out of range";
  v / t.block

let shard_size t s =
  if s < 0 || s >= t.n_shards then
    invalid_arg "Shard_view.shard_size: out of range";
  let n = n_nodes t in
  let lo = s * t.block in
  let hi = min n ((s + 1) * t.block) in
  max 0 (hi - lo)

let iter_initial t f =
  Frontier.fill_remaining t.dag (fun v d ->
      if d = 0 then f ~shard:(v / t.block) v)

let complete t v ~ready =
  if v < 0 || v >= n_nodes t then invalid_arg "Shard_view.complete: out of range";
  let off = Dag.succ_offsets t.dag and dat = Dag.succ_targets t.dag in
  for i = Slab.unsafe_get off v to Slab.unsafe_get off (v + 1) - 1 do
    let s = Slab.unsafe_get dat i in
    if Frontier.Counts.decr t.remaining s then
      ready ~shard:(s / t.block) s
  done;
  ignore (Atomic.fetch_and_add t.done_count 1)

let completed t = Atomic.get t.done_count
let is_complete t = completed t = n_nodes t
