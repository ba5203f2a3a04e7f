open Simcore
open Wal
open Quorum
module Protocol = Storage.Protocol

type strategy =
  | Direct_tracked of {
      hedge_after : Time_ns.t option;
      explore_probability : float;
    }
  | Quorum_read of { read_threshold : int }

type metrics = {
  mutable reads : int;
  mutable ios_issued : int;
  mutable hedges : int;
  mutable explores : int;
  mutable retries : int;
  mutable failures : int;
  latency : Histogram.t;
}

type pending = {
  req : int;
  pg : Storage.Pg_id.t;
  block : Block_id.t;
  as_of : Lsn.t;
  epochs : Protocol.epochs;
  callback : (Protocol.block_image, string) result -> unit;
  started_at : Time_ns.t;
  mutable issued_at : (Member_id.t * Time_ns.t) list; (* per-segment issue time *)
  mutable untried : (Member_id.t * Simnet.Addr.t) list; (* best first *)
  mutable in_flight : int;
  mutable needed : int; (* replies still required (1, or Vr for quorum) *)
  mutable done_ : bool;
}

type t = {
  sim : Sim.t;
  rng : Rng.t;
  net : Protocol.t Simnet.Net.t;
  my_addr : Simnet.Addr.t;
  strategy : strategy;
  ewma : Stats.Ewma.t Simnet.Addr.Tbl.t;
  pendings : (int, pending) Hashtbl.t;
  mutable next_req : int;
  metrics : metrics;
}

let register_instruments ~obs ~labels (m : metrics) =
  match obs with
  | None -> ()
  | Some obs ->
    let reg = Obs.Ctx.registry obs in
    Obs.Registry.counter_fn reg ~labels "read_reads" (fun () -> m.reads);
    Obs.Registry.counter_fn reg ~labels "read_ios_issued" (fun () -> m.ios_issued);
    Obs.Registry.counter_fn reg ~labels "read_hedges" (fun () -> m.hedges);
    Obs.Registry.counter_fn reg ~labels "read_explores" (fun () -> m.explores);
    Obs.Registry.counter_fn reg ~labels "read_retries" (fun () -> m.retries);
    Obs.Registry.counter_fn reg ~labels "read_failures" (fun () -> m.failures);
    Obs.Registry.histogram_ref reg ~labels "read_latency_ns" m.latency

let create ~sim ~rng ~net ~my_addr ~strategy ?obs ?(obs_labels = []) () =
  let t =
    {
      sim;
      rng;
      net;
      my_addr;
      strategy;
      ewma = Simnet.Addr.Tbl.create 16;
      pendings = Hashtbl.create 64;
      next_req = 0;
      metrics =
        {
          reads = 0;
          ios_issued = 0;
          hedges = 0;
          explores = 0;
          retries = 0;
          failures = 0;
          latency = Histogram.create ();
        };
    }
  in
  register_instruments ~obs ~labels:obs_labels t.metrics;
  t

let observed_latency t addr =
  match Simnet.Addr.Tbl.find_opt t.ewma addr with
  | Some e when Stats.Ewma.observations e > 0 -> Some (Stats.Ewma.value e)
  | Some _ | None -> None

let observe t addr sample_ns =
  let e =
    match Simnet.Addr.Tbl.find_opt t.ewma addr with
    | Some e -> e
    | None ->
      let e = Stats.Ewma.create ~alpha:0.2 ~init:sample_ns in
      Simnet.Addr.Tbl.add t.ewma addr e;
      e
  in
  Stats.Ewma.observe e sample_ns

(* Sort candidates by estimated latency; unknown nodes go first so they get
   measured (optimistic exploration). *)
let order_candidates t candidates =
  let scored =
    List.map
      (fun (m, a) ->
        let score =
          match observed_latency t a with Some v -> v | None -> -1.
        in
        (score, (m, a)))
      candidates
  in
  List.map snd (List.stable_sort (fun (x, _) (y, _) -> Float.compare x y) scored)

let issue t p (seg, addr) =
  p.in_flight <- p.in_flight + 1;
  p.issued_at <- (seg, Sim.now t.sim) :: p.issued_at;
  t.metrics.ios_issued <- t.metrics.ios_issued + 1;
  let msg =
    Protocol.Read_block
      { req = p.req; pg = p.pg; seg; block = p.block; as_of = p.as_of; epochs = p.epochs }
  in
  Simnet.Net.send t.net ~src:t.my_addr ~dst:addr ~bytes:(Protocol.bytes msg) msg

let issue_next t p =
  match p.untried with
  | [] -> false
  | next :: rest ->
    p.untried <- rest;
    issue t p next;
    true

let finish t p result =
  if not p.done_ then begin
    p.done_ <- true;
    Hashtbl.remove t.pendings p.req;
    (match result with
    | Ok _ ->
      Histogram.record_span t.metrics.latency p.started_at (Sim.now t.sim)
    | Error _ -> t.metrics.failures <- t.metrics.failures + 1);
    p.callback result
  end

let arm_hedge t p delay =
  ignore
    (Sim.schedule t.sim ~delay (fun () ->
         if (not p.done_) && Hashtbl.mem t.pendings p.req then
           if issue_next t p then t.metrics.hedges <- t.metrics.hedges + 1))

let read t ~pg ~candidates ~block ~as_of ~epochs ~callback =
  t.metrics.reads <- t.metrics.reads + 1;
  let req = t.next_req in
  t.next_req <- req + 1;
  let ordered = order_candidates t candidates in
  let p =
    {
      req;
      pg;
      block;
      as_of;
      epochs;
      callback;
      started_at = Sim.now t.sim;
      issued_at = [];
      untried = ordered;
      in_flight = 0;
      needed = 1;
      done_ = false;
    }
  in
  if ordered = [] then callback (Error "no candidate segments hold this block")
  else begin
    Hashtbl.add t.pendings req p;
    match t.strategy with
    | Direct_tracked { hedge_after; explore_probability } ->
      ignore (issue_next t p : bool);
      (* Occasional parallel probe keeps the latency table fresh (§3.1). *)
      if
        explore_probability > 0.
        && Rng.bernoulli t.rng explore_probability
        && p.untried <> []
      then begin
        t.metrics.explores <- t.metrics.explores + 1;
        ignore (issue_next t p : bool)
      end;
      (match hedge_after with
      | Some delay -> arm_hedge t p delay
      | None -> ())
    | Quorum_read { read_threshold } ->
      p.needed <- read_threshold;
      let issued = ref 0 in
      while !issued < read_threshold && issue_next t p do
        incr issued
      done;
      if !issued < read_threshold then begin
        Hashtbl.remove t.pendings req;
        p.done_ <- true;
        callback (Error "not enough candidates for a read quorum")
      end
  end

let on_reply t ~req ~seg ~from ~result =
  match Hashtbl.find_opt t.pendings req with
  | None -> () (* hedged duplicate after completion, or dropped on crash *)
  | Some p -> (
    p.in_flight <- p.in_flight - 1;
    match result with
    | Ok img ->
      (* Attribute service time from the instant *this* segment was asked,
         not from the start of the whole (possibly hedged) read. *)
      let issued =
        match List.assoc_opt seg p.issued_at with
        | Some at -> at
        | None -> p.started_at
      in
      observe t from
        (float_of_int (Time_ns.diff (Sim.now t.sim) issued));
      p.needed <- p.needed - 1;
      if p.needed <= 0 then finish t p (Ok img)
    | Error err ->
      t.metrics.retries <- t.metrics.retries + 1;
      if (not (issue_next t p)) && p.in_flight <= 0 then
        finish t p
          (Error (Format.asprintf "all candidates failed: %a" Protocol.pp_read_error err)))

let metrics t = t.metrics
let outstanding t = Hashtbl.length t.pendings
let drop_all t = Hashtbl.reset t.pendings
