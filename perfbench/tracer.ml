(* Traced-run accounting, installed from outside the program through two
   public hooks: [Sim.set_probe] (one wall-clock span per dispatched event)
   and [Net.set_recorder] (the message phases).  Together with the library's
   own [Perf.Probe] spans and the client-call spans the generator opens
   around its [Database] calls, this gives per-layer self times:

     sim event  >  net delivery  >  consistency advance
                                 >  client calls made from a delivery
                >  storage apply (always a disk-completion event)
                >  client calls made from an arrival event

   Each dispatched event is attributed to the [Protocol.describe] kind it
   delivered (or dropped at delivery time), or to [timer] when it delivered
   nothing.  None of this touches simulated state: the hooks only read the
   clock and count, so a traced run's simulated metrics must equal the
   untraced run's exactly (checked by the benchmark). *)

module Net = Simnet.Net
module Probe = Perf.Probe

let kinds = Array.of_list Recorder.Event.all_msg_kinds
let n_kinds = Array.length kinds

let kind_index k =
  let rec go i = if kinds.(i) = k then i else go (i + 1) in
  go 0

let timer = n_kinds (* event slot for events that delivered no message *)

type call = Put | Get | Commit

let call_index = function Put -> 0 | Get -> 1 | Commit -> 2
let call_names = [| "put"; "get"; "commit" |]

type probe_stat = { p_calls : int; p_wall_ns : int; p_minor : int }

(* Cumulative counters; a metric over an interval is the difference of two
   snapshots. *)
type counters = {
  event_ns : int array;  (** per kind, plus [timer] *)
  event_count : int array;
  sent : int array;  (** messages sent per kind *)
  call_ns : int array;  (** client-call self time per {!call} *)
  call_count : int array;
  client_in_timer_ns : int;
  client_in_delivery_ns : int;
  delivery : probe_stat;
  apply : probe_stat;
  advance : probe_stat;
}

type t = {
  event_ns : int array;
  event_count : int array;
  sent : int array;
  call_ns : int array;
  call_count : int array;
  mutable client_in_timer_ns : int;
  mutable client_in_delivery_ns : int;
  (* current event *)
  mutable kind : int;
  mutable just_sent : bool;
  mutable ev_start : int;
  mutable ev_client_ns : int;
  (* open client spans: a get served from cache can complete a transaction
     and call [commit] from inside its callback, so spans nest *)
  stack_call : int array;
  stack_seg_start : int array;
  mutable depth : int;
}

let create () =
  {
    event_ns = Array.make (n_kinds + 1) 0;
    event_count = Array.make (n_kinds + 1) 0;
    sent = Array.make n_kinds 0;
    call_ns = Array.make 3 0;
    call_count = Array.make 3 0;
    client_in_timer_ns = 0;
    client_in_delivery_ns = 0;
    kind = timer;
    just_sent = false;
    ev_start = 0;
    ev_client_ns = 0;
    stack_call = Array.make 16 0;
    stack_seg_start = Array.make 16 0;
    depth = 0;
  }

let on_start t () =
  t.kind <- timer;
  t.just_sent <- false;
  t.ev_client_ns <- 0;
  t.ev_start <- Perf.Clock.now_ns ()

let on_stop t () =
  let dt = Perf.Clock.now_ns () - t.ev_start in
  t.event_ns.(t.kind) <- t.event_ns.(t.kind) + dt;
  t.event_count.(t.kind) <- t.event_count.(t.kind) + 1;
  if t.kind = timer then t.client_in_timer_ns <- t.client_in_timer_ns + t.ev_client_ns
  else t.client_in_delivery_ns <- t.client_in_delivery_ns + t.ev_client_ns

(* A drop right after a [Sent] is a send-time drop inside some other event;
   any other drop, like a delivery, is the first phase of the event that
   dispatched the message. *)
let on_phase t phase ~src:_ ~dst:_ msg =
  let k = kind_index (Storage.Protocol.describe msg).Storage.Protocol.kind in
  match phase with
  | Net.Sent ->
    t.sent.(k) <- t.sent.(k) + 1;
    t.just_sent <- true
  | Net.Delivered ->
    t.kind <- k;
    t.just_sent <- false
  | Net.Dropped _ ->
    if not t.just_sent then t.kind <- k;
    t.just_sent <- false

let install t cluster =
  Probe.reset ();
  Probe.enable ();
  Simcore.Sim.set_probe (Harness.Cluster.sim cluster)
    (Some { Simcore.Sim.on_start = on_start t; on_stop = on_stop t });
  (* Replaces the cluster's flight-recorder hook, which only feeds the
     recorder rings and is inert while they are disabled. *)
  Net.set_recorder (Harness.Cluster.net cluster) (Some (on_phase t))

let uninstall cluster =
  Probe.disable ();
  Simcore.Sim.set_probe (Harness.Cluster.sim cluster) None;
  Net.set_recorder (Harness.Cluster.net cluster) None

let charge t now =
  let top = t.depth - 1 in
  let c = t.stack_call.(top) in
  let dt = now - t.stack_seg_start.(top) in
  t.call_ns.(c) <- t.call_ns.(c) + dt;
  t.ev_client_ns <- t.ev_client_ns + dt

let enter t call =
  let now = Perf.Clock.now_ns () in
  if t.depth > 0 then charge t now;
  t.stack_call.(t.depth) <- call_index call;
  t.stack_seg_start.(t.depth) <- now;
  t.depth <- t.depth + 1

let leave t =
  let now = Perf.Clock.now_ns () in
  charge t now;
  let c = t.stack_call.(t.depth - 1) in
  t.call_count.(c) <- t.call_count.(c) + 1;
  t.depth <- t.depth - 1;
  if t.depth > 0 then t.stack_seg_start.(t.depth - 1) <- now

let probe_stat sub =
  let s = Probe.stat sub in
  { p_calls = s.Probe.calls; p_wall_ns = s.Probe.wall_ns; p_minor = int_of_float s.Probe.minor_words }

let snapshot (t : t) : counters =
  {
    event_ns = Array.copy t.event_ns;
    event_count = Array.copy t.event_count;
    sent = Array.copy t.sent;
    call_ns = Array.copy t.call_ns;
    call_count = Array.copy t.call_count;
    client_in_timer_ns = t.client_in_timer_ns;
    client_in_delivery_ns = t.client_in_delivery_ns;
    delivery = probe_stat Probe.Net_delivery;
    apply = probe_stat Probe.Storage_apply;
    advance = probe_stat Probe.Consistency_advance;
  }

(* [combine ( - ) a b] is the interval from snapshot [a] to [b];
   [combine ( + )] pools intervals of several rounds. *)
let combine op (a : counters) (b : counters) : counters =
  let arr x y = Array.mapi (fun i v -> op v x.(i)) y in
  let probe x y =
    {
      p_calls = op y.p_calls x.p_calls;
      p_wall_ns = op y.p_wall_ns x.p_wall_ns;
      p_minor = op y.p_minor x.p_minor;
    }
  in
  {
    event_ns = arr a.event_ns b.event_ns;
    event_count = arr a.event_count b.event_count;
    sent = arr a.sent b.sent;
    call_ns = arr a.call_ns b.call_ns;
    call_count = arr a.call_count b.call_count;
    client_in_timer_ns = op b.client_in_timer_ns a.client_in_timer_ns;
    client_in_delivery_ns = op b.client_in_delivery_ns a.client_in_delivery_ns;
    delivery = probe a.delivery b.delivery;
    apply = probe a.apply b.apply;
    advance = probe a.advance b.advance;
  }

let diff = combine ( - )
let add = combine ( + )

let per num den = if den = 0 then 0. else float_of_int num /. float_of_int den
let sum = Array.fold_left ( + ) 0
let kind_slot name = kind_index (Option.get (Recorder.Event.msg_kind_of_name name))

let per_event (c : counters) name =
  let k = kind_slot name in
  per c.event_ns.(k) c.event_count.(k)

(* Self times (ns per call) of one interval, under the nesting described at
   the top of this file. *)
let self_times (c : counters) =
  let events = sum c.event_ns in
  [
    ( "simcore.dispatch_self_ns",
      per
        (events - c.delivery.p_wall_ns - c.apply.p_wall_ns - c.client_in_timer_ns)
        (sum c.event_count) );
    ( "simcore.timer_self_ns",
      per
        (c.event_ns.(timer) - c.apply.p_wall_ns - c.client_in_timer_ns)
        c.event_count.(timer) );
    ( "simnet.delivery_self_ns",
      per
        (c.delivery.p_wall_ns - c.advance.p_wall_ns - c.client_in_delivery_ns)
        c.delivery.p_calls );
    ("storage.apply_self_ns", per c.apply.p_wall_ns c.apply.p_calls);
    ("core.consistency.ack_self_ns", per c.advance.p_wall_ns c.advance.p_calls);
    ("storage.write_batch_ns", per_event c "write_batch");
    ("storage.pgmrpl_update_ns", per_event c "pgmrpl_update");
    ("storage.read_block_ns", per_event c "read_block");
    ("core.write_ack_ns", per_event c "write_ack");
  ]
