(** Per-node event rings — the flight recorder proper.

    One value per cluster ({!Harness.Cluster} creates it and hands it to
    the network hook, the writer and every storage node).  Recording draws
    no randomness and schedules nothing, so switching it on cannot perturb
    a deterministic run.  Off (the default) every {!note} is a no-op and
    no ring buffer exists; hook points gate on {!enabled} so they build no
    event either, which is how the [smoke --json] byte gate stays
    untouched.

    Timestamps are [Simcore.Time_ns.t] values, i.e. plain nanosecond
    ints, stored verbatim. *)

val min_depth : int
(** Smallest accepted ring capacity (16). *)

val max_depth : int
(** Largest accepted ring capacity (65536) — bounds swarm memory even if
    every scenario asks for the ceiling. *)

val default_depth : int
(** Capacity used when no [recorder_depth] directive is given (512). *)

type t

val create : unit -> t
(** A recorder with recording off. *)

val enable : t -> depth:int -> unit
(** Switch recording on: every registered node, and every node that
    records later, gets a ring of [depth] events.  No-op once on.  Raises
    [Invalid_argument] outside [[min_depth, max_depth]]. *)

val enabled : t -> bool

val register : t -> node:int -> role:Event.role -> unit
(** Name [node]'s role (first registration wins — a restart does not wipe
    the node's history).  Roles are kept while recording is off, so
    switching it on later still labels every node.  Unregistered nodes
    that record anyway get role {!Event.Unknown}. *)

val note : t -> node:int -> at:int -> Event.t -> unit
(** Append an event at sim time [at] (nanoseconds).  No-op while off;
    once a ring is full the oldest event is evicted. *)

type node_ring = {
  node : int;
  role : Event.role;
  depth : int;
  evicted : int;  (** events lost to ring wrap-around *)
  events : (int * Event.t) list;  (** (sim ns, event), oldest first *)
}

type snapshot = { nodes : node_ring list (* sorted by node id *) }

val snapshot : t -> snapshot
(** Immutable copy of every ring, nodes sorted by id — the input to
    [Correlate] and [Artifact].  Empty while recording is off. *)
