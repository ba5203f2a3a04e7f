(** Running statistics kept by the simulated components. *)

(** Exponentially weighted moving average, used by the read path's
    per-segment latency tracker (§3.1 of the paper). *)
module Ewma : sig
  type t

  val create : alpha:float -> init:float -> t
  (** [alpha] in (0,1]: weight of the newest observation. *)

  val observe : t -> float -> unit
  val value : t -> float
  val observations : t -> int
end
