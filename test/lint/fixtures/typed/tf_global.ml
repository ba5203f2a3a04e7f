(* Sim-state purity fixtures: [naked] and [covered] are top-level mutable
   state without an annotation (the two expected findings) — a reset
   function does not cover [covered]; [blessed] carries [@@sim_global]. *)

let naked : (int, int) Hashtbl.t = Hashtbl.create 8
let covered : (int, int) Hashtbl.t = Hashtbl.create 8
let blessed = ref 0 [@@sim_global]
let reset () = Hashtbl.reset covered
let bump k = Hashtbl.replace naked k (k + 1)
let peek () = !blessed
