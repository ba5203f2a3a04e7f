(* Fixture: two sites only name and type resolution can see — a wall-clock
   read through [open Unix], and polymorphic [=] on a local binding of type
   Lsn.t with no Lsn in sight at the comparison. *)
open Unix

let now () = gettimeofday ()

let is_start l =
  let start = Lsn.none in
  l = start
