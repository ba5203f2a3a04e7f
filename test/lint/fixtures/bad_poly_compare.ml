(* Fixture: polymorphic comparison operators on protocol-typed operands. *)
let is_start l = l = Lsn.none
let stale e = e <> Epoch.initial
let third_wins b = compare (Txn_id.of_int 3) b > 0
let newest a = max a (Lsn.of_int 9)
let oldest a b = min (a : Lsn.t) b
let same s = s = Member_id.Set.empty
