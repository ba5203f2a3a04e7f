module Ewma = struct
  type t = { alpha : float; mutable v : float; mutable n : int }

  let create ~alpha ~init =
    if alpha <= 0. || alpha > 1. then invalid_arg "Ewma.create: alpha";
    { alpha; v = init; n = 0 }

  let observe t x =
    t.v <- (t.alpha *. x) +. ((1. -. t.alpha) *. t.v);
    t.n <- t.n + 1

  let value t = t.v
  let observations t = t.n
end
