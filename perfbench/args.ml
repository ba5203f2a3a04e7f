(* Command-line parsing.  Every malformed input comes back as [Error]; the
   parser never raises, so a bad invocation is a usage error (exit 2), not
   an uncaught exception. *)

type t = { workload : string; seed : int; seconds : int; trace : bool }

let usage =
  "usage: main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]\n\
  \  --workload  oltp_write | read_miss | fault_recovery\n\
  \  --seed      non-negative integer (default 1); derives every input\n\
  \  --seconds   1..600 (default 10): wall-clock budget of the timed runs\n\
  \  --trace     0 (default): untraced run, end-to-end metrics;\n\
  \              1: traced run too, per-layer metrics\n"

let int_in ~flag ~lo ~hi v =
  match int_of_string_opt v with
  | Some n when n >= lo && n <= hi -> Ok n
  | _ -> Error (Printf.sprintf "%s: expected an integer in [%d, %d], got %S" flag lo hi v)

let parse argv =
  let rec go acc = function
    | [] -> Ok acc
    | "--workload" :: v :: rest -> go { acc with workload = v } rest
    | "--seed" :: v :: rest ->
      Result.bind (int_in ~flag:"--seed" ~lo:0 ~hi:(1 lsl 40) v) (fun seed ->
          go { acc with seed } rest)
    | "--seconds" :: v :: rest ->
      Result.bind (int_in ~flag:"--seconds" ~lo:1 ~hi:600 v) (fun seconds ->
          go { acc with seconds } rest)
    | "--trace" :: v :: rest -> (
      match v with
      | "0" -> go { acc with trace = false } rest
      | "1" -> go { acc with trace = true } rest
      | _ -> Error (Printf.sprintf "--trace: expected 0 or 1, got %S" v))
    | [ flag ] -> Error (Printf.sprintf "%s: missing value" flag)
    | flag :: _ -> Error (Printf.sprintf "unknown argument %S" flag)
  in
  match go { workload = ""; seed = 1; seconds = 10; trace = false } argv with
  | Ok { workload = ""; _ } -> Error "--workload is required"
  | r -> r
