type t =
  | Atom of { threshold : int; members : Member_id.Set.t }
  | All of t list
  | Any of t list

let k_of k members =
  if k < 0 then invalid_arg "Quorum_set.k_of: negative threshold";
  let set = Member_id.set_of_list members in
  if Member_id.Set.cardinal set <> List.length members then
    invalid_arg "Quorum_set.k_of: duplicate members";
  if k > Member_id.Set.cardinal set then
    invalid_arg "Quorum_set.k_of: threshold exceeds member count";
  Atom { threshold = k; members = set }

let rec equal a b =
  match (a, b) with
  | Atom { threshold = ka; members = ma }, Atom { threshold = kb; members = mb }
    ->
    Int.equal ka kb && Member_id.Set.equal ma mb
  | All xs, All ys | Any xs, Any ys -> List.equal equal xs ys
  | (Atom _ | All _ | Any _), _ -> false

let all ts = All ts
let any ts = Any ts

let rec members = function
  | Atom { members = m; _ } -> m
  | All ts | Any ts ->
    List.fold_left
      (fun acc t -> Member_id.Set.union acc (members t))
      Member_id.Set.empty ts

(* ---- member-index masks ---- *)

(* Kernighan's loop: one iteration per set bit, and masks here hold at most
   [max_members] bits.  Top-level recursion, not a local closure: this and
   [position] run on every write ack. *)
let rec count_bits acc v =
  if v = 0 then acc else count_bits (acc + 1) (v land (v - 1))

let popcount v = count_bits 0 v

(* Same shape as [t], with each atom's member set folded into a mask and
   operand lists into arrays, so evaluation walks it without allocating. *)
type node =
  | Bits of { threshold : int; mask : int }
  | Conj of node array
  | Disj of node array

type compiled = { index : Member_id.t array; root : node }

(* One bit per member, below OCaml's 63-bit int sign bit. *)
let max_members = 62

let rec find_from index m i =
  if i >= Array.length index then -1
  else if Member_id.equal index.(i) m then i
  else find_from index m (i + 1)

let find_position index m = find_from index m 0

let compile ?index t =
  let index =
    match index with
    | Some a -> Array.copy a
    | None -> Array.of_list (Member_id.Set.elements (members t))
  in
  if Array.length index > max_members then
    invalid_arg "Quorum_set.compile: more than 62 members";
  Array.iteri
    (fun i m ->
      if find_position index m <> i then
        invalid_arg "Quorum_set.compile: duplicate member in index")
    index;
  let bit m =
    match find_position index m with
    | -1 -> invalid_arg "Quorum_set.compile: formula member missing from index"
    | i -> 1 lsl i
  in
  let rec go = function
    | Atom { threshold; members } ->
      Bits
        {
          threshold;
          mask = Member_id.Set.fold (fun m acc -> acc lor bit m) members 0;
        }
    | All ts -> Conj (Array.of_list (List.map go ts))
    | Any ts -> Disj (Array.of_list (List.map go ts))
  in
  { index; root = go t }

let size c = Array.length c.index
let member c i = c.index.(i)
let position c m = find_position c.index m

let bit c m =
  match find_position c.index m with -1 -> 0 | i -> 1 lsl i

let full_mask c = (1 lsl Array.length c.index) - 1

let mask_of_set c set =
  Member_id.Set.fold (fun m acc -> acc lor bit c m) set 0

let rec eval node mask =
  match node with
  | Bits { threshold; mask = atom } -> popcount (mask land atom) >= threshold
  | Conj ns -> eval_all ns mask 0
  | Disj ns -> eval_any ns mask 0

and eval_all ns mask i =
  i >= Array.length ns || (eval ns.(i) mask && eval_all ns mask (i + 1))

and eval_any ns mask i =
  i < Array.length ns && (eval ns.(i) mask || eval_any ns mask (i + 1))

let satisfied_mask c mask = eval c.root mask

(* ---- properties, all on the compiled form ---- *)

let satisfied t responsive =
  let c = compile t in
  satisfied_mask c (mask_of_set c responsive)

(* Exhaustive checks visit every subset of the index. *)
let max_enumerated = 22

let enumerable c =
  if size c > max_enumerated then
    invalid_arg "Quorum_set: universe too large for enumeration"

(* [f] holds for every subset mask of [c]'s index. *)
let for_all_masks c f =
  enumerable c;
  let full = full_mask c in
  let rec go s = s > full || (f s && go (s + 1)) in
  go 0

let min_cardinality t =
  let c = compile t in
  enumerable c;
  let n = size c in
  let best = ref (n + 1) in
  for s = 0 to full_mask c do
    if satisfied_mask c s then best := min !best (popcount s)
  done;
  if !best > n then max_int else !best

(* Monotone-formula overlap: read and write quorums always intersect iff no
   subset S satisfies [read] while its complement satisfies [write]. *)
let overlaps ~read ~write =
  let index =
    Array.of_list
      (Member_id.Set.elements (Member_id.Set.union (members read) (members write)))
  in
  let r = compile ~index read and w = compile ~index write in
  let full = full_mask r in
  for_all_masks r (fun s ->
      not (satisfied_mask r s && satisfied_mask w (full land lnot s)))

let self_overlapping t =
  let c = compile t in
  let full = full_mask c in
  for_all_masks c (fun s ->
      not (satisfied_mask c s && satisfied_mask c (full land lnot s)))

let rec pp fmt = function
  | Atom { threshold; members } ->
    Format.fprintf fmt "%d/%d of %a" threshold
      (Member_id.Set.cardinal members)
      Member_id.pp_set members
  | All ts ->
    Format.fprintf fmt "(%a)"
      (Format.pp_print_list
         ~pp_sep:(fun fmt () -> Format.pp_print_string fmt " AND ")
         pp)
      ts
  | Any ts ->
    Format.fprintf fmt "(%a)"
      (Format.pp_print_list
         ~pp_sep:(fun fmt () -> Format.pp_print_string fmt " OR ")
         pp)
      ts

module Rule = struct
  type quorum = t

  type t = { read : quorum; write : quorum }

  let make ~read ~write =
    if not (overlaps ~read ~write) then
      Error "read and write quorums do not always overlap (rule 1 of §2.1)"
    else if not (self_overlapping write) then
      Error "two write quorums can be disjoint (rule 2 of §2.1)"
    else Ok { read; write }

  let make_exn ~read ~write =
    match make ~read ~write with
    | Ok t -> t
    | Error msg -> invalid_arg ("Quorum_set.Rule.make_exn: " ^ msg)

  let members t = Member_id.Set.union (members t.read) (members t.write)

  let pp fmt t =
    Format.fprintf fmt "read: %a; write: %a" pp t.read pp t.write
end
