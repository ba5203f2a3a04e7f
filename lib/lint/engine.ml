(* The lint engine: find the sources under the roots, load their .cmt
   trees, summarize, run every rule, and return sorted findings. *)

let skip_dirs = [ "_build"; ".git"; "fixtures" ]

let files_under roots =
  let acc = ref [] in
  let rec walk dir =
    match Sys.readdir dir with
    | exception Sys_error _ -> ()
    | entries ->
      Array.sort String.compare entries;
      Array.iter
        (fun entry ->
          let path = Filename.concat dir entry in
          if Sys.is_directory path then begin
            (* Dot-directories hold build artefacts ([.simcore.objs]), never
               sources. *)
            if not (List.mem entry skip_dirs || entry.[0] = '.') then walk path
          end
          else if
            String.ends_with ~suffix:".ml" path
            || String.ends_with ~suffix:".mli" path
          then acc := path :: !acc)
        entries
  in
  List.iter (fun root -> if Sys.file_exists root then walk root) roots;
  List.sort String.compare !acc

(* From the repo root a source root's cmts live in the build context
   ([_build/default/lib]); inside the build context (where the @lint
   action runs) or a test directory they sit under the root itself. *)
let cmt_root root =
  let built = Filename.concat "_build/default" root in
  if Filename.is_relative root && Sys.file_exists built then built else root

let sources roots = List.map Typed_loader.logical_path (files_under roots)
let units roots = Typed_loader.load_tree ~roots:(List.map cmt_root roots)

let lint_units ?(config = Typed_rules.default) ~sources units =
  let summaries = List.map Typed_summary.summarize units in
  List.sort_uniq Finding.compare (Typed_rules.run config ~sources summaries)
