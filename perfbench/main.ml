(* perfbench: the repository benchmark.

     main.exe --workload fig9|serve|memshare --seed N --seconds S --trace 0|1
              [--out DIR]

   Prints a human-readable report, then one JSON result line: with
   --trace 0 the end-to-end metrics, with --trace 1 the per-layer ones.
   Exits 1 when any operation or check failed, 2 on a usage error. *)

let usage () =
  prerr_endline
    "usage: main.exe --workload fig9|serve|memshare --seed N --seconds S --trace 0|1 [--out DIR]";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | [] -> acc
    | key :: value :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
        parse ((String.sub key 2 (String.length key - 2), value) :: acc) rest
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some v -> v | None -> usage () in
  List.iter
    (fun (k, _) -> if not (List.mem k [ "workload"; "seed"; "seconds"; "trace"; "out" ]) then usage ())
    opts;
  let workload =
    match List.assoc_opt (get "workload") Perfbench.Bench.workloads with
    | Some w -> w
    | None -> usage ()
  in
  let seconds = match float_of_string_opt (get "seconds") with Some s when s > 0.0 -> s | _ -> usage () in
  let trace = match int "trace" with 0 -> false | 1 -> true | _ -> usage () in
  let out_dir = match List.assoc_opt "out" opts with Some d -> d | None -> "perfbench/out" in
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let cfg = { Perfbench.Bench.workload; seed = int "seed"; seconds; trace; out_dir } in
  exit (Perfbench.Bench.main cfg)
