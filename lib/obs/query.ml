(* Offline journal queries: one streaming pass of filter -> group -> row
   aggregation, one quantile sketch per group cell. *)

type filter = {
  kinds : Trace.kind list;
  machines : string list;
  sandbox : int option;
  t0 : int option;
  t1 : int option;
}

let no_filter = { kinds = []; machines = []; sandbox = None; t0 = None; t1 = None }

type group = By_kind | By_machine | By_phase | By_none

type row = {
  label : string;
  count : int;
  sum : int;
  min : int;
  max : int;
  p50 : int;
  p95 : int;
  p99 : int;
}

let row_of label d =
  {
    label;
    count = Sketch.count d;
    sum = Sketch.sum d;
    min = Sketch.min_value d;
    max = Sketch.max_value d;
    p50 = Sketch.quantile d ~p:0.5;
    p95 = Sketch.quantile d ~p:0.95;
    p99 = Sketch.quantile d ~p:0.99;
  }

let max_streams = 256

let run_pass ~filter ~group ~stream_sel ~path =
  let kind_mask =
    match filter.kinds with
    | [] -> None
    | ks ->
        let m = Array.make Trace.n_kinds false in
        List.iter (fun k -> m.(Trace.index k) <- true) ks;
        Some m
  in
  let sandbox_open = Array.make max_streams false in
  (* [span_open.(stream).(phase)]: stack of open-span begin timestamps. *)
  let span_open = Array.make max_streams [||] in
  let span_stack stream =
    if Array.length span_open.(stream) = 0 then
      span_open.(stream) <- Array.make Trace.n_phases [];
    span_open.(stream)
  in
  let cells : (string, Sketch.t) Hashtbl.t = Hashtbl.create 64 in
  let cell label =
    match Hashtbl.find_opt cells label with
    | Some d -> d
    | None ->
        let d = Sketch.create () in
        Hashtbl.add cells label d;
        d
  in
  let result =
    Journal.fold ~path ~init:() (fun () (e : Journal.event) ->
        let s = e.stream land (max_streams - 1) in
        (* Sandbox lifetime windows are tracked pre-filter so the window
           state doesn't depend on which kinds are selected. *)
        (match filter.sandbox, e.kind with
        | Some id, Trace.Sandbox_create when e.arg = id -> sandbox_open.(s) <- true
        | Some id, (Trace.Sandbox_exit | Trace.Sandbox_kill) when e.arg = id ->
            sandbox_open.(s) <- false
        | _ -> ());
        let selected =
          (match stream_sel with None -> true | Some sel -> sel.(s))
          && (match filter.sandbox with
             | None -> true
             | Some id -> (
                 sandbox_open.(s)
                 ||
                 match e.kind with
                 | Trace.Sandbox_create | Trace.Sandbox_exit | Trace.Sandbox_kill
                   ->
                     e.arg = id
                 | _ -> false))
          && (match filter.t0 with None -> true | Some t -> e.ts >= t)
          && (match filter.t1 with None -> true | Some t -> e.ts <= t)
          && match kind_mask with
             | None -> true
             | Some m -> m.(Trace.index e.kind)
        in
        if selected then
          match group with
          | By_kind -> Sketch.record (cell (Trace.name e.kind)) e.arg
          | By_machine -> Sketch.record (cell (Printf.sprintf "#%d" s)) e.arg
          | By_none -> Sketch.record (cell "all") e.arg
          | By_phase -> (
              match e.kind with
              | Trace.Span_begin p ->
                  let st = span_stack s in
                  let i = Trace.phase_index p in
                  st.(i) <- e.ts :: st.(i)
              | Trace.Span_end p -> (
                  let st = span_stack s in
                  let i = Trace.phase_index p in
                  match st.(i) with
                  | [] -> ()
                  | t0 :: rest ->
                      st.(i) <- rest;
                      Sketch.record (cell (Trace.phase_name p)) (e.ts - t0))
              | _ -> ()))
  in
  match result with
  | Error _ as e -> e
  | Ok ((), info) ->
      let rows =
        Hashtbl.fold (fun label d acc -> row_of label d :: acc) cells []
      in
      (* By_machine cells are keyed by stream id during the pass (names may
         not be interned yet when a stream first appears); resolve now. *)
      let rows =
        match group with
        | By_machine ->
            List.map
              (fun r ->
                let id =
                  int_of_string (String.sub r.label 1 (String.length r.label - 1))
                in
                { r with label = Journal.machine_name info id })
              rows
        | _ -> rows
      in
      let rows =
        List.sort
          (fun (a : row) (b : row) ->
            match Stdlib.compare b.count a.count with
            | 0 -> Stdlib.compare a.label b.label
            | c -> c)
          rows
      in
      Ok (rows, info)

let run ?(filter = no_filter) ?(group = By_kind) ~path () =
  if filter.machines = [] then run_pass ~filter ~group ~stream_sel:None ~path
  else
    (* Machine filtering is by name, and names live in the journal's intern
       table — a cheap summary pass resolves them to a stream mask first. *)
    match Journal.read_info ~path with
    | Error _ as e -> e
    | Ok info ->
        let sel = Array.make max_streams false in
        List.iter
          (fun (id, name) ->
            if List.mem name filter.machines && id < max_streams then
              sel.(id) <- true)
          info.Journal.machines;
        run_pass ~filter ~group ~stream_sel:(Some sel) ~path

let render rows =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "%-20s %10s %14s %10s %10s %10s\n" "group" "count" "sum"
       "p50" "p95" "p99");
  List.iter
    (fun r ->
      Buffer.add_string b
        (Printf.sprintf "%-20s %10d %14d %10d %10d %10d\n" r.label r.count
           r.sum r.p50 r.p95 r.p99))
    rows;
  Buffer.contents b
