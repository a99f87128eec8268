(* Output: the human-readable report, the result line, and the serve
   session log. *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Every digit a double carries; JSON has no NaN or infinity, so callers
   must have rejected those already. *)
let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let result_line ~correct ~attempted ~failed metrics =
  let fields =
    List.map
      (fun (name, value, unit_) ->
        Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string name) (json_number value)
          (json_string unit_))
      metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed (String.concat ", " fields)

(* One JSON object per session of the first traced serve pass: its id,
   payload size, host time, self time per layer, and its lifecycle spans as
   [layer, depth, start, stop], in microseconds from the pass's first
   logged span. *)
let write_sessions ~path (rows : Work.session_row list) =
  let origin =
    List.fold_left
      (fun acc (r : Work.session_row) ->
        List.fold_left (fun acc (_, _, start, _) -> min acc start) acc r.spans)
      max_int rows
  in
  let us ns = float_of_int (ns - origin) /. 1e3 in
  let oc = open_out path in
  List.iter
    (fun (r : Work.session_row) ->
      let self =
        List.filter_map
          (fun l ->
            if r.self_ns.(l) = 0 then None
            else Some (Printf.sprintf "%s: %d" (json_string Layers.names.(l)) r.self_ns.(l)))
          (List.init Layers.count Fun.id)
      in
      let spans =
        List.map
          (fun (l, depth, start, stop) ->
            Printf.sprintf "[%s, %d, %.3f, %.3f]" (json_string Layers.names.(l)) depth (us start)
              (us stop))
          r.spans
      in
      Printf.fprintf oc
        "{\"session\": %d, \"payload_bytes\": %d, \"host_ns\": %d, \"self_ns\": {%s}, \"spans\": [%s]}\n"
        r.sid r.bytes r.host_ns (String.concat ", " self) (String.concat ", " spans))
    rows;
  close_out oc
