(* Metrics registry: renders counter / sketch / attribution sinks as
   Prometheus text exposition (format 0.0.4) or JSON. Purely a formatter —
   the registry holds references to sinks owned elsewhere and reads them at
   render time, so registering costs nothing during a run. *)

type source = {
  label : string;
  counter : Counter.t option;
  family : Sketch.Family.t option;
  attrib : Attrib.t option;
}

type t = { namespace : string; mutable sources : source list (* reversed *) }

let create ?(namespace = "erebor") () = { namespace; sources = [] }

let add t ~label ?counter ?family ?attrib () =
  t.sources <- { label; counter; family; attrib } :: t.sources

let sources t = List.rev t.sources

(* Escaping per the exposition format: label values escape backslash,
   double-quote and newline; HELP text escapes backslash and newline. *)
let escape_label s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Sketches are exposed re-bucketed onto log2 bands, so the cumulative
   [le] lines read like a latency histogram: band 0 holds 0, band b >= 1
   holds [2^(b-1), 2^b - 1]. A sketch bucket lands in the band of its
   midpoint estimate. *)
let n_bands = 63

let band_of v =
  let b = ref 0 and v = ref (max v 0) in
  while !v > 0 do
    incr b;
    v := !v lsr 1
  done;
  !b

let band_lo b = if b <= 1 then b else 1 lsl (b - 1)
let band_hi b = if b = 0 then 0 else (1 lsl b) - 1

let band_counts sk =
  let bands = Array.make n_bands 0 in
  bands.(0) <- Sketch.zeros sk;
  List.iter
    (fun (i, c) ->
      let b = band_of (Sketch.estimate sk i) in
      bands.(b) <- bands.(b) + c)
    (Sketch.buckets sk);
  bands

let unattributed_domain = "none"
let unattributed_phase = "(outside)"

let to_prometheus t =
  let buf = Buffer.create 4096 in
  let ns = t.namespace in
  let srcs = sources t in
  let header name typ help =
    Printf.bprintf buf "# HELP %s_%s %s\n# TYPE %s_%s %s\n" ns name help ns
      name typ
  in
  let family name typ help render =
    let started = ref false in
    List.iter
      (fun s ->
        render s (fun line ->
            if not !started then begin
              started := true;
              header name typ help
            end;
            Buffer.add_string buf line))
      srcs
  in
  family "events_total" "counter" "Events observed per trace kind."
    (fun s out ->
      match s.counter with
      | None -> ()
      | Some c ->
          List.iter
            (fun kind ->
              let n = Counter.count c kind in
              if n > 0 then
                out
                  (Printf.sprintf "%s_events_total{source=\"%s\",kind=\"%s\"} %d\n"
                     ns (escape_label s.label)
                     (escape_label (Trace.name kind))
                     n))
            Trace.all);
  family "event_arg_total" "counter"
    "Sum of event arguments per kind (cycles, bytes or ids)." (fun s out ->
      match s.counter with
      | None -> ()
      | Some c ->
          List.iter
            (fun kind ->
              if Counter.count c kind > 0 then
                out
                  (Printf.sprintf
                     "%s_event_arg_total{source=\"%s\",kind=\"%s\"} %d\n" ns
                     (escape_label s.label)
                     (escape_label (Trace.name kind))
                     (Counter.arg_sum c kind)))
            Trace.all);
  family "cycles_attributed_total" "counter"
    "Virtual cycles attributed per (privilege domain, phase)." (fun s out ->
      match s.attrib with
      | None -> ()
      | Some a ->
          let row domain phase cycles =
            out
              (Printf.sprintf
                 "%s_cycles_attributed_total{source=\"%s\",domain=\"%s\",phase=\"%s\"} %d\n"
                 ns (escape_label s.label) (escape_label domain)
                 (escape_label phase) cycles)
          in
          let u = Attrib.unattributed a in
          if u > 0 then row unattributed_domain unattributed_phase u;
          List.iter
            (fun (d, p, cycles) ->
              row (Trace.domain_name d) (Trace.phase_name p) cycles)
            (Attrib.breakdown a));
  family "event_arg" "histogram"
    "Event-argument distribution per kind (log2 exposition bands)."
    (fun s out ->
      match s.family with
      | None -> ()
      | Some f ->
          List.iter
            (fun kind ->
              let sk = Sketch.Family.get f kind in
              let n = Sketch.count sk in
              if n > 0 then begin
                let labels =
                  Printf.sprintf "source=\"%s\",kind=\"%s\""
                    (escape_label s.label)
                    (escape_label (Trace.name kind))
                in
                let cum = ref 0 in
                Array.iteri
                  (fun b c ->
                    if c > 0 then begin
                      cum := !cum + c;
                      out
                        (Printf.sprintf "%s_event_arg_bucket{%s,le=\"%d\"} %d\n"
                           ns labels (band_hi b) !cum)
                    end)
                  (band_counts sk);
                out
                  (Printf.sprintf "%s_event_arg_bucket{%s,le=\"+Inf\"} %d\n" ns
                     labels n);
                out
                  (Printf.sprintf "%s_event_arg_sum{%s} %d\n" ns labels
                     (Sketch.sum sk));
                out (Printf.sprintf "%s_event_arg_count{%s} %d\n" ns labels n)
              end)
            Trace.all);
  (* OpenMetrics requires the exposition to end with an EOF marker. *)
  Buffer.add_string buf "# EOF\n";
  Buffer.contents buf

(* JSON rendering of the same data, one object per source. *)

let to_json t =
  let buf = Buffer.create 4096 in
  let comma first = if !first then first := false else Buffer.add_char buf ',' in
  Printf.bprintf buf "{\"namespace\":\"%s\",\"sources\":[" (Wire.escape_json t.namespace);
  let first_src = ref true in
  List.iter
    (fun s ->
      comma first_src;
      Printf.bprintf buf "{\"label\":\"%s\"" (Wire.escape_json s.label);
      (match s.counter with
      | None -> ()
      | Some c ->
          Buffer.add_string buf ",\"events\":[";
          let first = ref true in
          List.iter
            (fun kind ->
              let n = Counter.count c kind in
              if n > 0 then begin
                comma first;
                Printf.bprintf buf
                  "{\"kind\":\"%s\",\"count\":%d,\"arg_sum\":%d}"
                  (Wire.escape_json (Trace.name kind))
                  n (Counter.arg_sum c kind)
              end)
            Trace.all;
          Buffer.add_string buf "]");
      (match s.family with
      | None -> ()
      | Some f ->
          Buffer.add_string buf ",\"histograms\":[";
          let first = ref true in
          List.iter
            (fun kind ->
              let sk = Sketch.Family.get f kind in
              let n = Sketch.count sk in
              if n > 0 then begin
                comma first;
                Printf.bprintf buf
                  "{\"kind\":\"%s\",\"count\":%d,\"sum\":%d,\"max\":%d,\"p50\":%d,\"p95\":%d,\"p99\":%d,\"buckets\":["
                  (Wire.escape_json (Trace.name kind))
                  n (Sketch.sum sk) (Sketch.max_value sk)
                  (Sketch.quantile sk ~p:0.50)
                  (Sketch.quantile sk ~p:0.95)
                  (Sketch.quantile sk ~p:0.99);
                let first_b = ref true in
                Array.iteri
                  (fun b c ->
                    if c > 0 then begin
                      comma first_b;
                      Printf.bprintf buf "{\"lo\":%d,\"hi\":%d,\"count\":%d}"
                        (band_lo b) (band_hi b) c
                    end)
                  (band_counts sk);
                Buffer.add_string buf "]}"
              end)
            Trace.all;
          Buffer.add_string buf "]");
      (match s.attrib with
      | None -> ()
      | Some a ->
          Printf.bprintf buf
            ",\"attribution\":{\"total\":%d,\"unattributed\":%d,\"contexts\":["
            (Attrib.total a) (Attrib.unattributed a);
          let first = ref true in
          List.iter
            (fun (d, p, cycles) ->
              comma first;
              Printf.bprintf buf
                "{\"domain\":\"%s\",\"phase\":\"%s\",\"cycles\":%d}"
                (Trace.domain_name d)
                (Wire.escape_json (Trace.phase_name p))
                cycles)
            (Attrib.breakdown a);
          Buffer.add_string buf "]}");
      Buffer.add_string buf "}")
    (sources t);
  Buffer.add_string buf "]}\n";
  Buffer.contents buf
