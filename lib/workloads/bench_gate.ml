(* The bench regression gate: re-run the calibrated anchors and diff them
   against a committed BENCH_sim.json baseline.

   The gate's contract mirrors how the numbers are produced. Anchor numbers
   (Table 3 transition costs, Table 4 privop costs, and — in full mode —
   the Fig. 9 overhead/rate columns at their reported precision) are
   deterministic functions of the simulator, so they must match EXACTLY;
   any drift means a semantic change to calibrated mechanics. Wall time and
   GC pressure are host-dependent, so they only gate within a generous
   tolerance — enough to catch an accidental 10x, never a noisy CI host.

   JSON comes from a small hand-rolled parser (the repo takes no external
   dependencies): objects, arrays, strings, numbers, booleans, null. *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  exception Error of string

  let parse s =
    let n = String.length s in
    let pos = ref 0 in
    let fail msg = raise (Error (Printf.sprintf "%s at offset %d" msg !pos)) in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
          advance ();
          skip_ws ()
      | _ -> ()
    in
    let expect c =
      match peek () with
      | Some d when d = c -> advance ()
      | _ -> fail (Printf.sprintf "expected '%c'" c)
    in
    let literal word value =
      if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
      then begin
        pos := !pos + String.length word;
        value
      end
      else fail ("expected " ^ word)
    in
    let parse_string () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec go () =
        if !pos >= n then fail "unterminated string";
        let c = s.[!pos] in
        advance ();
        if c = '"' then Buffer.contents buf
        else if c = '\\' then begin
          if !pos >= n then fail "unterminated escape";
          let e = s.[!pos] in
          advance ();
          (match e with
          | '"' -> Buffer.add_char buf '"'
          | '\\' -> Buffer.add_char buf '\\'
          | '/' -> Buffer.add_char buf '/'
          | 'n' -> Buffer.add_char buf '\n'
          | 't' -> Buffer.add_char buf '\t'
          | 'r' -> Buffer.add_char buf '\r'
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'u' ->
              if !pos + 4 > n then fail "truncated \\u escape";
              let code = int_of_string ("0x" ^ String.sub s !pos 4) in
              pos := !pos + 4;
              (* Latin-1 subset is enough for our own files. *)
              Buffer.add_char buf
                (if code < 256 then Char.chr code else '?')
          | _ -> fail "bad escape");
          go ()
        end
        else begin
          Buffer.add_char buf c;
          go ()
        end
      in
      go ()
    in
    let parse_number () =
      let start = !pos in
      let num_char c =
        match c with
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while !pos < n && num_char s.[!pos] do
        advance ()
      done;
      match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some f -> Num f
      | None -> fail "bad number"
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | None -> fail "unexpected end of input"
      | Some '"' -> Str (parse_string ())
      | Some '{' ->
          advance ();
          skip_ws ();
          if peek () = Some '}' then begin
            advance ();
            Obj []
          end
          else begin
            let rec members acc =
              skip_ws ();
              let key = parse_string () in
              skip_ws ();
              expect ':';
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  members ((key, v) :: acc)
              | Some '}' ->
                  advance ();
                  Obj (List.rev ((key, v) :: acc))
              | _ -> fail "expected ',' or '}'"
            in
            members []
          end
      | Some '[' ->
          advance ();
          skip_ws ();
          if peek () = Some ']' then begin
            advance ();
            Arr []
          end
          else begin
            let rec elements acc =
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  elements (v :: acc)
              | Some ']' ->
                  advance ();
                  Arr (List.rev (v :: acc))
              | _ -> fail "expected ',' or ']'"
            in
            elements []
          end
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some _ -> parse_number ()
    in
    match parse_value () with
    | v ->
        skip_ws ();
        if !pos <> n then Result.Error "trailing garbage after JSON value"
        else Result.Ok v
    | exception Error msg -> Result.Error msg

  let member key = function Obj kvs -> List.assoc_opt key kvs | _ -> None
  let mem_of key j = Option.bind j (member key)
  let to_float = function Some (Num f) -> Some f | _ -> None
  let to_str = function Some (Str s) -> Some s | _ -> None
  let to_arr = function Some (Arr l) -> l | _ -> []
end

type check = {
  name : string;
  ok : bool;
  detail : string;
  old_value : string option;
  new_value : string option;
}

type verdict = check list

(* Most checks are built through this helper so the old/new columns stay
   optional at the construction sites. *)
let chk ?old_value ?new_value name ok detail =
  { name; ok; detail; old_value; new_value }

let pass v = List.for_all (fun c -> c.ok) v
let failures v = List.filter (fun c -> not c.ok) v

let pp_verdict fmt v =
  List.iter
    (fun c ->
      Format.fprintf fmt "  [%s] %-24s %s@." (if c.ok then "ok" else "FAIL")
        c.name c.detail)
    v

(* A unified old/new table of every failing check, so one run is enough to
   triage a regression. Checks without a comparable pair (parse errors,
   coverage gaps) render "-" and keep their detail line. *)
let pp_mismatch_table fmt v =
  let fails = failures v in
  if fails <> [] then begin
    let cell = function Some s -> s | None -> "-" in
    let width title f =
      List.fold_left
        (fun w c -> max w (String.length (f c)))
        (String.length title) fails
    in
    let w_name = max 24 (width "check" (fun c -> c.name)) in
    let w_old = width "old (baseline)" (fun c -> cell c.old_value) in
    let w_new = width "new (regenerated)" (fun c -> cell c.new_value) in
    Format.fprintf fmt "  %-*s  %-*s  %s@." w_name "check" w_old
      "old (baseline)" "new (regenerated)";
    Format.fprintf fmt "  %s  %s  %s@." (String.make w_name '-')
      (String.make w_old '-') (String.make w_new '-');
    List.iter
      (fun c ->
        Format.fprintf fmt "  %-*s  %-*s  %s@." w_name c.name w_old
          (cell c.old_value) (cell c.new_value);
        if c.old_value = None && c.new_value = None then
          Format.fprintf fmt "  %-*s    %s@." w_name "" c.detail)
      fails
  end

(* One baseline field against its regenerated value [cur]: the baseline
   number is rendered with [render], the precision [cur] was printed at,
   and the two strings must be equal. *)
let field_check ?(source = "regenerated") ~render name row field cur =
  match Json.to_float (Json.member field row) with
  | None -> chk ~new_value:cur name false "missing in baseline"
  | Some base ->
      let old_value = render base in
      chk ~old_value ~new_value:cur name (old_value = cur)
        (if old_value = cur then cur
         else Printf.sprintf "baseline %s, %s %s" old_value source cur)

(* The baseline rows of one anchor family against the regenerated
   [current] rows (key -> rendered fields): one check per field, named
   [family/key.field], plus a coverage check that every regenerated row
   has a baseline row. *)
let rows_checks ~family ~key ~render ~current baseline_rows =
  let seen = ref [] in
  let row_checks =
    List.concat_map
      (fun row ->
        match key row with
        | None -> [ chk family false "baseline row without a key" ]
        | Some k -> (
            seen := k :: !seen;
            match List.assoc_opt k current with
            | None ->
                [
                  chk (family ^ "/" ^ k) false
                    "anchor present in baseline but not regenerated";
                ]
            | Some fields ->
                List.map
                  (fun (field, cur) ->
                    field_check ~render:(render field)
                      (Printf.sprintf "%s/%s.%s" family k field)
                      row field cur)
                  fields))
      baseline_rows
  in
  let coverage =
    match List.filter (fun (k, _) -> not (List.mem k !seen)) current with
    | [] ->
        chk (family ^ "/coverage") true
          (Printf.sprintf "%d anchors" (List.length current))
    | m ->
        chk (family ^ "/coverage") false
          ("regenerated anchors missing from baseline: "
          ^ String.concat ", " (List.map fst m))
  in
  row_checks @ [ coverage ]

let str_key field row = Json.to_str (Json.member field row)
let int_field _ f = string_of_int (int_of_float f)

let table_checks ~family ~key_field ~baseline current =
  rows_checks ~family ~key:(str_key key_field) ~render:int_field
    ~current:
      (List.map
         (fun (k, fields) ->
           (k, List.map (fun (f, v) -> (f, string_of_int v)) fields))
         current)
    (Json.to_arr (Json.member family baseline))

(* Fig. 9 rows are compared at the precision BENCH_sim.json prints them. *)
let fig9_field field v =
  Printf.sprintf (if field = "overhead_pct" then "%.4f" else "%.2f") v

(* The rows are regenerated on one domain: [Gc] counters are per domain in
   OCaml 5, so words a pool worker allocates would escape the GC budgets
   below. Fig. 9 rows do not depend on the pool width. *)
let fig9_checks ~baseline =
  let key row =
    match (str_key "program" row, str_key "setting" row) with
    | Some p, Some s -> Some (p ^ ":" ^ s)
    | _ -> None
  in
  rows_checks ~family:"fig9" ~key ~render:fig9_field
    ~current:
      (List.map
         (fun (r : Eval.program_row) ->
           ( r.Eval.program ^ ":" ^ Sim.Config.name r.Eval.setting,
             List.map
               (fun (f, v) -> (f, fig9_field f v))
               [
                 ("overhead_pct", r.Eval.overhead_pct);
                 ("pf_rate", r.Eval.pf_rate);
                 ("timer_rate", r.Eval.timer_rate);
                 ("ve_rate", r.Eval.ve_rate);
                 ("emc_rate", r.Eval.emc_rate);
               ] ))
         (Eval.fig9 ~jobs:1 ()))
    (Json.to_arr (Json.member "fig9" baseline))

(* A host-cost budget: [measured] must stay within [tolerance] times the
   baseline suite's figure [base]. *)
let budget_check name ~what ~render ~tolerance ~base measured =
  let budget = tolerance *. base in
  chk ~old_value:("budget " ^ render budget) ~new_value:(render measured) name
    (measured <= budget)
    (Printf.sprintf "%s %s, budget %s (%.1fx baseline suite)" what
       (render measured) (render budget) tolerance)

(* Backend pinning, row by row: the default install against an explicit
   PKS machine, on the cycles column [cycles] picks. *)
let pin_checks family ~key ~cycles default pks =
  List.map2
    (fun d p ->
      let dv = cycles d and pv = cycles p in
      chk ~old_value:(string_of_int dv) ~new_value:(string_of_int pv)
        (Printf.sprintf "backend/%s-pks/%s" family (key d))
        (dv = pv)
        (Printf.sprintf "default %d, explicit pks %d" dv pv))
    default pks

let check_json ?(fig9 = false) ?(wall_tolerance = 1.5)
    ?(gc_tolerance = 0.5) baseline =
  let cpu0 = Sys.time () in
  let minor0 = Gc.minor_words () in
  let major0 = (Gc.quick_stat ()).Gc.major_words in
  let schema =
    let want = "erebor-bench-sim/1" in
    match Json.to_str (Json.member "schema" baseline) with
    | Some s ->
        chk ~old_value:s ~new_value:want "schema" (s = want)
          (if s = want then want else "unknown schema " ^ s)
    | None -> chk ~new_value:want "schema" false "missing schema field"
  in
  let t3 =
    table_checks ~family:"table3" ~key_field:"transition" ~baseline
      (List.map
         (fun (r : Eval.transition_row) ->
           (r.Eval.transition, [ ("cycles", r.Eval.cycles) ]))
         (Eval.table3 ()))
  in
  let t4 =
    table_checks ~family:"table4" ~key_field:"op" ~baseline
      (List.map
         (fun (r : Eval.privop_row) ->
           ( r.Eval.op,
             [
               ("native_cycles", r.Eval.native_cycles);
               ("erebor_cycles", r.Eval.erebor_cycles);
             ] ))
         (Eval.table4 ()))
  in
  (* Backend pinning: the committed anchors were calibrated under the PKS
     backend, so the gate holds two invariants — the default install still
     IS PKS, and an explicitly-PKS machine reproduces the default anchors
     byte for byte. A backend-default change (or a PKS backend that drifted
     from the historical inline behaviour) fails here even if the default
     anchors above still happen to match. *)
  let backend_pin =
    let default_kind =
      let m =
        Sim.Machine.create ~frames:16384 ~cma_frames:1024
          ~setting:Sim.Config.Erebor_full ()
      in
      let monitor =
        Erebor.Sandbox.manager_monitor (Option.get (Sim.Machine.manager m))
      in
      Erebor.Isolation.kind_name
        (Erebor.Isolation.kind (Erebor.Monitor.backend monitor))
    in
    let default_check =
      chk ~old_value:"pks" ~new_value:default_kind "backend/default"
        (default_kind = "pks")
        (if default_kind = "pks" then "default install is pks"
         else "default isolation backend is no longer pks")
    in
    let pks_t3 =
      pin_checks "table3"
        ~key:(fun (r : Eval.transition_row) -> r.Eval.transition)
        ~cycles:(fun r -> r.Eval.cycles)
        (Eval.table3 ())
        (Eval.table3 ~backend:Erebor.Isolation.Pks ())
    in
    let pks_t4 =
      pin_checks "table4"
        ~key:(fun (r : Eval.privop_row) -> r.Eval.op)
        ~cycles:(fun r -> r.Eval.erebor_cycles)
        (Eval.table4 ())
        (Eval.table4 ~backend:Erebor.Isolation.Pks ())
    in
    (default_check :: pks_t3) @ pks_t4
  in
  let f9 = if fig9 then fig9_checks ~baseline else [] in
  let cpu = Sys.time () -. cpu0 in
  let minor = Gc.minor_words () -. minor0 in
  let wall =
    match Json.to_float (Json.member "total_wall_s" baseline) with
    | None -> chk "wall" true "no baseline wall time"
    | Some base ->
        budget_check "wall" ~what:"regeneration cpu"
          ~render:(Printf.sprintf "%.3fs")
          ~tolerance:wall_tolerance ~base cpu
  in
  (* Minor AND major words are bounded against the committed full-suite
     totals: the anchor regeneration allocates a small fraction of either,
     so a pass leaves generous slack while still catching an accidental
     order-of-magnitude allocation regression on the hot paths. *)
  let major = (Gc.quick_stat ()).Gc.major_words -. major0 in
  let gc_bound label words =
    match
      Json.to_float (Json.mem_of (label ^ "_words") (Json.member "gc" baseline))
    with
    | None -> chk ("gc-" ^ label) true "no baseline GC stats"
    | Some base ->
        budget_check ("gc-" ^ label) ~what:("regeneration " ^ label)
          ~render:(Printf.sprintf "%.0f words")
          ~tolerance:gc_tolerance ~base words
  in
  (schema :: t3) @ t4 @ backend_pin @ f9
  @ [ wall; gc_bound "minor" minor; gc_bound "major" major ]

let parse_baseline json =
  Result.map_error (fun e -> "baseline JSON: " ^ e) (Json.parse json)

let check_string ?fig9 ?wall_tolerance ?gc_tolerance json =
  Result.map
    (check_json ?fig9 ?wall_tolerance ?gc_tolerance)
    (parse_baseline json)

let read_baseline path =
  match In_channel.with_open_bin path In_channel.input_all with
  | json -> parse_baseline json
  | exception Sys_error e -> Result.Error e

let check_file ?fig9 ?wall_tolerance ?gc_tolerance ~path () =
  Result.map (check_json ?fig9 ?wall_tolerance ?gc_tolerance)
    (read_baseline path)

(* Anchor verification against a flight recording: the journal's Run-span
   slice must reproduce the baseline's Fig. 9 rate row for the (workload,
   setting) pair named in its header. The rates are recomputed exactly the
   way the live path computes them — event counts between the Run span
   markers over [Hw.Cycles.to_seconds end - Hw.Cycles.to_seconds begin],
   the same float expression [Sim.Stats.diff] produces — so a journal of an
   undisturbed run matches the committed row to the last %.2f digit. *)
let check_journal ~journal baseline =
  match Obs.Journal.read_info ~path:journal with
  | Result.Error e -> [ chk "journal/read" false e ]
  | Result.Ok info -> (
      let complete =
        chk "journal/complete" info.Obs.Journal.complete
          (if info.Obs.Journal.complete then
             Printf.sprintf "finalized, %d events in %d segments"
               info.Obs.Journal.events info.Obs.Journal.segments
           else "journal not finalized (truncated tail)")
      in
      let meta k = List.assoc_opt k info.Obs.Journal.meta in
      match (meta "workload", meta "setting") with
      | None, _ | _, None ->
          [
            complete;
            chk "journal/meta" false
              "header lacks workload/setting metadata (record with \
               erebor-sim run --record)";
          ]
      | Some program, Some setting -> (
          (* One streaming pass: find the Run span window on whichever
             stream opens it first and count the exit kinds inside it. *)
          let in_run = ref false and done_run = ref false in
          let run_stream = ref (-1) in
          let t0 = ref 0 and t1 = ref 0 in
          let pf = ref 0 and ti = ref 0 and ve = ref 0 and emc = ref 0 in
          let scan =
            Obs.Journal.fold ~path:journal ~init:()
              (fun () (e : Obs.Journal.event) ->
                match e.Obs.Journal.kind with
                | Obs.Trace.Span_begin Obs.Trace.Run
                  when (not !in_run) && not !done_run ->
                    in_run := true;
                    run_stream := e.Obs.Journal.stream;
                    t0 := e.Obs.Journal.ts
                | Obs.Trace.Span_end Obs.Trace.Run
                  when !in_run && e.Obs.Journal.stream = !run_stream ->
                    in_run := false;
                    done_run := true;
                    t1 := e.Obs.Journal.ts
                | k when !in_run && e.Obs.Journal.stream = !run_stream -> (
                    match k with
                    | Obs.Trace.Page_fault -> incr pf
                    | Obs.Trace.Timer_irq -> incr ti
                    | Obs.Trace.Ve_exit -> incr ve
                    | Obs.Trace.Emc_entry -> incr emc
                    | _ -> ())
                | _ -> ())
          in
          match scan with
          | Result.Error e -> [ complete; chk "journal/read" false e ]
          | Result.Ok ((), _) ->
              if not !done_run then
                [
                  complete;
                  chk "journal/run-span" false
                    "no complete Run span in the recording";
                ]
              else
                let span =
                  chk "journal/run-span" true
                    (Printf.sprintf "%s @ %s, run window %d..%d cycles"
                       program setting !t0 !t1)
                in
                (* Reproduce Sim.Stats.diff's float math bit for bit. *)
                let seconds =
                  Hw.Cycles.to_seconds !t1 -. Hw.Cycles.to_seconds !t0
                in
                let rate n =
                  if seconds <= 0.0 then 0.0 else float_of_int n /. seconds
                in
                let row =
                  List.find_opt
                    (fun r ->
                      str_key "program" r = Some program
                      && str_key "setting" r = Some setting)
                    (Json.to_arr (Json.member "fig9" baseline))
                in
                let rates =
                  match row with
                  | None ->
                      [
                        chk "journal/fig9-row" false
                          (Printf.sprintf
                             "baseline has no fig9 row for %s @ %s" program
                             setting);
                      ]
                  | Some row ->
                      List.map
                        (fun (field, n) ->
                          field_check ~source:"recording"
                            ~render:(fig9_field field) ("journal/" ^ field)
                            row field
                            (fig9_field field (rate n)))
                        [
                          ("pf_rate", !pf);
                          ("timer_rate", !ti);
                          ("ve_rate", !ve);
                          ("emc_rate", !emc);
                        ]
                in
                complete :: span :: rates))

let check_journal_file ~journal ~path () =
  Result.map (check_journal ~journal) (read_baseline path)

(* A minimal baseline covering just the exact anchors, regenerated from the
   current build — lets tests exercise the gate (and seed mismatches into
   it) without the committed file. *)
let render_anchors ?instrument () =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n  \"schema\": \"erebor-bench-sim/1\",\n  \"table3\": [\n";
  let t3 = Eval.table3 ?instrument () in
  List.iteri
    (fun i (r : Eval.transition_row) ->
      Printf.bprintf buf "    { \"transition\": \"%s\", \"cycles\": %d }%s\n"
        r.Eval.transition r.Eval.cycles
        (if i = List.length t3 - 1 then "" else ","))
    t3;
  Buffer.add_string buf "  ],\n  \"table4\": [\n";
  let t4 = Eval.table4 ?instrument () in
  List.iteri
    (fun i (r : Eval.privop_row) ->
      Printf.bprintf buf
        "    { \"op\": \"%s\", \"native_cycles\": %d, \"erebor_cycles\": %d }%s\n"
        r.Eval.op r.Eval.native_cycles r.Eval.erebor_cycles
        (if i = List.length t4 - 1 then "" else ","))
    t4;
  Buffer.add_string buf "  ]\n}\n";
  Buffer.contents buf

(* {2 Checks of the experiment gates} *)

(* Span-accounting conservation, one check per attribution row: the
   per-context cycles plus (outside) must sum exactly to the total. *)
let attrib_checks rows =
  List.map
    (fun (r : Eval.attrib_row) ->
      let attributed =
        List.fold_left (fun acc (_, _, c) -> acc + c) 0 r.Eval.contexts
      in
      let sum = attributed + r.Eval.unattributed_cycles in
      chk
        ~old_value:(string_of_int r.Eval.total_cycles)
        ~new_value:(string_of_int sum)
        (Printf.sprintf "attrib/%s:%s/conservation" r.Eval.aprogram
           (Sim.Config.name r.Eval.asetting))
        (sum = r.Eval.total_cycles)
        (Printf.sprintf "%d attributed + %d outside %s %d total" attributed
           r.Eval.unattributed_cycles
           (if sum = r.Eval.total_cycles then "=" else "<>")
           r.Eval.total_cycles))
    rows

(* Rank ceil(p * n), 1-based over a sorted array (0 when empty): the
   nearest-rank order statistic Sketch.quantile targets. *)
let nearest_rank sorted ~p =
  match Array.length sorted with
  | 0 -> 0
  | n ->
      let idx = int_of_float (Float.ceil (p *. float_of_int n)) in
      sorted.(max 0 (min (n - 1) (idx - 1)))

(* {2 Shared telemetry-gate checks} *)

(* [Gc.minor_words] boxes its own result, so two back-to-back calls differ
   by a small constant; calibrate it out so the check can demand an exact
   zero. *)
let minor_probe_overhead () =
  let a = Gc.minor_words () in
  let b = Gc.minor_words () in
  b -. a

let zero_alloc_check ~name ~n ~unit_ ~what record =
  let probe = minor_probe_overhead () in
  let m0 = Gc.minor_words () in
  for i = 0 to n - 1 do
    record i
  done;
  let dw = Gc.minor_words () -. m0 -. probe in
  chk
    ~old_value:(Printf.sprintf "0.0 words/%s" unit_)
    ~new_value:(Printf.sprintf "%.4f words/%s" (dw /. float_of_int n) unit_)
    name (dw = 0.0)
    (Printf.sprintf "%.0f minor words across %d %s" dw n what)
