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
  let to_int j = Option.map int_of_float (to_float j)
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
    let w_name =
      List.fold_left (fun w c -> max w (String.length c.name)) 24 fails
    in
    let w_old =
      List.fold_left
        (fun w c -> max w (String.length (cell c.old_value)))
        (String.length "old (baseline)") fails
    in
    let w_new =
      List.fold_left
        (fun w c -> max w (String.length (cell c.new_value)))
        (String.length "new (regenerated)") fails
    in
    Format.fprintf fmt "  %-*s  %-*s  %-*s@." w_name "check" w_old
      "old (baseline)" w_new "new (regenerated)";
    Format.fprintf fmt "  %s  %s  %s@." (String.make w_name '-')
      (String.make w_old '-') (String.make w_new '-');
    List.iter
      (fun c ->
        Format.fprintf fmt "  %-*s  %-*s  %-*s@." w_name c.name w_old
          (cell c.old_value) w_new (cell c.new_value);
        if c.old_value = None && c.new_value = None then
          Format.fprintf fmt "  %-*s    %s@." w_name "" c.detail)
      fails
  end

(* One check per anchor: [probe] extracts the baseline row's identity and
   expectation, [current] the regenerated value. *)
let anchor_checks ~family ~baseline_rows ~key_field ~current ~fields =
  let seen = ref [] in
  let row_checks =
    List.concat_map
      (fun row ->
        match Json.to_str (Json.member key_field row) with
        | None ->
            [ chk family false ("baseline row without " ^ key_field) ]
        | Some key -> (
            seen := key :: !seen;
            match List.assoc_opt key current with
            | None ->
                [
                  chk
                    (Printf.sprintf "%s/%s" family key)
                    false "anchor present in baseline but not regenerated";
                ]
            | Some cur_fields ->
                List.map
                  (fun (field, cur_value) ->
                    let name = Printf.sprintf "%s/%s.%s" family key field in
                    match Json.to_int (Json.member field row) with
                    | None ->
                        chk ~new_value:(string_of_int cur_value) name false
                          "missing in baseline"
                    | Some base_value ->
                        let old_value = string_of_int base_value in
                        let new_value = string_of_int cur_value in
                        if base_value = cur_value then
                          chk ~old_value ~new_value name true new_value
                        else
                          chk ~old_value ~new_value name false
                            (Printf.sprintf "baseline %d, regenerated %d"
                               base_value cur_value))
                  (List.filter
                     (fun (f, _) -> List.mem f fields)
                     cur_fields)))
      baseline_rows
  in
  let coverage =
    let missing =
      List.filter (fun (key, _) -> not (List.mem key !seen)) current
    in
    match missing with
    | [] ->
        chk (family ^ "/coverage") true
          (Printf.sprintf "%d anchors" (List.length current))
    | m ->
        chk (family ^ "/coverage") false
          ("regenerated anchors missing from baseline: "
          ^ String.concat ", " (List.map fst m))
  in
  row_checks @ [ coverage ]

let fig9_checks ~baseline ~jobs =
  let rows = Eval.fig9 ?jobs () in
  let current =
    List.map
      (fun (r : Eval.program_row) ->
        ( (r.Eval.program, Sim.Config.name r.Eval.setting),
          [
            ("overhead_pct", Printf.sprintf "%.4f" r.Eval.overhead_pct);
            ("pf_rate", Printf.sprintf "%.2f" r.Eval.pf_rate);
            ("timer_rate", Printf.sprintf "%.2f" r.Eval.timer_rate);
            ("ve_rate", Printf.sprintf "%.2f" r.Eval.ve_rate);
            ("emc_rate", Printf.sprintf "%.2f" r.Eval.emc_rate);
          ] ))
      rows
  in
  let fmt_of field = if field = "overhead_pct" then format_of_string "%.4f" else format_of_string "%.2f" in
  List.concat_map
    (fun row ->
      let key =
        ( Option.value ~default:"?" (Json.to_str (Json.member "program" row)),
          Option.value ~default:"?" (Json.to_str (Json.member "setting" row)) )
      in
      let label = Printf.sprintf "fig9/%s:%s" (fst key) (snd key) in
      match List.assoc_opt key current with
      | None -> [ chk label false "row not regenerated" ]
      | Some fields ->
          List.map
            (fun (field, cur) ->
              let name = Printf.sprintf "%s.%s" label field in
              match Json.to_float (Json.member field row) with
              | None -> chk ~new_value:cur name false "missing in baseline"
              | Some base ->
                  let base = Printf.sprintf (fmt_of field) base in
                  if base = cur then
                    chk ~old_value:base ~new_value:cur name true cur
                  else
                    chk ~old_value:base ~new_value:cur name false
                      (Printf.sprintf "baseline %s, regenerated %s" base cur))
            fields)
    (Json.to_arr (Json.member "fig9" baseline))

let check_json ?(fig9 = false) ?jobs ?(wall_tolerance = 1.5)
    ?(gc_tolerance = 0.5) baseline =
  let cpu0 = Sys.time () in
  let minor0 = Gc.minor_words () in
  let major0 = (Gc.quick_stat ()).Gc.major_words in
  let schema =
    match Json.to_str (Json.member "schema" baseline) with
    | Some "erebor-bench-sim/1" ->
        chk ~old_value:"erebor-bench-sim/1" ~new_value:"erebor-bench-sim/1"
          "schema" true "erebor-bench-sim/1"
    | Some other ->
        chk ~old_value:other ~new_value:"erebor-bench-sim/1" "schema" false
          ("unknown schema " ^ other)
    | None ->
        chk ~new_value:"erebor-bench-sim/1" "schema" false
          "missing schema field"
  in
  let t3 =
    anchor_checks ~family:"table3"
      ~baseline_rows:(Json.to_arr (Json.member "table3" baseline))
      ~key_field:"transition"
      ~current:
        (List.map
           (fun (r : Eval.transition_row) ->
             (r.Eval.transition, [ ("cycles", r.Eval.cycles) ]))
           (Eval.table3 ()))
      ~fields:[ "cycles" ]
  in
  let t4 =
    anchor_checks ~family:"table4"
      ~baseline_rows:(Json.to_arr (Json.member "table4" baseline))
      ~key_field:"op"
      ~current:
        (List.map
           (fun (r : Eval.privop_row) ->
             ( r.Eval.op,
               [
                 ("native_cycles", r.Eval.native_cycles);
                 ("erebor_cycles", r.Eval.erebor_cycles);
               ] ))
           (Eval.table4 ()))
      ~fields:[ "native_cycles"; "erebor_cycles" ]
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
      List.map2
        (fun (d : Eval.transition_row) (p : Eval.transition_row) ->
          let name = Printf.sprintf "backend/table3-pks/%s" d.Eval.transition in
          chk
            ~old_value:(string_of_int d.Eval.cycles)
            ~new_value:(string_of_int p.Eval.cycles)
            name
            (d.Eval.cycles = p.Eval.cycles)
            (Printf.sprintf "default %d, explicit pks %d" d.Eval.cycles
               p.Eval.cycles))
        (Eval.table3 ())
        (Eval.table3 ~backend:Erebor.Isolation.Pks ())
    in
    let pks_t4 =
      List.map2
        (fun (d : Eval.privop_row) (p : Eval.privop_row) ->
          let name = Printf.sprintf "backend/table4-pks/%s" d.Eval.op in
          chk
            ~old_value:(string_of_int d.Eval.erebor_cycles)
            ~new_value:(string_of_int p.Eval.erebor_cycles)
            name
            (d.Eval.erebor_cycles = p.Eval.erebor_cycles)
            (Printf.sprintf "default %d, explicit pks %d" d.Eval.erebor_cycles
               p.Eval.erebor_cycles))
        (Eval.table4 ())
        (Eval.table4 ~backend:Erebor.Isolation.Pks ())
    in
    (default_check :: pks_t3) @ pks_t4
  in
  let f9 = if fig9 then fig9_checks ~baseline ~jobs else [] in
  let cpu = Sys.time () -. cpu0 in
  let minor = Gc.minor_words () -. minor0 in
  let wall =
    match Json.to_float (Json.member "total_wall_s" baseline) with
    | None -> [ chk "wall" true "no baseline wall time" ]
    | Some base ->
        let budget = wall_tolerance *. base in
        [
          chk
            ~old_value:(Printf.sprintf "budget %.3fs" budget)
            ~new_value:(Printf.sprintf "%.3fs cpu" cpu)
            "wall" (cpu <= budget)
            (Printf.sprintf
               "regeneration %.3fs cpu, budget %.3fs (%.1fx baseline suite)"
               cpu budget wall_tolerance);
        ]
  in
  (* Minor AND major words are bounded against the committed full-suite
     totals: the anchor regeneration allocates a small fraction of either,
     so a pass leaves generous slack while still catching an accidental
     order-of-magnitude allocation regression on the hot paths. *)
  let major = (Gc.quick_stat ()).Gc.major_words -. major0 in
  let gc_bound label words =
    match Json.to_float (Json.mem_of (label ^ "_words") (Json.member "gc" baseline)) with
    | None -> [ chk ("gc-" ^ label) true "no baseline GC stats" ]
    | Some base ->
        let budget = gc_tolerance *. base in
        [
          chk
            ~old_value:(Printf.sprintf "budget %.0f words" budget)
            ~new_value:(Printf.sprintf "%.0f %s words" words label)
            ("gc-" ^ label) (words <= budget)
            (Printf.sprintf
               "regeneration %.0f %s words, budget %.0f (%.1fx baseline suite)"
               words label budget gc_tolerance);
        ]
  in
  (schema :: t3) @ t4 @ backend_pin @ f9 @ wall
  @ gc_bound "minor" minor @ gc_bound "major" major

let check_string ?fig9 ?jobs ?wall_tolerance ?gc_tolerance json =
  match Json.parse json with
  | Result.Error e -> Result.Error ("baseline JSON: " ^ e)
  | Result.Ok baseline ->
      Result.Ok (check_json ?fig9 ?jobs ?wall_tolerance ?gc_tolerance baseline)

let check_file ?fig9 ?jobs ?wall_tolerance ?gc_tolerance ~path () =
  match In_channel.with_open_bin path In_channel.input_all with
  | json -> check_string ?fig9 ?jobs ?wall_tolerance ?gc_tolerance json
  | exception Sys_error e -> Result.Error e

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
                      Json.to_str (Json.member "program" r) = Some program
                      && Json.to_str (Json.member "setting" r) = Some setting)
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
                          let name = Printf.sprintf "journal/%s" field in
                          let cur = Printf.sprintf "%.2f" (rate n) in
                          match Json.to_float (Json.member field row) with
                          | None ->
                              chk ~new_value:cur name false
                                "missing in baseline"
                          | Some base ->
                              let base = Printf.sprintf "%.2f" base in
                              if base = cur then
                                chk ~old_value:base ~new_value:cur name true
                                  cur
                              else
                                chk ~old_value:base ~new_value:cur name false
                                  (Printf.sprintf
                                     "baseline %s/s, recording %s/s" base cur))
                        [
                          ("pf_rate", !pf);
                          ("timer_rate", !ti);
                          ("ve_rate", !ve);
                          ("emc_rate", !emc);
                        ]
                in
                complete :: span :: rates))

let check_journal_file ~journal ~path () =
  match In_channel.with_open_bin path In_channel.input_all with
  | json -> (
      match Json.parse json with
      | Result.Error e -> Result.Error ("baseline JSON: " ^ e)
      | Result.Ok baseline -> Result.Ok (check_journal ~journal baseline))
  | exception Sys_error e -> Result.Error e

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

(* {2 Shared telemetry-gate checks} *)

let rm path = try Sys.remove path with Sys_error _ -> ()

let anchors_check ~name ~sink ~changed ~instrument ~observed =
  let plain = render_anchors () in
  let recorded = render_anchors ~instrument () in
  let seen = observed () in
  chk name (plain = recorded)
    (if plain = recorded then
       Printf.sprintf "Table 3/4 anchors byte-identical with %s attached (%s)"
         sink seen
     else Printf.sprintf "anchor document CHANGED with %s attached" changed)

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
